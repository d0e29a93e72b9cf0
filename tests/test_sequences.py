import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awalk.errors import DomainError, PreconditionError, UnsupportedVariantError
from awalk.sequences import (BlockIndex, Constant, Explicit, GeneralBlocks,
                             LogCeilBlocks, LogContinuous, Linear, PowerFloor,
                             block_start, checkpoint_index, integer_nth_root,
                             parse_spec, prefix_sum_squares, tcond_check)

ALL_TEXTS = ["constant:1", "constant:2.5", "linear", "powfloor:0.5", "powfloor:0.8",
             "logceil:2", "logceil:1.5", "blocks:pow2", "blocks:one", "blocks:1,2,4,8",
             "logcont:1.4426950408889634", "explicit:1,2,3,5,8", "explicit:0.5,1.25"]


def test_term_examples():
    assert PowerFloor(0.5).term(4) == 2
    assert GeneralBlocks("pow2").term(5) == 2  # matches floor(log2(5+1))
    assert Linear().term(7) == 7


def test_powfloor_exact_boundaries():
    # 32**0.8 = 16 and 243**0.8 = 81 exactly; float pow must not spoil them
    assert PowerFloor(0.8).term(32) == 16
    assert PowerFloor(0.8).term(243) == 81
    assert PowerFloor(0.8).term(31) == 15
    assert PowerFloor(0.5).term(10 ** 12) == 10 ** 6


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    for x in [0, 1, 7, 2 ** 40, 3 ** 33, 10 ** 30 + 12345]:
        for r in (1, 2, 3, 5):
            v = integer_nth_root(x, r)
            assert v ** r <= x < (v + 1) ** r


def test_prefix_sum_squares_examples():
    assert prefix_sum_squares(Constant(1), 4) == 4
    assert prefix_sum_squares(Linear(), 3) == 14
    # direct summation oracle
    spec = PowerFloor(0.5)
    assert prefix_sum_squares(spec, 5) == sum(spec.term(k) ** 2 for k in range(1, 6)) == 11


def test_block_start_examples():
    assert block_start(GeneralBlocks("pow2"), 3) == BlockIndex(3, 7, 8)
    assert block_start(GeneralBlocks("one"), 5) == BlockIndex(5, 5, 1)
    bi = block_start(LogContinuous(1.4426950408889634), 4)
    assert bi.first == 16
    with pytest.raises(UnsupportedVariantError):
        block_start(Linear(), 1)


def test_logceil_structure():
    spec = LogCeilBlocks(2)
    assert spec.first_index == 2
    assert [spec.term(k) for k in range(2, 10)] == [1, 2, 2, 3, 3, 3, 3, 4]
    with pytest.raises(DomainError):
        spec.term(1)
    # blocks partition the index range
    for m in range(1, 8):
        first, length = spec.block(m)
        for i in (first, first + length - 1):
            assert spec.term(i) == m


def test_logcont_start_index():
    spec = LogContinuous(2.0)
    with pytest.raises(DomainError):
        spec.term(1)
    assert spec.term(2) == pytest.approx(2.0 * math.log(2))
    assert spec.terms(5).shape == (4,)
    assert prefix_sum_squares(spec, 1) == 0.0


def test_checkpoint_index_examples():
    assert checkpoint_index(2, "odd") == 1
    assert checkpoint_index(3, "even") == 2
    assert checkpoint_index(10, "odd") == 23


@pytest.mark.parametrize("m", range(2, 400))
def test_checkpoint_index_invariants(m):
    # the odd form rounds up (within 1 of m*ln m); the even form rounds down
    # and can land up to 2 below
    for parity, rem, slack in (("odd", 1, 1.0), ("even", 0, 2.0)):
        k = checkpoint_index(m, parity)
        assert k % 2 == rem
        assert abs(k - m * math.log(m)) <= slack + 1e-9


def test_explicit_bounds():
    spec = Explicit([1, 2, 3])
    assert spec.term(3) == 3
    with pytest.raises(DomainError):
        spec.term(4)
    with pytest.raises(DomainError):
        spec.term(0)
    with pytest.raises(DomainError):
        Explicit([1, -2])


def test_parse_canonical_roundtrip():
    for text in ALL_TEXTS:
        spec = parse_spec(text)
        again = parse_spec(spec.canonical())
        assert again.canonical() == spec.canonical()
        n = min(spec.max_index or 12, 12)
        assert [again.term(k) for k in range(spec.first_index, n + 1)] == \
               [spec.term(k) for k in range(spec.first_index, n + 1)]


def test_parse_errors():
    for bad in ["wat", "powfloor:0", "powfloor:1.5", "logceil:1", "constant:-1",
                "blocks:nosuchrule", "explicit:", "logcont:0"]:
        with pytest.raises(PreconditionError):
            parse_spec(bad)


def test_terms_matches_term_pointwise():
    for text in ALL_TEXTS:
        spec = parse_spec(text)
        n = min(spec.max_index or 200, 200)
        arr = spec.terms(n)
        ks = range(spec.first_index, n + 1)
        assert len(arr) == len(list(ks))
        for k, v in zip(ks, arr):
            assert float(v) == pytest.approx(float(spec.term(k)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_TEXTS), st.integers(1, 500))
def test_monotone_variants(text, k):
    spec = parse_spec(text)
    if not spec.is_non_decreasing:
        return
    k = max(k, spec.first_index)
    if spec.max_index is not None and k + 1 > spec.max_index:
        return
    assert spec.term(k + 1) >= spec.term(k)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["blocks:pow2", "blocks:one", "blocks:2,3,4,5", "logceil:2",
                        "logceil:1.5"]),
       st.integers(1, 8))
def test_block_consistency(text, k):
    spec = parse_spec(text)
    try:
        bi = block_start(spec, k)
        nxt = block_start(spec, k + 1)
    except DomainError:
        return
    assert nxt.first == bi.first + bi.length
    if bi.length > 0:  # narrow growth bases can skip a value entirely
        assert spec.term(bi.first) == k
        assert spec.term(bi.first + bi.length - 1) == k


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_TEXTS), st.integers(1, 60))
def test_prefix_sum_squares_increasing(text, n):
    spec = parse_spec(text)
    if spec.max_index is not None and n + 1 > spec.max_index:
        return
    n = max(n, spec.first_index)
    assert prefix_sum_squares(spec, n + 1) > prefix_sum_squares(spec, n)


def test_tcond_pow2_passes():
    rep = tcond_check("pow2", 0.1, 0.4, 20, 200)
    assert rep.passed and rep.first_violation is None and rep.pairs_checked > 0


def test_tcond_unit_lengths_fail_fast():
    rep = tcond_check("one", 0.1, 0.4, 20, 50)
    assert not rep.passed
    v = rep.first_violation
    assert v.k == 20 and v.condition == "min-length" and v.k_prime is None


def test_tcond_log_blocks_pass():
    # lengths of the value-m run of floor(log2 k): L_m = 2^m
    rep = tcond_check(lambda m: 2 ** m, 0.1, 0.4, 25, 120)
    assert rep.passed


@pytest.mark.parametrize("lengths", [[1, 2, 0, 5, 6],  # a non-positive length
                                     [1, 2, 3],  # fewer lengths than k_max
                                     lambda k: 0])  # a rule that returns 0
def test_tcond_rejects_bad_lengths(lengths):
    with pytest.raises(DomainError):
        tcond_check(lengths, 0.1, 0.4, 3, 5)


def test_tcond_extensible_rule():
    from awalk.sequences import register_length_rule
    register_length_rule("testquartic", lambda k: k ** 4 + 1)
    spec = GeneralBlocks("testquartic")
    assert spec.length(3) == 82
    rep = tcond_check("testquartic", 0.1, 0.4, 20, 60)
    # prefix sums of k^4 grow like k^5/5, so the prefix-ratio condition fails
    assert not rep.passed


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=30))
def test_parse_garbage_raises_cleanly(text):
    # arbitrary input either parses or raises the precondition error, never
    # an unrelated exception
    try:
        spec = parse_spec(text)
    except PreconditionError:
        return
    assert spec.canonical()


def test_general_blocks_explicit_lengths():
    spec = GeneralBlocks([2, 1, 3])
    assert [spec.term(i) for i in range(1, 7)] == [1, 1, 2, 3, 3, 3]
    assert spec.max_index == 6
    with pytest.raises(DomainError):
        spec.term(7)
