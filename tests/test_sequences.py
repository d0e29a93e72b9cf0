import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awalk.errors import DomainError, PreconditionError
from awalk.montecarlo import default_checkpoints
from awalk.sequences import (Constant, Explicit, GeneralBlocks, LogCeilBlocks,
                             LogContinuous, Linear, PowerFloor, integer_nth_root,
                             parse_spec, register_length_rule, sum_squares_exact)

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
    assert sum_squares_exact(Constant(1), 4) == 4
    assert sum_squares_exact(Linear(), 3) == 14
    # direct summation oracle
    spec = PowerFloor(0.5)
    assert sum_squares_exact(spec, 5) == sum(spec.term(k) ** 2 for k in range(1, 6)) == 11


def test_block_start_examples():
    spec = GeneralBlocks("pow2")
    assert (spec.start(3), spec.length(3)) == (7, 8)
    spec = GeneralBlocks("one")
    assert (spec.start(5), spec.length(5)) == (5, 1)
    assert LogCeilBlocks(2).block(4) == (9, 8)


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


# The checkpoint indices an experiment snapshots when none are given: n/100,
# n/10 and n, each raised to the walk's first index.

def test_checkpoint_index_examples():
    assert default_checkpoints(1000, 1) == [10, 100, 1000]
    assert default_checkpoints(50, 2) == [2, 5, 50]
    assert default_checkpoints(5, 1) == [1, 5]
    assert default_checkpoints(2, 2) == [2]


@pytest.mark.parametrize("m", range(2, 400))
def test_checkpoint_index_invariants(m):
    for first in (1, 2):
        cps = default_checkpoints(m, first)
        assert cps == sorted(set(cps)) and len(cps) <= 3 and cps[-1] == m
        assert first <= cps[0] <= max(first, m // 10)


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
    # the run bookkeeping behind value_runs: run k ends where run k + 1 starts
    spec = parse_spec(text)
    try:
        if isinstance(spec, LogCeilBlocks):
            (first, length), (nxt, _) = spec.block(k), spec.block(k + 1)
        else:
            first, length, nxt = spec.start(k), spec.length(k), spec.start(k + 1)
    except DomainError:
        return
    assert nxt == first + length
    if length > 0:  # narrow growth bases can skip a value entirely
        assert spec.term(first) == k
        assert spec.term(first + length - 1) == k


INTEGER_TEXTS = [t for t in ALL_TEXTS if parse_spec(t).is_integer_valued]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(INTEGER_TEXTS), st.integers(1, 60))
def test_prefix_sum_squares_increasing(text, n):
    spec = parse_spec(text)
    if spec.max_index is not None and n + 1 > spec.max_index:
        return
    n = max(n, spec.first_index)
    assert sum_squares_exact(spec, n + 1) > sum_squares_exact(spec, n)


@pytest.mark.parametrize("lengths", [[1, 2, 0, 5, 6],  # a non-positive length
                                     [1, 2, 3],  # fewer lengths than asked for
                                     lambda k: 0])  # a rule that returns 0
def test_block_lengths_must_be_positive(lengths):
    with pytest.raises(DomainError):
        spec = GeneralBlocks(lengths)
        for k in range(1, 6):
            spec.length(k)


def test_registered_length_rule():
    register_length_rule("testquartic", lambda k: k ** 4 + 1)
    assert parse_spec("blocks:testquartic").length(3) == 82


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


RANGE_TEXTS = ALL_TEXTS + ["powfloor:0.9", "powfloor:1", "blocks:k4lnk", "constant:0.7",
                           "explicit:3,1,2,2,7,7,7,8,9,10,11,12,13,14,15,16,1"]


def _expand(runs):
    return [v + d * i for v, d, m in runs for i in range(m)]


@pytest.mark.parametrize("text", RANGE_TEXTS)
def test_range_terms_equal_the_whole_horizon_terms(text):
    # any range's runs and terms are those entries of terms(n), bit for bit
    spec = parse_spec(text)
    first = spec.first_index
    n = spec.max_index or 3000
    whole = spec.terms(n)
    gen = random.Random(text)
    for _ in range(150):
        a = gen.randrange(first, n + 2)
        b = gen.randrange(a, n + 2)
        part = spec.terms_between(a, b)
        assert part.dtype == whole.dtype
        assert part.tobytes() == whole[a - first:b - first].tobytes(), (a, b)
        runs = spec.runs(a, b)
        assert all(m > 0 for _, _, m in runs) and _expand(runs) == part.tolist()
    if spec.is_integer_valued:
        assert sum_squares_exact(spec, n) == sum(int(v) ** 2 for v in whole)
    with pytest.raises(DomainError):
        spec.runs(first - 1, first)


def test_linear_is_one_arithmetic_run():
    assert Linear().runs(5, 10 ** 12) == [(5, 1, 10 ** 12 - 5)]
    assert sum_squares_exact(Linear(), 10 ** 9) == 10 ** 9 * (10 ** 9 + 1) * (2 * 10 ** 9 + 1) // 6
    assert len(LogCeilBlocks(2).runs(2, 10 ** 9 + 1)) == 30


def test_logcont_range_terms_across_segment_ends():
    # np.log is elementwise: ranges of any length and offset, near and across
    # multiples of 2^16 steps (the real walk's segment ends), give the bits
    # of the whole horizon
    spec = parse_spec("logcont:1.4426950408889634")
    n = 3 * (1 << 16) + 77
    whole = spec.c * np.log(np.arange(2, n + 1, dtype=np.float64))  # in one call
    assert spec.terms(n).tobytes() == whole.tobytes()
    gen = random.Random(5)
    edges = [2 + e + o for e in range(0, n, 1 << 16) for o in (-9, -1, 0, 1, 7)]
    for _ in range(300):
        a = max(2, min(n + 1, gen.choice(edges) + gen.randrange(-3, 4)))
        b = min(n + 1, a + gen.choice([1, 2, 7, 8, 9, 63, 1000, 1 << 16, gen.randrange(1, 200_000)]))
        assert spec.terms_between(a, b).tobytes() == whole[a - 2:b - 2].tobytes(), (a, b)


def test_logcont_term_and_value_runs_read_the_walk_bits():
    # the spectral layer's values (`value_runs`) and `term` are the walk's
    # terms bit for bit (c * math.log(k) rounds 2 of them apart with glibc)
    spec = parse_spec("logcont:1.4426950408889634")
    n = 10 ** 5
    terms = spec.terms(n).tolist()
    assert [spec.term(k) for k in range(2, n + 1)] == terms
    assert spec.value_runs(n) == [(v, 1) for v in terms]
