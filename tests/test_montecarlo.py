import itertools
import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from awalk import exact, montecarlo as mc
from awalk.cli import main
from awalk.errors import DomainError, PreconditionError, ResourceError
from awalk.reports import write_json
from awalk.sequences import (Constant, Explicit, GeneralBlocks, Linear, LogCeilBlocks,
                             LogContinuous, PowerFloor, SequenceSpec, parse_spec,
                             sum_squares_exact)
from conftest import (SignSource, band_avoidance_block_estimate, bridge_touch,
                      enumerate_sign_change_counts, first_hit_probability,
                      floor_sqrt_runs, killed_walk_survival, path_signs, simulate_signs,
                      strict_sign_change_law)


def test_simulate_hand_traces():
    st = simulate_signs(Constant(1), np.array([1, -1], dtype=np.int8))
    assert (st.zero_hits, st.sign_changes, st.max_abs) == (1, 0, 1.0)
    assert st.last_zero_hit == 2 and st.final_value == 0.0

    st = simulate_signs(Linear(), np.array([1, -1, -1], dtype=np.int8))
    assert (st.zero_hits, st.sign_changes) == (0, 1)
    assert st.final_value == -4.0 and st.max_abs == 4.0 and st.last_zero_hit is None


def test_sign_change_zero_handling():
    # +1, 0, +1: no change through the zero; +1, 0, -1: one change
    st = simulate_signs(Constant(1), np.array([1, -1, 1], dtype=np.int8))
    assert st.zero_hits == 1 and st.sign_changes == 0
    st = simulate_signs(Constant(1), np.array([1, -1, -1], dtype=np.int8))
    assert st.zero_hits == 1 and st.sign_changes == 1


def test_band_hits_and_monotonicity():
    st = simulate_signs(Linear(), np.array([1, -1, 1, -1, 1], dtype=np.int8),
                            bands=(0, 2, 4))
    assert st.band_hits[0] <= st.band_hits[2] <= st.band_hits[4]
    assert all(v <= st.steps for v in st.band_hits.values())
    assert st.max_abs >= abs(st.final_value)


def test_checkpoint_snapshots_are_prefixes():
    signs = np.array([1, -1, -1, 1, 1, -1, 1, -1], dtype=np.int8)
    full = simulate_signs(Constant(1), signs, bands=(1,), checkpoints=(4, 8))
    half = simulate_signs(Constant(1), signs[:4], bands=(1,))
    snap = full.checkpoints[0]
    assert snap.at == 4
    assert snap.zero_hits == half.zero_hits
    assert snap.sign_changes == half.sign_changes
    assert snap.band_hits == half.band_hits


def test_simulate_determinism_and_stream_independence():
    spec = parse_spec("powfloor:0.5")
    a = mc.simulate(spec, 3000, mc.RngSpec(7, 3), bands=(0, 2))
    b = mc.simulate(spec, 3000, mc.RngSpec(7, 3), bands=(0, 2))
    assert a == b
    assert a.band_hits[0] <= a.band_hits[2]  # pathwise band monotonicity
    c = mc.simulate(spec, 3000, mc.RngSpec(7, 4), bands=(0, 2))
    assert a != c


def test_simulate_prefix_property():
    # a shorter horizon is an exact prefix of the longer one
    spec = Linear()
    long = mc.simulate(spec, 5000, mc.RngSpec(11, 0), checkpoints=(1000,))
    short = mc.simulate(spec, 1000, mc.RngSpec(11, 0))
    snap = long.checkpoints[0]
    assert snap.zero_hits == short.zero_hits
    assert snap.sign_changes == short.sign_changes


def test_logcont_walk_uses_compensated_accumulation():
    spec = parse_spec("logcont:1.4426950408889634")
    st = mc.simulate(spec, 200_000, mc.RngSpec(5, 1), bands=(3,))
    # signed sum recomputed in exact-ish fsum order for the same signs
    signs = path_signs(mc.RngSpec(5, 1), st.steps)
    ws = spec.terms(200_000)
    want = math.fsum((ws * signs).tolist())
    assert st.final_value == pytest.approx(want, abs=1e-9)


def _step_loop_stats(spec, signs, bands, checkpoints, number=int):
    """The statistics of `PathStats`, one step at a time in Python integers
    (or in `number`, such as `Fraction`, for real weights)."""
    first = spec.first_index
    weights = [number(w) for w in spec.terms(first + len(signs) - 1).tolist()]
    s = zero_hits = changes = last_sign = max_abs = 0
    last_zero = None
    hits = {c: 0 for c in bands}
    last = {c: None for c in bands}
    snaps = []
    for k, (w, x) in enumerate(zip(weights, signs), start=first):
        s += w * int(x)
        if s == 0:
            zero_hits, last_zero = zero_hits + 1, k
        else:
            sign = 1 if s > 0 else -1
            changes += last_sign != 0 and sign != last_sign
            last_sign = sign
        for c in bands:
            if abs(s) <= c:
                hits[c], last[c] = hits[c] + 1, k
        max_abs = max(max_abs, abs(s))
        if k in checkpoints:
            snaps.append((k, zero_hits, changes, dict(hits)))
    return zero_hits, changes, last_zero, float(max_abs), float(s), hits, last, snaps


_INTEGER_SPECS = [
    "linear", "constant:1", "constant:3", "powfloor:0.5", "logceil:2", "blocks:pow2",
    # no byte of 1,2,3,4,1,2,3,4,... is affine
    "explicit:" + ",".join(str(1 + k % 4) for k in range(2000)),
    # every byte is affine, with a step that varies from byte to byte
    "explicit:" + ",".join(str(1 + k // 8 + (k % 8) * (k // 8 % 3)) for k in range(2000))]


def _sign_runs(length: int, seed: int) -> list[int]:
    """`length` signs in runs of 1 to 24 equal signs, so that many whole sign
    bytes are 0x00 or 0xff."""
    gen = np.random.default_rng(seed)
    runs = gen.integers(1, 25, size=length)
    signs = np.repeat(np.where(np.arange(length) % 2 == gen.integers(0, 2), 1, -1), runs)
    return signs[:length].tolist()


_SIGN_RUNS = strategies.builds(_sign_runs, strategies.integers(1, 2000),
                               strategies.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(strategies.sampled_from(_INTEGER_SPECS), _SIGN_RUNS,
       strategies.lists(strategies.sampled_from([0, 1, 2, 2.5, 3, 7]), max_size=3, unique=True),
       # checkpoints anywhere, and often right after a byte's first step
       strategies.lists(strategies.one_of(strategies.integers(0, 1999),
                                          strategies.integers(0, 249).map(lambda b: 8 * b)),
                        max_size=6))
def test_integer_kernel_matches_step_loop(text, signs, bands, offsets):
    spec = parse_spec(text)
    first = spec.first_index
    checkpoints = {first + o % len(signs) for o in offsets}
    got = simulate_signs(spec, np.array(signs, dtype=np.int8), bands=bands,
                         checkpoints=sorted(checkpoints))
    _assert_stats_equal(got, _step_loop_stats(spec, signs, bands, checkpoints))


def _assert_stats_equal(got, want):
    """A `PathStats` against the fields of `_step_loop_stats`."""
    assert (got.zero_hits, got.sign_changes, got.last_zero_hit, got.max_abs,
            got.final_value, got.band_hits, got.last_band_hit) == want[:7]
    assert [(c.at, c.zero_hits, c.sign_changes, c.band_hits)
            for c in got.checkpoints] == want[7]


_REAL_SPECS = ["constant:0.5", "constant:0.25",
               # a cycle of halves and quarters
               "explicit:" + ",".join(str([0.25, 0.5, 1.75, 0.75, 1.5][k % 5])
                                      for k in range(2000))]


@settings(max_examples=60, deadline=None)
@given(strategies.sampled_from(_REAL_SPECS), _SIGN_RUNS,
       strategies.lists(strategies.sampled_from([0, 0.25, 1, 2.5, 7]), max_size=3,
                        unique=True),
       strategies.lists(strategies.integers(0, 1999), max_size=6))
@example("constant:0.5", _sign_runs(70_001, 5), [0, 2.5],
         [0, 65_534, 65_535, 65_536, 70_000])
def test_real_kernel_matches_exact_step_loop(text, signs, bands, offsets):
    # dyadic weights keep every partial sum exact, in float64 and in the
    # real walk's long double, so the statistics must equal those of a walk
    # in rationals; 70,001 steps cross the carry at the 2^16-step segment end
    spec = parse_spec(text)
    first = spec.first_index
    assert not mc._PathKernel(spec.terms(first)).bytewise
    checkpoints = {first + o % len(signs) for o in offsets}
    got = simulate_signs(spec, np.array(signs, dtype=np.int8), bands=bands,
                         checkpoints=sorted(checkpoints))
    _assert_stats_equal(got, _step_loop_stats(spec, signs, bands, checkpoints, Fraction))


def _long_double_sums(spec, signs, checkpoints, rounded_apart=False):
    """The float64 partial sums of the walk in the real walk's arithmetic:
    the float64 weights times int8 signs into long double, one cumsum per
    segment (cut at every multiple of 2^16 steps, at each checkpoint and at
    the horizon), the long-double carry added, then the cast to float64.
    With `rounded_apart`, each sum is RN64(cumsum) + RN64(carry) instead,
    which is within a few ulps of it."""
    first = spec.first_index
    x = np.asarray(signs, dtype=np.int8)
    w = spec.terms(first + x.size - 1)
    ends = sorted(set(range(1 << 16, x.size, 1 << 16)) | {c - first + 1 for c in checkpoints}
                  | {x.size})
    out = np.empty(x.size)
    carry = np.longdouble(0)
    for lo, hi in zip([0] + ends[:-1], ends):
        seg = np.multiply(w[lo:hi], x[lo:hi], out=np.empty(hi - lo, dtype=np.longdouble))
        np.add.accumulate(seg, out=seg)
        if rounded_apart:
            out[lo:hi] = seg.astype(np.float64) + float(carry)
            seg += carry
        else:
            seg += carry
            out[lo:hi] = seg.astype(np.float64)
        carry = seg[-1]
    return out


def _stats_of_sums(first, sums, bands, zero_tol, checkpoints):
    """The fields of `_step_loop_stats` for given float64 partial sums, a
    zero being |S| <= zero_tol."""
    zero_hits = changes = last_sign = 0
    last_zero = None
    hits = {c: 0 for c in bands}
    last = {c: None for c in bands}
    snaps = []
    for k, s in enumerate(sums.tolist(), start=first):
        if abs(s) <= zero_tol:
            zero_hits, last_zero = zero_hits + 1, k
        else:
            sign = 1 if s > 0 else -1
            changes += last_sign != 0 and sign != last_sign
            last_sign = sign
        for c in bands:
            if abs(s) <= c:
                hits[c], last[c] = hits[c] + 1, k
        if k in checkpoints:
            snaps.append((k, zero_hits, changes, dict(hits)))
    return (zero_hits, changes, last_zero, float(np.abs(sums).max()), float(sums[-1]),
            hits, last, snaps)


def _on_the_edge(sums, apart, skip=0):
    """A level that the long-double sums and the sums rounded apart put on
    different sides, at the (skip+1)-th step where the two differ."""
    k = np.flatnonzero(sums != apart)[skip]
    return float(min(abs(sums[k]), abs(apart[k])))


def _long_double_cases():
    """(name, spec, signs, bands, zero_tol, checkpoints) of the oracle test:
    real walks across a 2^16-step segment end, with checkpoints inside a
    refill, and adversarial levels, zeros, ties and magnitudes."""
    gen = np.random.default_rng(20251019)
    n = 70_001
    signs = gen.choice(np.array([-1, 1], dtype=np.int8), size=n)
    cases = []
    non_dyadic = Explicit([[0.1, 0.3, 0.7, 1.1, 0.2, 0.9, 1.3][k % 7] for k in range(n)])
    for spec, bands in ((parse_spec("logcont:1.4426950408889634"), (0.5, 3)),
                        (parse_spec("constant:0.7"), (0.7, 2.1)),
                        (non_dyadic, (0.3, 2.5))):
        first = spec.first_index
        cps = [first + 99, first + 30_000, first + 65_600, first + n - 1]
        cases.append((spec.canonical()[:24], spec, signs, bands, 1e-9, cps))
        # a band and zero_tol exactly where the sums and the sums rounded
        # apart disagree, so that one ulp decides the count
        sums = _long_double_sums(spec, signs, cps)
        apart = _long_double_sums(spec, signs, cps, rounded_apart=True)
        edge_bands = (_on_the_edge(sums, apart), _on_the_edge(sums, apart, 3))
        cases.append(("edges " + spec.canonical()[:16], spec, signs, edge_bands,
                      _on_the_edge(sums, apart, 1), cps))
        cases.append(("zero_tol=0 " + spec.canonical()[:16], spec, signs, bands, 0.0, cps))
    # exact zeros and ties for max|S|, with zero_tol 0 and 1e-9
    halves = Explicit([0.5, 0.25, 0.25] * (n // 3 + 1))
    for tol in (0.0, 1e-9):
        cases.append((f"0.5,0.25,0.25 tol={tol}", halves, signs, (0, 0.25, 1.5), tol,
                      [100, 65_536, 65_537, 70_000]))
    # subnormal weights: every sum is a multiple of 1e-320
    cases.append(("subnormal", parse_spec("constant:1e-320"), signs[:5000], (0, 5e-320),
                  0.0, [7, 4000]))
    cases.append(("subnormal tol", parse_spec("constant:1e-320"), signs[:5000], (3e-320,),
                  2e-320, [4000]))
    # weights near 1e307, their sum just below 2^1020
    big = Explicit([1e307, 3.3e305, 1.7e305, 2.9e305, 1.1e305, 7.7e304, 1.3e305])
    for r in range(8):
        cases.append((f"1e307 #{r}", big, gen.choice(np.array([-1, 1], dtype=np.int8), size=7),
                      (0, 3.3e305, 1e307), 1e-9, [3, 7]))
    return cases


_LONG_DOUBLE_CASES = _long_double_cases()


def _check_long_double_case(case):
    _, spec, signs, bands, zero_tol, checkpoints = case
    want = _stats_of_sums(spec.first_index, _long_double_sums(spec, signs, checkpoints),
                          bands, zero_tol, set(checkpoints))
    got = simulate_signs(spec, signs, bands=bands, zero_tol=zero_tol, checkpoints=checkpoints)
    _assert_stats_equal(got, want)


@pytest.mark.parametrize("case", _LONG_DOUBLE_CASES, ids=[c[0] for c in _LONG_DOUBLE_CASES])
def test_real_walk_matches_long_double_reference(case):
    # the real walk rounds its sums apart except where a comparison could
    # tell; every field must still equal the one-rounding long-double walk
    _check_long_double_case(case)


def test_long_double_cases_catch_sums_rounded_apart(monkeypatch):
    # the mutation that skips the recomputation: the sums rounded apart
    # everywhere must fail at least one case of the oracle test
    def apart(kernel, sums, carry, levels, reach):
        s = sums.astype(np.float64) + float(carry)
        return np.arange(s.size), s, float(np.abs(s).max())
    monkeypatch.setattr(mc._PathKernel, "_decisive", apart)
    failed = []
    for case in _LONG_DOUBLE_CASES:
        try:
            _check_long_double_case(case)
        except AssertionError:
            failed.append(case[0])
    assert failed


def _path_stats_columns(st, full):
    """A `PathStats` in the flat layout of `_PathTally.columns`."""
    def last(k):
        return -1 if k is None or not full else k
    row = [st.zero_hits, st.sign_changes, last(st.last_zero_hit),
           st.max_abs if full else 0.0, st.final_value if full else 0.0]
    for c in st.band_hits:
        row += [st.band_hits[c], last(st.last_band_hit[c])]
    for snap in st.checkpoints:
        row += [snap.zero_hits, snap.sign_changes, *snap.band_hits.values()]
    return row


@pytest.mark.parametrize("threads", ["1", "2"])
def test_real_path_blocks_match_single_paths(threads, monkeypatch):
    # 70 real paths (a 64-path unit walked together and a unit of 6) of more
    # than 2^16 steps, checkpoints inside refills, against one path at a time
    monkeypatch.setenv("AWALK_THREADS", threads)
    spec, n, paths, seed = parse_spec("logcont:1.4426950408889634"), 70_000, 70, 29
    bands, cps = [0.5, 3.0], [9, 40_000, 65_537, 65_600, 70_000]
    single = [mc.simulate(spec, n, mc.RngSpec(seed, p), bands, checkpoints=cps)
              for p in range(paths)]
    for kind in ("stats", "counts", "final"):
        rows = mc._run_blocks(kind, spec, n, paths, seed, bands, 1e-9, cps, None)
        if kind == "final":
            want = [[st.final_value] for st in single]
        else:
            want = [_path_stats_columns(st, kind == "stats") for st in single]
        assert rows.tolist() == want, kind
    assert sum(st.band_hits[3] for st in single) > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_real_walks_that_could_overflow_are_refused(threads, monkeypatch, tmp_path):
    # partial sums past the float64 range were written as Infinity
    monkeypatch.setenv("AWALK_THREADS", threads)
    monkeypatch.chdir(tmp_path)
    spec = ["--spec", "constant:1e308", "--n", "40", "--seed", "1", "--bands", "0"]
    assert main(["simulate", *spec, "--out", "s.json"]) == 2
    assert main(["recurrence", *spec, "--paths", "70", "--out", "r.json"]) == 2
    assert main(["tomaszewski", "--spec", "constant:1e308", "--n", "40", "--mode", "mc",
                 "--paths", "70", "--out", "t.json"]) == 2
    assert not list(tmp_path.iterdir())
    # the sum of the weights must stay below 2^1020 (about 1.1235e307)
    assert mc.simulate(Constant(1e306), 11, mc.RngSpec(1)).steps == 11
    with pytest.raises(DomainError, match="overflow float64"):
        mc.simulate(Constant(1e306), 12, mc.RngSpec(1))


def _step_loop_columns(spec, signs, bands, checkpoints, full):
    """`_step_loop_stats` in the flat layout of `_PathTally.columns`."""
    zeros, changes, last_zero, max_abs, final, hits, last, snaps = _step_loop_stats(
        spec, signs, bands, checkpoints)
    none = -1
    row = [zeros, changes, last_zero if full and last_zero is not None else none,
           max_abs if full else 0.0, final if full else 0.0]
    for c in bands:
        row += [hits[c], last[c] if full and last[c] is not None else none]
    for _, z, ch, h in snaps:
        row += [z, ch, *(h[c] for c in bands)]
    return row


@settings(max_examples=150, deadline=None)
@given(strategies.sampled_from(_INTEGER_SPECS), strategies.integers(1, 2000),
       strategies.lists(strategies.integers(0, 2 ** 32 - 1), min_size=1, max_size=5),
       strategies.lists(strategies.sampled_from([0, 1, 2.5, 7]), max_size=3, unique=True),
       # checkpoints anywhere, on a byte's last step and on the step after it
       strategies.lists(strategies.one_of(strategies.integers(0, 1999),
                                          strategies.integers(1, 250).map(lambda b: 8 * b - 1),
                                          strategies.integers(0, 249).map(lambda b: 8 * b)),
                        max_size=5),
       strategies.booleans(), strategies.sampled_from([0.05, 0.25, 0.45]))
def test_block_pass_matches_single_paths(text, length, seeds, bands, offsets, full, exponent):
    # R paths walked together as one (paths, sign bytes) array give, row by
    # row, what R single paths give through the Python step loop
    spec = parse_spec(text)
    first = spec.first_index
    weights = mc._weights_for(spec, first + length - 1)
    paths = [_sign_runs(length, seed) for seed in seeds]
    checkpoints = sorted({first + o % length for o in offsets})
    kernel = mc._PathKernel(weights, [c - first + 1 for c in checkpoints])
    assert kernel.bytewise
    tally = mc._PathTally(first, bands, 1e-9, full=full, paths=len(paths))
    last = kernel.run(SignSource(paths), tally)
    assert tally.columns().tolist() == [
        _step_loop_columns(spec, p, bands, set(checkpoints), full) for p in paths]
    assert last.tolist() == [int(np.dot(weights, p)) for p in paths]
    assert kernel.run(SignSource(paths)).tolist() == last.tolist()  # the S(n) sum alone
    window = length // 3
    thresholds = np.arange(first, first + length, dtype=np.float64) ** exponent
    test = mc._GrowthTest(window, first, exponent)
    test.ok = np.ones(len(paths), dtype=bool)
    kernel.run(SignSource(paths), test)
    assert test.ok.tolist() == [
        bool(np.all(np.abs(np.cumsum(weights * p)[window:]) > thresholds[window:]))
        for p in map(np.array, paths)]


def test_reach_tables_bound_every_suffix():
    # A[c] and B[c] are the largest |x_{j+1} + ... + x_7| and
    # |(j+1) x_{j+1} + ... + 7 x_7| over the steps j of sign byte c
    for c in range(256):
        x = [1 if c >> j & 1 else -1 for j in range(8)]
        suffix = [sum(x[j + 1:]) for j in range(8)]
        moment = [sum(i * x[i] for i in range(j + 1, 8)) for j in range(8)]
        assert mc._REACH_SUM[c] == max(map(abs, suffix)), c
        assert mc._REACH_MOMENT[c] == max(map(abs, moment)), c
        # so S at any step of an affine byte lies within the reach of its end
        for w0, delta in ((1, 0), (5, 1), (3, 2), (30, -3), (8, -1)):
            w = [w0 + j * delta for j in range(8)]
            s = np.cumsum([wj * xj for wj, xj in zip(w, x)])
            assert max(abs(s - s[-1])) <= w0 * mc._REACH_SUM[c] + abs(delta) * mc._REACH_MOMENT[c]


@pytest.mark.parametrize("kind", ["stats", "counts", "growth", "final"])
def test_path_blocks_match_step_path_runs(kind, monkeypatch):
    # real Philox streams: 70 paths (a 64-path unit of three passes and a
    # unit of 6) of 1003 steps, against each path's own bits through the
    # Python step loop, the window test on np.cumsum and np.dot
    monkeypatch.setenv("AWALK_THREADS", "1")
    spec, n, paths, seed = parse_spec("powfloor:0.5"), 1003, 70, 17
    bands, cps = [0.0, 2.5], [8, 9, 500, 1003]
    extra = (100, spec.first_index, 0.3) if kind == "growth" else None
    rows = mc._run_blocks(kind, spec, n, paths, seed, bands, 1e-9, cps, extra)
    weights = mc._weights_for(spec, n)
    thresholds = np.arange(1, n + 1, dtype=np.float64) ** 0.3
    for p in range(paths):
        signs = path_signs(mc.RngSpec(seed, p), n)
        if kind in ("stats", "counts"):
            want = _step_loop_columns(spec, signs, bands, set(cps), kind == "stats")
        elif kind == "growth":
            want = [float(np.all(np.abs(np.cumsum(weights * signs)[100:]) > thresholds[100:]))]
        else:
            want = [float(np.dot(weights, signs))]
        assert rows[p].tolist() == want, p


def test_byte_path_places_change_at_first_nonzero_step():
    # powfloor:0.5 weights 1,1,1,2,2,2,2,2 | 3,3,...: S(8) = 3, S(9) = 0, S(10) = -3,
    # so the change between the two bytes happens at index 10, after checkpoint 9
    signs = [-1, 1, 1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1]
    st = simulate_signs(PowerFloor(0.5), np.array(signs, dtype=np.int8), bands=(0,),
                        checkpoints=(9, 10))
    assert [(c.at, c.zero_hits, c.sign_changes) for c in st.checkpoints] == \
        [(9, 2, 3), (10, 2, 4)]
    # ending at that zero, the walk's last byte holds one step: the seven
    # steps that pad it repeat S(9) = 0 and count neither as zeros nor as a change
    st = simulate_signs(PowerFloor(0.5), np.array(signs[:9], dtype=np.int8), bands=(0, 1))
    assert (st.zero_hits, st.sign_changes, st.band_hits, st.last_zero_hit) == \
        (2, 3, {0: 2, 1: 7}, 9)


@settings(max_examples=100, deadline=None)
@given(strategies.sampled_from(_INTEGER_SPECS), _SIGN_RUNS,
       strategies.sampled_from([0.05, 0.25, 0.45]), strategies.integers(0, 1999))
def test_byte_path_growth_test_matches_step_loop(text, signs, exponent, window_start):
    spec = parse_spec(text)
    first = spec.first_index
    weights = mc._weights_for(spec, first + len(signs) - 1)
    thresholds = np.arange(first, first + len(signs), dtype=np.float64) ** exponent
    partial = np.cumsum(weights * np.array(signs))
    want = bool(np.all(np.abs(partial[window_start:]) > thresholds[window_start:]))
    test = mc._GrowthTest(window_start, first, exponent)
    mc._PathKernel(weights).run(SignSource(signs), test)
    assert test.ok == want


# walks whose sign bytes have affine weights with more than one step
# w1 - w0, and checkpoints in each stretch: 1..16 then 17 forty times, and
# 1..16, 20 sixteen times, then 3, 6, ..., 39
_MIXED_DELTA = [
    ("blocks:" + ",".join(["1"] * 16 + ["40"]), [5, 16, 17, 30, 56]),
    ("explicit:" + ",".join(map(str, [*range(1, 17), *[20] * 16, *range(3, 40, 3)])),
     [3, 12, 20, 33, 40])]


@pytest.mark.parametrize("text, checkpoints", _MIXED_DELTA)
def test_mixed_delta_walks_match_step_loop(text, checkpoints):
    spec = parse_spec(text)
    first = spec.first_index
    weights = mc._weights_for(spec, spec.max_index)
    n, bands = weights.size, (0, 3)
    steps = np.diff(weights[:n - n % 8].reshape(-1, 8), axis=1)
    assert len({int(d[0]) for d in steps if (d == d[0]).all()}) > 1
    gen = np.random.default_rng(3)
    paths = [gen.choice([-1, 1], size=n).tolist() for _ in range(48)]
    paths += [_sign_runs(n, seed) for seed in range(16)]
    want = [_step_loop_stats(spec, p, bands, set(checkpoints)) for p in paths]
    assert sum(w[0] for w in want) > 0 and sum(w[5][3] for w in want) > 0
    for p, w in zip(paths, want):
        _assert_stats_equal(simulate_signs(spec, np.array(p, dtype=np.int8), bands=bands,
                                           checkpoints=checkpoints), w)
    kernel = mc._PathKernel(weights, [c - first + 1 for c in checkpoints])
    tally = mc._PathTally(first, bands, 1e-9, paths=len(paths))
    kernel.run(SignSource(paths), tally)
    assert tally.columns().tolist() == [
        _step_loop_columns(spec, p, bands, set(checkpoints), True) for p in paths]
    window, exponent = 5, 0.45
    thresholds = np.arange(first, first + n, dtype=np.float64) ** exponent
    test = mc._GrowthTest(window, first, exponent)
    test.ok = np.ones(len(paths), dtype=bool)
    kernel.run(SignSource(paths), test)
    want_ok = [bool(np.all(np.abs(np.cumsum(weights * p)[window:]) > thresholds[window:]))
               for p in map(np.array, paths)]
    assert test.ok.tolist() == want_ok and any(want_ok) and not all(want_ok)


@settings(max_examples=100, deadline=None)
@given(strategies.sampled_from(_INTEGER_SPECS), _SIGN_RUNS)
def test_byte_path_final_value_matches_dot_product(text, signs):
    spec = parse_spec(text)
    weights = mc._weights_for(spec, spec.first_index + len(signs) - 1)
    assert mc._PathKernel(weights).run(SignSource(signs)) == int(np.dot(weights, signs))


@pytest.mark.parametrize("text", ["logceil:2", "linear", "powfloor:0.5"])
def test_byte_path_spans_chunks_of_a_philox_stream(text):
    # 137,500 whole bytes: two full chunks, a short one and a 5-step tail
    spec, n, rng = parse_spec(text), 1_100_005, mc.RngSpec(31, 4)
    first = spec.first_index
    weights = mc._weights_for(spec, n)
    signs = path_signs(rng, weights.size)
    checkpoints = [first + c - 1 for c in (1, 8 * mc._BYTE_CHUNK, 8 * mc._BYTE_CHUNK + 3,
                                           1_000_003, n - first + 1)]
    got = mc.simulate(spec, n, rng, (0, 2, 2.5), checkpoints=checkpoints)
    _assert_stats_equal(got, _step_loop_stats(spec, signs, (0, 2, 2.5), set(checkpoints)))
    partial = np.cumsum(weights * signs)
    window = n // 10 - first
    thresholds = np.arange(first, n + 1, dtype=np.float64) ** 0.05
    kernel = mc._PathKernel(weights)
    assert kernel.bytewise
    test = mc._GrowthTest(window, first, 0.05)
    kernel.run(mc._BitStream(rng, n), test)
    assert test.ok.tolist() == [bool(np.all(np.abs(partial[window:]) > thresholds[window:]))]
    assert kernel.run(mc._BitStream(rng, n)).tolist() == [int(partial[-1])]


def test_truncated_refill_reads_the_same_bits():
    def read(stream, nbits, k):  # all of a pass's sign bytes, k bytes at a time
        nbytes = -(-nbits // 8)
        return np.concatenate([stream.take_bytes(min(k, nbytes - at))
                               for at in range(0, nbytes, k)], axis=1)

    def words(p, nbits):
        gen = mc.RngSpec(21, p).generator()
        return gen.integers(0, 1 << 64, size=-(-nbits // 64), dtype=np.uint64)

    for nbits in (1, 200, 64 * 1024 + 70, 3 * 64 * 1024):
        want = words(5, nbits).view(np.uint8)[:-(-nbits // 8)]
        for k in (8192, 5000, 40_000):  # in refills, across them and in one read
            # the last refill is cut to the words read
            assert np.array_equal(read(mc._BitStream(mc.RngSpec(21, 5), nbits), nbits, k),
                                  want[None])
    # re-keying one stream gives each path its own bits, and the paths of a
    # pass draw refill r from words 1024r.. of their own streams
    stream = mc._BitStream()
    for p in (3, 0, 3):
        stream.start(21, range(p, p + 1), 100)
        assert np.array_equal(stream.take_bytes(13)[0], words(p, 100).view(np.uint8)[:13])
    for nbits in (1, 200, 1003, 1 << 16, 3 * (1 << 16) + 70):
        stream.start(21, range(2, 5), nbits)
        rows = read(stream, nbits, 8192)
        assert rows.shape == (3, -(-nbits // 8))
        for row, p in zip(rows, range(2, 5)):
            assert np.array_equal(row, words(p, nbits).view(np.uint8)[:-(-nbits // 8)])


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("text", ["linear", "logcont:1.4426950408889634"])
def test_tomaszewski_mc_counts_simulated_final_values(text, threads, monkeypatch):
    monkeypatch.setenv("AWALK_THREADS", threads)
    spec = parse_spec(text)
    n, paths, seed = 300, 150, 13
    root = math.sqrt(float(np.sum(spec.terms(n).astype(np.float64) ** 2)))
    inside = sum(abs(mc.simulate(spec, n, mc.RngSpec(seed, p)).final_value) <= root
                 for p in range(paths))
    rep = mc.tomaszewski_check(spec, n, "mc", paths=paths, seed=seed)
    assert rep.probability == inside / paths


def test_consistency_with_exact_visits():
    # all-visit counting on both sides
    spec = Linear()
    n, paths = 18, 100_000
    want = float(exact.expected_visits(spec, n, 0).expected_visits)
    rep = mc.recurrence_experiment(spec, n, [0], paths, 424242)
    got = rep.aggregates["per_band"]["zero"]["mean_hits"]
    se = math.sqrt(want / paths)  # counts are small; Poisson-scale bound
    assert abs(got - want) <= 3 * se


def test_recurrence_report_structure_and_determinism(monkeypatch):
    spec = Linear()
    monkeypatch.setenv("AWALK_THREADS", "1")
    r1 = mc.recurrence_experiment(spec, 4000, [0, 3], 128, 9)
    monkeypatch.setenv("AWALK_THREADS", "2")
    r2 = mc.recurrence_experiment(spec, 4000, [0, 3], 128, 9)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    assert r1.schema == "awalk-report/1"
    zero = r1.aggregates["per_band"]["zero"]
    assert 0 <= zero["fraction_last_hit_final_decade"] <= 1
    assert set(zero["mean_hits_at_checkpoint"]) == {str(c) for c in r1.checkpoints}


def test_experiments_accept_a_callable_block_rule(tmp_path, monkeypatch):
    # the pool forks, so workers use the spec object itself: a rule with no
    # parseable canonical form runs, with the same bytes at any worker count
    spec = GeneralBlocks(lambda k: k + 1)
    n, paths, seed = 2000, 150, 11
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AWALK_THREADS", threads)
        rec = mc.recurrence_experiment(spec, n, [0, 2], paths, seed)
        tz = mc.tomaszewski_check(spec, n, "mc", paths=paths, seed=seed)
        path = tmp_path / f"reports-{threads}.json"
        write_json(str(path), {"recurrence": rec.to_dict(), "tomaszewski": asdict(tz)})
        written.append(path.read_bytes())
        finals = mc._run_blocks("final", spec, n, paths, seed, (), 0.0, (), None)
        assert finals[:, 0].tolist() == [mc.simulate(spec, n, mc.RngSpec(seed, p)).final_value
                                         for p in range(paths)]
    assert written[0] == written[1]
    assert rec.spec == tz.spec == "blocks:<lambda>"
    root = math.sqrt(sum_squares_exact(spec, n))
    assert tz.probability == np.count_nonzero(np.abs(finals[:, 0]) <= root) / paths


def test_zero_step_walks(tmp_path, monkeypatch):
    # logceil:2 starts at index 2, so horizon 1 has no step
    spec = parse_spec("logceil:2")
    assert mc.simulate(spec, 1, mc.RngSpec(3), bands=(0, 2)) == mc.PathStats(
        horizon=1, steps=0, zero_hits=0, sign_changes=0, last_zero_hit=None, max_abs=0.0,
        final_value=0.0, band_hits={0: 0, 2: 0}, last_band_hit={0: None, 2: None})
    assert mc.tomaszewski_check(spec, 1, "mc", paths=200).probability == 1.0
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--spec", "logceil:2", "--n", "1", "--seed", "3",
                 "--out", "z.json"]) == 0
    assert json.loads((tmp_path / "z.json").read_text())["path"]["steps"] == 0


class _ZeroThird(SequenceSpec):
    """A user spec, unlike the built-in ones, with a weight that is not
    positive: `unit` at every index but 3, where it is 0."""

    kind = "zerothird"
    is_non_decreasing = False

    def __init__(self, unit):
        self.unit = unit

    @property
    def is_integer_valued(self):
        return isinstance(self.unit, int)

    def canonical(self):
        return f"zerothird:{self.unit}"

    def term(self, k):
        self._check_index(k)
        return 0 * self.unit if k == 3 else self.unit


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bad_weights_are_refused_at_any_worker_count(threads, monkeypatch):
    # the pool workers build the weights; their refusal reaches the caller
    # instead of leaving the pool to replace failed workers forever
    monkeypatch.setenv("AWALK_THREADS", threads)
    for spec in (_ZeroThird(1), _ZeroThird(0.5)):
        with pytest.raises(DomainError, match="must be positive"):
            mc.simulate(spec, 10, mc.RngSpec(1))
        with pytest.raises(DomainError, match="must be positive"):
            mc.recurrence_experiment(spec, 10, [0], 200, 1)
        with pytest.raises(DomainError, match="must be positive"):
            mc.tomaszewski_check(spec, 10, "mc", paths=200)
    with pytest.raises(DomainError, match="has only 3 terms"):
        mc.recurrence_experiment(Explicit([1, 2, 3]), 10, [0], 200, 1)
    with pytest.raises(DomainError, match="overflows int64"):
        mc.tomaszewski_check(Constant(2 ** 61), 4, "mc", paths=200)


def test_env_thread_cap(monkeypatch):
    monkeypatch.setenv("AWALK_THREADS", "1")
    assert mc.worker_count() == 1
    monkeypatch.setenv("AWALK_THREADS", "3")
    assert mc.worker_count() == 3
    monkeypatch.setenv("AWALK_THREADS", "abc")
    with pytest.raises(PreconditionError, match="AWALK_THREADS"):
        mc.worker_count()
    monkeypatch.delenv("AWALK_THREADS")


def test_unit_walk_zero_hits_grow_like_sqrt_n():
    # SRW local time at 0 scales like sqrt(n): quadrupling the horizon
    # should double the mean zero-hit count
    rep = mc.recurrence_experiment(Constant(1), 10_000, [], 1000, 31337,
                                   checkpoints=[2500, 10_000])
    means = rep.aggregates["per_band"]["zero"]["mean_hits_at_checkpoint"]
    ratio = means["10000"] / means["2500"]
    assert ratio == pytest.approx(2.0, abs=0.2)
    # and the absolute level matches sum over even m of P(T_m = 0), via the
    # central-binomial recurrence p(m+2) = p(m) * (m+1)/(m+2)
    want, p, m = 0.0, 1.0, 0
    while m + 2 <= 10_000:
        p *= (m + 1) / (m + 2)
        m += 2
        want += p
    assert means["10000"] == pytest.approx(want, rel=0.1)


def test_sign_change_experiment_requires_monotone():
    with pytest.raises(PreconditionError):
        mc.sign_change_experiment(Explicit([3, 1, 2]), 3, 4, 1)


def test_sign_change_experiment_single_step():
    rep = mc.sign_change_experiment(Explicit([1]), 1, 64, 5)
    assert rep.aggregates["mean_sign_changes"] == 0.0
    assert rep.aggregates["fraction_at_least"]["1"]["1"] == 0.0


def test_growth_experiment_monotone_improvement():
    spec = PowerFloor(0.5)
    small = mc.growth_experiment(spec, 10 ** 3, 0.2, 400, 2024)
    large = mc.growth_experiment(spec, 10 ** 5, 0.2, 400, 2024)
    f_small = small.aggregates["fraction_maintaining"]
    f_large = large.aggregates["fraction_maintaining"]
    assert 0.0 <= f_small < f_large <= 1.0


def test_growth_experiment_preconditions():
    with pytest.raises(PreconditionError):
        mc.growth_experiment(Linear(), 100, 0.1, 8, 1)
    with pytest.raises(DomainError):
        mc.growth_experiment(PowerFloor(0.5), 100, 0.3, 8, 1)  # delta >= beta/2



# --- the references that criterion 8 compares its Monte Carlo reports with ------

def test_strict_sign_change_law_matches_enumeration():
    for steps in range(1, 15):  # odd and even horizons
        hist = enumerate_sign_change_counts(steps)
        law = strict_sign_change_law(steps, len(hist))
        assert law[len(hist)] == 0.0
        for r, count in enumerate(hist):
            assert abs(law[r] - count / 2 ** steps) <= 1e-12, (steps, r)
    # the program's strict counter agrees path by path in distribution, the
    # paths walked together in the kernel's block passes
    for steps in (13, 14):
        signs = np.array(list(itertools.product((-1, 1), repeat=steps)))
        kernel = mc._PathKernel(Constant(1).terms(steps))
        changes = []
        for lo in range(0, len(signs), kernel.paths_per_pass):
            rows = signs[lo:lo + kernel.paths_per_pass]
            tally = mc._PathTally(1, (), 1e-9, full=False, paths=len(rows))
            kernel.run(SignSource(rows), tally)
            changes += tally.sign_changes.tolist()
        assert np.bincount(changes).tolist() == enumerate_sign_change_counts(steps)


def test_bridge_touch_matches_enumeration():
    for length in range(1, 9):
        paths = np.cumsum(np.array(list(itertools.product((-1, 1), repeat=length))), axis=1)
        for level in range(-length - 2, length + 3):
            hit = (paths == level).any(axis=1)
            for end in range(-length, length + 1, 2):
                at_end = paths[:, -1] == end
                want = hit[at_end].mean()
                assert abs(bridge_touch(level, end, length) - want) <= 1e-12, \
                    (length, level, end)


def test_killed_walk_survival_matches_enumeration():
    weights = [math.isqrt(k) for k in range(1, 13)]
    for band in (0, 1, 2):
        want = 1 - first_hit_probability(weights, band)
        assert abs(killed_walk_survival(weights, (1, 12), band) - want) <= 1e-12


def test_band_avoidance_estimate_matches_killed_walk_dp():
    n = 10 ** 3
    exact_p = killed_walk_survival([math.isqrt(k) for k in range(1, n + 1)], (n // 10, n), 1)
    est, se = band_avoidance_block_estimate(floor_sqrt_runs(n), (n // 10, n), 1,
                                            10 ** 5, 20250809)
    assert abs(est - exact_p) <= 4 * se, (est, se, exact_p)

def test_tomaszewski_examples():
    rep = mc.tomaszewski_check(Constant(1), 2)
    assert rep.probability == Fraction(1, 2) and rep.passed  # tight case

    # exhaustive oracle for the explicit example
    spec = Explicit([1, 2, 3])
    sums = np.zeros(1)
    for w in (1, 2, 3):
        sums = np.concatenate([sums - w, sums + w])
    want = Fraction(int(np.count_nonzero(sums ** 2 <= 14)), 8)
    rep = mc.tomaszewski_check(spec, 3)
    assert rep.probability == want and rep.passed

    assert mc.tomaszewski_check(Linear(), 12).passed


def test_tomaszewski_real_weights_and_mc():
    rep = mc.tomaszewski_check(parse_spec("explicit:0.5,1.5,2.5"), 3)
    assert rep.mode == "exact" and rep.passed
    rep = mc.tomaszewski_check(Linear(), 10, mode="mc", paths=4000, seed=8)
    assert rep.mode == "mc" and rep.passed


def test_walks_over_the_byte_budget_are_refused_before_their_arrays(monkeypatch, tmp_path,
                                                                   capsys):
    # The weights take 8 bytes per step and integer walks 9 more per sign
    # byte; the guard refuses above exact.MAX_BUFFER_BYTES (2 GiB) before
    # any n-entry array is built, so `terms` must never be called here.
    def fail(self, n):
        raise AssertionError(f"terms({n}) called")

    monkeypatch.setattr(SequenceSpec, "terms", fail)
    monkeypatch.setattr(LogContinuous, "terms", fail)
    logceil, logcont = LogCeilBlocks(2), LogContinuous(1.0)
    steps = 10 ** 9 - 1  # logceil:2 starts at index 2
    for refuse in (lambda: mc.simulate(logceil, 10 ** 9, mc.RngSpec(1)),
                   lambda: mc.simulate(logceil, 236_000_001, mc.RngSpec(1)),
                   lambda: mc.simulate(logcont, 269_000_001, mc.RngSpec(1)),
                   lambda: mc.recurrence_experiment(logceil, 10 ** 9, [0], 4, 1),
                   lambda: mc.tomaszewski_check(logceil, 10 ** 9, "mc", paths=4)):
        with pytest.raises(ResourceError) as exc:
            refuse()
        assert exc.value.budget == exact.MAX_BUFFER_BYTES < exc.value.required
    assert exc.value.required == 8 * steps + 9 * -(-steps // 8)  # the last, at n = 10^9
    # just under the budget the guard lets the walk through to its weights:
    # 2.14e9 bytes for 235M integer steps, 2.08e9 for 260M real ones
    for spec, n in ((logceil, 235_000_001), (logcont, 260_000_001)):
        with pytest.raises(AssertionError, match="terms"):
            mc.simulate(spec, n, mc.RngSpec(1))
    for command in (["simulate", "--seed", "1"],
                    ["recurrence", "--seed", "1", "--paths", "4", "--bands", "0"]):
        out = str(tmp_path / f"{command[0]}.json")
        assert main([*command, "--spec", "logceil:2", "--n", str(10 ** 9), "--out", out]) == 3
        assert "awalk: resource limit: walk needs about" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_rngspec_validation():
    with pytest.raises(DomainError):
        mc.RngSpec(-1, 0)
    with pytest.raises(DomainError):
        mc.RngSpec(1 << 64, 0)
    with pytest.raises(DomainError):
        mc.RngSpec(0, -2)


@pytest.mark.parametrize("paths", [1, 7, 6144, 70_000])
def test_bootstrap_matches_one_draw_per_row(paths):
    # reference: each row resampled on its own, from one (resamples, paths) draw
    values = np.random.default_rng(paths).random((3, paths)) * 100
    seed, resamples = 5, 50
    want = []
    for row in values:
        gen = np.random.Generator(np.random.Philox(key=(seed << 64) | mc._BOOTSTRAP_SALT))
        idx = gen.integers(0, paths, size=(resamples, paths))
        want.append(float(np.percentile(row[idx].mean(axis=1), 2.5)))
    assert mc._bootstrap_lcbs(values, seed, resamples) == want
