import ast
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

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
    assert not mc._PathKernel(spec, first).bytewise
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
    # events strictly inside a 16-step block of the screen whose two ends,
    # the step before it and its last, lie beyond every level: weights w =
    # 1/2, and S in units of w.  From 2w: a zero at the block's second
    # step, then up to 14w; back to 2w ...
    half = parse_spec("constant:0.5")
    lead = [1, 1] + [-1, 1] * 7  # ends at 2w
    block = [-1, -1] + [1] * 14 + [1, 1] + [-1] * 14
    cases.append(("zero inside a block", half, np.array(lead + block * 100, dtype=np.int8),
                  (), 1e-9, [1616, 3216]))
    # ... a band edge, |S| = w, at its third step, then up to 14w ...
    block = [1, -1, -1] + [1] * 13 + [1, 1] + [-1] * 14
    cases.append(("band edge inside a block", half, np.array(lead + block * 100, dtype=np.int8),
                  (0.5,), 1e-9, [1616, 3216]))
    # ... and from the largest |S| so far, 16w, a new largest |S| at its
    # first step, then down to 2w, 14w below the old one
    signs = [1] * 16 + [1] + [-1] * 15 + [-1, 1] * 200
    cases.append(("record inside a block", half, np.array(signs, dtype=np.int8), (1.0,), 1e-9,
                  [432]))
    # a horizon and checkpoints that are multiples neither of 16 nor of a
    # chunk, so that blocks and chunks come short
    spec = parse_spec("logcont:1.4426950408889634")
    first = spec.first_index
    cases.append(("short blocks", spec, gen.choice(np.array([-1, 1], dtype=np.int8), size=5003),
                  (0.5, 3), 1e-9, [first + c - 1 for c in (17, 2049, 2050, 4103, 5003)]))
    return cases


_LONG_DOUBLE_CASES = _long_double_cases()


def _check_long_double_case(case):
    # one path, whose chunks are whole segments, and a pass of 64 paths,
    # the case's signs and their negation, in chunks of 1024 steps
    _, spec, signs, bands, zero_tol, checkpoints = case
    want = _stats_of_sums(spec.first_index, _long_double_sums(spec, signs, checkpoints),
                          bands, zero_tol, set(checkpoints))
    got = simulate_signs(spec, signs, bands=bands, zero_tol=zero_tol, checkpoints=checkpoints)
    _assert_stats_equal(got, want)
    first = spec.first_index
    kernel = mc._PathKernel(spec, first + len(signs) - 1, [c - first + 1 for c in checkpoints])
    tally = mc._PathTally(first, bands, zero_tol, paths=mc._BLOCK)
    kernel.run(SignSource(np.tile([signs, -signs], (mc._BLOCK // 2, 1))), tally)
    one = _tally_results(want, bands, True)
    _assert_results(tally.results(), [one, {**one, "final": -one["final"]}] * (mc._BLOCK // 2))


@pytest.mark.parametrize("case", _LONG_DOUBLE_CASES, ids=[c[0] for c in _LONG_DOUBLE_CASES])
def test_real_walk_matches_long_double_reference(case):
    # the real walk rounds its sums apart except where a comparison could
    # tell; every field must still equal the one-rounding long-double walk
    _check_long_double_case(case)


def _failed_long_double_cases():
    failed = []
    for case in _LONG_DOUBLE_CASES:
        try:
            _check_long_double_case(case)
        except AssertionError:
            failed.append(case[0])
    return failed


def test_long_double_cases_catch_sums_rounded_apart(monkeypatch):
    # the mutation that skips the one rounding: every step read, its sum
    # rounded apart, RN64(cumsum) + RN64(carry), must fail at least one
    # case of the oracle test
    def apart(kernel, sums, carry, before, bounds, top):
        s = sums.astype(np.float64) + carry.astype(np.float64)[:, None]
        return np.arange(s.size), s.ravel(), np.abs(s).max(axis=1)
    monkeypatch.setattr(mc._PathKernel, "_screen", apart)
    assert _failed_long_double_cases()


def test_long_double_cases_catch_a_screen_of_half_the_reach(monkeypatch):
    # the mutation that screens the blocks as if S strayed half as far from
    # the ends of a block: it misses the zero, the band edge and the new
    # largest |S| that lie inside a block
    screen = mc._PathKernel._screen

    def halved(kernel, sums, carry, before, bounds, top):
        margin, spread, low = bounds
        return screen(kernel, sums, carry, before, (margin, spread / 2, low), top)
    monkeypatch.setattr(mc._PathKernel, "_screen", halved)
    assert {"zero inside a block", "band edge inside a block",
            "record inside a block"} <= set(_failed_long_double_cases())


def _tally_results(fields, bands, full):
    """The fields of one path, as `_step_loop_stats` gives them, under the
    names of `_PathTally.results`: a number per name, a list per band or
    checkpoint.  Without ``full``, the last hits, max |S| and S(n) keep the
    values a tally starts from."""
    zeros, changes, last_zero, max_abs, final, hits, last, snaps = fields

    def at(k):
        return -1 if k is None or not full else k
    return {"zero_hits": zeros, "sign_changes": changes, "last_zero": at(last_zero),
            "max_abs": max_abs if full else 0.0, "final": final if full else 0.0,
            "band_hits": [hits[c] for c in bands], "last_band": [at(last[c]) for c in bands],
            "cp_zeros": [z for _, z, _, _ in snaps], "cp_changes": [ch for _, _, ch, _ in snaps],
            "cp_band_hits": [[h[c] for c in bands] for *_, h in snaps]}


def _path_stats_results(st, full):
    """A `PathStats` under the names of `_PathTally.results`."""
    snaps = [(c.at, c.zero_hits, c.sign_changes, c.band_hits) for c in st.checkpoints]
    return _tally_results((st.zero_hits, st.sign_changes, st.last_zero_hit, st.max_abs,
                           st.final_value, st.band_hits, st.last_band_hit, snaps),
                          list(st.band_hits), full)


def _assert_results(got, per_path):
    """Named arrays, paths on the last axis, that hold per_path[p] at path p."""
    assert sorted(got) == sorted(per_path[0])
    for name, array in got.items():
        want = np.array([p[name] for p in per_path])
        assert np.moveaxis(array, -1, 0).tolist() == want.tolist(), name


def _threads(monkeypatch, threads):
    """AWALK_THREADS = threads, and a pool for a job of any size, so that a
    small job at 2 workers still forks them."""
    monkeypatch.setenv("AWALK_THREADS", threads)
    monkeypatch.setattr(mc, "_WORKER_PATH_STEPS", 1)


def _tallies(first, bands, full):
    """A reducer factory: `_PathTally`s over the given number of paths."""
    return lambda paths: mc._PathTally(first, bands, 1e-9, full=full, paths=paths)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_real_path_blocks_match_single_paths(threads, monkeypatch):
    # the real walk's twin of test_long_walk_units_match_single_paths: 70
    # paths of more than 2^16 steps, a 64-path unit that walks chunks of
    # 1024 steps per path and a unit of 6 that walks chunks of 10,912, with
    # checkpoints at chunk edges and inside refills, against `simulate`,
    # which walks each segment as one chunk
    _threads(monkeypatch, threads)
    spec, n, paths, seed = parse_spec("logcont:1.4426950408889634"), 70_000, 70, 29
    unit_chunk = mc._REAL_CHUNK // mc._BLOCK
    tail_chunk = mc._REAL_CHUNK // (paths - mc._BLOCK) // mc._STRIDE * mc._STRIDE
    steps = [9, unit_chunk, unit_chunk + 1, 3 * unit_chunk + 5, tail_chunk + 9,
             2 * tail_chunk + 10, 40_000, 65_537, 65_600, n - spec.first_index + 1]
    bands, cps = [0.5, 3.0], [spec.first_index + c - 1 for c in steps]
    single = [mc.simulate(spec, n, mc.RngSpec(seed, p), bands, checkpoints=cps)
              for p in range(paths)]
    for full in (True, False):
        res = mc._run_blocks(spec, n, paths, seed, cps, _tallies(spec.first_index, bands, full))
        _assert_results(res, [_path_stats_results(st, full) for st in single])
    res = mc._run_blocks(spec, n, paths, seed, cps, lambda k: None)
    assert res["final"].tolist() == [st.final_value for st in single]
    assert sum(st.band_hits[3] for st in single) > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_real_walks_that_could_overflow_are_refused(threads, monkeypatch, tmp_path):
    # partial sums past the float64 range were written as Infinity
    _threads(monkeypatch, threads)
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


def _step_loop_results(spec, signs, bands, checkpoints, full):
    """`_step_loop_stats` under the names of `_PathTally.results`."""
    return _tally_results(_step_loop_stats(spec, signs, bands, checkpoints), bands, full)


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
    weights = spec.terms(first + length - 1)
    paths = [_sign_runs(length, seed) for seed in seeds]
    checkpoints = sorted({first + o % length for o in offsets})
    kernel = mc._PathKernel(spec, first + length - 1, [c - first + 1 for c in checkpoints])
    assert kernel.bytewise
    tally = mc._PathTally(first, bands, 1e-9, full=full, paths=len(paths))
    last = kernel.run(SignSource(paths), tally)
    _assert_results(tally.results(),
                    [_step_loop_results(spec, p, bands, set(checkpoints), full) for p in paths])
    assert last.tolist() == [int(np.dot(weights, p)) for p in paths]
    assert kernel.run(SignSource(paths)).tolist() == last.tolist()  # the S(n) sum alone
    window = length // 3
    thresholds = np.arange(first, first + length, dtype=np.float64) ** exponent
    test = mc._GrowthTest(window, first, exponent, paths=len(paths))
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
    # real Philox streams: 70 paths (a 64-path unit and a unit of 6, one
    # pass each) of 1003 steps, against each path's own bits through the
    # Python step loop, the window test on np.cumsum and np.dot
    monkeypatch.setenv("AWALK_THREADS", "1")
    spec, n, paths, seed = parse_spec("powfloor:0.5"), 1003, 70, 17
    bands, cps = [0.0, 2.5], [8, 9, 500, 1003]
    first = spec.first_index
    reducer = {"stats": _tallies(first, bands, True), "counts": _tallies(first, bands, False),
               "growth": lambda k: mc._GrowthTest(100, first, 0.3, paths=k),
               "final": lambda k: None}[kind]
    res = mc._run_blocks(spec, n, paths, seed, cps, reducer)
    weights = spec.terms(n)
    thresholds = np.arange(1, n + 1, dtype=np.float64) ** 0.3
    signs = [path_signs(mc.RngSpec(seed, p), n) for p in range(paths)]
    if kind in ("stats", "counts"):
        _assert_results(res, [_step_loop_results(spec, x, bands, set(cps), kind == "stats")
                              for x in signs])
    elif kind == "growth":
        assert res["ok"].tolist() == [
            bool(np.all(np.abs(np.cumsum(weights * x)[100:]) > thresholds[100:])) for x in signs]
    else:
        assert res["final"].tolist() == [int(np.dot(weights, x)) for x in signs]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("text", ["powfloor:0.5", "linear"])
def test_long_walk_units_match_single_paths(text, threads, monkeypatch):
    # 70 paths of more than three refills: a 64-path unit walks chunks of
    # 1024 bytes per path, the unit of 6 chunks of 10,922 bytes that cross
    # refills, and `simulate` one chunk of the whole walk
    _threads(monkeypatch, threads)
    spec, n, paths, seed = parse_spec(text), 3 * (1 << 16) + 77, 70, 17
    first = spec.first_index
    unit_chunk = 8 * (mc._BYTE_CHUNK // mc._BLOCK)
    tail_chunk = 8 * (mc._BYTE_CHUNK // (paths - mc._BLOCK))
    refill = 64 * mc._WORDS
    steps = [1, unit_chunk, unit_chunk + 1, refill, refill + 1, tail_chunk, tail_chunk + 3,
             n - first + 1]  # chunk and refill edges, the horizon
    cps = [first + c - 1 for c in steps]
    bands = [0, 2.5, 40]
    single = [mc.simulate(spec, n, mc.RngSpec(seed, p), bands, checkpoints=cps)
              for p in range(paths)]
    for full in (True, False):
        res = mc._run_blocks(spec, n, paths, seed, cps, _tallies(spec.first_index, bands, full))
        _assert_results(res, [_path_stats_results(st, full) for st in single])
    res = mc._run_blocks(spec, n, paths, seed, cps, lambda k: None)
    assert res["final"].tolist() == [st.final_value for st in single]
    assert 0 < sum(st.band_hits[40] for st in single)
    window = n // 10 - first
    res = mc._run_blocks(spec, n, paths, seed, (),
                         lambda k: mc._GrowthTest(window, first, 0.3, paths=k))
    weights = spec.terms(n)
    thresholds = np.arange(first, n + 1, dtype=np.float64)[window:] ** 0.3
    want = [bool(np.all(np.abs(np.cumsum(weights * path_signs(mc.RngSpec(seed, p), weights.size))
                               [window:]) > thresholds)) for p in range(paths)]
    assert res["ok"].tolist() == want
    assert 0 < sum(want) < paths


def test_a_unit_stops_once_every_path_fails(monkeypatch):
    # |S(1)| = 1 <= 1^0.45 fails every path at its first step, so each
    # 64-path unit draws its first refill, one per path, and stops there
    monkeypatch.setenv("AWALK_THREADS", "1")
    draws = []
    draw = mc._BitStream._draw

    def counted(self):
        draws.append(self.paths)
        draw(self)
    monkeypatch.setattr(mc._BitStream, "_draw", counted)
    spec, n = PowerFloor(0.5), 3 * (1 << 16) + 77
    res = mc._run_blocks(spec, n, 128, 5, (), lambda k: mc._GrowthTest(0, 1, 0.45, paths=k))
    assert res["ok"].tolist() == [False] * 128
    assert draws == [64, 64]
    draws.clear()
    res = mc._run_blocks(spec, n, 64, 5, (), lambda k: mc._GrowthTest(n - 1, 1, 0.45, paths=k))
    assert res["ok"].shape == (64,)
    assert draws == [64] * 4  # a late window: the unit walks every refill


@pytest.mark.parametrize("text", ["linear", "powfloor:0.5", "logceil:2"])
def test_integer_walk_bands_of_2_to_the_63_and_more(text, tmp_path):
    # an int64 add of a band of 2^63 or more overflowed (a traceback, exit
    # 1), and just below 2^63 it wrapped and lost hits; |S| < 2^62, so every
    # step lies in these bands, as the Python step loop counts
    spec, signs = parse_spec(text), _sign_runs(3000, 4)
    first = spec.first_index
    bands = [2.0 ** 62, 2.0 ** 63 - 1024, 2.0 ** 63, 1e19, 1e300]
    checkpoints = {first + 999, first + 2999}
    got = simulate_signs(spec, np.array(signs, dtype=np.int8), bands=bands,
                         checkpoints=sorted(checkpoints))
    _assert_stats_equal(got, _step_loop_stats(spec, signs, bands, checkpoints))
    assert set(got.band_hits.values()) == {3000}
    spec_args = ["--spec", text, "--n", "100", "--seed", "1"]
    assert main(["simulate", *spec_args, "--bands", "1e19",
                 "--out", str(tmp_path / "s.json")]) == 0
    assert main(["recurrence", *spec_args, "--paths", "70", "--bands", "1e300",
                 "--out", str(tmp_path / "r.json")]) == 0


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
    weights = spec.terms(first + len(signs) - 1)
    thresholds = np.arange(first, first + len(signs), dtype=np.float64) ** exponent
    partial = np.cumsum(weights * np.array(signs))
    want = bool(np.all(np.abs(partial[window_start:]) > thresholds[window_start:]))
    test = mc._GrowthTest(window_start, first, exponent)
    mc._PathKernel(spec, first + len(signs) - 1).run(SignSource(signs), test)
    assert test.ok == want


def _integer_cases():
    """(name, spec, signs, bands, checkpoints) of the byte path's oracle
    cases: every spec of `_INTEGER_SPECS` on runs of signs, with and without
    bands, and a linear walk whose one sign change, from S(8) = -6 to S(9) =
    3, crosses a byte boundary with no zero near it."""
    cases = [(f"{text[:24]} {bands}", parse_spec(text), _sign_runs(2000, seed), bands,
              [1, 8, 9, 1000, 2000])
             for seed, text in enumerate(_INTEGER_SPECS) for bands in ((), (0, 2.5))]
    signs = [-1] * 6 + [1] * 4 + [-1, 1, -1, 1, 1, -1]
    cases.append(("change across a byte boundary", Linear(), signs, (), [8, 9, 16]))
    return cases


def _failed_integer_cases():
    """The names of the `_integer_cases` whose `simulate_signs` statistics
    differ from the Python step loop's, with the fields that differ."""
    failed = []
    names = ("zero_hits", "sign_changes", "last_zero_hit", "max_abs", "final_value",
             "band_hits", "last_band_hit", "checkpoints")
    for name, spec, signs, bands, checkpoints in _integer_cases():
        got = simulate_signs(spec, np.array(signs, dtype=np.int8), bands=bands,
                             checkpoints=checkpoints)
        want = _step_loop_stats(spec, signs, bands, set(checkpoints))
        got = (*(getattr(got, f) for f in names[:7]),
               [(c.at, c.zero_hits, c.sign_changes, c.band_hits) for c in got.checkpoints])
        fields = {f for f, a, b in zip(names, got, want) if a != b}
        if fields:
            failed.append((name, fields))
    return failed


def test_byte_path_cases_catch_a_read_without_the_step_bound(monkeypatch):
    # the byte path reads a byte up to max(level, d), d its largest weight;
    # the mutation that reads only up to the reducer's level misses the
    # sign changes that jump over zero, the one across a byte boundary too
    assert _failed_integer_cases() == []
    bounds = mc._PathKernel._byte_bounds

    def no_step(kernel):  # d = 0 in low = max(level, d); 8d still bounds the reach
        d, eight = bounds(kernel)
        return np.zeros_like(d), eight
    monkeypatch.setattr(mc._PathKernel, "_byte_bounds", no_step)
    failed = dict(_failed_integer_cases())
    assert "sign_changes" in failed["change across a byte boundary"]
    assert all("sign_changes" in fields for fields in failed.values())


def test_integer_walks_ignore_zero_tol_and_compare_bands_exactly():
    # an integer walk's sums are exact: a zero is S == 0 whatever zero_tol
    # is, and a band compares in int64, where float64 would round S to 2^53
    spec, rng = Constant(1), mc.RngSpec(4)
    assert mc.simulate(spec, 3000, rng, (0, 1), zero_tol=1.5) == \
        mc.simulate(spec, 3000, rng, (0, 1), zero_tol=0.0)
    st = mc.simulate(spec, 3000, rng, (0, 1), zero_tol=1.5)
    assert st.zero_hits == st.band_hits[0] < st.band_hits[1]
    st = mc.simulate(Explicit([2 ** 53 + 1]), 1, mc.RngSpec(0), [2.0 ** 53])
    assert st.band_hits == {2 ** 53: 0} and abs(st.final_value) == 2.0 ** 53
    # weights near the 2^62 limit on the weight sum, where 8 times a weight
    # or a band of 2^62 plus a byte's reach would pass 2^63: every step is
    # read all the same, and a band of 2^62 holds every partial sum
    for spec, signs, bands, checkpoints in [
            (Constant(2 ** 60), [1, -1, 1], (), [1, 2, 3]),
            (Constant(2 ** 59), [1, -1] * 3 + [1], (2.0 ** 62, 0), [3, 7]),
            (Explicit([2 ** 61 - 1, 2 ** 61 - 2]), [1, -1], (2.0 ** 62, 1), [1, 2])]:
        want = _step_loop_stats(spec, signs, bands, set(checkpoints))
        assert want[0] or want[3] == 2.0 ** 61 - 1
        _assert_stats_equal(simulate_signs(spec, np.array(signs, dtype=np.int8), bands=bands,
                                           checkpoints=checkpoints), want)


def test_reducers_call_no_kernel_method():
    # the kernel picks the steps each reducer reads, and each reducer has
    # one update for both walks: a reducer that called back into the kernel
    # would read by a rule of its own
    tree = ast.parse(Path(mc.__file__).read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    kernel = {node.name for node in classes["_PathKernel"].body
              if isinstance(node, ast.FunctionDef)} | {"_PathKernel"}
    for name in ("_PathTally", "_GrowthTest"):
        used = {node.attr if isinstance(node, ast.Attribute) else node.id
                for node in ast.walk(classes[name])
                if isinstance(node, (ast.Attribute, ast.Name))}
        assert used & kernel == set(), name
        updates = [node.name for node in classes[name].body
                   if isinstance(node, ast.FunctionDef) and node.name.startswith("update")]
        assert updates == ["update"], name


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
    weights = spec.terms(spec.max_index)
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
    kernel = mc._PathKernel(spec, spec.max_index, [c - first + 1 for c in checkpoints])
    tally = mc._PathTally(first, bands, 1e-9, paths=len(paths))
    kernel.run(SignSource(paths), tally)
    _assert_results(tally.results(),
                    [_step_loop_results(spec, p, bands, set(checkpoints), True) for p in paths])
    window, exponent = 5, 0.45
    thresholds = np.arange(first, first + n, dtype=np.float64) ** exponent
    test = mc._GrowthTest(window, first, exponent, paths=len(paths))
    kernel.run(SignSource(paths), test)
    want_ok = [bool(np.all(np.abs(np.cumsum(weights * p)[window:]) > thresholds[window:]))
               for p in map(np.array, paths)]
    assert test.ok.tolist() == want_ok and any(want_ok) and not all(want_ok)


@settings(max_examples=100, deadline=None)
@given(strategies.sampled_from(_INTEGER_SPECS), _SIGN_RUNS)
def test_byte_path_final_value_matches_dot_product(text, signs):
    spec = parse_spec(text)
    n = spec.first_index + len(signs) - 1
    assert mc._PathKernel(spec, n).run(SignSource(signs)) == int(np.dot(spec.terms(n), signs))


@pytest.mark.parametrize("text", ["logceil:2", "linear", "powfloor:0.5"])
def test_byte_path_spans_chunks_of_a_philox_stream(text):
    # 137,500 whole bytes: two full chunks, a short one and a 5-step tail
    spec, n, rng = parse_spec(text), 1_100_005, mc.RngSpec(31, 4)
    first = spec.first_index
    weights = spec.terms(n)
    signs = path_signs(rng, weights.size)
    checkpoints = [first + c - 1 for c in (1, 8 * mc._BYTE_CHUNK, 8 * mc._BYTE_CHUNK + 3,
                                           1_000_003, n - first + 1)]
    got = mc.simulate(spec, n, rng, (0, 2, 2.5), checkpoints=checkpoints)
    _assert_stats_equal(got, _step_loop_stats(spec, signs, (0, 2, 2.5), set(checkpoints)))
    partial = np.cumsum(weights * signs)
    window = n // 10 - first
    thresholds = np.arange(first, n + 1, dtype=np.float64) ** 0.05
    kernel = mc._PathKernel(spec, n)
    assert kernel.bytewise
    test = mc._GrowthTest(window, first, 0.05)
    kernel.run(mc._BitStream(rng, n), test)
    assert test.ok.tolist() == [bool(np.all(np.abs(partial[window:]) > thresholds[window:]))]
    assert kernel.run(mc._BitStream(rng, n)).tolist() == [int(partial[-1])]


def _whole_walk_tables(weights):
    """The byte tables of a whole walk from its n weights, as the kernel
    built them before it built them per chunk: w0 per byte, the walk's
    delta (w1 - w0 of its first arithmetic byte), which bytes are arithmetic
    with it (affine), and the weights of the others.  The last byte's
    missing steps weigh 0."""
    w = np.concatenate((weights, np.zeros(-weights.size % 8, dtype=np.int64))).reshape(-1, 8)
    d = np.diff(w, axis=1)
    arithmetic = (d == d[:, :1]).all(axis=1)
    delta = int(d[arithmetic.argmax(), 0]) if arithmetic.any() else 0
    affine = arithmetic & (d[:, 0] == delta)
    return w[:, 0], delta, affine, w


def _explicit_from_runs(runs):
    """An explicit spec of arithmetic runs (first value, step, length), kept positive."""
    return Explicit([max(1, v + d * i) for v, d, m in runs for i in range(m)])


_WALKS = strategies.one_of(
    strategies.tuples(strategies.sampled_from(_INTEGER_SPECS + ["blocks:k4lnk", "powfloor:0.9"]),
                      strategies.integers(1, 3000)).map(
        lambda t: (parse_spec(t[0]), min(t[1], parse_spec(t[0]).max_index or t[1]))),
    strategies.lists(strategies.tuples(strategies.integers(1, 30), strategies.integers(-2, 2),
                                       strategies.integers(1, 40)), min_size=1, max_size=40).map(
        lambda runs: (_explicit_from_runs(runs), sum(m for _, _, m in runs))))


@settings(max_examples=200, deadline=None)
@given(_WALKS, strategies.sampled_from([1, 2, 5, 64, 1 << 15]))
@example((parse_spec("powfloor:0.5"), 1_100_005), 1 << 15)
@example((parse_spec("linear"), 600_000), 1 << 15)
# a first byte in one run that ends with it, then runs of another step
@example((parse_spec("linear"), 8), 1)
@example((_explicit_from_runs([(1, 1, 8), (20, 0, 16)]), 24), 2)
def test_chunk_tables_equal_the_whole_walk_tables(walk, chunk):
    # the tables each chunk builds from its runs are the whole walk's tables
    spec, n = walk
    if n < spec.first_index:
        return
    kernel = mc._PathKernel(spec, n)
    w0, delta, affine, rows = _whole_walk_tables(spec.terms(n))
    assert kernel._delta == delta
    for lo in range(0, kernel.nbytes, chunk):
        hi = min(lo + chunk, kernel.nbytes)
        kernel._load(lo, hi)
        assert np.array_equal(kernel._w0, w0[lo:hi])
        odd = np.flatnonzero(~affine[lo:hi])
        assert np.array_equal(kernel._cols, odd)
        assert np.array_equal(kernel._odd[kernel._odd_at], rows[lo + odd])


def test_monte_carlo_never_builds_the_whole_horizon(monkeypatch):
    # every experiment walks from runs and ranges of terms: with the
    # whole-horizon terms and value runs gone, all of them still complete
    def fail(self, n):
        raise AssertionError(f"whole horizon {n} asked for")
    for cls in (SequenceSpec, Constant, Linear, PowerFloor, LogCeilBlocks, GeneralBlocks,
                LogContinuous, Explicit):
        for name in ("terms", "value_runs"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, fail)
    logceil, logcont = LogCeilBlocks(2), LogContinuous(1.4426950408889634)
    for threads in ("1", "2"):
        _threads(monkeypatch, threads)
        assert mc.simulate(logceil, 300_000, mc.RngSpec(1), (0,)).steps == 299_999
        assert mc.simulate(logcont, 70_000, mc.RngSpec(1), (3,)).steps == 69_999
        for spec in (Linear(), logcont):
            assert mc.recurrence_experiment(spec, 3000, [0, 2], 70, 3).paths == 70
        assert mc.sign_change_experiment(Constant(1), 2000, 70, 3).paths == 70
        assert mc.growth_experiment(PowerFloor(0.5), 3000, 0.2, 70, 3).paths == 70
        for spec in (Linear(), logcont, Constant(1e200)):
            assert 0 < mc.tomaszewski_check(spec, 300, "mc", paths=70).probability < 1


def test_tomaszewski_survives_weights_whose_squares_overflow(tmp_path):
    # ten equal weights: |S(10)| <= sqrt(10) a iff S(10)/a is 0 or +-2,
    # (210 + 252 + 210) / 1024; 1e200^2 overflows float64
    spec = Constant(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mc.tomaszewski_check(spec, 10).probability == Fraction(672, 1024)
        rep = mc.tomaszewski_check(spec, 10, "mc", paths=4000, seed=3)
    assert abs(rep.probability - 672 / 1024) <= 3 * rep.stderr
    # where it is finite, the sum of squares is math.fsum's over the whole
    # walk, bit for bit, past 2^16 terms too
    for spec, n in ((parse_spec("logcont:1.4426950408889634"), 3 * (1 << 16) + 77),
                    (Constant(0.7), 150_001), (Constant(1e150), 1000)):
        assert mc._real_root(spec, n) == _fsum_root(spec.terms(n))
    gen = np.random.default_rng(7)
    for n in [1 << 16, (1 << 16) + 1] + [200_003, 333_333] * 10:  # sums that round often
        spec = _Held(gen.lognormal(0, 2, n))
        assert mc._real_root(spec, n) == _fsum_root(spec.w), n
    assert main(["tomaszewski", "--spec", "constant:1e200", "--n", "10", "--mode", "mc",
                 "--paths", "200", "--out", str(tmp_path / "t.json")]) == 0


def _fsum_root(weights) -> float:
    """The root of the correctly rounded sum of the float64 squares."""
    return math.sqrt(math.fsum(w * w for w in weights.tolist()))


def test_both_tomaszewski_modes_compare_with_one_root(monkeypatch):
    # exact enumeration and MC counting read the same root, at every
    # horizon; for this c, the root of np.sum's pairwise sum of squares
    # differs from it in the last bit at 523 of the horizons 3..2999
    spec = parse_spec("logcont:1.4426950408889634")
    roots = []
    real_root = mc._real_root

    def recorded(spec, n):
        roots.append(real_root(spec, n))
        return roots[-1]
    monkeypatch.setattr(mc, "_real_root", recorded)
    monkeypatch.setenv("AWALK_THREADS", "1")
    for n in range(3, 20):  # 2^18 sums at most: the enumeration grows fast
        sums = np.abs(exact._sign_sums(spec.terms(n)))
        root = _fsum_root(spec.terms(n))
        assert mc.tomaszewski_check(spec, n).probability == Fraction(
            int(np.count_nonzero(sums <= root)), sums.size)
        mc.tomaszewski_check(spec, n, "mc", paths=70, seed=n)
        assert roots[-2:] == [root, root], n


class _Held(SequenceSpec):
    """Real weights held in an array, a range of which `terms_between` gives."""

    is_integer_valued = False

    def __init__(self, w):
        self.w = w

    def canonical(self):
        return f"held:{self.w.size}"

    def terms_between(self, start, stop):
        return self.w[start - 1:stop - 1]


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
    _threads(monkeypatch, threads)
    spec = parse_spec(text)
    n, paths, seed = 300, 150, 13
    root = _fsum_root(spec.terms(n).astype(np.float64))
    inside = sum(abs(mc.simulate(spec, n, mc.RngSpec(seed, p)).final_value) <= root
                 for p in range(paths))
    rep = mc.tomaszewski_check(spec, n, "mc", paths=paths, seed=seed)
    assert rep.probability == inside / paths


def test_tomaszewski_mc_compares_integer_sums_exactly():
    # S(2) = +-(2^60 +- 1) and the root is isqrt(2^120 + 1) = 2^60, so a
    # path lies inside iff its two signs differ; S(n) in float64 rounded
    # 2^60 + 1 down to the root and put every path inside
    spec, paths, seed = parse_spec("explicit:1152921504606846976,1"), 400, 3
    differ = sum(path_signs(mc.RngSpec(seed, p), 2).sum() == 0 for p in range(paths))
    rep = mc.tomaszewski_check(spec, 2, "mc", paths=paths, seed=seed)
    assert rep.probability == differ / paths and 0 < differ < paths


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pass_state_is_cleared_when_a_job_ends(threads, monkeypatch):
    # no kernel outlives its job, whether it returns or raises
    _threads(monkeypatch, threads)
    res = mc._run_blocks(Linear(), 50, 128, 1, (), lambda k: None)
    assert res["final"].shape == (128,) and mc._CTX == {}

    def broken(paths):
        raise RuntimeError("no reducer")
    with pytest.raises(RuntimeError, match="no reducer"):
        mc._run_blocks(Linear(), 50, 128, 1, (), broken)
    assert mc._CTX == {}


def test_a_pool_forks_only_for_jobs_that_pay_for_its_workers(monkeypatch):
    # 300 paths (5 work units) of 200 steps at AWALK_THREADS=2: with fewer
    # than `_WORKER_PATH_STEPS` path-steps per worker the job walks in
    # process and builds no pool; with that many it forks both workers;
    # the arrays are the same
    monkeypatch.setenv("AWALK_THREADS", "2")
    spec, n, paths, seed = Linear(), 200, 300, 3
    job = paths * spec.steps(n)
    reducer = _tallies(spec.first_index, [0, 2], True)
    fork = mc.get_context

    def no_pool(method):
        raise AssertionError(f"a {method} pool was built")
    monkeypatch.setattr(mc, "get_context", no_pool)
    alone = []
    for steps in (job + 1, job, job // 2 + 1):
        monkeypatch.setattr(mc, "_WORKER_PATH_STEPS", steps)
        alone.append(mc._run_blocks(spec, n, paths, seed, [10, n], reducer))
    pools = []

    class Recorded:
        def Pool(self, processes):
            pools.append(processes)
            return fork("fork").Pool(processes=processes)
    monkeypatch.setattr(mc, "get_context", lambda method: Recorded())
    monkeypatch.setattr(mc, "_WORKER_PATH_STEPS", job // 2)
    pooled = mc._run_blocks(spec, n, paths, seed, [10, n], reducer)
    assert pools == [2]
    for res in alone:
        assert sorted(res) == sorted(pooled)
        for name, array in pooled.items():
            assert array.shape[-1] == paths and np.array_equal(res[name], array), name


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
    _threads(monkeypatch, "2")
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
        _threads(monkeypatch, threads)
        rec = mc.recurrence_experiment(spec, n, [0, 2], paths, seed)
        tz = mc.tomaszewski_check(spec, n, "mc", paths=paths, seed=seed)
        path = tmp_path / f"reports-{threads}.json"
        write_json(str(path), {"recurrence": rec.to_dict(), "tomaszewski": asdict(tz)})
        written.append(path.read_bytes())
        finals = mc._run_blocks(spec, n, paths, seed, (), lambda k: None)["final"]
        assert finals.tolist() == [mc.simulate(spec, n, mc.RngSpec(seed, p)).final_value
                                   for p in range(paths)]
    assert written[0] == written[1]
    assert rec.spec == tz.spec == "blocks:<lambda>"
    root = math.sqrt(sum_squares_exact(spec, n))
    assert tz.probability == np.count_nonzero(np.abs(finals) <= root) / paths


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
    # the parent checks the weights before any worker starts, so the refusal
    # reaches the caller at any worker count
    _threads(monkeypatch, threads)
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
        kernel = mc._PathKernel(Constant(1), steps)
        changes = []
        for lo in range(0, len(signs), mc._BLOCK):
            rows = signs[lo:lo + mc._BLOCK]
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


class _GuardPassed(Exception):
    """Raised in place of building the kernel, once the cost guard let a job through."""


def _guard_only(monkeypatch):
    def stop(self, spec, horizon, checkpoint_steps=()):
        raise _GuardPassed(spec.steps(horizon))
    monkeypatch.setattr(mc._PathKernel, "__init__", stop)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_jobs_over_the_path_step_budget_are_refused_before_they_start(threads, monkeypatch,
                                                                      tmp_path, capsys):
    # paths x steps above MAX_PATH_STEPS (10^12) is refused with exit 3, at any
    # worker count, before any weight or run of the walk is built
    _threads(monkeypatch, threads)
    logceil, budget = LogCeilBlocks(2), mc.MAX_PATH_STEPS
    assert budget == 10 ** 12
    _guard_only(monkeypatch)
    for ok in (lambda: mc.simulate(logceil, 10 ** 9, mc.RngSpec(1)),
               lambda: mc.simulate(logceil, budget + 1, mc.RngSpec(1)),
               lambda: mc.recurrence_experiment(logceil, 10 ** 9 + 1, [0], 1000, 1),
               lambda: mc.tomaszewski_check(Linear(), 10 ** 9, "mc", paths=1000)):
        with pytest.raises(_GuardPassed):
            ok()
    for refuse, need in ((lambda: mc.simulate(logceil, budget + 2, mc.RngSpec(1)), budget + 1),
                         (lambda: mc.recurrence_experiment(logceil, 10 ** 9 + 1, [0], 1001, 1),
                          1001 * 10 ** 9),
                         (lambda: mc.sign_change_experiment(Linear(), 10 ** 8, 10 ** 4 + 1, 1),
                          budget + 10 ** 8),
                         (lambda: mc.growth_experiment(PowerFloor(0.5), 10 ** 10, 0.1, 101, 1),
                          101 * 10 ** 10),
                         (lambda: mc.tomaszewski_check(Linear(), 10 ** 9, "mc", paths=1001),
                          1001 * 10 ** 9)):
        with pytest.raises(ResourceError) as exc:
            refuse()
        assert (exc.value.required, exc.value.budget) == (need, budget)
    for command in (["simulate", "--seed", "1", "--n", str(budget + 2)],
                    ["recurrence", "--seed", "1", "--paths", "2000", "--bands", "0",
                     "--n", str(10 ** 9)]):
        out = str(tmp_path / f"{command[0]}.json")
        assert main([*command, "--spec", "logceil:2", "--out", out]) == 3
        assert f"path-steps (budget {budget})" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _main_peak_kib(argv) -> int:
    """The peak resident memory, in KiB, of `awalk.cli.main(argv)` run in a
    fresh process that must exit 0: its own VmHWM, since Linux carries
    ru_maxrss over from the process that forked it across exec."""
    code = ("import json, sys; from awalk.cli import main; code = main(sys.argv[1:]); "
            "peak = next(int(line.split()[1]) for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')); print(json.dumps([code, peak]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    exit_code, peak_kib = json.loads(proc.stdout.strip().splitlines()[-1])
    assert exit_code == 0, proc.stderr
    return peak_kib


def test_long_integer_walk_runs_in_little_memory(tmp_path):
    # 3*10^8 steps of logceil:2 in one process: the walk holds its 28 runs
    # and one chunk's tables, not 8 bytes per step (2.4 GB)
    out = tmp_path / "s.json"
    peak_kib = _main_peak_kib(["simulate", "--spec", "logceil:2", "--n", str(3 * 10 ** 8),
                               "--seed", "1", "--out", str(out)])
    assert json.loads(out.read_text())["path"]["steps"] == 3 * 10 ** 8 - 1
    assert peak_kib < 200 * 1024


def test_real_tomaszewski_enumeration_counts_every_sum_in_little_memory(tmp_path):
    # the sums of the first 16 weights, then the other signs depth first:
    # at the root and at bounds right on sums, whose count one ulp moves,
    # the count is full enumeration's
    for spec in (parse_spec("logcont:1.4426950408889634"), Constant(0.7)):
        n = spec.first_index + 19  # 20 steps
        w = spec.terms(n)
        sums = np.abs(exact._sign_sums(w))
        root = mc._real_root(spec, n)
        for bound in [root, *np.unique(sums)[::997].tolist()]:
            assert exact._sign_sums_within(w, bound) == np.count_nonzero(sums <= bound)
        assert mc.tomaszewski_check(spec, n).probability == Fraction(
            int(np.count_nonzero(sums <= root)), sums.size)
    # 24 steps: 2^24 sums, which full enumeration held at once (360 MB)
    out = tmp_path / "t.json"
    peak_kib = _main_peak_kib(["tomaszewski", "--spec", "logcont:1.4426950408889634",
                               "--n", "25", "--out", str(out)])
    assert json.loads(out.read_text())["horizon"] == 25
    assert peak_kib < 100 * 1024


def test_rngspec_validation():
    with pytest.raises(DomainError):
        mc.RngSpec(-1, 0)
    with pytest.raises(DomainError):
        mc.RngSpec(1 << 64, 0)
    with pytest.raises(DomainError):
        mc.RngSpec(0, -2)


def _gathered_lcbs(values, seed, resamples):
    """The bootstrap bounds with each row resampled on its own, by gathering
    its values from one (resamples, paths) draw."""
    want = []
    for row in values:
        gen = np.random.Generator(np.random.Philox(key=(seed << 64) | mc._BOOTSTRAP_SALT))
        idx = gen.integers(0, values.shape[1], size=(resamples, values.shape[1]))
        want.append(float(np.percentile(row[idx].mean(axis=1), 2.5)))
    return want


@pytest.mark.parametrize("paths", [1, 7, 6144, 70_000])
def test_bootstrap_matches_one_draw_per_row(paths):
    # the growths it resamples are integer counts
    values = np.random.default_rng(paths).integers(0, 100, (3, paths)).astype(np.float64)
    assert mc._bootstrap_lcbs(values, 5, 50) == _gathered_lcbs(values, 5, 50)


_SUM_LIMIT = 1 << 53  # the bootstrap's sums stay below it, so every one is exact


@given(strategies.integers(1, 300).flatmap(lambda paths: strategies.lists(
    strategies.lists(strategies.integers(0, (_SUM_LIMIT - 1) // paths),
                     min_size=paths, max_size=paths), min_size=1, max_size=3)),
    strategies.integers(0, (1 << 64) - 1))
@example([[(_SUM_LIMIT - 1) // 257] * 257, [0] * 256 + [(_SUM_LIMIT - 1) // 257]], 7)
@example([[(_SUM_LIMIT - 1) // 3 - k for k in range(3)]], 1)
@settings(max_examples=40, deadline=None)
def test_bootstrap_counts_match_gathered_means(rows, seed):
    # one matrix product of draw counts against the gather, bit for bit,
    # for integer values up to those whose largest resample sum is 2^53 - 1
    values = np.array(rows, dtype=np.float64)
    assert mc._bootstrap_lcbs(values, seed, 30) == _gathered_lcbs(values, seed, 30)
