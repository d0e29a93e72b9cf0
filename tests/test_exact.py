import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awalk import exact, verify
from awalk.errors import PreconditionError, ResourceError, UnsupportedVariantError
from awalk.sequences import Constant, Explicit, Linear, LogContinuous, parse_spec

from conftest import (descent_survival_reference, enumerate_int_sums,
                      first_hit_probability, full_lattice_band_masses, srw_mod,
                      srw_point, visit_expectation)


def brute_counts(weights):
    sums = enumerate_int_sums(weights)
    total = int(sum(abs(w) for w in weights))
    return np.bincount((sums + total) // 2, minlength=total + 1)


def test_distribution_examples():
    d = exact.distribution(Linear(), 3)
    assert d.prob(0) == Fraction(2, 8)
    assert list(d.support()) == list(range(-6, 7, 2))
    assert exact.distribution(Constant(1), 2).prob(0) == Fraction(1, 2)
    assert exact.distribution(Linear(), 8).count(0) == 14


def test_distribution_matches_enumeration_battery(battery):
    for spec in battery:
        top = min(spec.max_index or 12, 12)
        for n in range(spec.first_index, top + 1):
            d = exact.distribution(spec, n)
            counts = brute_counts(spec.int_terms(n))
            assert [int(c) for c in counts] == d.counts, (spec.canonical(), n)


def test_distribution_invariants(battery):
    for spec in battery:
        n = min(spec.max_index or 14, 14)
        d = exact.distribution(spec, n)
        d.validate()
        assert sum(d.counts) == d.total
        # parity: reachable z all congruent to the weight sum mod 2
        a = sum(spec.int_terms(n))
        for z, c in zip(d.support(), d.counts):
            if c:
                assert (z - a) % 2 == 0


def test_distribution_rejects_real_weights():
    with pytest.raises(UnsupportedVariantError):
        exact.distribution(LogContinuous(1.0), 10)


def test_distribution_resource_budget():
    # 1 + 10000*10001/2 = 50,005,001 cells: refused before any allocation
    with pytest.raises(ResourceError) as exc:
        exact.distribution(Linear(), 10_000)
    assert exc.value.required == 50_005_001 > exc.value.budget == exact.MAX_CELLS


def test_expected_visits_resource_budget():
    with pytest.raises(ResourceError) as exc:
        exact.expected_visits(Linear(), 10_000)
    assert exc.value.required == 50_005_001 > exc.value.budget == exact.MAX_CELLS


def test_distribution_count_examples():
    assert exact.distribution(Linear(), 7).count(0) == 8
    assert exact.distribution(Linear(), 5).count(0) == 0
    assert exact.distribution(Explicit([2]), 1).count(2) == 1
    assert exact.distribution(Linear(), 8).count(1) == 0  # off-parity target


def test_zero_hit_examples():
    assert exact.zero_hit_probability(Linear(), 4, 0).hit_probability == Fraction(3, 8)
    assert exact.zero_hit_probability(Constant(1), 2, 0).hit_probability == Fraction(1, 2)
    assert exact.zero_hit_probability(Explicit([3]), 1, 5).hit_probability == 1


def test_zero_hit_matches_path_enumeration(battery):
    for spec in battery:
        top = min(spec.max_index or 10, 10)
        ws = spec.int_terms(top)
        for band in (0, 1, 3):
            got = exact.zero_hit_probability(spec, top, band).hit_probability
            assert got == first_hit_probability(ws, band), (spec.canonical(), band)


def test_zero_hit_monotone_in_horizon_and_band():
    spec = parse_spec("powfloor:0.5")
    vals = [exact.zero_hit_probability(spec, n, 0).hit_probability for n in range(1, 14)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    bands = [exact.zero_hit_probability(spec, 12, c).hit_probability for c in range(0, 6)]
    assert all(a <= b for a, b in zip(bands, bands[1:]))


def test_zero_hit_first_hit_mass_sums_to_probability():
    rep = exact.zero_hit_probability(Linear(), 12, 2)
    assert sum(p for _, p in rep.per_n) == rep.hit_probability <= 1


def assert_float_report(fl, ex, field):
    """The float256 report holds float() of every exact value, bit for bit."""
    assert (ex.mode, fl.mode) == ("exact-rational", "float256")
    assert [k for k, _ in fl.per_n] == [k for k, _ in ex.per_n]
    got = [getattr(fl, field)] + [p for _, p in fl.per_n]
    want = [getattr(ex, field)] + [p for _, p in ex.per_n]
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [float(x).hex() for x in want]


def test_zero_hit_float_mode_agrees():
    spec = Linear()
    a = exact.zero_hit_probability(spec, 14, 0, mode="exact")
    b = exact.zero_hit_probability(spec, 14, 0, mode="float256")
    assert_float_report(b, a, "hit_probability")


def test_auto_reports_floats_above_the_digit_budget(monkeypatch):
    fns = ((exact.zero_hit_probability, "hit_probability"),
           (exact.expected_visits, "expected_visits"))
    exact_reports = [fn(Linear(), 60, 2) for fn, _ in fns]
    monkeypatch.setattr(exact, "DIGIT_BUDGET", 10)  # 2^60 has 19 digits
    for (fn, field), ex in zip(fns, exact_reports):
        assert_float_report(fn(Linear(), 60, 2), ex, field)


def test_no_command_imports_mpmath(tmp_path):
    # a fresh process: float256 reports the big-int DP in float64, so it
    # loads mpmath no more than a Monte Carlo run does
    code = ("import sys; from awalk.cli import main; "
            "assert main(['recurrence', '--spec', 'linear', '--n', '200', '--paths', '70', "
            "'--seed', '1', '--bands', '0', '--out', sys.argv[1] + '/r.json']) == 0; "
            "assert main(['visits', '--spec', 'linear', '--n', '60', '--mode', 'float256', "
            "'--out', sys.argv[1] + '/v.csv']) == 0; "
            "assert main(['hit', '--spec', 'linear', '--n', '60', '--mode', 'float256', "
            "'--out', sys.argv[1] + '/h.json']) == 0; "
            "assert 'mpmath' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr


def test_degenerate_band_covers_first_step():
    # band at least a_1 absorbs everything at the first step
    rep = exact.zero_hit_probability(Linear(), 1, 1)
    assert rep.hit_probability == 1


def test_expected_visits_examples():
    rep = exact.expected_visits(Linear(), 8, 0)
    assert rep.expected_visits == Fraction(63, 128)
    assert float(rep.expected_visits) == 0.4921875
    assert exact.expected_visits(Constant(1), 2, 0).expected_visits == Fraction(1, 2)
    assert all(p <= 1 for _, p in rep.per_n)


def test_expected_visits_matches_path_enumeration(battery):
    for spec in battery:
        top = min(spec.max_index or 9, 9)
        ws = spec.int_terms(top)
        got = exact.expected_visits(spec, top, 1).expected_visits
        assert got == visit_expectation(ws, 1), spec.canonical()


def test_srw_point_examples():
    assert srw_point(4, 2) == Fraction(4, 16)
    assert srw_point(4, 1) == 0
    assert srw_point(0, 0) == 1
    assert srw_point(6, 8) == 0


def test_srw_mod_examples():
    assert srw_mod(2, 2, 0) == 1
    assert srw_mod(1, 5, 0) == 0
    # exhaustive oracle over all 2^9 paths
    sums = enumerate_int_sums([1] * 9)
    want = Fraction(int(np.count_nonzero(sums % 3 == 0)), 512)
    assert srw_mod(9, 3, 0) == want


def test_two_scale_point_examples():
    # brute force over 2^8 sign vectors of (k-1)*X + k*Y with k=2, n=4
    k, n = 2, 4
    total = 0
    target = {}
    xs = enumerate_int_sums([1] * n)
    for sx in xs:
        for sy in xs:
            target[(k - 1) * sx + k * sy] = target.get((k - 1) * sx + k * sy, 0) + 1
    row = [math.comb(n, w) for w in range(n + 1)]
    for j in (0, 2, 4, 6, 3):
        assert exact._two_scale_count(k, n, j, row) == target.get(j, 0)
    assert exact._two_scale_count(2, 1, 3, [1, 1]) == 1  # of 4 sign vectors
    assert exact._two_scale_count(2, 4, 1, row) == 0  # parity-forbidden


def test_dominance_examples():
    rep = exact.dominance_check([1, 1, 1, 1], 1.0)
    assert rep.passed and rep.r == 1
    assert rep.survival_weighted == rep.survival_unit  # identical laws
    rep = exact.dominance_check([1, 2, 3], 0.5)
    assert rep.passed and rep.r == 1
    rep = exact.dominance_check([2, 2, 2, 2, 2], 3.0)
    assert rep.passed and rep.r == 2
    assert rep.survival_weighted == rep.survival_unit  # scaled unit walk
    rep = exact.dominance_check([5e-324], 1.0)  # the float ratio overflows
    assert rep.passed and rep.r == 2 ** 1074
    with pytest.raises(PreconditionError):
        exact.dominance_check([2, 1], 1.0)


@pytest.mark.parametrize("ws, start", [([math.nan, 1.0], 1.0), ([1.0], math.inf),
                                       ([1.0, math.inf], 1.0)])
def test_dominance_rejects_non_finite_input(ws, start):
    with pytest.raises(PreconditionError):
        exact.dominance_check(ws, start)


def test_descent_core_equals_per_list_enumeration():
    # every list over these values with h <= 8 and every start, one core call
    # per length; at h = 8 the 165 lists go in three groups
    values = (0.5, 1, 2, 3)
    starts = (0.25, 0.5, 1.0, 1.5, 2, 5.0)
    for h in range(1, 9):
        lists = list(itertools.combinations_with_replacement(values, h))
        r, surv_w, surv_u = exact._descent_survivals(exact._descent_weights(lists), starts)
        for i, ws in enumerate(lists):
            for k, a in enumerate(starts):
                want = descent_survival_reference([float(w) for w in ws], a)
                assert (r[i][k], surv_w[i][k], surv_u[i][k]) == want, (ws, a)


def test_dominance_check_spans_chunks_of_sign_vectors():
    # 2^16 sign vectors go in 8 chunks; r = 7 > 4 exercises the capped level
    for ws, a in (([1.0] * 8 + [2.0] * 8, 2.5), ([0.5] * 4 + [3.0] * 12, 3.1),
                  ([1.0, 2.0, 3.0, 4.0], 7.0)):
        rep = exact.dominance_check(ws, a)
        total = 1 << len(ws)
        r, surv_w, surv_u = descent_survival_reference(ws, a)
        assert rep.r == r
        assert rep.survival_weighted == [Fraction(c, total) for c in surv_w]
        assert rep.survival_unit == [Fraction(c, total) for c in surv_u]


def test_dominance_survival_by_enumeration():
    # independent oracle for the weighted side
    ws, a = [1, 2, 2, 3], 1.5
    rep = exact.dominance_check(ws, a)
    import itertools
    for j in range(len(ws) + 1):
        survive = 0
        for signs in itertools.product((-1, 1), repeat=len(ws)):
            s = a
            alive = True
            for i in range(j):
                s += ws[i] * signs[i]
                if s <= 0:
                    alive = False
                    break
            survive += alive
        assert rep.survival_weighted[j] == Fraction(survive, 2 ** len(ws))


def sweep_tail(ws, a) -> Fraction:
    """`verify.azuma_sweep`'s tail P(|S| >= a): all sign vectors but those
    with |S| <= a - 1, on the integer lattice."""
    dist = exact._lattice(list(ws))
    return Fraction(dist.total - dist.band_count(a - 1), dist.total)


def test_azuma_examples():
    assert sweep_tail([1], 1) == 1
    assert sweep_tail([1, 1], 2) == Fraction(1, 2)
    assert sweep_tail([1, 2, 3], 7) == 0


def test_azuma_tail_within_bound_off_the_sweep():
    # 5 lies outside azuma_sweep's default values (1, 2, 3)
    check = verify.azuma_sweep(max_len=4, values=(1, 2, 3, 5))
    assert check.passed and check.details["weight_lists"] == 69


def test_avoid_pattern_examples():
    assert exact.avoid_pattern_count(1) == 2
    assert exact.avoid_pattern_count(3) == 7
    assert exact.avoid_pattern_count(4) == 12
    # linear recurrence implied by the transfer matrix
    f = [exact.avoid_pattern_count(k) for k in range(1, 16)]
    for i in range(3, len(f)):
        assert f[i] == 2 * f[i - 1] - f[i - 2] + f[i - 3]


def test_lattice_serialization_roundtrip():
    d = exact.distribution(parse_spec("powfloor:0.5"), 9)
    blob = d.to_bytes()
    assert blob[:4] == b"AWLD"
    back = exact.LatticeDist.from_bytes(blob)
    assert back == d
    rows = list(d.csv_rows())
    assert rows[0][0] == d.offset and len(rows) == len(d.counts)


def test_lattice_blob_refuses_a_stride_other_than_2():
    blob = bytearray(exact.distribution(Linear(), 5).to_bytes())
    assert blob[21] == 2  # magic, version, n and offset come first
    for stride in (1, 3):
        blob[21] = stride
        with pytest.raises(PreconditionError, match="stride"):
            exact.LatticeDist.from_bytes(bytes(blob))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=9))
def test_distribution_random_explicit(ws):
    spec = Explicit(ws)
    d = exact.distribution(spec, len(ws))
    assert [int(c) for c in brute_counts(ws)] == d.counts
    d.validate()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8),
       st.integers(0, 4))
def test_zero_hit_random_explicit(ws, band):
    spec = Explicit(ws)
    got = exact.zero_hit_probability(spec, len(ws), band).hit_probability
    assert got == first_hit_probability(ws, band)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=10))
def test_serialization_roundtrip_random(ws):
    d = exact.distribution(Explicit(ws), len(ws))
    assert exact.LatticeDist.from_bytes(d.to_bytes()) == d


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=56, max_size=80), st.integers(0, 4))
@example([1, 2] * 150, 2)
def test_float256_agrees_with_exact(ws, band):
    # over 53 steps, so counts and sums need more than float64's 53 bits;
    # the example's 300 steps need more than 256
    spec = Explicit(ws)
    n = len(ws)
    for fn, field in ((exact.zero_hit_probability, "hit_probability"),
                      (exact.expected_visits, "expected_visits")):
        assert_float_report(fn(spec, n, band, mode="float256"),
                            fn(spec, n, band, mode="exact"), field)


# 0.5 and, on an odd lattice, 0 lie below the first cell; 10**9 covers every cell
DP_BANDS = st.sampled_from([None, 0, 0.5, 1, 2.5, 3, 10**9])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=24), DP_BANDS, st.booleans())
@example([3], 0, True)
@example([0, 2, 0, 3], 0.5, False)
@example([0], 10**9, True)
def test_half_lattice_dp_equals_full_lattice_counts(ws, band, absorb):
    masses, half = exact._band_masses(ws, band, absorb)
    want, full = full_lattice_band_masses(ws, band, absorb)
    assert masses == want
    total = sum(ws)
    assert len(half) == total // 2 + 1
    assert half.tolist() == full.tolist()[(total + 1) // 2:]
    if band is None:
        assert exact._lattice(ws).counts == full.tolist()
        if all(ws):
            assert exact.distribution(Explicit(ws), len(ws)).counts == full.tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.integers(1, 40))
@example([0, 2, 0, 3], 1)
@example([0], 1)
def test_azuma_integer_tail_matches_enumeration(ws, threshold):
    sums = enumerate_int_sums(ws)
    want = Fraction(int(np.count_nonzero(np.abs(sums) >= threshold)), sums.size)
    assert sweep_tail(ws, threshold) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8),
       st.one_of(st.integers(0, 30), st.floats(0, 30)))
def test_band_count_matches_support_scan(ws, c):
    d = exact.distribution(Explicit(ws), len(ws))
    assert d.band_count(c) == sum(k for z, k in zip(d.support(), d.counts) if abs(z) <= c)
