import math
import re

import numpy as np
import pytest

from awalk import exact, fourier, verify
from awalk.errors import DomainError, PreconditionError, ToleranceError
from awalk.sequences import Constant, Explicit, Linear, parse_spec, sum_squares_exact
from conftest import BATTERY_TEXTS, panel_adaptive_integral


def test_cosine_profile_examples():
    assert fourier.CosineProfile(Linear(), 5).signed(np.array([0.0]))[0] == 1.0
    assert fourier.CosineProfile(Constant(1), 2).signed(
        np.array([math.pi / 3]))[0] == pytest.approx(0.25)
    # zero factor at t = pi/2, up to the float representation of pi
    assert abs(fourier.CosineProfile(Linear(), 3).signed(np.array([math.pi / 2]))[0]) < 1e-30
    # panels in rows: each node as if evaluated alone
    profile = fourier.CosineProfile(Linear(), 7)
    t = np.linspace(0.0, 3.0, 66).reshape(2, 33)
    alone = np.array([profile.signed(np.array([x]))[0] for x in t.ravel()]).reshape(2, 33)
    assert profile.signed(t).shape == (2, 33)
    np.testing.assert_allclose(profile.signed(t), alone, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(profile.absolute(t), np.abs(alone), rtol=1e-12, atol=1e-300)


# 10**14: the block families' sums of squares pass 2^53, so the float is a rounding
@pytest.mark.parametrize("text, n", [
    (t, n) for t in (*verify.BATTERY, "logceil:2", "blocks:pow2") for n in (5, 2000)
    if n <= (parse_spec(t).max_index or n)] + [("logceil:2", 10**14), ("blocks:pow2", 10**14)])
def test_profile_sum_of_squares_is_the_exact_sum_rounded_once(text, n):
    spec = parse_spec(text)
    assert fourier.CosineProfile(spec, n).sum_squares == float(sum_squares_exact(spec, n))


def test_cosine_profile_log_accumulation_matches_direct():
    spec = parse_spec("powfloor:0.5")
    profile = fourier.CosineProfile(spec, 100)
    for shape in ((3,), (1, 3), (3, 1)):
        t = np.array([0.01, 0.3, 1.7]).reshape(shape)
        direct = np.array([np.prod([math.cos(x * spec.term(k)) for k in range(1, 101)])
                           for x in t.ravel()]).reshape(shape)
        np.testing.assert_allclose(profile.signed(t), direct, rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(profile.absolute(t), np.abs(direct), rtol=1e-10,
                                   atol=1e-300)


def test_cosine_profile_deep_horizon_no_underflow():
    profile = fourier.CosineProfile(parse_spec("powfloor:0.5"), 5000)
    for t in (np.array([0.3]), np.full((2, 33), 0.3)):
        lg, _ = profile.log_abs_and_parity(t)
        assert np.all(lg < -1000)  # far below float range, still finite in log form
        assert np.all(np.isfinite(lg))
        assert np.all(profile.absolute(t) == 0.0)  # collapses only on conversion


def test_point_mass_examples():
    assert fourier.point_mass_fourier(Explicit([2]), 1, 2).value == pytest.approx(0.5, abs=1e-10)
    assert fourier.point_mass_fourier(Linear(), 3, 0).value == pytest.approx(0.25, abs=1e-10)
    assert fourier.point_mass_fourier(Linear(), 8, 0).value == pytest.approx(14 / 256, abs=1e-10)


def test_point_mass_agrees_with_distribution(battery):
    for spec in battery:
        n = min(spec.max_index or 20, 20)
        dist = exact.distribution(spec, n)
        for z in (0, 1, -3, 7):
            got = fourier.point_mass_fourier(spec, n, z).value
            assert got == pytest.approx(float(dist.prob(z)), abs=1e-10)


def test_point_mass_tolerance_error_carries_best():
    with pytest.raises(ToleranceError) as exc:
        fourier.point_mass_fourier(Linear(), 40, 0, abs_tol=1e-14, max_nodes=200)
    assert exc.value.best_value is not None
    assert exc.value.achieved_estimate > 0


def test_tolerance_errors_carry_scaled_values():
    # the best value of a run out of nodes is on the scale of the result:
    # P(S(n) = z) for point masses, the full-range integral for abs_integral
    for integrate, z, tols in ((fourier.point_mass_fourier, (1,), {"abs_tol": 1e-19}),
                               (fourier.abs_integral, (), {"rel_tol": 1e-14, "abs_tol": 1e-30})):
        want = integrate(Linear(), 30, *z).value
        with pytest.raises(ToleranceError) as exc:
            integrate(Linear(), 30, *z, max_nodes=2000, **tols)
        assert want > 1e-3 and exc.value.best_value == pytest.approx(want, rel=1e-6)
        # and the message states the scaled error estimate it carries
        assert f"error estimate {exc.value.achieved_estimate:.3e} " in str(exc.value)


def test_abs_integral_examples():
    assert fourier.abs_integral(Constant(1), 1).value == pytest.approx(4.0, rel=1e-9)
    assert fourier.abs_integral(Constant(1), 2).value == pytest.approx(math.pi, rel=1e-9)
    res = fourier.abs_integral(parse_spec("powfloor:0.5"), 500)
    target = math.sqrt(16 * math.pi)
    assert res.value * 500.0 == pytest.approx(target, rel=0.25)


def test_abs_integral_nonincreasing_in_n(battery):
    for spec in battery:
        top = min(spec.max_index or 12, 12)
        vals = [fourier.abs_integral(spec, n).value
                for n in range(spec.first_index, top + 1)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-9)


def test_abs_integral_dominates_point_masses():
    # full-range absolute integral >= 2*pi*P(S(n)=z) for every z
    for text in ("linear", "powfloor:0.5"):
        spec = parse_spec(text)
        n = 12
        dist = exact.distribution(spec, n)
        bound = fourier.abs_integral(spec, n).value
        for z, c in zip(dist.support(), dist.counts):
            assert bound >= 2 * math.pi * c / dist.total - 1e-9


def test_abs_integral_real_weights():
    spec = parse_spec("logcont:2.0")
    res = fourier.abs_integral(spec, 40)
    assert res.value > 0 and res.abs_error_estimate < 1e-3 * res.value
    # |cos| <= 1 so the full-range integral is at most 2*pi
    assert res.value < 2 * math.pi


@pytest.mark.parametrize("spec, n", [(Constant(1e200), 3), (Explicit([1e160, 2.5]), 2),
                                     (Constant(1e154), 3)])
def test_weights_whose_squares_overflow_are_refused(spec, n):
    # a square past float64 ended in an OverflowError from the exact sum of
    # squares; an infinite sum would give the mesh a zero peak width, and
    # its doubling ladder from 0 would never end
    with pytest.raises(DomainError, match=f"{re.escape(spec.canonical())} overflow float64"):
        fourier.CosineProfile(spec, n)
    with pytest.raises(DomainError, match="overflow float64"):
        fourier.abs_integral(spec, n)


def test_sullivan_targets():
    rep = fourier.sullivan_constant_estimate(0.5, [50, 100])
    assert rep.target == pytest.approx(math.sqrt(16 * math.pi))
    rep = fourier.sullivan_constant_estimate(1.0, [50, 100])
    assert rep.target == pytest.approx(math.sqrt(24 * math.pi))
    assert rep.target == pytest.approx(8.6832150, abs=1e-6)


def test_sullivan_gap_shrinks():
    rep = fourier.sullivan_constant_estimate(0.5, [250, 500, 1000])
    gaps = [abs(e.scaled - rep.target) for e in rep.entries]
    assert gaps[0] > gaps[1] > gaps[2]
    assert rep.extrapolated == pytest.approx(rep.target, rel=0.02)


def test_sullivan_rejects_bad_horizons():
    with pytest.raises(PreconditionError):
        fourier.sullivan_constant_estimate(0.5, [100, 50])


def test_transience_linear_matches_dp_and_slope():
    spec = Linear()
    rep = fourier.transience_report(spec, 60, 0)
    for e in rep.entries:
        want = float(exact.distribution(spec, e.n).prob(0))
        assert e.value == pytest.approx(want, abs=1e-8)
        if want == 0.0:
            assert e.value == 0.0 and e.nodes == 0  # parity shortcut is exact
    assert rep.summable_trend is True
    assert rep.slope == pytest.approx(-1.5, abs=0.1)
    assert rep.partial_sums[-1] == pytest.approx(
        float(exact.expected_visits(spec, 60, 0).expected_visits), abs=1e-8)


def test_transience_constant_not_summable():
    rep = fourier.transience_report(Constant(1), 60, 0)
    assert rep.summable_trend is False
    assert rep.slope == pytest.approx(-0.5, abs=0.1)


def test_transience_powfloor_envelope():
    rep = fourier.transience_report(parse_spec("powfloor:0.5"), 60, 0)
    pts = fourier._fit_entries(rep.entries)
    assert pts
    nu = max(v * n for n, v in pts)  # exponent beta + 1/2 = 1
    for e in rep.entries[30:]:
        assert e.value <= nu / e.n + 1e-12


def test_transience_needs_enough_points():
    rep = fourier.transience_report(Linear(), 12, 0)
    assert rep.slope is None and rep.fit_points < 8 and rep.note


def test_point_mass_random_specs_match_dp():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=8),
           st.integers(-6, 6))
    def inner(ws, z):
        spec = Explicit(ws)
        want = float(exact.distribution(spec, len(ws)).prob(z))
        got = fourier.point_mass_fourier(spec, len(ws), z).value
        assert abs(got - want) <= 1e-10

    inner()


def test_adaptive_integral_polynomial_and_peak():
    res = fourier.adaptive_integral(lambda x: x ** 4, 0.0, 1.0, abs_tol=1e-13)
    assert res.value == pytest.approx(0.2, abs=1e-12)
    # a narrow Gaussian bump needs the breakpoint hint or adaptivity
    res = fourier.adaptive_integral(lambda x: np.exp(-(x * 1000.0) ** 2), 0.0, 1.0,
                                    abs_tol=1e-12, breakpoints=[1e-4, 1e-3, 1e-2])
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2000.0, rel=1e-8)


def _cosine_integrand(weights, z):
    return lambda t: np.cos(t * z) * np.prod([np.cos(t * w) for w in weights], axis=0)


@pytest.mark.parametrize("f, lo, hi, breakpoints", [
    (lambda x: x ** 4, 0.0, 1.0, ()),
    (lambda x: np.exp(-(x * 1000.0) ** 2), 0.0, 1.0, [1e-4, 1e-3, 1e-2]),
    (lambda x: np.abs(np.sin(7 * x)) * np.exp(-x), -1.0, 3.0, [0.5]),
    (_cosine_integrand(range(1, 9), 2), 0.0, math.pi, np.linspace(0, math.pi, 9)[1:-1]),
    (_cosine_integrand([1, 1, 2, 3, 5, 8, 13, 21], 1), 0.0, math.pi, ()),
])
@pytest.mark.parametrize("abs_tol, max_nodes", [(1e-6, 2_000_000), (1e-13, 2_000_000),
                                                (1e-300, 20_000)])
def test_adaptive_integral_matches_the_panel_list_loop(f, lo, hi, breakpoints, abs_tol,
                                                       max_nodes):
    # the heap picks the same panel as max(key=(error, -lo)), and the exact
    # totals equal math.fsum, so every stopping decision and result agree
    def outcome(integrate):
        try:
            return integrate(f, lo, hi, abs_tol=abs_tol, breakpoints=breakpoints,
                             max_nodes=max_nodes)
        except ToleranceError as exc:
            return ("tolerance", exc.best_value, exc.achieved_estimate, exc.nodes)
    assert outcome(fourier.adaptive_integral) == outcome(panel_adaptive_integral)


def _quadrature_fields(res):
    return res.value, res.abs_error_estimate, res.nodes


def _bit_identity_cases():
    """(label, thunk) pairs whose results must not depend on batching."""
    cases = []
    for text in BATTERY_TEXTS:
        spec = parse_spec(text)
        for n in (10, 30, 50):
            n = min(n, spec.max_index or n)
            for z in (0, 1, -1, 5, -5):
                cases.append((f"{text} n={n} z={z}",
                              lambda s=spec, n=n, z=z: fourier.point_mass_fourier(s, n, z)))
    linear, pow9 = Linear(), parse_spec("powfloor:0.9")
    cases += [
        ("linear n=100 z=2", lambda: fourier.point_mass_fourier(linear, 100, 2)),
        ("linear n=100 abs", lambda: fourier.abs_integral(linear, 100)),
        ("powfloor:0.9 n=300 z=0", lambda: fourier.point_mass_fourier(pow9, 300, 0)),
        ("powfloor:0.9 n=300 abs", lambda: fourier.abs_integral(pow9, 300, rel_tol=1e-4)),
        ("powfloor:0.9 n=2500 abs", lambda: fourier.abs_integral(pow9, 2500, rel_tol=1e-4)),
        # tolerances tight enough to split panels, one of them past the budget
        ("linear n=40 tight", lambda: fourier.point_mass_fourier(linear, 40, 0, abs_tol=1e-18)),
        ("linear n=40 budget", lambda: fourier.point_mass_fourier(
            linear, 40, 0, abs_tol=1e-19, max_nodes=12_000)),
        ("powfloor:0.9 n=300 tight abs",
         lambda: fourier.abs_integral(pow9, 300, rel_tol=0.0, abs_tol=1e-18)),
    ]
    return cases


def _outcome(thunk):
    try:
        res = thunk()
    except ToleranceError as exc:
        return ("tolerance", exc.best_value, exc.achieved_estimate, exc.nodes)
    if isinstance(res, fourier.TransienceReport):
        return [(e.n, e.value, e.abs_error, e.nodes) for e in res.entries]
    return _quadrature_fields(res)


def test_batched_quadrature_equals_panel_at_a_time(panel_reference):
    # batching the panels and chunking the profile change no bit of any result
    cases = _bit_identity_cases() + [
        ("transience linear 50", lambda: fourier.transience_report(Linear(), 50, 2))]
    batched = [_outcome(thunk) for _, thunk in cases]
    panel_reference()
    reference = [_outcome(thunk) for _, thunk in cases]
    for (label, _), got, want in zip(cases, batched, reference):
        assert got == want, label


def test_bit_identity_cases_split_panels():
    # the tight cases exercise the split path, not only the initial mesh
    thunks = dict(_bit_identity_cases())
    mesh = fourier.point_mass_fourier(Linear(), 40, 0).nodes
    abs_mesh = fourier.abs_integral(parse_spec("powfloor:0.9"), 300).nodes
    assert _outcome(thunks["linear n=40 tight"])[-1] > mesh
    assert _outcome(thunks["linear n=40 budget"])[0] == "tolerance"
    assert _outcome(thunks["linear n=40 budget"])[-1] > mesh
    assert _outcome(thunks["powfloor:0.9 n=300 tight abs"])[-1] > abs_mesh
