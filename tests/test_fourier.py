import math

import numpy as np
import pytest

from awalk import exact, fourier
from awalk.errors import PreconditionError, ToleranceError
from awalk.sequences import Constant, Explicit, Linear, parse_spec


def test_cosine_product_examples():
    assert fourier.cosine_product(Linear(), 5, 0.0).value == 1.0
    assert fourier.cosine_product(Constant(1), 2, math.pi / 3).value == pytest.approx(0.25)
    # zero factor at t = pi/2, up to the float representation of pi
    v = fourier.cosine_product(Linear(), 3, math.pi / 2)
    assert abs(v.value) < 1e-30


def test_cosine_product_log_accumulation_matches_direct():
    spec = parse_spec("powfloor:0.5")
    for t in (0.01, 0.3, 1.7):
        direct = np.prod([math.cos(t * spec.term(k)) for k in range(1, 101)])
        got = fourier.cosine_product(spec, 100, t)
        assert got.value == pytest.approx(direct, rel=1e-10, abs=1e-300)
        absval = fourier.cosine_product(spec, 100, t, absolute=True)
        assert absval.value == pytest.approx(abs(direct), rel=1e-10, abs=1e-300)


def test_cosine_product_deep_horizon_no_underflow():
    v = fourier.cosine_product(parse_spec("powfloor:0.5"), 5000, 0.3, absolute=True)
    assert v.log_abs < -1000  # far below float range, still finite in log form
    assert v.value == 0.0  # collapses only on conversion


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
    nu = rep.envelope_constant(1.0)  # exponent beta + 1/2
    assert nu is not None
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


def _adaptive_integral_reference(f, lo, hi, *, abs_tol=1e-12, rel_tol=0.0, breakpoints=(),
                                 max_nodes=2_000_000):
    """The panel loop before the heap: a max and a list.remove over all panels
    and two math.fsum calls per split."""
    order = fourier._CC_ORDER
    pts = sorted({lo, hi, *(p for p in breakpoints if lo < p < hi)})
    max_panels = max(1, max_nodes // (2 * (order + 1)))
    if len(pts) - 1 > max_panels:
        step = -(-(len(pts) - 1) // max_panels)
        pts = pts[::step] + ([hi] if pts[::step][-1] != hi else [])
    panels = [fourier._eval_panel(f, a, b) for a, b in zip(pts, pts[1:])]
    nodes = (order + 1) * len(panels)
    min_width = (hi - lo) * 1e-14
    while True:
        total = math.fsum(p.value for p in panels)
        err = math.fsum(p.error for p in panels)
        if err <= max(abs_tol, rel_tol * abs(total)):
            break
        splittable = [p for p in panels if p.hi - p.lo > min_width]
        if not splittable or nodes + 2 * (order + 1) > max_nodes:
            raise ToleranceError("budget", best_value=total, achieved_estimate=err, nodes=nodes)
        worst = max(splittable, key=lambda p: (p.error, -p.lo))
        panels.remove(worst)
        mid = 0.5 * (worst.lo + worst.hi)
        panels.append(fourier._eval_panel(f, worst.lo, mid))
        panels.append(fourier._eval_panel(f, mid, worst.hi))
        nodes += 2 * (order + 1)
    panels.sort(key=lambda p: p.lo)
    return fourier.QuadratureResult(
        value=math.fsum(p.value for p in panels), abs_error_estimate=math.fsum(
            p.error for p in panels), nodes=nodes, scheme="adaptive-panel", domain=(lo, hi))


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
    assert outcome(fourier.adaptive_integral) == outcome(_adaptive_integral_reference)
