"""Characteristic-function machinery for sign walks.

The characteristic function of S(n) is the cosine product prod_k cos(t*a_k);
for integer weights the point mass comes back through

    P(S(n) = z) = (1/pi) * integral_0^pi cos(t*z) * prod_k cos(t*a_k) dt.

Products are accumulated as log-magnitudes plus a sign parity so horizons in
the thousands do not underflow.  Integrals run on a panel-adaptive
Clenshaw-Curtis scheme: the initial mesh packs geometric panels into the
central peak (width ~ 1/sqrt(sum a_k^2)) and sizes the uniform part by the
total oscillation frequency sum a_k; the worst panel is then split until the
summed error estimate meets tolerance.  Panel values and error estimates
are summed exactly and rounded once, so the value is a deterministic
function of the panel set.

Meshes are evaluated in batches: the whole initial mesh goes to the
integrand in one call, as a (panels, 33) node array, and so do the two
halves of each split.  Batching changes no bit of any panel: each panel
still takes its own two dot products for its value and error estimate,
and `CosineProfile` its own matrix-vector product, so the same panels
split as when every panel was one call.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ToleranceError
from .sequences import SequenceSpec

__all__ = [
    "QuadratureResult",
    "CosineProfile",
    "SullivanReport",
    "TransienceReport",
    "point_mass_fourier",
    "abs_integral",
    "sullivan_constant_estimate",
    "transience_report",
    "adaptive_integral",
]

_EVAL_CHUNK = 1 << 15  # node-by-value entries evaluated at a time (256 KB)


class CosineProfile:
    """Run-length view of the weights of a walk, for fast product evaluation.

    For block-structured sequences the number of distinct values is far below
    the number of terms, so prod_k cos(t*a_k) collapses to a weighted sum of
    log|cos(t*v)| over distinct v.  The spec's value runs are built once;
    the profile keeps the sum of squares and the total frequency sum a_k
    that size the quadrature mesh.

    Nodes are evaluated in place, in chunks of at most _EVAL_CHUNK
    node-by-value entries (but at least one panel).  A node array of two or
    more dimensions holds one panel per row of its last axis, and each panel
    keeps its own matrix-vector product over the values: BLAS sums a row in
    an order that can depend on how many rows the product has, so one
    product over a whole chunk moves the last bit of some node values (2 of
    41,844 for `linear` n=100), and with them which panels split.  A 1-D
    array is cut into products of at most _EVAL_CHUNK entries.
    """

    def __init__(self, spec: SequenceSpec, n: int):
        runs = spec.value_runs(n)
        if not runs:
            raise DomainError(f"{spec.canonical()} has no terms up to {n}")
        self.values = np.asarray([float(v) for v, _ in runs], dtype=np.float64)
        self.mults = np.asarray([float(c) for _, c in runs], dtype=np.float64)
        self.odd = np.flatnonzero([c & 1 for _, c in runs])  # columns that flip the sign
        if spec.is_integer_valued:  # the exact sum in Python ints, rounded once
            self.sum_squares = float(sum(int(v) * int(v) * c for v, c in runs))
        else:  # the float squares summed exactly, rounded once
            try:
                self.sum_squares = sum(_fixed(float(v) * float(v)) * c
                                       for v, c in runs) / _FIXED_ONE
            except OverflowError:  # a square, or their sum, is past float64
                raise DomainError(f"squares of {spec.canonical()} overflow float64") from None
        self.total_freq = float(sum(v * c for v, c in runs))

    def log_abs_and_parity(self, t: np.ndarray, parity: bool = True
                           ) -> tuple[np.ndarray, np.ndarray | None]:
        """(sum of m_v*log|cos(t v)|, parity of negative factors) per node;
        the parity is None when not asked for."""
        t = np.asarray(t, dtype=np.float64)
        flat = t.reshape(-1)
        size = self.values.size
        width = max(1, t.shape[-1] if t.ndim > 1 else _EVAL_CHUNK // size)  # nodes per product
        step = width * max(1, _EVAL_CHUNK // (width * size))  # nodes per chunk
        buf = np.empty((min(step, flat.size), size))
        out_log = np.empty(flat.size)
        out_par = np.empty(flat.size, dtype=np.int64) if parity else None
        for lo in range(0, flat.size, step):
            c = buf[:min(step, flat.size - lo)]
            np.multiply(flat[lo:lo + len(c), None], self.values, out=c)
            np.cos(c, out=c)
            if parity:
                out_par[lo:lo + len(c)] = np.count_nonzero(c[:, self.odd] < 0, axis=1) & 1
            np.abs(c, out=c)
            with np.errstate(divide="ignore"):
                np.log(c, out=c)
            for p in range(0, len(c), width):
                out_log[lo + p:lo + p + width] = c[p:p + width] @ self.mults
        return out_log.reshape(t.shape), None if out_par is None else out_par.reshape(t.shape)

    def signed(self, t: np.ndarray) -> np.ndarray:
        """prod_k cos(t*a_k) per node (underflows cleanly to 0)."""
        lg, par = self.log_abs_and_parity(t)
        with np.errstate(over="ignore"):
            mag = np.exp(lg)
        return np.where(par == 1, -mag, mag)

    def absolute(self, t: np.ndarray) -> np.ndarray:
        """prod_k |cos(t*a_k)| per node."""
        lg, _ = self.log_abs_and_parity(t, parity=False)
        return np.exp(lg)


# --- Clenshaw-Curtis panels -----------------------------------------------------

_CC_ORDER = 32  # 33 nodes per panel; the 17-node subset gives the error estimate


def _cc_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (descending on [-1,1]) and weights of Clenshaw-Curtis.

    Weights come from the inverse FFT of the Chebyshev moments
    integral_{-1}^{1} T_k = 2/(1-k^2) for even k (0 for odd k).
    """
    theta = np.arange(order + 1) * math.pi / order
    nodes = np.cos(theta)
    c = np.zeros(order + 1)
    c[::2] = 2.0 / (1.0 - np.arange(0, order + 1, 2) ** 2)
    w = np.real(np.fft.ifft(np.concatenate([c, c[-2:0:-1]])))
    weights = np.empty(order + 1)
    weights[0] = w[0]
    weights[1:order] = 2.0 * w[1:order]
    weights[order] = w[order]
    return nodes, weights


_NODES, _W_FINE = _cc_rule(_CC_ORDER)
_W_COARSE = _cc_rule(_CC_ORDER // 2)[1]


@dataclass
class QuadratureResult:
    value: float
    abs_error_estimate: float
    nodes: int
    domain: tuple[float, float]


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], lo: Sequence[float],
                 hi: Sequence[float]) -> tuple[list[float], list[float]]:
    """Values and error estimates of the panels [lo_i, hi_i], from one call
    of f on their (panels, 33) nodes; each panel takes its own two dot
    products, so its numbers do not depend on the other panels."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    half = 0.5 * (hi - lo)
    y = f((0.5 * (hi + lo))[:, None] + half[:, None] * _NODES)
    values, errors = [], []
    for h, row in zip(half.tolist(), y):
        fine = h * float(row @ _W_FINE)
        values.append(fine)
        errors.append(abs(fine - h * float(row[::2] @ _W_COARSE)))
    return values, errors


_FIXED_ONE = 1 << 1074  # every finite float is an integer multiple of 2**-1074


def _fixed(x: float) -> int:
    """x as an exact integer count of 2**-1074, so that sums of floats are
    exact; dividing such a sum by _FIXED_ONE rounds it once, as math.fsum does."""
    num, den = x.as_integer_ratio()  # den is a power of two
    return num * (_FIXED_ONE // den)


def _tolerance_error(best_value: float, estimate: float, nodes: int) -> ToleranceError:
    return ToleranceError(f"error estimate {estimate:.3e} above tolerance after {nodes} nodes",
                          best_value=best_value, achieved_estimate=estimate, nodes=nodes)


def adaptive_integral(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, *,
                      abs_tol: float = 1e-12, rel_tol: float = 0.0,
                      breakpoints: Sequence[float] = (),
                      max_nodes: int = 2_000_000) -> QuadratureResult:
    """Integrate a vectorized integrand by splitting the worst panel.

    f maps a (panels, 33) array of nodes to its values elementwise; it gets
    the whole initial mesh in one call, then both halves of each split.  The
    summed two-level Clenshaw-Curtis discrepancy is the error estimate;
    iteration stops once it drops below max(abs_tol, rel_tol*|value|).
    Raises ToleranceError (carrying the best value) if the node budget runs
    out first.  The panels that are wider than the smallest split wait in a
    heap keyed (-error, lo), so the worst one, leftmost on ties, is found in
    O(log panels); the value and error totals are kept exact.
    """
    if hi <= lo:
        raise DomainError(f"empty integration domain [{lo}, {hi}]")
    pts = sorted({lo, hi, *(p for p in breakpoints if lo < p < hi)})
    max_panels = max(1, max_nodes // (2 * (_CC_ORDER + 1)))
    if len(pts) - 1 > max_panels:  # thin the mesh to leave budget for splits
        step = -(-(len(pts) - 1) // max_panels)
        pts = pts[::step] + ([hi] if pts[::step][-1] != hi else [])
    min_width = (hi - lo) * 1e-14
    heap: list[tuple[float, float, float, float]] = []  # (-error, lo, hi, value)
    value = error = nodes = 0

    def add(a: list[float], b: list[float]) -> None:
        nonlocal value, error, nodes
        values, errors = _eval_panels(f, a, b)
        for lo_i, hi_i, v, e in zip(a, b, values, errors):
            if not (math.isfinite(v) and math.isfinite(e)):
                raise DomainError(f"integrand is not finite on [{lo_i}, {hi_i}]")
            value += _fixed(v)
            error += _fixed(e)
            nodes += _CC_ORDER + 1
            if hi_i - lo_i > min_width:
                heapq.heappush(heap, (-e, lo_i, hi_i, v))

    add(pts[:-1], pts[1:])
    while True:
        total, err = value / _FIXED_ONE, error / _FIXED_ONE
        if err <= max(abs_tol, rel_tol * abs(total)):
            break
        if not heap or nodes + 2 * (_CC_ORDER + 1) > max_nodes:
            raise _tolerance_error(total, err, nodes)
        neg_error, a, b, worst = heapq.heappop(heap)
        value -= _fixed(worst)
        error -= _fixed(-neg_error)
        mid = 0.5 * (a + b)
        add([a, mid], [mid, b])
    return QuadratureResult(value=total, abs_error_estimate=err, nodes=nodes,
                            domain=(lo, hi))


def _geometric_ladder(start: float, stop: float) -> list[float]:
    """start, 2*start, 4*start, ... strictly below stop."""
    out = []
    x = start
    while x < stop:
        out.append(x)
        x *= 2.0
    return out


def _breakpoints(profile: CosineProfile, hi: float, uniform: int,
                 mirrored: bool) -> list[float]:
    """Initial mesh on [0, hi]: ``uniform`` equal panels, refined near 0 (and
    near hi when ``mirrored``) by a doubling ladder from a quarter of the
    central peak's width 1/sqrt(sum a_k^2) up to one panel width."""
    ssq = profile.sum_squares
    peak = 1.0 / math.sqrt(ssq) if ssq > 0 else 1.0
    ladder = _geometric_ladder(peak / 4.0, hi / uniform)
    pts = set(np.linspace(0.0, hi, uniform + 1)[1:-1])
    pts.update(ladder)
    if mirrored:
        pts.update(hi - p for p in ladder)
    return sorted(pts)


def _check_tol(abs_tol: float) -> None:
    # a zero, negative or nan tolerance is never met: the panel splits would
    # run to the node budget, which takes minutes
    if not (abs_tol > 0 and math.isfinite(abs_tol)):
        raise DomainError(f"abs_tol must be finite and > 0, got {abs_tol}")


def _scaled(scale: Callable[[float], float], *args, **kwargs) -> QuadratureResult:
    """adaptive_integral(*args, **kwargs) with its value and error estimate,
    and those that a ToleranceError carries and states, mapped through scale."""
    try:
        res = adaptive_integral(*args, **kwargs)
    except ToleranceError as exc:
        raise _tolerance_error(scale(exc.best_value), scale(exc.achieved_estimate),
                               exc.nodes) from exc
    return replace(res, value=scale(res.value), abs_error_estimate=scale(res.abs_error_estimate))


def point_mass_fourier(spec: SequenceSpec, n: int, z: int, *,
                       abs_tol: float = 1e-10,
                       max_nodes: int = 2_000_000) -> QuadratureResult:
    """P(S(n) = z) via (1/pi) * integral_0^pi cos(t z) prod_k cos(t a_k) dt."""
    _check_tol(abs_tol)
    if not spec.is_integer_valued:
        raise PreconditionError(
            f"point-mass inversion needs integer weights; {spec.canonical()} is not")
    z = int(z)
    profile = CosineProfile(spec, n)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.cos(t * z) * profile.signed(t)

    uniform = int(np.clip((profile.total_freq + abs(z)) / 4.0, 8, 4096))
    bps = _breakpoints(profile, math.pi, uniform, mirrored=True)
    # a division, not a product with 1/pi, which moves the last bit
    return _scaled(lambda x: x / math.pi, integrand, 0.0, math.pi,
                   abs_tol=abs_tol * math.pi, breakpoints=bps, max_nodes=max_nodes)


def abs_integral(spec: SequenceSpec, n: int, *,
                 rel_tol: float = 1e-3, abs_tol: float = 1e-12,
                 max_nodes: int = 2_000_000) -> QuadratureResult:
    """integral_{-pi}^{pi} prod_k |cos(t a_k)| dt.

    Integer weights fold the domain to 4 * integral_0^{pi/2} (the product is
    symmetric about pi/2); real weights use 2 * integral_0^{pi}.  The initial
    mesh always resolves the central peak down to a quarter of its width.
    """
    profile = CosineProfile(spec, n)
    factor, hi = (4.0, math.pi / 2) if spec.is_integer_valued else (2.0, math.pi)
    return _scaled(lambda x: factor * x, profile.absolute, 0.0, hi, abs_tol=abs_tol / factor,
                   rel_tol=rel_tol, breakpoints=_breakpoints(profile, hi, 64, mirrored=False),
                   max_nodes=max_nodes)


@dataclass
class SullivanEntry:
    n: int
    scaled: float
    abs_error: float
    nodes: int


@dataclass
class SullivanReport:
    beta: float
    target: float
    entries: list[SullivanEntry]
    extrapolated: float | None
    rel_gap_last: float


def sullivan_constant_estimate(beta, n_list: Sequence[int]) -> SullivanReport:
    """Scaled integrals c_n = n^(beta+1/2) * integral |prod cos| for the
    floor-power walk, against the limit sqrt(8*pi*(1+2*beta)).  Each
    integral runs to a relative tolerance of 1e-4.

    The Aitken delta-squared value of the last three entries is reported as
    the extrapolated limit.
    """
    from .sequences import PowerFloor
    ns = [int(v) for v in n_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise PreconditionError(f"n_list must be increasing positive integers, got {n_list}")
    spec = PowerFloor(beta)
    expo = float(spec.beta) + 0.5
    target = math.sqrt(8.0 * math.pi * (1.0 + 2.0 * float(spec.beta)))
    entries = []
    for n in ns:
        res = abs_integral(spec, n, rel_tol=1e-4)
        scale = n ** expo
        entries.append(SullivanEntry(n=n, scaled=res.value * scale,
                                     abs_error=res.abs_error_estimate * scale,
                                     nodes=res.nodes))
    extrapolated = None
    if len(entries) >= 3:
        c0, c1, c2 = (e.scaled for e in entries[-3:])
        denom = (c2 - c1) - (c1 - c0)
        if denom != 0:
            extrapolated = c2 - (c2 - c1) ** 2 / denom
    gap = abs(entries[-1].scaled - target) / target
    return SullivanReport(beta=float(spec.beta), target=target, entries=entries,
                          extrapolated=extrapolated, rel_gap_last=gap)


@dataclass
class TransienceEntry:
    n: int
    value: float
    abs_error: float
    nodes: int


@dataclass
class TransienceReport:
    """Per-horizon point masses P(S(n) = z) with a summability diagnostic.

    ``slope`` is the log-log fit over the positive entries of the second half
    of the series; a slope below -1 flags a summable trend.  This is a trend
    heuristic, not a certificate.
    """

    spec: str
    z: int
    entries: list[TransienceEntry]
    partial_sums: list[float]
    slope: float | None
    intercept: float | None
    summable_trend: bool | None
    fit_points: int
    note: str = ""


def _fit_entries(entries: list[TransienceEntry]) -> list[tuple[int, float]]:
    half = [e for e in entries[len(entries) // 2:]]
    return [(e.n, e.value) for e in half
            if e.value > max(1e-15, 10.0 * e.abs_error)]


def transience_report(spec: SequenceSpec, n_max: int, z: int, *,
                      abs_tol: float = 1e-10) -> TransienceReport:
    """Series of P(S(n) = z) for n up to n_max, by cosine-product inversion.

    Horizons whose lattice parity excludes z contribute exactly zero without
    quadrature.  Requires at least 8 positive fit points for the slope.
    """
    _check_tol(abs_tol)
    if not spec.is_integer_valued:
        raise PreconditionError(
            f"transience diagnostics need integer weights; {spec.canonical()} is not")
    z = int(z)
    entries = []
    partial = []
    running = 0.0
    total_weight = 0
    for n in range(spec.first_index, n_max + 1):
        total_weight += int(spec.term(n))
        if (total_weight + z) % 2 == 1 or abs(z) > total_weight:
            entries.append(TransienceEntry(n=n, value=0.0, abs_error=0.0, nodes=0))
        else:
            res = point_mass_fourier(spec, n, z, abs_tol=abs_tol)
            entries.append(TransienceEntry(n=n, value=res.value,
                                           abs_error=res.abs_error_estimate,
                                           nodes=res.nodes))
        running += entries[-1].value
        partial.append(running)

    pts = _fit_entries(entries)
    if len(pts) < 8:
        return TransienceReport(spec=spec.canonical(), z=z, entries=entries,
                                partial_sums=partial, slope=None, intercept=None,
                                summable_trend=None, fit_points=len(pts),
                                note="fewer than 8 positive points in the fit window")
    xs = np.log([n for n, _ in pts])
    ys = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    return TransienceReport(spec=spec.canonical(), z=z, entries=entries,
                            partial_sums=partial, slope=float(slope),
                            intercept=float(intercept),
                            summable_trend=bool(slope < -1.0), fit_points=len(pts))
