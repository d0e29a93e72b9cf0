"""Shared test helpers: independent brute-force oracles.

The oracles enumerate sign vectors directly (no convolution, no recursion
shared with the code under test) so they stay valid evidence even if the
production algorithms change.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from awalk import fourier
from awalk import montecarlo as mc
from awalk.errors import ToleranceError
from awalk.reports import _fraction_text, _int_text
from awalk.sequences import parse_spec
from awalk.verify import CheckResult

BATTERY_TEXTS = ("constant:1", "linear", "powfloor:0.5", "powfloor:0.8",
                 "explicit:1,2,3,5,8")


@pytest.fixture(scope="session")
def battery():
    return [parse_spec(t) for t in BATTERY_TEXTS]


def enumerate_sums(weights) -> np.ndarray:
    """All 2^m values of sum_i w_i * x_i over sign vectors, as float64."""
    sums = np.zeros(1, dtype=np.float64)
    for w in weights:
        sums = np.concatenate([sums - float(w), sums + float(w)])
    return sums


def enumerate_int_sums(weights) -> np.ndarray:
    sums = np.zeros(1, dtype=np.int64)
    for w in weights:
        sums = np.concatenate([sums - int(w), sums + int(w)])
    return sums


def first_hit_probability(weights, band) -> Fraction:
    """P(any prefix sum lands in [-band, band]), by path enumeration."""
    m = len(weights)
    hits = 0
    for signs in itertools.product((-1, 1), repeat=m):
        s = 0
        for w, x in zip(weights, signs):
            s += w * x
            if abs(s) <= band:
                hits += 1
                break
    return Fraction(hits, 2 ** m)


def visit_expectation(weights, band) -> Fraction:
    """Expected number of prefix sums in [-band, band], by path enumeration."""
    m = len(weights)
    total = 0
    for signs in itertools.product((-1, 1), repeat=m):
        s = 0
        for w, x in zip(weights, signs):
            s += w * x
            if abs(s) <= band:
                total += 1
    return Fraction(total, 2 ** m)


def full_lattice_band_masses(weights, band, absorb):
    """`exact._band_masses` on the full lattice -A..A, as it was before the
    half-lattice DP: (per-step band masses, final buffer of all A + 1
    big-int counts), by one in-place shift-add per weight."""
    buf = np.zeros(sum(weights) + 1, dtype=object)
    buf[0] = 1
    masses = []
    length, offset = 1, 0
    for a in weights:
        # numpy buffers overlapping operands: new[j] = old[j] + old[j - a]
        buf[a:length + a] += buf[:length]
        length += a
        offset -= a
        if band is not None:
            b = math.floor(band)
            jlo, jhi = max(0, -((b + offset) // 2)), min(length, (b - offset) // 2 + 1)
            masses.append(sum(buf[jlo:jhi]))
            if absorb:
                buf[jlo:jhi] = 0
    return masses, buf


# --- driving the Monte Carlo path kernel with given signs ----------------------

def sign_refills(signs):
    """(refills, paths) for `_PathKernel.run`, as `montecarlo._refills`
    yields them, over given +-1 signs: one path's, or one row per path."""
    packed = np.atleast_2d(np.packbits(np.asarray(signs) > 0, axis=-1, bitorder="little"))
    size = mc._CHUNK // 8  # sign bytes per refill
    return (packed[:, a:a + size] for a in range(0, packed.shape[1], size)), packed.shape[0]


def path_signs(rng, steps):
    """The +-1 steps of path `rng`, from its generator's words directly."""
    words = rng.generator().integers(0, 1 << 64, size=-(-steps // 64), dtype=np.uint64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:steps]
    return bits.astype(np.int64) * 2 - 1


def simulate_signs(spec, signs, bands=(), zero_tol=1e-9, checkpoints=()) -> mc.PathStats:
    """Statistics of the walk driven by an explicit +-1 array, through the
    kernel: its byte path for integer weights, its real walk for real ones."""
    first = spec.first_index
    n = first + len(signs) - 1
    cps = {int(c) for c in checkpoints if first <= c <= n}
    kernel = mc._PathKernel(spec, n, [c - first + 1 for c in cps])
    tally = mc._PathTally(first, bands, zero_tol)
    return tally.stats(n, kernel.steps, *kernel.run(*sign_refills(signs), tally))


# --- references for the Monte Carlo statistics of criterion 8 ------------------

def strict_sign_change_law(steps: int, r_max: int) -> list[float]:
    """P(exactly r strict sign changes in the first `steps` steps of the unit walk).

    Feller, An Introduction to Probability Theory and Its Applications,
    Vol. I, section III.5: the number of sign changes up to epoch 2n+1 is r
    with probability 2 P(S_{2n+1} = 2r+1).  A change through the zero at an
    even epoch k is counted at epoch k+1, so the count by an even epoch 2n
    equals the count by 2n-1.  P(S_m = h) = C(m, (m+h)/2) / 2^m is taken from
    lgamma once and then walked upward by C(m, j+1) = C(m, j) (m-j) / (j+1),
    which stays fast and accurate to ~1e-8 at m ~ 10^6.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    m = steps if steps % 2 else steps - 1
    j = (m + 1) // 2  # S_m = 2j - m = 1
    p = math.exp(math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
                 - m * math.log(2.0))
    law = []
    for _ in range(r_max + 1):
        law.append(2.0 * p)
        p = p * (m - j) / (j + 1) if j < m else 0.0
        j += 1
    return law


def enumerate_sign_change_counts(steps: int) -> list[int]:
    """Strict sign-change counts of all 2^steps unit walks, as a histogram.

    Zeros are skipped; a change is counted when a nonzero value has the sign
    opposite to the last nonzero value before it.
    """
    rows = np.array(list(itertools.product((-1, 1), repeat=steps)), dtype=np.int64)
    walk = np.cumsum(rows, axis=1)
    last = np.zeros(len(rows), dtype=np.int64)
    changes = np.zeros(len(rows), dtype=np.int64)
    for col in walk.T:
        sign = np.sign(col)
        changes += (sign != 0) & (last != 0) & (sign != last)
        last = np.where(sign != 0, sign, last)
    return np.bincount(changes).tolist()


def floor_sqrt_runs(n: int) -> list[tuple[int, int, int]]:
    """(a, first k, last k) for the constant runs of a_k = floor(sqrt(k)), k <= n."""
    return [(a, a * a, min((a + 1) ** 2 - 1, n)) for a in range(1, math.isqrt(n) + 1)]


def band_avoidance_block_estimate(runs, window: tuple[int, int], band: int,
                                  paths: int, seed: int) -> tuple[float, float]:
    """(estimate, standard error) of P(|S(m)| > band for every m in the window).

    `runs` lists (a, first k, last k) for the constant runs of the weights,
    covering 1..window[1].  Each path draws only the run ends: a run of
    weight a and length L moves the walk by a (2 Binomial(L, 1/2) - L).
    Inside the window the walk is S0 + a Y_t along a run, with Y a simple
    random walk bridge from 0 to Y_L = y.  When a > 2 band it can enter the
    band only at the one level y* with |S0 + a y*| <= band, and a path
    contributes the product over runs of the probability that the bridge
    misses y* (`bridge_touch`).  The estimate is unbiased, and its variance
    is below that of the plain indicator.
    """
    lo, hi = window
    gen = np.random.default_rng(seed)
    s = np.zeros(paths, dtype=np.int64)
    keep = np.ones(paths, dtype=np.float64)
    for a, first, last in runs:
        if lo <= last and a <= 2 * band:
            raise ValueError(f"weight {a} in the window does not exceed twice the band {band}")
        # a run that straddles the window start is drawn as two independent parts
        for seg_lo, seg_hi in ((first, min(last, lo - 1)), (max(first, lo), last)):
            length = seg_hi - seg_lo + 1
            if length <= 0:
                continue
            y = 2 * gen.binomial(length, 0.5, size=paths) - length
            if seg_lo >= lo:
                residue = s % a
                near = np.flatnonzero((residue <= band) | (residue >= a - band))
                y_star = -((s[near] + band) // a)  # |s + a y*| <= band
                keep[near] *= 1.0 - bridge_touch(y_star, y[near], length)
            s += a * y
    return float(keep.mean()), float(keep.std(ddof=1) / math.sqrt(paths))


def bridge_touch(level, end, length: int) -> np.ndarray:
    """P(a simple random walk bridge from 0 to `end` in `length` steps visits
    `level` at some step t = 1..length), elementwise.

    It is 1 when the level lies between 0 and the end (the end included) and
    when level = end = 0; 1 - |end|/length when level = 0 (the ballot
    theorem); otherwise C(L, (L + |2 level - end|)/2) / C(L, (L + end)/2) by
    the reflection principle.
    """
    level, end = np.asarray(level, dtype=np.int64), np.asarray(end, dtype=np.int64)
    i = np.arange(length, dtype=np.float64)
    # log C(L, j) for j = 0..L, then log 0 for the unreachable displacements
    log_c = np.concatenate([[0.0], np.cumsum(np.log((length - i) / (i + 1))), [-np.inf]])
    u = np.minimum(np.abs(2 * level - end), length + 2)
    reflected = np.exp(log_c[(length + u) // 2] - log_c[(length + end) // 2])
    between = (level * end > 0) & (np.abs(level) <= np.abs(end))
    ballot = 1.0 - np.abs(end) / length
    return np.where(between | ((level == 0) & (end == 0)), 1.0,
                    np.where(level == 0, ballot, reflected))


def killed_walk_survival(weights, window: tuple[int, int], band: int) -> float:
    """P(|S(m)| > band for every m in the window), by a float64 lattice DP.

    `weights` are the positive integers a_1..a_n; the window is 1-based.
    Mass landing in the band inside the window is removed.
    """
    span = int(sum(weights))
    dist = np.zeros(2 * span + 1, dtype=np.float64)
    dist[span] = 1.0
    for k, a in enumerate(weights, start=1):
        nxt = np.zeros_like(dist)
        nxt[a:] += 0.5 * dist[:-a]
        nxt[:-a] += 0.5 * dist[a:]
        dist = nxt
        if window[0] <= k <= window[1]:
            dist[span - band:span + band + 1] = 0.0
    return float(dist.sum())


# --- exhaustive references for the simple-random-walk sweeps --------------------

def srw_point(m: int, z: int) -> Fraction:
    """P(T_m = z) for the simple symmetric walk T_m = y_1 + ... + y_m."""
    if abs(z) > m or (m + z) % 2 != 0:
        return Fraction(0)
    return Fraction(math.comb(m, (m + z) // 2), 1 << m)


def srw_mod(m: int, k: int, u: int) -> Fraction:
    """P(T_m = u mod k), summed over the residue class within [-m, m]."""
    u = u % k
    count = sum(math.comb(m, (m + z) // 2)
                for z in range(-m, m + 1, 2) if z % k == u)  # T_m = m (mod 2)
    return Fraction(count, 1 << m)


def lemld_reference(m_max: int, scale: int = 100) -> CheckResult:
    """`verify.lemld_sweep` checked at every admissible z of every m.

    `scale` * C(m, w)^2 * m >= 4^m is the integer form of the point bound
    (100 for c1 = 0.1).
    """
    ok = np.zeros(m_max + 1, dtype=bool)
    for m in range(1, m_max + 1):
        zmax = math.isqrt(4 * m)
        z0 = 0 if m % 2 == 0 else 1
        four_m = 1 << (2 * m)
        good = True
        z = z0
        comb = math.comb(m, (m + z0) // 2)
        while z <= zmax:
            if scale * comb * comb * m < four_m:
                good = False
                break
            w = (m + z) // 2
            # step z -> z+2 means w -> w+1
            comb = comb * (m - w) // (w + 1)
            z += 2
        ok[m] = good
    m0 = None
    for m in range(m_max, 0, -1):
        if not ok[m]:
            break
        m0 = m
    failures = [int(m) for m in range(1, m_max + 1) if not ok[m]][:10]
    return CheckResult("srw-point-lower-bound", m0 is not None,
                       {"c1": 0.1, "m_max": m_max, "m0": m0,
                        "first_failures": failures})


def cordiv_reference(k_max: int, m_max: int, scale: int = 20) -> CheckResult:
    """`verify.cordiv_sweep` checked at every m in [k^2, m_max] by a
    residue-class DP.

    `scale` * k * count >= 2^m is the integer form of the residue bound
    (20 for c1/2 = 0.05).
    """
    ok = np.zeros(k_max + 1, dtype=bool)
    worst = {}
    for k in range(1, k_max + 1):
        counts = [0] * k
        counts[0] = 1
        pow2 = 1
        good = True
        for m in range(1, m_max + 1):
            counts = [counts[(r - 1) % k] + counts[(r + 1) % k] for r in range(k)]
            pow2 <<= 1
            if m < k * k or not good:
                continue
            for u in range(k):
                if k % 2 == 0 and (m - u) % 2 != 0:
                    continue
                if scale * k * counts[u] < pow2:
                    good = False
                    worst[k] = {"m": m, "u": u}
                    break
        ok[k] = good
    k1 = None
    for k in range(k_max, 0, -1):
        if not ok[k]:
            break
        k1 = k
    return CheckResult("srw-residue-lower-bound", k1 is not None,
                       {"half_c1": 0.05, "k_max": k_max, "m_max": m_max,
                        "k1": k1, "first_failures": {str(k): worst[k] for k in sorted(worst)[:5]}})


# --- panel-at-a-time Fourier reference ------------------------------------------

class PanelProfile(fourier.CosineProfile):
    """`fourier.CosineProfile` evaluated as before batching: each call gets one
    33-node panel, takes one matrix-vector product over all its nodes and
    counts the parity by an integer product."""

    def log_abs_and_parity(self, t, parity=True):
        c = np.cos(np.multiply.outer(np.asarray(t, dtype=np.float64), self.values))
        with np.errstate(divide="ignore"):
            lg = np.log(np.abs(c)) @ self.mults
        odd = np.zeros(self.values.size, dtype=np.int64)
        odd[self.odd] = 1
        return lg, ((c < 0).astype(np.int64) @ odd) & 1

    def signed(self, t):
        lg, par = self.log_abs_and_parity(t)
        with np.errstate(over="ignore"):
            mag = np.exp(lg)
        return np.where(par == 1, -mag, mag)

    def absolute(self, t):
        return np.exp(self.log_abs_and_parity(t)[0])


def eval_panel(f, lo, hi) -> tuple[float, float]:
    """(value, error estimate) of one panel, from its own call of f."""
    half = 0.5 * (hi - lo)
    y = f(0.5 * (hi + lo) + half * fourier._NODES)
    fine = half * float(y @ fourier._W_FINE)
    coarse = half * float(y[::2] @ fourier._W_COARSE)
    return fine, abs(fine - coarse)


def panel_adaptive_integral(f, lo, hi, *, abs_tol=1e-12, rel_tol=0.0, breakpoints=(),
                            max_nodes=2_000_000):
    """`fourier.adaptive_integral` as a panel list with one call of f per
    panel: a max and a list.remove over all panels and two math.fsum calls
    per split, which pick the same panels as the heap and its exact totals."""
    order = fourier._CC_ORDER
    pts = sorted({lo, hi, *(p for p in breakpoints if lo < p < hi)})
    max_panels = max(1, max_nodes // (2 * (order + 1)))
    if len(pts) - 1 > max_panels:
        step = -(-(len(pts) - 1) // max_panels)
        pts = pts[::step] + ([hi] if pts[::step][-1] != hi else [])
    panels = [(a, b, *eval_panel(f, a, b)) for a, b in zip(pts, pts[1:])]  # (lo, hi, value, error)
    nodes = (order + 1) * len(panels)
    min_width = (hi - lo) * 1e-14
    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= max(abs_tol, rel_tol * abs(total)):
            break
        splittable = [p for p in panels if p[1] - p[0] > min_width]
        if not splittable or nodes + 2 * (order + 1) > max_nodes:
            raise ToleranceError("budget", best_value=total, achieved_estimate=err, nodes=nodes)
        worst = max(splittable, key=lambda p: (p[3], -p[0]))
        panels.remove(worst)
        a, b = worst[:2]
        mid = 0.5 * (a + b)
        panels.append((a, mid, *eval_panel(f, a, mid)))
        panels.append((mid, b, *eval_panel(f, mid, b)))
        nodes += 2 * (order + 1)
    return fourier.QuadratureResult(
        value=math.fsum(p[2] for p in panels), abs_error_estimate=math.fsum(
            p[3] for p in panels), nodes=nodes, domain=(lo, hi))


@pytest.fixture
def panel_reference(monkeypatch):
    """A callable that switches `awalk.fourier` to the panel-at-a-time
    reference for the rest of the test."""
    def switch():
        monkeypatch.setattr(fourier, "adaptive_integral", panel_adaptive_integral)
        monkeypatch.setattr(fourier, "CosineProfile", PanelProfile)
    return switch


# --- per-list descent-time enumeration --------------------------------------------

def descent_survival_reference(weights, start) -> tuple[int, list[int], list[int]]:
    """(r, #{tau > j}, #{tau~ > j} for j = 0..h) for one weight list, from
    first-passage times over all 2^h sign vectors."""
    h = len(weights)
    r = math.ceil(start / weights[0])
    codes = np.arange(1 << h, dtype=np.uint64)
    signs = (((codes[:, None] >> np.arange(h, dtype=np.uint64)) & 1) * 2 - 1).astype(np.int8)
    hit_w = start + np.cumsum(signs * np.asarray(weights, dtype=np.float64), axis=1) <= 0.0
    hit_u = np.cumsum(signs, axis=1, dtype=np.int64) <= -r
    fp_w = np.where(hit_w.any(axis=1), np.argmax(hit_w, axis=1) + 1, h + 1)
    fp_u = np.where(hit_u.any(axis=1), np.argmax(hit_u, axis=1) + 1, h + 1)
    return (r, [int(np.count_nonzero(fp_w > j)) for j in range(h + 1)],
            [int(np.count_nonzero(fp_u > j)) for j in range(h + 1)])


# --- the CSV writer before its type dispatch ----------------------------------------

def legacy_fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return _int_text(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return _fraction_text(v)
    return str(v)


def legacy_csv_bytes(header, rows) -> bytes:
    """The bytes the per-cell CSV writer wrote for these rows."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(legacy_fmt_cell(v) for v in row) + "\n")
    return "".join(lines).encode("utf-8")
