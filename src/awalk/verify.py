"""Exact verification sweeps and oracle suites.

Each inequality sweep checks one family of inequalities over its stated
range using integer arithmetic only, so a pass is a finite proof for that
range.  Most sweeps compare every case; the two simple-random-walk sweeps
compare only the case that a monotonicity lemma, stated in their
docstrings, shows to be the smallest, which proves the same statement.
The oracle suites compare independent computations of the same quantity.
Sweeps that locate a validity threshold (the smallest m or k from which a
bound holds through the top of the range) report the discovered value so
regressions are visible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError
from . import exact
from .montecarlo import tomaszewski_check
from .sequences import parse_spec

__all__ = [
    "CheckResult",
    "SuiteResult",
    "azuma_sweep",
    "lemld_sweep",
    "cordiv_sweep",
    "two_scale_sweep",
    "dominance_sweep",
    "tomaszewski_sweep",
    "enumeration_oracle_suite",
    "fourier_agreement_suite",
    "pattern_suite",
    "BCReport",
    "bc_bound_propagation",
    "bc_suite",
    "run_suite",
    "SUITES",
]

# Specs exercised by the oracle and inequality batteries.
BATTERY = ("constant:1", "linear", "powfloor:0.5", "powfloor:0.8",
           "explicit:1,2,3,5,8")


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checks: list[CheckResult]

    def to_dict(self) -> dict:
        return {"schema": "awalk-verify/1", **asdict(self)}


# --- sub-Gaussian tail bound ------------------------------------------------------

def azuma_sweep(max_len: int = 12, values: tuple[int, ...] = (1, 2, 3)) -> CheckResult:
    """Exact tail <= 2*exp(-A^2/(2*sum b^2)) for every weight list over
    ``values`` with length <= max_len and every integer A in [1, sum b].

    Tail and bound depend only on the weight multiset, so sweeping multisets
    covers all orderings.
    """
    lists = 0
    checks = 0
    failures = []
    for h in range(1, max_len + 1):
        for ws in itertools.combinations_with_replacement(values, h):
            lists += 1
            dist = exact._lattice(list(ws))
            ssq = sum(w * w for w in ws)
            for a in range(1, sum(ws) + 1):
                checks += 1
                # |z| >= a  <=>  not |z| <= a - 1, on the integer lattice
                tail = (dist.total - dist.band_count(a - 1)) / dist.total
                bound = 2.0 * math.exp(-a * a / (2.0 * ssq))
                if tail > bound:
                    failures.append({"weights": list(ws), "A": a,
                                     "tail": tail, "bound": bound})
    return CheckResult("azuma-exact-tail-bound", not failures,
                       {"weight_lists": lists, "checks": checks,
                        "max_len": max_len, "failures": failures[:5]})


# --- simple-random-walk point bound ----------------------------------------------

# Integer forms of the two bounds: P(T_m = z) >= c1/sqrt(m) with c1 = 0.1 is
# _POINT_SCALE * C(m, w)^2 * m >= 4^m, and P(T_m = u mod k) >= (c1/2)/k is
# _RESIDUE_SCALE * k * count >= 2^m.
_POINT_SCALE = 100
_RESIDUE_SCALE = 20


def _largest_admissible_z(m: int) -> int:
    """The largest z with z <= 2*sqrt(m) and m + z even."""
    top = math.isqrt(4 * m)
    return top - (top - m) % 2


def lemld_sweep(m_max: int = 2000) -> CheckResult:
    """P(T_m = z) >= c1/sqrt(m), c1 = 0.1, for all |z| <= 2*sqrt(m) with m+z even.

    Exact integer comparison: 100 * C(m,w)^2 * m >= 4^m with
    w = (m+z)/2.  Lemma: C(m, w) does not increase in w for w >= m/2, so
    P(T_m = z) does not increase in |z|, and the bound holds for every
    admissible z once it holds for the largest one,
    z_m = isqrt(4m) - ((isqrt(4m) - m) mod 2).  That is the one case
    checked per m.  z_{m+1} = z_m +- 1, so C(m, w_m) is carried from m - 1
    by one multiplication and one exact division.
    Reports the smallest m0 such that every m in [m0, m_max] passes.
    """
    failures = []
    comb, w = 1, 0  # C(0, 0)
    for m in range(1, m_max + 1):
        w_next = (m + _largest_admissible_z(m)) // 2
        # C(m, w+1) = C(m-1, w) m / (w+1);  C(m, w) = C(m-1, w) m / (m-w)
        comb = comb * m // (w + 1 if w_next > w else m - w)
        w = w_next
        if _POINT_SCALE * comb * comb * m < 1 << (2 * m):
            failures.append(m)
    last_bad = failures[-1] if failures else 0
    m0 = last_bad + 1 if last_bad < m_max else None
    return CheckResult("srw-point-lower-bound", m0 is not None,
                       {"c1": 0.1, "m_max": m_max, "m0": m0,
                        "first_failures": failures[:10]})


def cordiv_sweep(k_max: int = 40, m_max: int = 4000) -> CheckResult:
    """P(T_m = u mod k) >= (c1/2)/k, c1/2 = 0.05, for k in [k1, k_max], m in [k^2, m_max],
    u any residue with the parity hypotheses (k odd, or k and m-u both even).

    Exact: 20 * k * count(T_m = u mod k) >= 2^m.  Lemma: count_{m+1}(u) =
    count_m(u-1) + count_m(u+1), and u +- 1 is admissible at m whenever u
    is admissible at m+1, so the smallest admissible count at m+1 is at
    least twice the one at m, while 2^{m+1} = 2 * 2^m.  A k that passes at
    m = k^2 therefore passes at every larger m, and only m = k^2 is
    counted, by summing C(k^2, w) into residue classes; k with k^2 > m_max
    has nothing to check.  A failing k reports m = k^2 and its first
    failing u.  Reports the smallest k1 from which every larger k passes.
    """
    worst = {}
    for k in range(1, k_max + 1):
        m = k * k
        if m > m_max:
            continue
        counts = [0] * k
        comb = 1  # C(m, w)
        for w in range(m + 1):
            counts[(2 * w - m) % k] += comb
            comb = comb * (m - w) // (w + 1)
        for u in range(k):
            if k % 2 == 0 and (m - u) % 2 != 0:
                continue
            if _RESIDUE_SCALE * k * counts[u] < 1 << m:
                worst[k] = {"m": m, "u": u}
                break
    last_bad = max(worst, default=0)
    k1 = last_bad + 1 if last_bad < k_max else None
    return CheckResult("srw-residue-lower-bound", k1 is not None,
                       {"half_c1": 0.05, "k_max": k_max, "m_max": m_max,
                        "k1": k1, "first_failures": {str(k): worst[k] for k in sorted(worst)[:5]}})


def two_scale_sweep(k_top: int = 20) -> CheckResult:
    """P((k-1)*X + k*Y = j) >= coeff/n, coeff = c1^2/4 = 1/400, for even k,
    n = k^2, all even |j| <= n, where X and Y are sums of n independent
    signs each.

    Exact: P = count / 4^n, so the comparison is
    400 * count * n >= 4^n.  Reports the smallest even k2 from which all
    larger even k pass.
    """
    results = {}
    for k in range(2, k_top + 1, 2):
        n = k * k
        row = [math.comb(n, w) for w in range(n + 1)]
        results[k] = all(400 * exact._two_scale_count(k, n, j, row) * n >= 1 << (2 * n)
                         for j in range(0, n + 1, 2))
    k2 = None
    for k in sorted(results, reverse=True):
        if not results[k]:
            break
        k2 = k
    return CheckResult("two-scale-point-lower-bound", k2 is not None,
                       {"coeff": 0.0025, "k_top": k_top, "k2": k2,
                        "per_k": {str(k): bool(v) for k, v in results.items()}})


def dominance_sweep(max_len: int = 10, values: tuple[int, ...] = (1, 2, 3),
                    starts: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)) -> CheckResult:
    """Descent-time dominance for every non-decreasing weight list over
    ``values`` with length <= max_len and every start level in ``starts``.

    Each length's 2^h sign vectors are enumerated once, for all its lists
    and starts, by the core behind `exact.dominance_check`."""
    lists = 0
    failures = []
    for a in starts:
        exact._check_start(a)
    for h in range(1, max_len + 1):
        wss = list(itertools.combinations_with_replacement(values, h))
        if not wss:
            continue
        lists += len(wss)
        _, surv_w, surv_u = exact._descent_survivals(exact._descent_weights(wss), starts)
        for ws, per_w, per_u in zip(wss, surv_w, surv_u):
            for a, w_counts, u_counts in zip(starts, per_w, per_u):
                j = exact._first_violation(w_counts, u_counts)
                if j is not None:
                    failures.append({"weights": list(ws), "start": a, "j": j})
    return CheckResult("descent-time-dominance", not failures,
                       {"weight_lists": lists, "starts": list(starts),
                        "failures": failures[:5]})


def tomaszewski_sweep(n_max: int = 20) -> CheckResult:
    """P(|S(n)| <= sqrt(sum a^2)) >= 1/2 for the battery, exactly
    (`montecarlo.tomaszewski_check` in exact mode)."""
    failures = []
    cases = 0
    for text in BATTERY:
        spec = parse_spec(text)
        top = min(n_max, spec.max_index or n_max)
        for n in range(spec.first_index, top + 1):
            cases += 1
            rep = tomaszewski_check(spec, n)
            if not rep.passed:
                failures.append({"spec": text, "n": n, "probability": str(rep.probability)})
    return CheckResult("tomaszewski-half-bound", not failures,
                       {"cases": cases, "n_max": n_max, "failures": failures})


# --- oracle agreement -------------------------------------------------------------

def brute_force_counts(weights: list[int]) -> tuple[int, np.ndarray]:
    """(offset, counts) over all 2^len sign vectors, enumerated directly."""
    sums = np.zeros(1, dtype=np.int64)
    for w in weights:
        sums = np.concatenate([sums - w, sums + w])
    total = int(np.sum(np.abs(np.asarray(weights, dtype=np.int64)))) if weights else 0
    counts = np.bincount(((sums + total) // 2).astype(np.int64), minlength=total + 1)
    return -total, counts


def enumeration_oracle_suite(n_max: int = 18) -> CheckResult:
    """Convolution DP equals direct enumeration, count for count."""
    mismatches = []
    cases = 0
    for text in BATTERY:
        spec = parse_spec(text)
        top = min(n_max, spec.max_index or n_max)
        for n in range(spec.first_index, top + 1):
            cases += 1
            dist = exact.distribution(spec, n)
            offset, counts = brute_force_counts(spec.int_terms(n))
            same = (offset == dist.offset and len(counts) == len(dist.counts)
                    and all(int(a) == b for a, b in zip(counts, dist.counts)))
            if not same:
                mismatches.append({"spec": text, "n": n})
    return CheckResult("distribution-vs-enumeration", not mismatches,
                       {"cases": cases, "n_max": n_max, "mismatches": mismatches})


def fourier_agreement_suite(ns: tuple[int, ...] = (10, 30, 50),
                            zs: tuple[int, ...] = (0, 1, -1, 5, -5),
                            tol: float = 1e-8) -> CheckResult:
    """|point-mass inversion - exact pmf| <= tol over the battery.

    Finite explicit specs are checked at their full length instead of the
    requested horizons.
    """
    from .fourier import point_mass_fourier
    worst = 0.0
    cases = 0
    failures = []
    for text in BATTERY:
        spec = parse_spec(text)
        horizons = [n for n in ns if spec.max_index is None or n <= spec.max_index]
        if not horizons and spec.max_index is not None:
            horizons = [spec.max_index]
        for n in horizons:
            dist = exact.distribution(spec, n)
            for z in zs:
                cases += 1
                got = point_mass_fourier(spec, n, z).value
                want = float(dist.prob(z))
                err = abs(got - want)
                worst = max(worst, err)
                if err > tol:
                    failures.append({"spec": text, "n": n, "z": z, "error": err})
    return CheckResult("fourier-vs-dp-agreement", not failures,
                       {"cases": cases, "tol": tol, "worst_error": worst,
                        "failures": failures})


# --- pattern counts ---------------------------------------------------------------

def enumerate_pattern_free(kappa: int) -> int:
    """Count +-1 strings of length kappa avoiding (-1,+1,-1), by enumeration."""
    if kappa < 1:
        raise PreconditionError(f"kappa must be >= 1, got {kappa}")
    codes = np.arange(1 << kappa, dtype=np.uint32)
    bad = np.zeros(codes.size, dtype=bool)
    for i in range(kappa - 2):
        b0 = (codes >> i) & 1
        b1 = (codes >> (i + 1)) & 1
        b2 = (codes >> (i + 2)) & 1
        bad |= (b0 == 0) & (b1 == 1) & (b2 == 0)
    return int(np.count_nonzero(~bad))


def pattern_suite(enum_max: int = 20, ratio_kappa: int = 30,
                  target: float = 0.877, tol: float = 0.005) -> CheckResult:
    """DP pattern counts match enumeration; growth ratio approaches 2*0.877."""
    mismatches = []
    for kappa in range(1, enum_max + 1):
        if exact.avoid_pattern_count(kappa) != enumerate_pattern_free(kappa):
            mismatches.append(kappa)
    r = exact.avoid_pattern_count(ratio_kappa + 1) / exact.avoid_pattern_count(ratio_kappa)
    gap = abs(r / 2.0 - target)
    return CheckResult("pattern-avoidance-counts", not mismatches and gap <= tol,
                       {"enumerated_kappa": enum_max, "ratio_kappa": ratio_kappa,
                        "ratio_half": r / 2.0, "target": target, "gap": gap,
                        "mismatches": mismatches})


# --- conditional Borel-Cantelli recursion -----------------------------------------

@dataclass
class BCReport:
    ell: int
    m: int
    bound: float
    trajectory: list[float]
    non_increasing: bool


def bc_bound_propagation(alpha: Callable[[int], float], eps: Callable[[int], float],
                         ell: int, m: int) -> BCReport:
    """Iterate P_j <= (1 - alpha_j) P_{j-1} + eps_{j-1} from P_ell = 1, for
    rates alpha(j) in [0, 1] and eps(j) >= 0.

    With sum(alpha) = inf and sum(eps) < inf the bound tends to zero, which
    is the numeric core of the conditional Borel-Cantelli argument.
    """
    if ell < 1 or m < ell:
        raise DomainError(f"need m >= ell >= 1, got ({ell}, {m})")
    value = 1.0
    traj = [value]
    non_increasing = True
    for j in range(ell + 1, m + 1):
        aj = float(alpha(j))
        ej = float(eps(j - 1))
        if not (0.0 <= aj <= 1.0):
            raise DomainError(f"alpha_{j}={aj} outside [0,1]")
        if ej < 0.0:
            raise DomainError(f"eps_{j-1}={ej} negative")
        nxt = (1.0 - aj) * value + ej
        if nxt > value:
            non_increasing = False
        value = nxt
        traj.append(value)
    return BCReport(ell=ell, m=m, bound=value, trajectory=traj,
                    non_increasing=non_increasing)


def bc_suite() -> CheckResult:
    """Borel-Cantelli style recursion: canonical bound and monotonicity."""
    rep = bc_bound_propagation(lambda k: 1.0 / k, lambda k: 0.5 ** k, 1, 10_000)
    mono = bc_bound_propagation(lambda k: 1.0 / k, lambda k: 0.0, 1, 10_000)
    step = bc_bound_propagation(lambda k: 1.0, lambda k: 0.0, 1, 10)
    passed = rep.bound <= 0.01 and mono.non_increasing and step.bound == 0.0
    return CheckResult("bound-recursion", passed,
                       {"harmonic_geometric_bound": rep.bound,
                        "monotone_with_zero_eps": mono.non_increasing,
                        "instant_absorption_bound": step.bound})


# --- suite registry ----------------------------------------------------------------

# Each suite's checks, run with their default arguments in this order.
SUITES = {
    "inequalities": (azuma_sweep, lemld_sweep, cordiv_sweep, two_scale_sweep,
                     dominance_sweep, tomaszewski_sweep),
    "oracles": (enumeration_oracle_suite, fourier_agreement_suite),
    "patterns": (pattern_suite,),
    "bc": (bc_suite,),
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise PreconditionError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    checks = [check() for check in SUITES[name]]
    return SuiteResult(suite=name, passed=all(c.passed for c in checks), checks=checks)
