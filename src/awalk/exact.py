"""Exact distribution machinery for integer-weight sign walks.

The walk S(n) = sum_{k<=n} a_k x_k over independent uniform signs x_k has a
lattice distribution: 2^steps outcomes spread over integers of fixed parity.
Everything here is enumeration-grade: counts are big integers, probabilities
are exact rationals, and the inequality checkers compare integers, never
floats, so a pass is a proof for the swept range.

One band DP, `_band_masses`, computes every lattice quantity: the pmf
(`distribution`), first-hit and visit series (`zero_hit_probability`,
`expected_visits`) and integer Azuma tails.  The signs are symmetric, so
every mass is, m(-z) = m(z): the DP keeps the cells z >= 0 in a numpy
object buffer of big-int counts, and each weight a makes m'(z) = m(z+a) +
m(|z-a|).  The buffer holds unnormalised masses, so step i's band mass m is
2^(i+1) times its probability.  Mode "float256" reports the same exact
masses as float64, each m / 2^(i+1) rounded once, to nearest.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Sequence

import numpy as np

from .errors import (DomainError, PreconditionError, ResourceError,
                     UnsupportedVariantError, require_finite_nonnegative)
from .sequences import SequenceSpec

__all__ = [
    "LatticeDist",
    "HitReport",
    "DominanceReport",
    "distribution",
    "zero_hit_probability",
    "expected_visits",
    "dominance_check",
    "avoid_pattern_count",
    "pattern_free_counts",
]

# The band DP refuses to start when its lattice has more cells than
# MAX_CELLS, or when its buffer is predicted to need more bytes than
# MAX_BUFFER_BYTES (see `_cell_bytes`).
MAX_CELLS = 50_000_000
MAX_BUFFER_BYTES = 2 << 30
# Mode "auto" reports exact rationals while the denominator 2^steps stays
# below this many decimal digits, and rounded float64 (mode "float256") beyond.
DIGIT_BUDGET = 5000

_MAGIC = b"AWLD"
_FORMAT_VERSION = 1


@dataclass
class LatticeDist:
    """Exact pmf of S(n) on the stride-2 lattice offset, offset+2, ...

    counts[j] is the number of sign vectors with S = offset + 2*j; they sum
    to exactly 2^n where n is the number of signed steps.
    """

    n: int
    offset: int
    counts: list[int]
    stride: ClassVar[int] = 2  # the format keeps a stride byte, always 2

    @property
    def total(self) -> int:
        return 1 << self.n

    def support(self) -> range:
        return range(self.offset, self.offset + self.stride * len(self.counts), self.stride)

    def count(self, z: int) -> int:
        j, r = divmod(z - self.offset, self.stride)
        if r != 0 or j < 0 or j >= len(self.counts):
            return 0
        return self.counts[j]

    def prob(self, z: int) -> Fraction:
        return Fraction(self.count(z), self.total)

    def validate(self) -> None:
        """Check mass, symmetry and parity; raises AssertionError on failure."""
        assert sum(self.counts) == self.total, "counts must sum to 2^n"
        assert self.counts == self.counts[::-1], "distribution must be symmetric"
        top = self.offset + self.stride * (len(self.counts) - 1)
        assert -self.offset == top, "support must be symmetric around 0"

    def band_count(self, c: int | float) -> int:
        """Total count with |z| <= c."""
        jlo, jhi = _band_slice(self.offset, len(self.counts), c)
        return sum(self.counts[jlo:jhi])

    def to_bytes(self) -> bytes:
        parts = [_MAGIC, struct.pack("<BqqB", _FORMAT_VERSION, self.n, self.offset, self.stride),
                 struct.pack("<Q", len(self.counts))]
        for c in self.counts:
            raw = c.to_bytes((c.bit_length() + 7) // 8 or 1, "little")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LatticeDist":
        if blob[:4] != _MAGIC:
            raise PreconditionError("not a lattice-distribution blob (bad magic)")
        version, n, offset, stride = struct.unpack_from("<BqqB", blob, 4)
        if version != _FORMAT_VERSION:
            raise PreconditionError(f"unsupported format version {version}")
        if stride != cls.stride:
            raise PreconditionError(f"unsupported lattice stride {stride}, expected 2")
        (m,) = struct.unpack_from("<Q", blob, 22)
        pos = 30
        counts = []
        for _ in range(m):
            (ln,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            counts.append(int.from_bytes(blob[pos:pos + ln], "little"))
            pos += ln
        return cls(n=n, offset=offset, counts=counts)

    def csv_rows(self):
        """(z, count, prob) rows over the support."""
        total = self.total
        for z, c in zip(self.support(), self.counts):
            yield z, c, c / total


def _integer_weights(spec: SequenceSpec, n: int) -> list[int]:
    if not spec.is_integer_valued:
        raise UnsupportedVariantError(
            f"exact distributions need integer weights; {spec.canonical()} is not")
    spec._check_horizon(n)
    return spec.int_terms(n)


def distribution(spec: SequenceSpec, n: int) -> LatticeDist:
    """Exact pmf of S(n) by convolution, one shift-add per weight.

    Time and memory are O(steps * A) with A = sum of the weights.
    """
    return _lattice(_integer_weights(spec, n))


def _lattice(weights: list[int]) -> LatticeDist:
    """Exact pmf of sum w_i x_i for a list of integer weights (zeros allowed)."""
    total = sum(weights)
    half = _band_masses(weights, None, False)[1].tolist()
    return LatticeDist(n=len(weights), offset=-total, counts=half[::-1] + half[1 - (total & 1):])


def _band_masses(weights: list[int], band: int | float | None,
                 absorb: bool) -> tuple[list[int], np.ndarray]:
    """The band DP: (per-step masses with |S| <= band, final half buffer).

    Cell i of the buffer holds the mass at S = p + 2i >= 0, p being the
    parity of the weights summed so far; the cells S < 0 are its mirror
    image.  Masses are big-int counts, never halved, so the mass recorded
    after k weights is 2^k times its probability.  ``band`` None records no
    masses; ``absorb`` removes each step's band mass from the walk.  The
    guards count all sum(weights) + 1 cells: about twice this buffer.
    """
    span = sum(weights) + 1
    if span > MAX_CELLS:
        raise ResourceError(f"band DP needs {span} lattice cells (budget {MAX_CELLS})",
                            required=span, budget=MAX_CELLS)
    need = span * _cell_bytes(len(weights))
    if need > MAX_BUFFER_BYTES:
        raise ResourceError(f"band DP needs about {need} bytes for {span} lattice cells "
                            f"(budget {MAX_BUFFER_BYTES})",
                            required=need, budget=MAX_BUFFER_BYTES)
    buf = np.ones(1, dtype=object)
    masses = []
    total = p = 0
    for a in weights:
        total += a
        q = total & 1
        # new cell k (S = q + 2k) adds old cell k + s (S + a) and old cell
        # k - t (S - a), or for k < t the mirror cell t - k - p (a - S)
        s, t = (q + a - p) // 2, (a + p - q) // 2
        mirrored = buf[1 - p:t + 1 - p][::-1]
        new = np.concatenate((np.zeros(t - len(mirrored), dtype=object), mirrored, buf))
        new[:max(len(buf) - s, 0)] += buf[s:]
        buf, p = new, q
        if band is not None:
            cells = buf[:(math.floor(band) - p) // 2 + 1]
            masses.append(sum(cells) + sum(cells[1 - p:]))  # S = 0 counts once
            if absorb:
                cells[:] = 0
    return masses, buf


def _cell_bytes(steps: int) -> int:
    """Predicted bytes of one band-DP cell after ``steps`` weights: the
    buffer's pointer and a CPython int of up to steps + 1 bits."""
    digits = -(-(steps + 1) // sys.int_info.bits_per_digit)
    return 8 + int.__basicsize__ + int.__itemsize__ * digits


def _band_slice(offset: int, length: int, band: int | float) -> tuple[int, int]:
    """Index range [jlo, jhi) of lattice cells offset+2j with |offset+2j| <= band."""
    b = math.floor(band)  # the cells are integers
    return max(0, -((b + offset) // 2)), min(length, (b - offset) // 2 + 1)


@dataclass
class HitReport:
    """First-hit / visit bookkeeping for the band |S(n)| <= c up to horizon N."""

    spec: str
    horizon: int
    band: float
    mode: str  # "exact-rational" (Fractions) | "float256" (the same values rounded to float64)
    hit_probability: Fraction | float | None = None
    expected_visits: Fraction | float | None = None
    per_n: list[tuple[int, object]] = field(default_factory=list)


def _pick_mode(spec: SequenceSpec, n: int, mode: str) -> str:
    if mode not in ("auto", "exact", "float256"):
        raise PreconditionError(f"mode must be auto|exact|float256, got {mode!r}")
    if mode != "auto":
        return "exact-rational" if mode == "exact" else "float256"
    digits = spec.steps(n) * math.log10(2)
    return "exact-rational" if digits <= DIGIT_BUDGET else "float256"


def _band_series(spec: SequenceSpec, n: int, band: int | float, absorb: bool, mode: str):
    """(report with the per-step band probabilities, their sum) in the chosen mode."""
    require_finite_nonnegative("band", band)
    weights = _integer_weights(spec, n)
    chosen = _pick_mode(spec, n, mode)
    report = HitReport(spec=spec.canonical(), horizon=n, band=band, mode=chosen)
    masses, _ = _band_masses(weights, band, absorb)
    # int / int rounds the exact quotient once, to nearest
    value = Fraction if chosen == "exact-rational" else lambda m, d: m / d
    report.per_n = [(spec.first_index + i, value(m, 1 << (i + 1)))
                    for i, m in enumerate(masses)]
    top = len(masses)
    return report, value(sum(m << (top - 1 - i) for i, m in enumerate(masses)), 1 << top)


def zero_hit_probability(spec: SequenceSpec, n: int, band: int | float = 0,
                         *, mode: str = "auto") -> HitReport:
    """P(|S(m)| <= band for some m <= n), by a forward DP that absorbs mass
    on first entry into the band.

    Non-decreasing in both n and band.  The per_n series holds the first-hit
    mass at each step; its sum is the hit probability.
    """
    report, total = _band_series(spec, n, band, True, mode)
    report.hit_probability = total
    return report


def expected_visits(spec: SequenceSpec, n: int, band: int | float = 0,
                    *, mode: str = "auto") -> HitReport:
    """Sum over m <= n of P(|S(m)| <= band), with the full per-m series."""
    report, total = _band_series(spec, n, band, False, mode)
    report.expected_visits = total
    return report


# --- two-scale point counts ---------------------------------------------------

def _two_scale_count(k: int, n: int, j: int, row: list[int]) -> int:
    """Number of sign vectors (x, y) in {-1,1}^n x {-1,1}^n with
    (k-1)*sum(x) + k*sum(y) = j; ``row`` is the binomial row C(n, 0..n)."""
    num = 0
    for s in range(-n, n + 1, 2):
        rem = j - (k - 1) * s
        if rem % k != 0:
            continue
        t = rem // k
        if abs(t) > n or (t - n) % 2 != 0:
            continue
        num += row[(n + s) // 2] * row[(n + t) // 2]
    return num


# --- exhaustive inequality checkers ---------------------------------------------

@dataclass
class DominanceReport:
    """Survival functions of the weighted descent time tau versus the
    unit-step comparison time tau~ (first passage of an SRW to -r)."""

    r: int
    horizon: int
    start: float
    survival_weighted: list[Fraction]
    survival_unit: list[Fraction]
    passed: bool
    first_violation: int | None


def dominance_check(tail_weights: Sequence[float], start: float) -> DominanceReport:
    """Exhaustively verify P(tau > j) <= P(tau~ > j) for j = 0..H, H the
    number of weights.

    tau is the first j with start + a_1 y_1 + ... + a_j y_j <= 0 for the
    non-decreasing positive weights a; tau~ is the first passage of a unit
    walk to -r with r = ceil(start / a_1).  Both survival functions are
    counted over all 2^H sign vectors.
    """
    weights = _descent_weights([[float(w) for w in tail_weights]])
    _check_start(start)
    h = weights.shape[1]
    (r,), (surv_w,), (surv_u,) = _descent_survivals(weights, [start])
    total = 1 << h
    violation = _first_violation(surv_w[0], surv_u[0])
    return DominanceReport(r=r[0], horizon=h, start=float(start),
                           survival_weighted=[Fraction(c, total) for c in surv_w[0]],
                           survival_unit=[Fraction(c, total) for c in surv_u[0]],
                           passed=violation is None, first_violation=violation)


_CORE_ENTRIES = 1 << 17  # entries per temporary of the descent core (1 MB of float64)


def _descent_weights(lists) -> np.ndarray:
    """Weight lists of one length as a float64 array, checked for the descent
    core: non-empty, positive, finite and non-decreasing."""
    weights = np.asarray(lists, dtype=np.float64)
    if weights.shape[1] == 0 or not np.all((weights > 0) & np.isfinite(weights)):
        raise PreconditionError("tail weights must be positive and finite")
    if np.any(weights[:, :-1] > weights[:, 1:]):
        raise PreconditionError("tail weights must be non-decreasing")
    return weights


def _check_start(start: float) -> None:
    if not (start > 0 and math.isfinite(start)):
        raise DomainError(f"start must be positive and finite, got {start}")


def _descent_survivals(weights: np.ndarray, starts: Sequence[float]):
    """(r, weighted counts, unit counts) for every row of ``weights`` (as
    checked by `_descent_weights`, of length h) and every start: r[i][k] =
    ceil(start_k / a_1), in exact rationals, and the counts of sign vectors
    with tau > j and with tau~ > j for j = 0..h, as nested lists indexed
    [row][start][j].  The starts must be positive and finite
    (`_check_start`).

    tau > j when start + C_i > 0 for every i <= j, C_i the partial sums of
    the signed weights.  A rounded sum keeps the sign of the exact one, so
    that is min_{i<=j} C_i > -start, and one running minimum serves every
    start.  Sign vectors go in chunks and weight rows in groups, so that no
    temporary holds more than about _CORE_ENTRIES entries.
    """
    rows, h = weights.shape
    if h > 24:
        raise ResourceError(f"exhaustive enumeration capped at 24 steps, got {h}",
                            required=h, budget=24)
    r = [[math.ceil(Fraction(a) / Fraction(w)) for a in starts]
         for w in weights[:, 0].tolist()]
    # a unit walk never reaches below -h, so every r > h counts alike
    capped = np.array([[min(x, h + 1) for x in row] for row in r], dtype=np.int64)
    levels = np.unique(capped)
    weighted = np.zeros((rows, len(starts), h + 1), dtype=np.int64)
    unit = np.zeros((levels.size, h + 1), dtype=np.int64)
    weighted[..., 0] = unit[:, 0] = 1 << h
    per_chunk = min(1 << h, max(1, _CORE_ENTRIES // h))  # sign vectors
    per_group = max(1, _CORE_ENTRIES // (per_chunk * h))  # weight rows
    shifts = np.arange(h, dtype=np.uint64)
    for lo in range(0, 1 << h, per_chunk):
        codes = np.arange(lo, min(lo + per_chunk, 1 << h), dtype=np.uint64)
        signs = (((codes[:, None] >> shifts) & 1) * 2 - 1).astype(np.int8)
        low = np.cumsum(signs, axis=1, dtype=np.int64)
        np.minimum.accumulate(low, axis=1, out=low)
        for i, level in enumerate(levels.tolist()):
            unit[i, 1:] += np.count_nonzero(low > -level, axis=0)
        for g in range(0, rows, per_group):
            c = signs * weights[g:g + per_group, None, :]
            np.cumsum(c, axis=2, out=c)
            np.minimum.accumulate(c, axis=2, out=c)
            for k, a in enumerate(starts):
                weighted[g:g + per_group, k, 1:] += np.count_nonzero(c > -a, axis=1)
    return r, weighted.tolist(), unit[np.searchsorted(levels, capped)].tolist()


def _first_violation(surv_w: list[int], surv_u: list[int]) -> int | None:
    return next((j for j, (w, u) in enumerate(zip(surv_w, surv_u)) if w > u), None)


def _sign_sums(weights) -> np.ndarray:
    """All 2^m sums +-w_1 +- ... +-w_m of the weights, in float64."""
    sums = np.zeros(1, dtype=np.float64)
    for w in weights:
        sums = np.concatenate([sums - w, sums + w])
    return sums


def _sign_sums_within(weights, bound: float) -> int:
    """How many of the 2^m sums of `_sign_sums(weights)` have |sum| <= bound.

    The sums of the first 16 weights are enumerated once; the signs of the
    others are walked depth first, one weight added at a time in the same
    order, so every sum is the same float64 as in `_sign_sums`, while
    memory stays at one array of 2^16 sums per remaining weight."""
    head, tail = weights[:16], weights[16:]

    def count(sums, k):
        if k == len(tail):
            return int(np.count_nonzero(np.abs(sums) <= bound))
        return count(sums - tail[k], k + 1) + count(sums + tail[k], k + 1)
    return count(_sign_sums(head), 0)


def avoid_pattern_count(kappa: int) -> int:
    """Number of +-1 strings of length kappa with no consecutive (-1,+1,-1).

    Grows like (2*0.8774...)^kappa, the dominant root of x^3 - 2x^2 + x - 1
    (OEIS A005251 shifted).
    """
    return pattern_free_counts(kappa)[-1]


def pattern_free_counts(kappa_max: int) -> list[int]:
    """[avoid_pattern_count(kappa) for kappa = 1..kappa_max], from one pass of
    a linear DP over the last two symbols."""
    if kappa_max < 1:
        raise DomainError(f"kappa must be >= 1, got {kappa_max}")
    counts = [2, 4]
    # state = (second-to-last, last), symbols coded -1/+1
    states = {(a, b): 1 for a in (-1, 1) for b in (-1, 1)}
    for _ in range(kappa_max - 2):
        nxt = {(a, b): 0 for a in (-1, 1) for b in (-1, 1)}
        for (a, b), c in states.items():
            for s in (-1, 1):
                if (a, b, s) == (-1, 1, -1):
                    continue
                nxt[(b, s)] += c
        states = nxt
        counts.append(sum(states.values()))
    return counts[:kappa_max]
