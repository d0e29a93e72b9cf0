"""Deterministic parallel path simulation for sign walks.

Every path is addressed by (seed, stream): path p reads the uint64 words of
a Philox generator keyed by seed*2^64 + p, and bit j of their little-endian
unpacking is the sign bit of step j.  The signs of path p therefore do not
depend on how paths are partitioned over workers, on chunk or refill sizes,
or on which other paths run, and experiment reports are byte-identical for a
fixed seed no matter how many workers run (AWALK_THREADS caps the pool).
Philox is counter-based, so each process re-keys one generator per path and
draws only the words the path reads.

Every experiment streams its paths through one loop, `_PathKernel.run`, in
O(2^16) memory.  A reducer per experiment reads the partial sums: the path
statistics (`_PathTally`, for `simulate`, `recurrence` and `signs`), the
growth window test (`_GrowthTest`) or, with no reducer, only S(n)
(`tomaszewski_check`).  Integer-weight walks accumulate in int64 (exact);
real-weight walks accumulate in extended precision with the carry propagated
across segments, which keeps the drift of a million-step sum far below the
1e-9 zero-detection tolerance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import get_context
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .sequences import SequenceSpec, parse_spec, sum_squares_exact

__all__ = [
    "RngSpec",
    "PathStats",
    "ExperimentReport",
    "BCReport",
    "TomaszewskiReport",
    "simulate",
    "recurrence_experiment",
    "sign_change_experiment",
    "growth_experiment",
    "tomaszewski_check",
    "bc_bound_propagation",
    "rademacher_tail_frequency",
    "parse_rate",
    "worker_count",
]

REPORT_SCHEMA = "awalk-report/1"

_CHUNK = 1 << 16
_BLOCK = 64          # paths per work unit; fixed so partitioning never varies
_WORDS = 1 << 10     # most uint64 words per RNG refill
_BOOTSTRAP_SALT = 0xB00575A9

# Attached to every experiment report: simulation evidence is finite-horizon
# only and never establishes an almost-sure / asymptotic claim.
PROXY_NOTE = ("finite-horizon diagnostic with frozen seeds; asymptotic and "
              "almost-sure behavior is not established by simulation")


def worker_count(requested: int | None = None) -> int:
    """Worker pool size: explicit argument, else AWALK_THREADS, else CPU count."""
    if requested is not None:
        n = int(requested)
    else:
        env = os.environ.get("AWALK_THREADS", "")
        try:
            n = int(env) if env.strip() else (os.cpu_count() or 1)
        except ValueError:
            raise PreconditionError(
                f"AWALK_THREADS must be an integer >= 1, got {env!r}") from None
    if n < 1:
        raise PreconditionError(f"worker count must be >= 1, got {n}")
    return min(n, 64)


@dataclass(frozen=True)
class RngSpec:
    """Counter-based RNG address: (seed, stream) fully determines a path."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 1 << 64):
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")
        if not (0 <= self.stream < 1 << 64):  # keys are seed*2^64 + stream
            raise DomainError(f"stream must fit in 64 bits, got {self.stream}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=(self.seed << 64) | self.stream))


class _BitStream:
    """Sign bits of one path at a time, from one re-keyed Philox generator.

    Path (seed, stream) reads the words ``RngSpec(seed, stream).generator()
    .integers(0, 2**64, dtype=np.uint64)`` returns, in refills of at most
    1024 words.  Re-keying through the ``state`` setter costs a fraction of
    building a new generator.  When the path's length is known, its last
    refill draws only the words the path reads; refill sizes never change
    which bit a step reads.
    """

    __slots__ = ("_philox", "_state", "_bits", "_pos", "_left")

    def __init__(self, rng: RngSpec | None = None, nbits: int = 0):
        self._philox = np.random.Philox(0)
        self._state = self._philox.state  # counter 0, empty buffer; key set per path
        self._bits = np.empty(0, dtype=np.uint8)
        self._pos = 0
        self._left = 0
        if rng is not None:
            self.start(rng.seed, rng.stream, nbits)

    def start(self, seed: int, stream: int, nbits: int = 0) -> None:
        """Re-key for path (seed, stream), which reads `nbits` bits (0: unknown)."""
        self._state["state"]["key"] = np.array([stream, seed], dtype=np.uint64)
        self._philox.state = self._state
        self._bits = self._bits[:0]
        self._pos = 0
        self._left = -(-nbits // 64)  # words still to draw; 0 draws full refills

    def _refill(self) -> None:
        words = min(_WORDS, self._left) if self._left else _WORDS
        self._left = max(0, self._left - words)
        raw = self._philox.random_raw(words)
        self._bits = np.unpackbits(raw.view(np.uint8), bitorder="little")
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        """The next n sign bits, 0 or 1, as uint8 (a view while within a refill)."""
        if self._pos == self._bits.size:
            self._refill()
        pos = self._pos
        if pos + n <= self._bits.size:
            self._pos = pos + n
            return self._bits[pos:pos + n]
        out = np.empty(n, dtype=np.uint8)
        filled = 0
        while filled < n:
            if self._pos == self._bits.size:
                self._refill()
            k = min(n - filled, self._bits.size - self._pos)
            out[filled:filled + k] = self._bits[self._pos:self._pos + k]
            self._pos += k
            filled += k
        return out


@dataclass
class CheckpointSnapshot:
    at: int
    zero_hits: int
    sign_changes: int
    band_hits: dict[float, int]


@dataclass
class PathStats:
    """Streaming statistics of one path up to the horizon."""

    horizon: int
    steps: int
    zero_hits: int
    sign_changes: int
    last_zero_hit: int | None
    max_abs: float
    final_value: float
    band_hits: dict[float, int]
    last_band_hit: dict[float, int | None]
    checkpoints: list[CheckpointSnapshot] = field(default_factory=list)


def _weights_for(spec: SequenceSpec, n: int) -> np.ndarray:
    w = spec.terms(n)
    if w.dtype == np.int64 and w.size and int(w.max()) * w.size >= 1 << 62:
        total = int(np.sum(w, dtype=object))  # the bound failed: sum exactly
        if total >= 1 << 62:
            raise DomainError(f"integer walk range {total} overflows int64 accumulation")
    return w


class _PathKernel:
    """The one chunk loop: a path's partial sums S, segment by segment.

    Segments end at every multiple of 2^16 steps, at each checkpoint and at
    the horizon.  Integer weights accumulate exactly in int64.  Real weights
    take a long-double cumsum per segment and then add the carry, so the cut
    positions fix the rounding: keep them where they are, or reports move.
    """

    def __init__(self, weights: np.ndarray, checkpoint_steps: Sequence[int] = ()):
        self.weights = weights
        self.steps = int(weights.size)
        self.integer = weights.dtype == np.int64
        self.checkpoints = frozenset(checkpoint_steps)
        ends = sorted(set(range(_CHUNK, self.steps, _CHUNK)) | self.checkpoints
                      | ({self.steps} if self.steps else set()))
        self.segments = list(zip([0] + ends[:-1], ends))
        size = min(_CHUNK, self.steps)
        self._signs = np.empty(size, dtype=np.uint8)
        self._sums = np.empty(size, dtype=np.int64 if self.integer else np.longdouble)

    def run(self, take: Callable[[int], np.ndarray], reducer=None):
        """Feed each segment to reducer.update(pos, s, at_checkpoint) until it
        returns True; return the last partial sum formed.  Without a reducer
        an integer walk only folds each segment into the carry."""
        w = self.weights
        carry = 0 if self.integer else np.longdouble(0.0)
        for pos, end in self.segments:
            m = end - pos
            bits = take(m)
            signs = np.add(bits, bits, out=self._signs[:m])
            signs -= 1  # 0/1 -> 255/1, which is -1/+1 as int8
            signs = signs.view(np.int8)
            if self.integer:
                s = self._sums[:m]
                np.copyto(s, signs)
                if reducer is None:
                    carry += int(np.dot(w[pos:end], s))
                    continue
                s *= w[pos:end]
                s[0] += carry  # exact in int64
                np.add.accumulate(s, out=s)
                carry = int(s[-1])
            else:
                s_ld = np.multiply(w[pos:end], signs, out=self._sums[:m])
                np.add.accumulate(s_ld, out=s_ld)  # the cumsum
                s_ld += carry
                carry = s_ld[-1]
                if reducer is None:
                    continue
                s = s_ld.astype(np.float64)
            if reducer.update(pos, s, end in self.checkpoints):
                break
        return carry


def _last_true(mask: np.ndarray) -> int:
    return int(mask.nonzero()[0][-1])


class _PathTally:
    """Reducer for the path statistics of `PathStats`.

    With ``full=False`` it keeps only the counts (zero hits, sign changes,
    band hits and their checkpoint snapshots) and skips the last-hit
    positions, max |S| and S(n).
    """

    def __init__(self, first: int, integer: bool, bands: Sequence[float], zero_tol: float,
                 full: bool = True):
        self.first = first
        self.integer = integer
        self.bands = [float(c) if not float(c).is_integer() else int(c) for c in bands]
        self.zero_tol = zero_tol
        self.full = full
        # an integer walk needs |S| only for nonzero bands; band 0 is the zero mask
        self.need_abs = not integer or any(c != 0 for c in self.bands)
        self.zero_hits = 0
        self.sign_changes = 0
        self.last_zero = None
        self.max_abs = 0.0
        self.final = 0.0
        self.band_hits = {c: 0 for c in self.bands}
        self.last_band: dict[float, int | None] = {c: None for c in self.bands}
        self.last_sign = 0
        self.snapshots: list[CheckpointSnapshot] = []

    def update(self, pos: int, s: np.ndarray, at_checkpoint: bool) -> bool:
        abs_s = np.abs(s) if self.need_abs else None
        zmask = s == 0 if self.integer else abs_s <= self.zero_tol
        zeros = int(np.count_nonzero(zmask))
        last_zero = None
        if zeros:
            self.zero_hits += zeros
            if self.full:
                last_zero = self.last_zero = self.first + pos + _last_true(zmask)
        for c in self.bands:
            if self.integer and c == 0:
                hits, last = zeros, last_zero
            else:
                bmask = abs_s <= c
                hits = int(np.count_nonzero(bmask))
                last = self.first + pos + _last_true(bmask) if hits and self.full else None
            if hits:
                self.band_hits[c] += hits
                self.last_band[c] = last
        # sign changes among the nonzero S; a zero never counts as a sign
        if self.integer or self.zero_tol >= 0:
            live = s[~zmask] if zeros else s
        else:
            live = s[s != 0]
        if live.size:
            up = live > 0
            if self.last_sign and (1 if up[0] else -1) != self.last_sign:
                self.sign_changes += 1
            self.sign_changes += int(np.count_nonzero(up[1:] != up[:-1]))
            self.last_sign = 1 if up[-1] else -1
        if self.full:
            top = abs_s.max() if abs_s is not None else max(s.max(), -s.min())
            self.max_abs = max(self.max_abs, float(top))
            self.final = float(s[-1])
        if at_checkpoint:
            self.snapshots.append(CheckpointSnapshot(
                at=self.first + pos + s.size - 1, zero_hits=self.zero_hits,
                sign_changes=self.sign_changes, band_hits=dict(self.band_hits)))
        return False

    def stats(self, horizon: int, steps: int) -> PathStats:
        return PathStats(horizon=horizon, steps=steps, zero_hits=self.zero_hits,
                         sign_changes=self.sign_changes, last_zero_hit=self.last_zero,
                         max_abs=self.max_abs, final_value=self.final,
                         band_hits=self.band_hits, last_band_hit=self.last_band,
                         checkpoints=self.snapshots)

    def row(self) -> list[float]:
        """Flat layout read by the experiment aggregators."""
        row = [self.zero_hits, self.sign_changes,
               -1 if self.last_zero is None else self.last_zero,
               self.max_abs, self.final]
        for c in self.bands:
            row.append(self.band_hits[c])
            lb = self.last_band[c]
            row.append(-1 if lb is None else lb)
        for snap in self.snapshots:
            row.append(snap.zero_hits)
            row.append(snap.sign_changes)
            row.extend(snap.band_hits.values())
        return row


class _GrowthTest:
    """Reducer: does |S(m)| exceed threshold[m] at every step of the window?"""

    def __init__(self, window_start: int, thresholds: np.ndarray):
        self.window_start = window_start
        self.thresholds = thresholds
        self.ok = True

    def update(self, pos: int, s: np.ndarray, at_checkpoint: bool) -> bool:
        end = pos + s.size
        if end <= self.window_start:
            return False
        a = max(self.window_start, pos)
        if np.any(np.abs(s[a - pos:]) <= self.thresholds[a:end]):
            self.ok = False
            return True  # the rest of the path cannot change the verdict
        return False


def _simulate_signs(spec: SequenceSpec, signs: np.ndarray, bands: Sequence[float] = (),
                    zero_tol: float = 1e-9,
                    checkpoints: Sequence[int] = ()) -> PathStats:
    """Statistics of the walk driven by an explicit +-1 array (oracle hook)."""
    if not len(signs):
        raise PreconditionError("need at least one sign")
    n = spec.first_index + len(signs) - 1
    bits = (np.asarray(signs) > 0).view(np.uint8)
    pos = 0

    def take(m):
        nonlocal pos
        pos += m
        return bits[pos - m:pos]

    return _path_stats(spec, _weights_for(spec, n), n, take, bands, zero_tol, checkpoints)


def simulate(spec: SequenceSpec, n: int, rng: RngSpec, bands: Sequence[float] = (),
             *, zero_tol: float = 1e-9, checkpoints: Sequence[int] = ()) -> PathStats:
    """Stream one path to horizon n, reproducibly for the given RngSpec."""
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    weights = _weights_for(spec, n)
    return _path_stats(spec, weights, n, _BitStream(rng, weights.size).take, bands,
                       zero_tol, checkpoints)


def _path_stats(spec, weights, horizon, take, bands, zero_tol, checkpoints) -> PathStats:
    first = spec.first_index
    cps = {int(c) for c in checkpoints if first <= c <= horizon}
    kernel = _PathKernel(weights, [c - first + 1 for c in cps])
    tally = _PathTally(first, kernel.integer, bands, zero_tol)
    kernel.run(take, tally)
    return tally.stats(horizon, kernel.steps)


# --- experiment plumbing -------------------------------------------------------

_CTX: dict = {}


def _init_worker(kind, spec_text, horizon, seed, bands, zero_tol, checkpoints, extra):
    """Per-process state: the kernel, one bit stream and the row reducer of `kind`."""
    _CTX.clear()
    spec = parse_spec(spec_text)
    first = spec.first_index
    kernel = _PathKernel(_weights_for(spec, horizon), [c - first + 1 for c in checkpoints])
    stream = _BitStream()
    if kind in ("stats", "counts"):
        def row():
            tally = _PathTally(first, kernel.integer, bands, zero_tol, full=kind == "stats")
            kernel.run(stream.take, tally)
            return tally.row()
    elif kind == "growth":
        window_start, exponent = extra
        thresholds = np.arange(first, horizon + 1, dtype=np.float64) ** exponent

        def row():
            test = _GrowthTest(window_start, thresholds)
            kernel.run(stream.take, test)
            return [1.0 if test.ok else 0.0]
    else:  # "final": the value S(n) alone
        def row():
            return [float(kernel.run(stream.take))]
    _CTX.update(seed=seed, steps=kernel.steps, stream=stream, row=row)


def _path_block(block: tuple[int, int]) -> np.ndarray:
    lo, hi = block
    seed, steps, stream, row = _CTX["seed"], _CTX["steps"], _CTX["stream"], _CTX["row"]
    out = []
    for p in range(lo, hi):
        stream.start(seed, p, steps)
        out.append(row())
    return np.asarray(out, dtype=np.float64)


def _run_blocks(kind: str, spec: SequenceSpec, horizon: int, paths: int, seed: int,
                bands, zero_tol, checkpoints, extra, threads: int | None) -> np.ndarray:
    """Run the per-path kernel over fixed path blocks; row order is path order.

    `kind` picks the reducer: "stats" (`_PathTally.row`), "counts" (the same
    row with only its counts filled in), "growth" (one 0/1 flag per path) or
    "final" (S(n) per path).
    """
    if paths < 1:
        raise PreconditionError(f"paths must be >= 1, got {paths}")
    RngSpec(seed)  # validates the seed before any worker starts
    try:  # workers rebuild the spec from its canonical text
        parse_spec(spec.canonical())
    except PreconditionError as exc:
        raise PreconditionError(
            f"experiments need a spec with a parseable canonical form, "
            f"got {spec.canonical()!r}") from exc
    blocks = [(lo, min(lo + _BLOCK, paths)) for lo in range(0, paths, _BLOCK)]
    args = (kind, spec.canonical(), horizon, seed, tuple(bands), zero_tol,
            tuple(checkpoints), extra)
    workers = min(worker_count(threads), len(blocks))
    if workers <= 1:
        _init_worker(*args)
        parts = [_path_block(b) for b in blocks]
    else:
        ctx = get_context("fork")
        with ctx.Pool(processes=workers, initializer=_init_worker, initargs=args) as pool:
            parts = pool.map(_path_block, blocks, chunksize=1)
    return np.concatenate(parts, axis=0)


@dataclass
class ExperimentReport:
    """Aggregate over many paths, serializable byte-identically."""

    schema: str
    kind: str
    spec: str
    horizon: int
    paths: int
    seed: int
    bands: list[float]
    zero_tol: float
    checkpoints: list[int]
    aggregates: dict
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema, "kind": self.kind, "spec": self.spec,
            "horizon": self.horizon, "paths": self.paths, "seed": self.seed,
            "bands": [float(c) for c in self.bands], "zero_tol": self.zero_tol,
            "checkpoints": list(self.checkpoints), "aggregates": self.aggregates,
            "notes": list(self.notes),
        }


def _bootstrap_lcbs(values: np.ndarray, seed: int, resamples: int = 2000) -> list[float]:
    """Per row of ``values``: the 2.5th percentile of resampled means (95% lower
    confidence bound).  Every row is resampled with the same index draws.

    The draws do not depend on the chunk size (a Philox Generator yields the
    same integers in one call or in several), so chunks stay small, about
    2^16 indices: chunks of tens of MB leave freed heap pages resident, and
    every pool worker forked afterwards inherits them.
    """
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | _BOOTSTRAP_SALT))
    n = values.shape[1]
    means = np.empty((len(values), resamples))
    step = max(1, (1 << 16) // max(1, n))
    for lo in range(0, resamples, step):
        hi = min(lo + step, resamples)
        idx = gen.integers(0, n, size=(hi - lo, n))
        for row, out in zip(values, means):
            out[lo:hi] = row[idx].mean(axis=1)
    return [float(np.percentile(m, 2.5)) for m in means]


def _quantiles(values: np.ndarray) -> dict:
    qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {"min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
            "q75": float(qs[3]), "max": float(qs[4])}


def default_checkpoints(n: int, first: int) -> list[int]:
    cps = sorted({max(first, n // 100), max(first, n // 10), n})
    return cps


def _experiment_checkpoints(spec: SequenceSpec, n: int,
                            checkpoints: Sequence[int] | None) -> list[int]:
    """The experiment's checkpoints: sorted, distinct and within [first, n]."""
    first = spec.first_index
    if n < first:
        raise DomainError(f"horizon must be >= {first} for {spec.canonical()}, got {n}")
    if checkpoints is None:
        return default_checkpoints(n, first)
    cps = sorted({int(c) for c in checkpoints})
    outside = [c for c in cps if not first <= c <= n]
    if outside:
        raise PreconditionError(f"checkpoints must lie in [{first}, {n}], got {outside}")
    return cps


def recurrence_experiment(spec: SequenceSpec, n: int, bands: Sequence[float],
                          paths: int, seed: int, *, checkpoints: Sequence[int] | None = None,
                          zero_tol: float = 1e-9,
                          threads: int | None = None) -> ExperimentReport:
    """Band-hit counts across checkpoints over many paths.

    Per band (and for exact zeros): mean hits at each checkpoint, the share
    of paths whose last hit falls in the final decade [n/10, n], and a 95%
    bootstrap lower bound for the growth of mean hits from the first to the
    last checkpoint.
    """
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    cps = _experiment_checkpoints(spec, n, checkpoints)
    if not cps:
        raise PreconditionError("recurrence experiment needs at least one checkpoint")
    bands = [float(c) for c in bands]
    rows = _run_blocks("stats", spec, n, paths, seed, bands, zero_tol, cps, None, threads)
    nb = len(bands)
    cols_fixed = 5 + 2 * nb
    per_cp = 2 + nb

    def cp_col(ci, b):  # hits at checkpoint ci: b None for zeros, else band b
        return cols_fixed + ci * per_cp + (0 if b is None else 2 + b)

    decade_lo = max(spec.first_index, n // 10)
    aggregates: dict = {"per_band": {}}
    targets = [("zero", None)] + [(f"band<={bands[b]:g}", b) for b in range(nb)]
    growths = np.array([rows[:, cp_col(len(cps) - 1, b)] - rows[:, cp_col(0, b)]
                        for _, b in targets])
    lcbs = _bootstrap_lcbs(growths, seed)
    for (label, b), growth, lcb in zip(targets, growths, lcbs):
        hits = rows[:, 0] if b is None else rows[:, 5 + 2 * b]
        last = rows[:, 2] if b is None else rows[:, 6 + 2 * b]
        cp_means = {str(cp): float(rows[:, cp_col(ci, b)].mean()) for ci, cp in enumerate(cps)}
        aggregates["per_band"][label] = {
            "mean_hits": float(hits.mean()),
            "hit_quantiles": _quantiles(hits),
            "fraction_any_hit": float(np.mean(hits > 0)),
            "fraction_last_hit_final_decade": float(np.mean(last >= decade_lo)),
            "mean_hits_at_checkpoint": cp_means,
            "growth_first_to_last_mean": float(growth.mean()),
            "growth_first_to_last_lcb95": lcb,
            "strict_increase_95": bool(lcb > 0.0),
        }
    aggregates["mean_max_abs"] = float(rows[:, 3].mean())
    aggregates["mean_sign_changes"] = float(rows[:, 1].mean())
    return ExperimentReport(schema=REPORT_SCHEMA, kind="recurrence", spec=spec.canonical(),
                            horizon=n, paths=paths, seed=seed, bands=bands,
                            zero_tol=zero_tol, checkpoints=cps, aggregates=aggregates,
                            notes=[PROXY_NOTE])


def sign_change_experiment(spec: SequenceSpec, n: int, paths: int, seed: int, *,
                           thresholds: Sequence[int] = tuple(range(1, 21)),
                           checkpoints: Sequence[int] | None = None,
                           zero_tol: float = 1e-9,
                           threads: int | None = None) -> ExperimentReport:
    """Empirical CDF of strict sign-change counts at each checkpoint."""
    if not spec.is_non_decreasing:
        raise PreconditionError(
            f"sign-change experiment requires non-decreasing weights, got {spec.canonical()}")
    cps = _experiment_checkpoints(spec, n, checkpoints)
    rows = _run_blocks("counts", spec, n, paths, seed, (), zero_tol, cps, None, threads)
    per_cp = 2
    aggregates: dict = {"fraction_at_least": {}, "mean_sign_changes": float(rows[:, 1].mean()),
                        "sign_change_quantiles": _quantiles(rows[:, 1])}
    for ci, cp in enumerate(cps):
        col = 5 + ci * per_cp + 1
        counts = rows[:, col]
        aggregates["fraction_at_least"][str(cp)] = {
            str(k): float(np.mean(counts >= k)) for k in thresholds}
    return ExperimentReport(schema=REPORT_SCHEMA, kind="signs", spec=spec.canonical(),
                            horizon=n, paths=paths, seed=seed, bands=[],
                            zero_tol=zero_tol, checkpoints=cps, aggregates=aggregates,
                            notes=[PROXY_NOTE])


def growth_experiment(spec: SequenceSpec, n: int, delta: float, paths: int, seed: int, *,
                      threads: int | None = None) -> ExperimentReport:
    """Fraction of paths with |S(m)| > m^(beta/2 - delta) for every m in [n/10, n]."""
    from .sequences import PowerFloor
    if not isinstance(spec, PowerFloor):
        raise PreconditionError("growth experiment requires a floor-power spec")
    beta = float(spec.beta)
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0,1) for the growth proxy, got {beta}")
    if not (0.0 < delta < beta / 2.0):
        raise DomainError(f"delta must lie in (0, beta/2), got {delta}")
    exponent = beta / 2.0 - delta
    win_lo = max(spec.first_index, n // 10)
    win_lo_step = win_lo - spec.first_index  # 0-based step offset of the window start
    rows = _run_blocks("growth", spec, n, paths, seed, (), 0.0, (),
                       (win_lo_step, exponent), threads)
    frac = float(rows[:, 0].mean())
    aggregates = {"fraction_maintaining": frac, "window": [win_lo, n],
                  "exponent": exponent}
    return ExperimentReport(schema=REPORT_SCHEMA, kind="growth", spec=spec.canonical(),
                            horizon=n, paths=paths, seed=seed, bands=[],
                            zero_tol=0.0, checkpoints=[], aggregates=aggregates,
                            notes=[PROXY_NOTE])


# --- one-shot checks -------------------------------------------------------------

@dataclass
class TomaszewskiReport:
    spec: str
    horizon: int
    mode: str
    probability: Fraction | float
    passed: bool
    paths: int | None = None
    stderr: float | None = None


def tomaszewski_check(spec: SequenceSpec, n: int, mode: str = "exact", *,
                      paths: int = 100_000, seed: int = 0) -> TomaszewskiReport:
    """P(|S(n)| <= sqrt(a_1^2 + ... + a_n^2)) with pass iff >= 1/2.

    Exact mode compares S^2 <= sum(a^2) in integer arithmetic for integer
    weights (n up to 24 otherwise, by enumeration in float arithmetic).  MC
    mode counts the paths (seed, 0..paths-1) whose S(n) lies within the root,
    streamed through the experiments' worker pool.
    """
    if mode == "exact":
        if spec.is_integer_valued:
            from .exact import distribution
            dist = distribution(spec, n)
            good = dist.band_count(math.isqrt(sum_squares_exact(spec, n)))
            prob: Fraction | float = Fraction(good, dist.total)
        else:
            steps = spec.steps(n)
            if steps > 24:
                raise PreconditionError(
                    f"enumeration mode capped at 24 steps, got {steps}")
            sums = np.zeros(1, dtype=np.float64)
            for w in spec.terms(n):
                sums = np.concatenate([sums - w, sums + w])
            ssq_f = math.fsum(float(w) ** 2 for w in spec.terms(n))
            prob = Fraction(int(np.count_nonzero(sums * sums <= ssq_f)), sums.size)
        return TomaszewskiReport(spec=spec.canonical(), horizon=n, mode="exact",
                                 probability=prob, passed=prob >= Fraction(1, 2))
    if mode == "mc":
        if n < 1:
            raise DomainError(f"horizon must be >= 1, got {n}")
        root = math.sqrt(float(np.sum(spec.terms(n).astype(np.float64) ** 2)))
        finals = _run_blocks("final", spec, n, paths, seed, (), 0.0, (), None, None)
        freq = int(np.count_nonzero(np.abs(finals[:, 0]) <= root)) / paths
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / paths)
        return TomaszewskiReport(spec=spec.canonical(), horizon=n, mode="mc",
                                 probability=freq, passed=freq >= 0.5 - 3 * se,
                                 paths=paths, stderr=se)
    raise PreconditionError(f"mode must be exact|mc, got {mode!r}")


def rademacher_tail_frequency(weights: Sequence[float], threshold: float, *,
                              paths: int, seed: int) -> tuple[float, float]:
    """Empirical P(|sum w_i y_i| >= threshold) and its binomial standard error."""
    w = np.asarray([float(x) for x in weights], dtype=np.float64)
    gen = RngSpec(seed, 0).generator()
    hits = 0
    chunk = max(1, min(paths, (1 << 22) // max(1, w.size)))
    done = 0
    while done < paths:
        take = min(chunk, paths - done)
        signs = gen.integers(0, 2, size=(take, w.size), dtype=np.int8) * 2 - 1
        sums = signs @ w
        hits += int(np.count_nonzero(np.abs(sums) >= threshold))
        done += take
    freq = hits / paths
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / paths)
    return freq, se


# --- conditional Borel-Cantelli recursion ----------------------------------------

def parse_rate(text_or_fn) -> Callable[[int], float]:
    """Rate sequences for the bound recursion.

    Named forms: ``harmonic`` (1/k), ``geometric:q`` (q^k), ``constant:c``,
    ``zero``, ``explicit:v1,v2,...`` (then constant 0 past the end).
    Callables pass through.
    """
    if callable(text_or_fn):
        return text_or_fn
    text = str(text_or_fn).strip()
    head, _, payload = text.partition(":")
    if head == "harmonic":
        return lambda k: 1.0 / k
    if head == "geometric":
        q = float(payload)
        if not (0.0 <= q < 1.0):
            raise DomainError(f"geometric ratio must lie in [0,1), got {q}")
        return lambda k: q ** k
    if head == "constant":
        c = float(payload)
        return lambda k: c
    if head == "zero":
        return lambda k: 0.0
    if head == "explicit":
        vals = [float(v) for v in payload.split(",")]
        return lambda k: vals[k - 1] if 1 <= k <= len(vals) else 0.0
    raise PreconditionError(
        f"unknown rate {text!r}; expected harmonic, geometric:q, constant:c, zero, explicit:...")


@dataclass
class BCReport:
    ell: int
    m: int
    bound: float
    trajectory: list[float]
    non_increasing: bool


def bc_bound_propagation(alpha, eps, ell: int, m: int) -> BCReport:
    """Iterate P_j <= (1 - alpha_j) P_{j-1} + eps_{j-1} from P_ell = 1.

    With sum(alpha) = inf and sum(eps) < inf the bound tends to zero, which
    is the numeric core of the conditional Borel-Cantelli argument.
    """
    if ell < 1 or m < ell:
        raise DomainError(f"need m >= ell >= 1, got ({ell}, {m})")
    a = parse_rate(alpha)
    e = parse_rate(eps)
    value = 1.0
    traj = [value]
    non_increasing = True
    for j in range(ell + 1, m + 1):
        aj = float(a(j))
        ej = float(e(j - 1))
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
