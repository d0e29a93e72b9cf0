"""Deterministic parallel path simulation for sign walks.

Every path is addressed by (seed, stream): path p reads the uint64 words of
a Philox generator keyed by seed*2^64 + p, and bit j of their little-endian
unpacking is the sign bit of step j.  The signs of path p therefore do not
depend on how paths are partitioned over workers, on chunk or refill sizes,
or on which other paths run, and experiment reports are byte-identical for a
fixed seed no matter how many workers run.  AWALK_THREADS caps the pool, and
a job forks at most one worker per `_WORKER_PATH_STEPS` path-steps it walks,
so a job of fewer than twice that walks its work units in process
(`_run_blocks`).
Philox is counter-based, so each process re-keys one generator per path and
draws only the words the path reads, refill by refill.

Every experiment streams its paths through one kernel, `_PathKernel`, which
never holds the whole walk's weights: it builds them a chunk or segment at
a time from the spec's runs (`SequenceSpec.runs`) or terms
(`SequenceSpec.terms_between`), so a process needs O(runs + 2^16) memory
for a walk of any length.  A reducer per experiment reads the partial sums: the path
statistics (`_PathTally`, for `simulate`, `recurrence` and `signs`), the
growth window test (`_GrowthTest`) or, with no reducer, only S(n)
(`tomaszewski_check`).  Every pass walks the paths of one 64-path work
unit together (`simulate` walks one), and its reducer, built for that many
paths, keeps one entry per path in each of its named arrays
(`results`), paths on the last axis, which `_run_blocks` joins name by
name.  The kernel walks in one of two ways:

- a sign byte at a time, for positive integer weights.  Byte b of a path's
  words holds steps 8b..8b+7, and two 256-entry tables give its sums of x_j
  and j*x_j, so a byte whose weights run w0 + j*delta moves S by
  w0*sum + delta*moment; one cumsum per 8 steps gives S at every byte end,
  exact in int64.  Each chunk's w0 and affine flags come from the runs
  that overlap it.  A chunk is one array of (paths, sign bytes), 2^16
  bytes in all;
- a chunk at a time, for real weights: the paths of a pass walk each
  segment together, a (paths, 2^16/paths) long-double chunk at a time,
  with one cumsum per step in extended precision (long double) and a
  carry propagated across segments, which keeps the drift of a
  million-step sum far below the 1e-9 zero-detection tolerance.  A chunk
  holds the weights with the sign bit set where x_j = -1.  Only every 16th
  partial sum is cast to float64, with the cumsum and the carry rounded
  apart.

Both ways hand the reducer the steps it reads by one rule, proved once in
`_PathKernel`: a block of steps (a sign byte, or 16 steps of the real
walk) is read where |S| can come within max(level, zero_tol + d) of zero,
level being the widest band or growth threshold and d a bound on a step's
move, or, with max |S| tracked, can pass the path's largest |S|; the
reducer gets the read steps with |S| within that bound, exact in int64 or
rounded once from the long-double sum.  They hold every zero, band hit and
sign change, so each reducer has one update for both ways.

Whether the spec is integer-valued alone picks the way.  Building the
kernel refuses a weight that is not positive and a walk whose partial sums
could overflow, from the runs or a pass over the terms a segment at a time,
and the cost guard refuses a job of more than `MAX_PATH_STEPS` path-steps.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import get_context
from typing import Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ResourceError, require_finite_nonnegative
from .sequences import SequenceSpec, sum_squares_exact

__all__ = [
    "RngSpec",
    "PathStats",
    "ExperimentReport",
    "TomaszewskiReport",
    "simulate",
    "recurrence_experiment",
    "sign_change_experiment",
    "growth_experiment",
    "tomaszewski_check",
    "worker_count",
]

REPORT_SCHEMA = "awalk-report/1"

_CHUNK = 1 << 16
_BLOCK = 64          # paths per work unit; fixed so partitioning never varies
_WORDS = 1 << 10     # most uint64 words per RNG refill
_BYTE_CHUNK = 1 << 16  # sign bytes per byte-path chunk, over all the paths of a pass
_REAL_CHUNK = 1 << 16  # steps per real-walk chunk, over all the paths of a pass
_STRIDE = 16           # the real walk casts every 16th partial sum

# Row c of _BYTE_SIGNS is the +-1 steps x_j of sign byte c (bit j is step j).
# _BYTE_PREFIX / _BYTE_JPREFIX hold the prefix sums of x_j and of j*x_j over
# the row, and _BYTE_SUM / _BYTE_MOMENT their totals.
_LANES = np.arange(8)
_BYTE_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                            bitorder="little").astype(np.int64) * 2 - 1
_BYTE_PREFIX = np.cumsum(_BYTE_SIGNS, axis=1)
_BYTE_JPREFIX = np.cumsum(_BYTE_SIGNS * _LANES, axis=1)
_REACH_LANES = np.array([0, 1, 1, 1, 1, 1, 1, 1])
_BYTE_SUM = _BYTE_PREFIX[:, -1].copy()
_BYTE_MOMENT = _BYTE_JPREFIX[:, -1].copy()
# The reach tables A and B: the largest |x_{j+1} + ... + x_7| and
# |(j+1) x_{j+1} + ... + 7 x_7| over the steps j of sign byte c.  S at step
# j of a byte with weights w0 + j*delta lies within w0*A[c] + |delta|*B[c]
# of S at the byte's end.
_REACH_SUM = np.abs(_BYTE_SUM[:, None] - _BYTE_PREFIX).max(axis=1)
_REACH_MOMENT = np.abs(_BYTE_MOMENT[:, None] - _BYTE_JPREFIX).max(axis=1)
_BOOTSTRAP_SALT = 0xB00575A9
# Real weights summing to this or more are refused: then |S|, the float64
# partial sums and the real walk's rounding margin all stay finite.
_REAL_LIMIT = 2.0 ** 1020
# Integer weights summing to this or more are refused, so every partial sum
# is exact in int64; a wider band is cut to it.
_INT_LIMIT = 1 << 62
# The most path-steps (paths x steps) one job may walk: about 40 minutes of
# integer walking on one core at 2.4 ns per step, and a thousand times the
# largest criterion-8 job.
MAX_PATH_STEPS = 10 ** 12
# The fewest path-steps (paths x steps) that pay for one forked pool worker:
# a job forks at most one worker per this many, so two from 2^25.  On a
# 2-vCPU Xeon (Python 3.11, numpy 2.4), a 6,144-path linear walk at 2
# workers saved 0.66 s of wall time per CPU second it added at 2^25
# path-steps and 0.72 at 2^26, but only 0.39 at 2^24 and 0.03 at 2^22:
# there a fork, its copy-on-write faults and the pickled results cost
# about as much as the walking a second worker takes over (BENCH_23.json).
_WORKER_PATH_STEPS = 1 << 24


def _sign_byte() -> int:
    """The byte of a long double that holds its sign bit (0x80): the one
    byte where 1 and -1 differ.  Found at import, so that the real walk
    sets signs the same way for 64-, 80- and 128-bit long doubles."""
    pair = np.zeros(2, dtype=np.longdouble)  # zeroed, so padding bytes agree
    pair[0], pair[1] = 1, -1
    one, minus = pair.view(np.uint8).reshape(2, -1)
    at = np.flatnonzero(one != minus)
    if at.size != 1 or one[at[0]] ^ minus[at[0]] != 0x80:
        raise ImportError("long double has no sign bit at 0x80 of one byte")
    return int(at[0])


_SIGN_BYTE = _sign_byte()
# Row c of _NEGATIVE holds 0x80, the sign bit of byte _SIGN_BYTE, at the
# steps x_j = -1 of sign byte c, and 0 at the others.
_NEGATIVE = (_BYTE_SIGNS < 0).astype(np.uint8) << 7
_STRIDE_LANES = np.arange(_STRIDE)

# Attached to every experiment report: simulation evidence is finite-horizon
# only and never establishes an almost-sure / asymptotic claim.
PROXY_NOTE = ("finite-horizon diagnostic with frozen seeds; asymptotic and "
              "almost-sure behavior is not established by simulation")


def worker_count() -> int:
    """The cap on the worker pool: AWALK_THREADS, the one worker setting,
    else the CPU count.  `_run_blocks` forks at most one worker per
    `_WORKER_PATH_STEPS` path-steps of the job, and none when that allows
    only one."""
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
    """Sign bytes of the paths of a pass, refill by refill, from one re-keyed
    Philox generator.

    Path (seed, stream) reads the words ``RngSpec(seed, stream).generator()
    .integers(0, 2**64, dtype=np.uint64)`` returns; byte b holds its steps
    8b..8b+7.  Refill r of a path is its words 1024r..1024r+1023.  Philox
    makes 4 words per counter value, so re-keying the generator and setting
    its counter to 256r draws them, and the refills of all the paths of a
    pass are drawn together and kept packed: at most (64, 1024) words.
    Re-keying through the ``state`` setter costs a fraction of building a
    new generator.  A path's last refill draws only the words the path
    reads; refill sizes never change which bit a step reads.
    """

    __slots__ = ("_philox", "_state", "_seed", "_streams", "_nbits", "_raw", "_pos",
                 "_refill")

    def __init__(self, rng: RngSpec | None = None, nbits: int = 0):
        self._philox = np.random.Philox(0)
        self._state = self._philox.state  # counter 0, empty buffer; key set per path
        self.start(0, range(0), 0)
        if rng is not None:
            self.start(rng.seed, range(rng.stream, rng.stream + 1), nbits)

    def start(self, seed: int, streams: range, nbits: int) -> None:
        """Read the paths (seed, s), s in streams, of `nbits` bits each."""
        self._seed, self._streams, self._nbits = seed, streams, nbits
        self._raw = np.empty((len(streams), 0), dtype=np.uint8)
        self._pos = 0  # in bytes
        self._refill = 0  # the next refill

    @property
    def paths(self) -> int:
        return len(self._streams)

    def _draw(self) -> None:
        """Draw the next refill of every path."""
        bits = min(64 * _WORDS, self._nbits - 64 * _WORDS * self._refill)
        words = -(-bits // 64)
        raw = np.empty((self.paths, words), dtype=np.uint64)
        state = self._state["state"]
        state["counter"] = np.array([_WORDS // 4 * self._refill, 0, 0, 0], dtype=np.uint64)
        for row, stream in zip(raw, self._streams):
            state["key"] = np.array([stream, self._seed], dtype=np.uint64)
            self._philox.state = self._state
            row[:] = self._philox.random_raw(words)
        self._raw = raw.view(np.uint8)[:, :-(-bits // 8)]
        self._pos = 0
        self._refill += 1

    def take_bytes(self, n: int) -> np.ndarray:
        """The next n sign bytes of each path, one row per path (bit j
        little-endian of a byte is its step j); a view within a refill."""
        if self._pos == self._raw.shape[1]:
            self._draw()
        if self._pos + n <= self._raw.shape[1]:
            self._pos += n
            return self._raw[:, self._pos - n:self._pos]
        out = np.empty((self.paths, n), dtype=np.uint8)
        filled = 0
        while filled < n:
            if self._pos == self._raw.shape[1]:
                self._draw()
            k = min(n - filled, self._raw.shape[1] - self._pos)
            out[:, filled:filled + k] = self._raw[:, self._pos:self._pos + k]
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


def _check_cost(paths: int, steps: int) -> None:
    """Refuse a job of more than `MAX_PATH_STEPS` path-steps before it starts."""
    need = paths * steps
    if need > MAX_PATH_STEPS:
        raise ResourceError(f"{paths} paths of {steps} steps need {need} path-steps "
                            f"(budget {MAX_PATH_STEPS})", required=need, budget=MAX_PATH_STEPS)


class _PathKernel:
    """The one path kernel: partial sums S of one or several paths of the
    walk of `spec` to `horizon`, of which it hands a reducer the steps that
    the reducer reads.

    The byte path (`bytewise`) takes every walk with integer weights.  It
    keeps the walk's arithmetic runs (`SequenceSpec.runs`: first step,
    first value, step), which building it checked to be positive with a sum
    below 2^62, so that every partial sum is exact in int64, and the bytes
    that are not affine with the walk's one delta, with their weights
    (`_init_runs`; about one per run).  It reads whole sign bytes, in chunks
    of 2^16 bytes over all the paths of a pass, and builds each chunk's w0
    per byte from the runs that overlap it (`_load`), once per pass; a
    chunk holding a whole walk keeps it from pass to pass.  It forms each
    byte's sum from the sign tables (`_byte_sums`); a byte that is not
    affine takes an exact row sum.  The last byte of a walk of n steps,
    n mod 8 > 0, gets weight 0 on its missing steps, so S stays at S(n)
    there.  One cumsum per path gives S at the chunk's byte ends.

    A pass walks all its paths together, at most a 64-path work unit, in
    either walk.

    The real walk (`_run_real`) cuts the walk into segments that end at
    every multiple of 2^16 steps, at each checkpoint and at the horizon.
    The cut positions fix the rounding: keep them where they are, or
    reports move.  A walk of no steps takes it too and returns at once.
    A segment is walked a chunk at a time, one (paths, 2^16/paths)
    long-double array (1 MB), and each row of a chunk is cut into blocks
    of 16 steps (the last may be shorter).  Per chunk the segment's
    weights (`SequenceSpec.terms_between`) are copied into every row in
    long double, the sign bit (byte `_SIGN_BYTE`, bit 0x80) is set where
    x_j = -1 from the table `_NEGATIVE`, which is exact, each row's
    previous sum in the segment is added to its first column, and one
    cumsum runs along the rows.  So every path makes the same long-double
    additions in the same order as one cumsum over its segment.  Its
    partial sums are S_j = RN64(sums_j + carry): the cumsum and the path's
    carry added in long double, then rounded to float64.

    One rule picks the steps a reducer reads in both walks.  Let level be
    the largest |S| the reducer looks for (`reducer.level`: its widest
    band, or its growth threshold at the chunk's last step), zero_tol the
    largest |S| that counts as a zero, M a bound on the error of the sums
    the kernel screens with and d a bound on |S_j - S_{j-1}| at the steps
    of a block, across chunks and segments too (S before the walk is 0).
    A block is read where |S| can come within low = max(level, zero_tol +
    d) at one of its steps, and the reducer gets the steps of the read
    blocks with |S| <= low.

    - The byte path (`_read`) is the case M = 0: its blocks are sign bytes,
      S is exact, a zero is S == 0 (zero_tol = 0), d is the byte's largest
      weight (w0 + 7|delta|, or the largest in its row) and level is
      floored, as |S| <= c iff |S| <= floor(c).  At every step of a byte S
      lies within its reach (`reach`, from the tables A and B, or w_1 + ...
      + w_7 for a byte that is not affine) of S at its end, so a byte is
      expanded to exact per-step sums (`expand`) where |S at its end| <=
      reach + low.  The steps past n that pad the last byte are dropped.
      With max |S| tracked, a byte is expanded too where |S at its end| +
      8d, a bound on its reach, exceeds the largest |S| at the byte ends so
      far.  Every |S| is below 2^62, so 8d and the prefilter's 8d + level
      are cut at 2^62: they stay in int64 and still pass every byte.
    - The real walk decides every step from every 16th partial sum
      (`_screen`).  Let a_j = RN64(sums_j) + RN64(carry) in float64, W the
      segment's weight sum, c the largest |carry| of the pass and w the
      segment's largest weight.  Each of a_j and S_j is a few roundings,
      relative 2^-53 or finer, of sums of at most W + c, plus a few
      2^-1075 for subnormals (Higham, Accuracy and Stability of Numerical
      Algorithms, ch. 2), so before any sum is seen
          |a_j - S_j| <= M = 2^-50 (W + 3c) + 2^-1070,
          |S_j - S_{j-1}| <= d = w + M.
      At a step j of a block (p, e] of at most 16 steps, p the step before
      it, |S_j| lies within 8d of (|S_p| + |S_e|) / 2, by the triangle
      inequality from both ends.  The screen casts a_p and a_e only; with
      the mean's own rounding, within M, |S_j| lies within spread = 8d +
      2M of (|a_p| + |a_e|) / 2.  It reads a block, rounding its sums once
      each, where that mean is at most low + spread, and, with max |S|
      tracked, where it is at least B - spread, B = max(top, the chunk's
      largest |a| - M), top being the path's largest |S| before the chunk.
      B is at most the path's largest |S| up to the chunk's end, so a
      block holding that |S|, if it exceeds top, is read, and top becomes
      exact again.

    The steps read are every zero and band hit, as every level is at most
    low, and every step where S changes sign: if S_i and S_k are nonzero
    with opposite signs and only zeros between, then |S_k| <= d when k = i
    + 1 (|S_i| + |S_k| = |S_k - S_i|) and |S_k| <= zero_tol + d otherwise.
    So between two nonzero steps read one after the other no change ends
    at a step, and every nonzero S between them has the sign of the first:
    the changes the reducer counts, from its last sign
    (`_PathTally.last_sign`) across chunks and segments too, are the
    path's.  max |S| and S(n) are exact.  A byte-path chunk, or a
    real-walk segment, reaches the reducer at once (reducer.update), with
    the checkpoints that end in it.
    """

    def __init__(self, spec: SequenceSpec, horizon: int, checkpoint_steps: Sequence[int] = ()):
        self.spec = spec
        self.first = spec.first_index
        self.steps = spec.steps(horizon)
        self.checkpoints = frozenset(checkpoint_steps)
        self.bytewise = bool(self.steps) and spec.is_integer_valued
        if self.bytewise:
            self.nbytes = -(-self.steps // 8)
            self._init_runs()
            size = min(_BYTE_CHUNK, _BLOCK * self.nbytes)
            self._index = np.empty(size, dtype=np.intp)
            self._work = np.empty((2, size), dtype=np.int64)  # sums, then moment or |S|
            # per byte: d, 8d and a prefilter limit
            self._bounds = np.empty((3, min(_BYTE_CHUNK, self.nbytes)), dtype=np.int64)
            self._byte_cps = np.asarray(sorted(self.checkpoints), dtype=np.int64)
            return
        self._check_real()
        ends = sorted(set(range(_CHUNK, self.steps, _CHUNK)) | self.checkpoints
                      | ({self.steps} if self.steps else set()))
        self.segments = list(zip([0] + ends[:-1], ends))
        size = min(_REAL_CHUNK, _BLOCK * min(_CHUNK, self.steps))
        self._long = np.empty(size, dtype=np.longdouble)  # a chunk's cumsums
        self._weights = np.empty(min(_CHUNK, self.steps), dtype=np.longdouble)
        self._ends = np.empty(size // _STRIDE + 2 * _BLOCK)  # |a| at the ends of its blocks

    def _init_runs(self) -> None:
        """The walk's runs, checked, and the bytes that are not affine.

        The walk's one delta is w1 - w0 of its first byte whose weights are
        arithmetic (0 for run-constant weights, 1 for `linear`).  A byte that
        lies in one run is arithmetic with the run's step; only the bytes
        that a run starts inside, and the last byte if the horizon cuts it,
        can hold other weights.  So the bytes that are not affine, those of
        runs of another step and the cut bytes that are not arithmetic with
        the delta, are found from the runs alone, and there are about as many
        of them as runs.  Their weights and reach are kept for the walk."""
        # in Python integers, whatever integer type a spec's terms have
        runs = [(int(v), int(d), m) for v, d, m in self.spec.runs(self.first,
                                                                 self.first + self.steps)]
        low = min(min(v, v + d * (m - 1)) for v, d, m in runs)
        if not low > 0:
            raise DomainError(f"walk weights must be positive; {self.spec.canonical()} "
                              f"has weight {low}")
        total = sum(m * v + d * m * (m - 1) // 2 for v, d, m in runs)
        if total >= _INT_LIMIT:
            raise DomainError(f"integer walk range {total} overflows int64 accumulation")
        table = np.array(runs, dtype=np.int64)
        starts = self._starts = np.cumsum(table[:, 2]) - table[:, 2]  # each run's first step
        self._values, self._steps = table[:, 0].copy(), table[:, 1].copy()
        steps = self._steps
        first = self._first = (starts + 7) >> 3  # the first byte that starts in each run
        cut = starts[starts & 7 != 0] >> 3
        if self.steps % 8:
            cut = np.append(cut, self.nbytes - 1)
        cut = np.unique(cut)
        d = np.diff(self._rows(cut), axis=1)
        arithmetic = (d == d[:, :1]).all(axis=1)
        # the first arithmetic byte: a cut one, or the first byte of a run
        # that ends after it
        clean = 8 * first + 8 <= np.append(starts[1:], self.steps)
        firsts = [(int(first[clean][0]), int(steps[clean][0]))] if clean.any() else []
        if arithmetic.any():
            firsts.append((int(cut[arithmetic][0]), int(d[arithmetic][0, 0])))
        self._delta = min(firsts)[1] if firsts else 0
        odd = cut[~(arithmetic & (d[:, 0] == self._delta))]
        other = steps != self._delta
        if other.any():  # the bytes that start in runs of another step
            counts = np.diff(first, append=self.nbytes)
            odd = np.union1d(odd, np.setdiff1d(np.concatenate(
                [np.arange(a, a + c) for a, c in zip(first[other], counts[other])]), cut))
        self._nonaffine = odd
        self._odd = self._rows(odd)
        self._odd_reach = self._odd @ _REACH_LANES
        self._odd_top = self._odd.max(axis=1)
        if steps.any():  # the first step of each byte of a chunk, less its first
            self._eights = np.arange(0, 8 * min(_BYTE_CHUNK, self.nbytes), 8)
        self._loaded = None

    def _check_real(self) -> None:
        """Refuse real weights that are not positive or that sum to 2^1020
        or more, reading them a segment at a time."""
        top = 0.0
        for w in _weight_chunks(self.spec, self.steps):
            if not w.min() > 0:  # nan fails too
                raise DomainError(f"walk weights must be positive; {self.spec.canonical()} "
                                  f"has weight {w.min()}")
            top = max(top, float(w.max()))
        if top * self.steps >= _REAL_LIMIT:
            try:  # the bound failed: sum exactly
                total = math.fsum(itertools.chain.from_iterable(
                    _weight_chunks(self.spec, self.steps)))
            except OverflowError:
                total = math.inf
            if total >= _REAL_LIMIT:
                raise DomainError(f"real walk range {total:g} is not below 2^1020: "
                                  f"its partial sums could overflow float64")

    def _rows(self, at: np.ndarray) -> np.ndarray:
        """The weights of bytes `at`, one row of 8 per byte."""
        step = (8 * at)[:, None] + _LANES
        run = np.searchsorted(self._starts, step, "right") - 1
        rows = self._values[run] + self._steps[run] * (step - self._starts[run])
        rows[step >= self.steps] = 0
        return rows

    def _load(self, lo: int, hi: int) -> None:
        """The tables of bytes lo..hi-1, unless they are loaded: w0 from the
        runs that overlap them, and which of them are not affine."""
        if self._loaded == (lo, hi):
            return
        self._loaded = (lo, hi)
        a = self._starts.searchsorted(8 * lo, "right") - 1
        b = self._starts.searchsorted(min(8 * hi, self.steps))
        starts, values, steps = self._starts[a:b], self._values[a:b], self._steps[a:b]
        w0 = values + steps * (8 * lo - starts)  # at each run's byte in the chunk
        if b - a == 1:  # one run: one w0 (read-only, at no cost) or an arithmetic one
            self._w0 = (np.broadcast_to(w0[0], (hi - lo,)) if not steps[0]
                        else self._eights[:hi - lo] * steps[0] + w0[0])
        else:
            counts = np.diff(np.maximum(self._first[a:b], lo), append=hi)
            self._w0 = np.repeat(w0, counts)
            if steps.any():
                self._w0 += np.repeat(steps, counts) * self._eights[:hi - lo]
        i, j = self._nonaffine.searchsorted((lo, hi))
        self._odd_at = slice(i, j)
        self._cols = self._nonaffine[i:j] - lo
        self._affine = np.ones(hi - lo, dtype=bool)
        self._affine[self._cols] = False
        self._bounds_ready = False

    def _byte_bounds(self) -> np.ndarray:
        """Per byte of the loaded chunk: d, a bound on its largest weight
        (w0 + 7|delta|, or the largest in its row), and min(8d, 2^62), which
        bounds `reach` for any code or lies above every |S|.  The arrays are
        the kernel's, kept until the next chunk is loaded."""
        d, eight = self._bounds[:2, :self._w0.size]
        if not self._bounds_ready:
            self._bounds_ready = True
            np.add(self._w0, abs(self._delta) * 7, out=d)
            d[self._cols] = self._odd_top[self._odd_at]
            np.minimum(d, _INT_LIMIT >> 3, out=eight)  # 8d itself can pass 2^63
            eight *= 8
        return d, eight

    def reach(self, at: np.ndarray, code: np.ndarray) -> np.ndarray:
        """How far S can lie from S at the byte's end, at any step of the
        loaded chunk's bytes `at` with sign bytes `code`: w0*A[c] +
        |delta|*B[c] for an affine byte with code c, w_1 + ... + w_7 for the
        others."""
        reach = _REACH_SUM[code] * self._w0[at]
        if self._delta:
            reach += _REACH_MOMENT[code] * abs(self._delta)
        odd = ~self._affine[at]
        if odd.any():
            reach[odd] = self._odd_reach[self._odd_at.start + self._cols.searchsorted(at[odd])]
        return reach

    def _byte_sums(self, index: np.ndarray) -> np.ndarray:
        """The sum of w_j * x_j over each byte of the loaded chunk, whose codes
        are `index`."""
        # mode='clip' (codes are 0..255): take buffers `out` in its default mode
        sums = np.take(_BYTE_SUM, index, out=_shaped(self._work[0], index.shape),
                       mode="clip")
        sums *= self._w0
        if self._delta:
            moment = np.take(_BYTE_MOMENT, index, out=_shaped(self._work[1], index.shape),
                             mode="clip")
            if self._delta != 1:
                moment *= self._delta
            sums += moment
        cols = self._cols
        if cols.size:
            sums[:, cols] = (self._odd[self._odd_at] * _BYTE_SIGNS[index[:, cols]]).sum(axis=2)
        return sums

    def expand(self, at: np.ndarray, code: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Exact S at the 8 steps of the loaded chunk's bytes `at` with sign
        bytes `code`, (k, 8), from S at their ends, `end`."""
        rows = np.take(_BYTE_PREFIX, code, axis=0)
        rows *= self._w0[at][:, None]
        if self._delta:
            rows += np.take(_BYTE_JPREFIX, code, axis=0) * self._delta
        odd = ~self._affine[at]
        if odd.any():
            w = self._odd[self._odd_at.start + self._cols.searchsorted(at[odd])]
            rows[odd] = np.cumsum(w * _BYTE_SIGNS[code[odd]], axis=1)
        rows += (end - rows[:, -1])[:, None]
        return rows

    def run(self, stream, reducer=None) -> np.ndarray:
        """Walk the `paths` paths of `stream`, whose sign bytes its
        `take_bytes` gives one row per path, into the reducer (a pass stops
        once reducer.update returns True); return the last partial sum
        formed, one per path."""
        if self.bytewise:
            return self._run_bytes(stream.take_bytes, reducer, stream.paths)
        return self._run_real(stream.take_bytes, reducer, stream.paths)

    def _run_bytes(self, take_bytes, reducer, paths):
        """Walk the chunks and feed reducer.update the steps `_read` finds
        in each; return S(n) of each path, in int64."""
        carry = np.zeros(paths, dtype=np.int64)
        top = np.zeros(paths, dtype=np.int64) if reducer is not None and reducer.full else None
        chunk = _BYTE_CHUNK // paths
        for lo in range(0, self.nbytes, chunk):
            codes = take_bytes(min(chunk, self.nbytes - lo))
            hi = lo + codes.shape[-1]
            self._load(lo, hi)
            index = _shaped(self._index, codes.shape)
            index[...] = codes  # np.take is several times slower on uint8
            sums = self._byte_sums(index)
            if reducer is None:
                carry += sums.sum(axis=1)
                continue
            sums[:, 0] += carry  # exact in int64
            ends = np.add.accumulate(sums, axis=1, out=sums)
            carry = ends[:, -1].copy()
            keys, s = self._read(lo, index, ends, reducer.level(min(8 * hi, self.steps) - 1), top)
            a, b = np.searchsorted(self._byte_cps, (8 * lo, 8 * hi), "right")
            if reducer.update(8 * lo, 8 * (hi - lo), keys, s,
                              None if top is None else top.astype(np.float64),
                              carry.astype(np.float64), self._byte_cps[a:b]):
                break
        return carry

    def _read(self, lo, index, ends, level, top):
        """The steps of a chunk of bytes lo, lo+1, ... that a reducer reads,
        as sorted flat keys row*8k + step (k bytes per row), with their
        exact S; `ends` holds S at the byte ends and `index` the sign bytes,
        one row per path.  Given `top` (each path's largest |S| so far),
        raise it to each path's largest |S| in the chunk.  `_PathKernel`
        proves what is read, with low = max(floor(level), d)."""
        k = ends.shape[1]
        d, eight = self._byte_bounds()
        level = min(math.floor(level), _INT_LIMIT)
        abs_ends = np.abs(ends, out=_shaped(self._work[1], ends.shape))

        def byte(flat):  # the byte and code of flat positions, and S at their ends
            at = flat - flat // k * k  # numpy divides by a scalar fast, but not %
            return at, index.ravel()[flat], ends.ravel()[flat]
        # first by reach + low <= 8d + level, cut at 2^62 (above every |S|)
        # to stay in int64; |S| - low and |S| + 8d below stay in it too
        bound = eight
        if level:
            bound = np.minimum(eight, _INT_LIMIT - level, out=self._bounds[2, :k])
            bound += level
        near = np.flatnonzero(abs_ends <= bound)
        at, code, end = byte(near)
        low = np.maximum(d[at], level)
        close = np.flatnonzero(np.abs(end) - low <= self.reach(at, code))
        near, at, code, end, low = near[close], at[close], code[close], end[close], low[close]
        s = self.expand(at, code, end)
        read = np.abs(s) <= low[:, None]
        if 8 * (lo + k) > self.steps:  # the steps past n that pad the last byte
            read &= (8 * at)[:, None] + _LANES < self.steps - 8 * lo
        step = np.flatnonzero(read)
        if top is not None:
            # only a byte that reaches past the largest |S| at a byte end can beat it
            np.maximum(top, abs_ends.max(axis=1), out=top)
            flat = np.flatnonzero(abs_ends > (top - eight.max())[:, None])
            at, code, end = byte(flat)
            beat = np.flatnonzero(np.abs(end) + eight[at] > top[flat // k])
            if beat.size:
                np.maximum.at(top, flat[beat] // k,
                              np.abs(self.expand(at[beat], code[beat], end[beat])).max(axis=1))
        return 8 * near[step >> 3] + (step & 7), s.ravel()[step]

    def _run_real(self, take_bytes, reducer, paths):
        """Walk the segments a chunk at a time and feed reducer.update the
        steps `_screen` finds in each segment; return the last partial sum
        of each path, in long double."""
        carry = np.zeros(paths, dtype=np.longdouble)
        width = min(self.steps, _CHUNK, max(_STRIDE, _REAL_CHUNK // paths // _STRIDE * _STRIDE))
        top = np.zeros(paths) if reducer is not None and reducer.full else None
        for pos, end in self.segments:
            at, span = pos % _CHUNK, end - pos
            if not at:  # segments never cross a refill
                codes = take_bytes(-(-min(_CHUNK, self.steps - pos) // 8))
            weights = self.spec.terms_between(self.first + pos, self.first + end)
            if reducer is not None:
                margin = 2.0 ** -50 * (float(weights.sum()) + 3 * float(np.abs(carry).max())) \
                    + 2.0 ** -1070
                step = float(weights.max()) + margin  # |S_j - S_{j-1}| <= step
                low = max(reducer.level(end - 1), reducer.zero_tol + step)
                bounds = margin, _STRIDE / 2 * step + 2 * margin, low
                rounded = carry.astype(np.float64)
                found = []
            for lo in range(0, span, width):
                m = min(width, span - lo)
                sums = _shaped(self._long, (paths, m))
                self._weights[:m] = weights[lo:lo + m]  # in long double once (exact)
                np.copyto(sums, self._weights[:m])
                first = at + lo  # the chunk's sign bytes, from the one holding step `first`
                neg = np.take(_NEGATIVE, codes[:, first // 8:-(-(first + m) // 8)], axis=0)
                signs = sums.view(np.uint8).reshape(paths, m, -1)[:, :, _SIGN_BYTE]
                signs |= neg.reshape(paths, -1)[:, first % 8:first % 8 + m]  # -w_j where x_j = -1
                if lo:
                    sums[:, 0] += prev
                np.add.accumulate(sums, axis=1, out=sums)  # the cumsum
                if reducer is not None:  # a at the step before the chunk, then the screen
                    before = prev.astype(np.float64) + rounded if lo else rounded
                    keys, s, peak = self._screen(sums, carry, before, bounds, top)
                    keys += keys // m * (span - m) + lo  # row*span + step in the segment
                    found.append((keys, s))
                    if top is not None:
                        np.maximum(top, peak, out=top)
                prev = sums[:, -1].copy()
            carry += prev
            if reducer is not None:
                keys, s = (np.concatenate(x) for x in zip(*found))
                if len(found) > 1:  # from chunk-major to row-major: a merge of sorted runs
                    order = np.argsort(keys, kind="stable")
                    keys, s = keys[order], s[order]
                if reducer.update(pos, span, keys, s, top, carry.astype(np.float64),
                                  (end,) if end in self.checkpoints else ()):
                    break
        return carry

    def _screen(self, sums, carry, before, bounds, top):
        """The steps of a (paths, m) chunk of cumsums that a reducer reads,
        as sorted flat keys row*m + j, with their partial sums S =
        RN64(sums + carry); and, given `top` (each path's largest |S| so
        far), each path's largest |S| in the chunk, else None.

        `before` holds a at the step before the chunk and `bounds` is
        (margin, spread, low), M, 8d + 2M and low in the notation of
        `_PathKernel`, which proves what the screen reads."""
        margin, spread, low = bounds
        paths, m = sums.shape
        whole, nb = m // _STRIDE, -(-m // _STRIDE)
        ends = _shaped(self._ends, (paths, nb + 1))  # |a| at the step before each block
        ends[:, 1:whole + 1] = sums[:, _STRIDE - 1::_STRIDE]
        if whole < nb:
            ends[:, -1] = sums[:, -1]
        ends += carry.astype(np.float64)[:, None]
        ends[:, 0] = before
        np.abs(ends, out=ends)
        pair = ends[:, 1:] + ends[:, :-1]
        read = pair <= 2 * (low + spread)
        if top is not None:
            best = np.maximum(top, ends.max(axis=1) - margin)
            read |= pair >= (2 * best - 2 * spread)[:, None]  # finite, unlike 2 * (best - spread)
        blocks = np.flatnonzero(read)
        row = blocks // nb
        lead = blocks * _STRIDE - row * (nb * _STRIDE - m)  # the key of each block's first step
        if whole == nb:
            picked = sums.reshape(-1, _STRIDE)[blocks]
        else:  # a row's last block is short: its lanes past the row's end repeat its last step
            picked = sums.ravel()[np.minimum(lead[:, None] + _STRIDE_LANES,
                                             (row * m + m - 1)[:, None])]
        picked += carry[row][:, None]
        s = picked.astype(np.float64).ravel()
        del picked  # before more arrays of its size: early chunks read most blocks
        abs_s = np.abs(s)
        peak = None
        if top is not None:
            peak = np.zeros(paths)
            if blocks.size:  # the largest over each row's blocks
                new = np.ones(blocks.size, dtype=bool)
                np.not_equal(row[1:], row[:-1], out=new[1:])
                new = np.flatnonzero(new)
                peak[row[new]] = np.maximum.reduceat(abs_s, new * _STRIDE)
        near = np.flatnonzero(abs_s <= low)
        blk = near // _STRIDE  # numpy divides by a scalar fast, but not %
        keys = lead[blk] + (near - blk * _STRIDE)
        if whole < nb:
            keep = keys < (row[blk] + 1) * m
            keys, near = np.compress(keep, keys), np.compress(keep, near)
        return keys, s[near], peak


def _weight_chunks(spec: SequenceSpec, steps: int):
    """The weights of the first `steps` steps, 2^16 at a time."""
    first = spec.first_index
    for pos in range(0, steps, _CHUNK):
        yield spec.terms_between(first + pos, first + min(pos + _CHUNK, steps))


def _shaped(buf: np.ndarray, shape) -> np.ndarray:
    """The first entries of a flat buffer, viewed in this shape."""
    return buf[:math.prod(shape)].reshape(shape)


class _PathTally:
    """Reducer for the path statistics of `PathStats`, one entry per path of
    the pass (`paths`) in each array.

    With ``full=False`` it keeps only the counts (zero hits, sign changes,
    band hits and their checkpoint snapshots) and skips the last-hit
    positions, max |S| and S(n).  A missing last hit is -1.
    """

    def __init__(self, first: int, bands: Sequence[float], zero_tol: float,
                 full: bool = True, paths: int = 1):
        self.first = first
        self.bands = [float(c) if not float(c).is_integer() else int(c) for c in bands]
        self.zero_tol = zero_tol
        self.full = full
        # an integer walk's bands: |S| <= c iff |S| <= floor(c), and |S| < 2^62
        self.int_bands = [min(math.floor(c), _INT_LIMIT) for c in self.bands]
        self.zero_hits = np.zeros(paths, dtype=np.int64)
        self.sign_changes = np.zeros(paths, dtype=np.int64)
        self.last_zero = np.full(paths, -1, dtype=np.int64)
        self.max_abs = np.zeros(paths)
        self.final = np.zeros(paths)
        self.band_hits = np.zeros((len(self.bands), paths), dtype=np.int64)
        self.last_band = np.full((len(self.bands), paths), -1, dtype=np.int64)
        self.last_sign = np.zeros(paths, dtype=np.int64)
        # (step, zero hits, sign changes, band hits) at each checkpoint
        self.snapshots: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def level(self, step: int):
        """The widest band: the largest |S| counted at any step."""
        return max(self.bands, default=0)

    def update(self, base: int, span: int, keys: np.ndarray, s: np.ndarray,
               peak, final: np.ndarray, cps) -> bool:
        """Add a chunk of `span` steps from step `base` of each path: S at
        the flat keys row*span + step (sorted), which hold every zero, every
        band hit and every step at which S changes sign (see `_PathKernel`);
        with ``full``, each path's largest |S| so far (`peak`) and its S at
        the chunk's last step.  `cps` holds the checkpoints (step counts)
        that end in the chunk.  A zero is |S| <= zero_tol; S in int64 is an
        integer walk's exact sum, so there a zero is S == 0, whatever
        zero_tol is, and the bands compare in int64.  Never stops a pass."""
        abs_s = np.abs(s)
        tol, bands = (0, self.int_bands) if s.dtype == np.int64 else (self.zero_tol, self.bands)
        zero = abs_s <= tol
        # np.compress gathers several times faster than a boolean index here
        events = [np.compress(zero, keys)] + [np.compress(abs_s <= c, keys) for c in bands]
        # sign changes among the nonzero S; a zero never counts as a sign
        live = np.flatnonzero(~zero)
        at, up = keys[live], s[live] > 0
        edge = np.searchsorted(at, np.arange(self.last_sign.size + 1) * span)  # row by row
        rows = np.flatnonzero(edge[1:] > edge[:-1])
        first, last = edge[rows], edge[rows + 1] - 1
        change = np.empty(at.size, dtype=bool)
        np.not_equal(up[1:], up[:-1], out=change[1:])
        known = self.last_sign[rows]
        change[first] = (known != 0) & (up[first] != (known > 0))
        self.last_sign[rows] = np.where(up[last], 1, -1)
        self._count(events, at[change], span, base, cps)
        if self.full:
            self.max_abs = np.maximum(self.max_abs, peak)
            self.final = final
        return False

    def _count(self, events, changes, span: int, base: int, cps) -> None:
        """Add a chunk's events, given as sorted flat keys row*span + step
        (step 0 is step `base` of the walk): `events` those of the zeros and
        of each band's hits, `changes` those of the sign changes; `cps` the
        checkpoints (step counts) in the chunk."""
        paths = self.zero_hits.size
        # per row: the events up to each checkpoint, then in the whole chunk
        starts = np.arange(paths) * span
        edges = starts + np.array([0] + [int(cp) - base for cp in cps] + [span])[:, None]

        def count(e):  # per later edge and row: the events before it; where the last stop
            stop = np.searchsorted(e, edges)
            return stop[1:] - stop[0], stop[-1]
        tallies = [count(e) for e in events]
        zeros, changed = tallies[0], count(changes)[0]
        band_counts = np.array([n for n, _ in tallies[1:]], dtype=np.int64).reshape(
            len(self.bands), len(edges) - 1, paths)
        for i, cp in enumerate(cps):
            self.snapshots.append((self.first + int(cp) - 1, self.zero_hits + zeros[0][i],
                                   self.sign_changes + changed[i],
                                   self.band_hits + band_counts[:, i]))
        self.zero_hits += zeros[0][-1]
        self.sign_changes += changed[-1]
        self.band_hits += band_counts[:, -1]
        if self.full:
            for e, (n, stop), last in zip(events, tallies, [self.last_zero, *self.last_band]):
                got = n[-1] > 0
                last[got] = e[stop[got] - 1] - starts[got] + self.first + base

    def stats(self, horizon: int, steps: int) -> PathStats:
        """The `PathStats` of a one-path tally."""
        def step(v):
            return None if v < 0 else int(v)
        return PathStats(
            horizon=horizon, steps=steps, zero_hits=int(self.zero_hits[0]),
            sign_changes=int(self.sign_changes[0]), last_zero_hit=step(self.last_zero[0]),
            max_abs=float(self.max_abs[0]), final_value=float(self.final[0]),
            band_hits={c: int(h[0]) for c, h in zip(self.bands, self.band_hits)},
            last_band_hit={c: step(h[0]) for c, h in zip(self.bands, self.last_band)},
            checkpoints=[CheckpointSnapshot(
                at=at, zero_hits=int(z[0]), sign_changes=int(ch[0]),
                band_hits={c: int(h[0]) for c, h in zip(self.bands, hits)})
                for at, z, ch, hits in self.snapshots])

    def results(self) -> dict:
        """The per-path arrays by name, paths on the last axis: at
        checkpoint i, the counts are cp_zeros[i], cp_changes[i] and
        cp_band_hits[i] (one row per band)."""
        paths, snaps = self.zero_hits.size, self.snapshots
        return {"zero_hits": self.zero_hits, "sign_changes": self.sign_changes,
                "last_zero": self.last_zero, "max_abs": self.max_abs, "final": self.final,
                "band_hits": self.band_hits, "last_band": self.last_band,
                "cp_zeros": np.array([z for _, z, _, _ in snaps]).reshape(len(snaps), paths),
                "cp_changes": np.array([c for _, _, c, _ in snaps]).reshape(len(snaps), paths),
                "cp_band_hits": np.array([h for *_, h in snaps]).reshape(
                    len(snaps), len(self.bands), paths)}


class _GrowthTest:
    """Reducer: does |S(m)| exceed m^exponent, exponent > 0, at every step
    m of the window?

    A path fails at a step it reads in the window where |S| <= m^exponent.
    Thresholds are computed for the read steps only, always by numpy's
    array power, whose last bit can differ from its scalar power.  `ok`
    holds one flag per path of the pass (`paths`).
    """

    full = False

    def __init__(self, window_start: int, first: int, exponent: float, paths: int = 1):
        self.window_start = window_start
        self.first = first
        self.exponent = exponent
        self.ok = np.ones(paths, dtype=bool)

    def results(self) -> dict:
        return {"ok": self.ok}

    def _thresholds(self, steps: np.ndarray) -> np.ndarray:
        return np.power((self.first + steps).astype(np.float64), self.exponent)

    def level(self, step: int):
        """The threshold at `step`, the largest of any step up to it."""
        return self._thresholds(np.array([step]))[0]

    def update(self, base: int, span: int, keys: np.ndarray, s: np.ndarray,
               peak, final, cps) -> bool:
        """Fail the paths with a read step in the window at or below its
        threshold (`_PathTally.update` names the arguments); stop the pass
        once every path has failed."""
        row = keys // span
        step = base + keys - row * span
        late = np.flatnonzero(step >= self.window_start)
        fail = np.abs(s[late]) <= self._thresholds(step[late])
        self.ok[row[late[fail]]] = False
        return not self.ok.any()


def simulate(spec: SequenceSpec, n: int, rng: RngSpec, bands: Sequence[float] = (),
             *, zero_tol: float = 1e-9, checkpoints: Sequence[int] = ()) -> PathStats:
    """Stream one path to horizon n, reproducibly for the given RngSpec."""
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    bands = _checked_bands(bands, zero_tol)
    _check_cost(1, spec.steps(n))
    first = spec.first_index
    cps = {int(c) for c in checkpoints if first <= c <= n}
    kernel = _PathKernel(spec, n, [c - first + 1 for c in cps])
    tally = _PathTally(first, bands, zero_tol)
    kernel.run(_BitStream(rng, kernel.steps), tally)
    return tally.stats(n, kernel.steps)


def _checked_bands(bands: Sequence[float], zero_tol: float) -> list[float]:
    """The bands as floats, each finite, >= 0 and distinct; zero_tol finite, >= 0."""
    out: list[float] = []
    for c in map(float, bands):
        require_finite_nonnegative("band", c)
        if c in out:
            raise PreconditionError(f"band {c:g} is given twice; bands must be distinct")
        out.append(c)
    require_finite_nonnegative("zero_tol", zero_tol)
    return out


# --- experiment plumbing -------------------------------------------------------

# The pass state of the running `_run_blocks` job: the kernel, the seed, the
# reducer factory and one bit stream.  Pool workers inherit it by fork.
_CTX: dict = {}


def _path_block(block: tuple[int, int]) -> dict:
    """The named per-path arrays of paths lo..hi-1, a work unit walked in one pass."""
    lo, hi = block
    kernel, stream, reducer = _CTX["kernel"], _CTX["stream"], _CTX["reducer"](hi - lo)
    stream.start(_CTX["seed"], range(lo, hi), kernel.steps)
    last = kernel.run(stream, reducer)
    if reducer is None:  # S(n) alone: exact in int64 for integer weights
        return {"final": last if kernel.bytewise else last.astype(np.float64)}
    return reducer.results()


def _run_blocks(spec: SequenceSpec, horizon: int, paths: int, seed: int,
                checkpoints: Sequence[int], reducer) -> dict:
    """Run the per-path kernel over fixed path blocks and return the named
    per-path arrays of every path, paths on the last axis in path order.

    `reducer(paths)` builds the reducer of a pass over that many paths: a
    `_PathTally`, a `_GrowthTest` (whose `results` name the arrays) or None
    for S(n) alone, as "final", in int64 for integer weights and float64
    for real ones.

    The pool has min(AWALK_THREADS, work units, paths x steps //
    `_WORKER_PATH_STEPS`) workers; with one the parent walks every unit
    itself.  A pool hands out one unit per task, so a worker that the host
    slows walks fewer units.  The parent builds the kernel, which checks
    the weights, and imports numpy.random, which numpy loads lazily, before
    the pool forks, so that no worker repeats either.  The workers inherit
    the pass state in `_CTX`, the kernel and its spec object itself (any
    spec, a callable block rule included); nothing is pickled.  `_CTX` is
    cleared when the job ends, so no kernel outlives it.
    """
    if paths < 1:
        raise PreconditionError(f"paths must be >= 1, got {paths}")
    RngSpec(seed)  # validates the seed before any worker starts
    _check_cost(paths, spec.steps(horizon))
    first = spec.first_index
    kernel = _PathKernel(spec, horizon, [c - first + 1 for c in checkpoints])
    import numpy.random  # noqa: F401  (the parent's one import, see above)
    blocks = [(lo, min(lo + _BLOCK, paths)) for lo in range(0, paths, _BLOCK)]
    workers = min(worker_count(), len(blocks),
                  max(1, paths * kernel.steps // _WORKER_PATH_STEPS))
    _CTX.update(kernel=kernel, seed=seed, reducer=reducer, stream=_BitStream())
    try:
        if workers <= 1:
            parts = [_path_block(b) for b in blocks]
        else:
            with get_context("fork").Pool(processes=workers) as pool:
                parts = pool.map(_path_block, blocks, chunksize=1)
    finally:
        _CTX.clear()
    return {name: np.concatenate([p[name] for p in parts], axis=-1) for name in parts[0]}


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

    ``values`` must hold non-negative integers (as float64), and n times
    the largest of them must stay below 2^53, n being the row length; the
    growths of `recurrence_experiment` do, as a growth is at most the
    walk's steps and paths x steps <= `MAX_PATH_STEPS`.  Then every sum of
    a resample is exact in float64 in any order, so a resample's mean is
    its sum, one matrix product of its per-index draw counts with the
    values, divided by n, and equals numpy's mean of the gathered values
    bit for bit.

    The draws do not depend on the chunk size (a Philox Generator yields the
    same integers in one call or in several), so chunks stay small, about
    2^16 indices: chunks of tens of MB leave freed heap pages resident, and
    every pool worker forked afterwards inherits them.
    """
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | _BOOTSTRAP_SALT))
    n = values.shape[1]
    means = np.empty((resamples, len(values)))
    step = max(1, (1 << 16) // max(1, n))
    for lo in range(0, resamples, step):
        hi = min(lo + step, resamples)
        idx = gen.integers(0, n, size=(hi - lo, n))
        idx += np.arange(0, (hi - lo) * n, n)[:, None]  # resample r counts in row r
        counts = np.bincount(idx.ravel(), minlength=(hi - lo) * n).reshape(hi - lo, n)
        np.matmul(counts.astype(np.float64), values.T, out=means[lo:hi])
    means /= n
    return [float(np.percentile(m, 2.5)) for m in means.T]


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
                          zero_tol: float = 1e-9) -> ExperimentReport:
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
    bands = _checked_bands(bands, zero_tol)
    first = spec.first_index
    res = _run_blocks(spec, n, paths, seed, cps,
                      lambda k: _PathTally(first, bands, zero_tol, paths=k))
    # every mean, quantile and bootstrap reads float64: numpy's mean of an
    # int64 array can differ from it in the last bit
    res = {name: a.astype(np.float64) for name, a in res.items()}
    # per target, zeros first and then each band: hits, last hit, hits at each checkpoint
    hits = np.vstack([res["zero_hits"], res["band_hits"]])
    lasts = np.vstack([res["last_zero"], res["last_band"]])
    at_cps = np.concatenate([res["cp_zeros"][:, None], res["cp_band_hits"]], axis=1)
    decade_lo = max(first, n // 10)
    aggregates: dict = {"per_band": {}}
    labels = ["zero"] + [f"band<={c:g}" for c in bands]
    growths = at_cps[-1] - at_cps[0]
    lcbs = _bootstrap_lcbs(growths, seed)
    for t, (label, growth, lcb) in enumerate(zip(labels, growths, lcbs)):
        cp_means = {str(cp): float(at_cps[ci, t].mean()) for ci, cp in enumerate(cps)}
        aggregates["per_band"][label] = {
            "mean_hits": float(hits[t].mean()),
            "hit_quantiles": _quantiles(hits[t]),
            "fraction_any_hit": float(np.mean(hits[t] > 0)),
            "fraction_last_hit_final_decade": float(np.mean(lasts[t] >= decade_lo)),
            "mean_hits_at_checkpoint": cp_means,
            "growth_first_to_last_mean": float(growth.mean()),
            "growth_first_to_last_lcb95": lcb,
            "strict_increase_95": bool(lcb > 0.0),
        }
    aggregates["mean_max_abs"] = float(res["max_abs"].mean())
    aggregates["mean_sign_changes"] = float(res["sign_changes"].mean())
    return ExperimentReport(schema=REPORT_SCHEMA, kind="recurrence", spec=spec.canonical(),
                            horizon=n, paths=paths, seed=seed, bands=bands,
                            zero_tol=zero_tol, checkpoints=cps, aggregates=aggregates,
                            notes=[PROXY_NOTE])


def sign_change_experiment(spec: SequenceSpec, n: int, paths: int, seed: int, *,
                           checkpoints: Sequence[int] | None = None,
                           zero_tol: float = 1e-9) -> ExperimentReport:
    """Empirical CDF of strict sign-change counts at each checkpoint:
    the fraction of paths with at least k changes, for k = 1..20."""
    if not spec.is_non_decreasing:
        raise PreconditionError(
            f"sign-change experiment requires non-decreasing weights, got {spec.canonical()}")
    cps = _experiment_checkpoints(spec, n, checkpoints)
    _checked_bands((), zero_tol)
    first = spec.first_index
    res = _run_blocks(spec, n, paths, seed, cps,
                      lambda k: _PathTally(first, (), zero_tol, full=False, paths=k))
    changes = res["sign_changes"].astype(np.float64)
    aggregates: dict = {"fraction_at_least": {}, "mean_sign_changes": float(changes.mean()),
                        "sign_change_quantiles": _quantiles(changes)}
    for cp, counts in zip(cps, res["cp_changes"]):
        aggregates["fraction_at_least"][str(cp)] = {
            str(k): float(np.mean(counts >= k)) for k in range(1, 21)}
    return ExperimentReport(schema=REPORT_SCHEMA, kind="signs", spec=spec.canonical(),
                            horizon=n, paths=paths, seed=seed, bands=[],
                            zero_tol=zero_tol, checkpoints=cps, aggregates=aggregates,
                            notes=[PROXY_NOTE])


def growth_experiment(spec: SequenceSpec, n: int, delta: float, paths: int,
                      seed: int) -> ExperimentReport:
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
    first = spec.first_index
    win_lo = max(first, n // 10)
    res = _run_blocks(spec, n, paths, seed, (),
                      lambda k: _GrowthTest(win_lo - first, first, exponent, paths=k))
    frac = float(res["ok"].astype(np.float64).mean())
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


def _real_root(spec: SequenceSpec, n: int) -> float:
    """sqrt(a_1^2 + ... + a_n^2) for real weights, the root both modes of
    `tomaszewski_check` use: math.fsum of the float64 squares, fed a chunk
    at a time and so correctly rounded, in units of the largest weight only
    when the squares or their sum overflow."""
    steps = spec.steps(n)

    def square_sum(scale: float) -> float:
        with np.errstate(over="ignore"):
            return math.fsum(itertools.chain.from_iterable(
                np.square(w / scale).tolist() for w in _weight_chunks(spec, steps)))
    try:
        total = square_sum(1.0)
    except OverflowError:  # finite squares whose sum overflows
        total = math.inf
    if math.isfinite(total):
        return math.sqrt(total)
    scale = max(float(w.max()) for w in _weight_chunks(spec, steps))
    return scale * math.sqrt(square_sum(scale))


def tomaszewski_check(spec: SequenceSpec, n: int, mode: str = "exact", *,
                      paths: int = 100_000, seed: int = 0) -> TomaszewskiReport:
    """P(|S(n)| <= sqrt(a_1^2 + ... + a_n^2)) with pass iff >= 1/2.

    Both modes compare |S(n)| with one root: the integer square root of
    the exact sum of squares (`sum_squares_exact`, from the runs) for
    integer weights, `_real_root` for real ones.  Exact mode counts the
    walks exactly for integer weights and enumerates at most 24 real steps;
    MC mode counts the paths (seed, 0..paths-1), streamed through the
    experiments' worker pool.
    """
    if mode == "exact":
        from .exact import _sign_sums_within, distribution
        if spec.is_integer_valued:
            dist = distribution(spec, n)
            good = dist.band_count(math.isqrt(sum_squares_exact(spec, n)))
            prob: Fraction | float = Fraction(good, dist.total)
        else:
            steps = spec.steps(n)
            if steps > 24:
                raise PreconditionError(
                    f"enumeration mode capped at 24 steps, got {steps}")
            prob = Fraction(_sign_sums_within(spec.terms(n), _real_root(spec, n)), 1 << steps)
        return TomaszewskiReport(spec=spec.canonical(), horizon=n, mode="exact",
                                 probability=prob, passed=prob >= Fraction(1, 2))
    if mode == "mc":
        if n < 1:
            raise DomainError(f"horizon must be >= 1, got {n}")
        finals = _run_blocks(spec, n, paths, seed, (), lambda k: None)["final"]
        if spec.is_integer_valued:  # |S| <= sqrt(V) iff |S| <= isqrt(V), S an integer
            root: float | int = math.isqrt(sum_squares_exact(spec, n))
        else:
            root = _real_root(spec, n)
        freq = int(np.count_nonzero(np.abs(finals) <= root)) / paths
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / paths)
        return TomaszewskiReport(spec=spec.canonical(), horizon=n, mode="mc",
                                 probability=freq, passed=freq >= 0.5 - 3 * se,
                                 paths=paths, stderr=se)
    raise PreconditionError(f"mode must be exact|mc, got {mode!r}")
