"""Deterministic parallel path simulation for sign walks.

Every path is addressed by (seed, stream): path p reads the uint64 words of
a Philox generator keyed by seed*2^64 + p, and bit j of their little-endian
unpacking is the sign bit of step j.  The signs of path p therefore do not
depend on how paths are partitioned over workers, on chunk or refill sizes,
or on which other paths run, and experiment reports are byte-identical for a
fixed seed no matter how many workers run (AWALK_THREADS caps the pool).
Philox is counter-based, so each process re-keys one generator per path and
draws only the words the path reads.

Every experiment streams its paths through one kernel, `_PathKernel`, in
O(2^16) memory.  A reducer per experiment reads the partial sums: the path
statistics (`_PathTally`, for `simulate`, `recurrence` and `signs`), the
growth window test (`_GrowthTest`) or, with no reducer, only S(n)
(`tomaszewski_check`).  Each keeps one column entry per path, so that a
pass can walk several paths at once.  The kernel walks in one of two ways:

- a sign byte at a time, for positive integer weights.  Byte b of a path's
  words holds steps 8b..8b+7, and two 256-entry tables give its sums of x_j
  and j*x_j, so a byte whose weights run w0 + j*delta moves S by
  w0*sum + delta*moment; one cumsum per 8 steps gives S at every byte end.
  Two more tables bound how far S strays from a byte's end inside the
  byte, and only the bytes that end within that reach of a band (or a
  growth threshold) are expanded to exact per-step sums; every other byte
  keeps one sign and stays outside every band.  A walk of at most 2^16
  steps reads one refill, so the paths of a 64-path work unit are walked
  together, as many as fit in one 2^15-byte chunk, as one array of
  (paths, sign bytes);
- step by step, one path at a time, for real weights: one cumsum per step
  in extended precision, with the carry propagated across segments, which
  keeps the drift of a million-step sum far below the 1e-9 zero-detection
  tolerance.

The weights' type alone picks the way; `_weights_for` refuses a weight
that is not positive.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import get_context
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ResourceError, require_finite_nonnegative
from .exact import MAX_BUFFER_BYTES
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
_BYTE_CHUNK = 1 << 15  # sign bytes per byte-path pass, over all its paths

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

# Attached to every experiment report: simulation evidence is finite-horizon
# only and never establishes an almost-sure / asymptotic claim.
PROXY_NOTE = ("finite-horizon diagnostic with frozen seeds; asymptotic and "
              "almost-sure behavior is not established by simulation")


def worker_count() -> int:
    """Worker pool size: AWALK_THREADS, the one worker setting, else the CPU count."""
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
    which bit a step reads.  `take` gives bits and `take_bytes` whole sign
    bytes of the same stream; a refill is unpacked only when bits are read.
    `rows` gives the sign bytes of several short paths, one row each.
    """

    __slots__ = ("_philox", "_state", "_raw", "_bits", "_pos", "_left")

    def __init__(self, rng: RngSpec | None = None, nbits: int = 0):
        self._philox = np.random.Philox(0)
        self._state = self._philox.state  # counter 0, empty buffer; key set per path
        self._raw = np.empty(0, dtype=np.uint8)
        self._bits = None
        self._pos = 0  # in bits
        self._left = 0
        if rng is not None:
            self.start(rng.seed, rng.stream, nbits)

    def _rekey(self, seed: int, stream: int) -> None:
        self._state["state"]["key"] = np.array([stream, seed], dtype=np.uint64)
        self._philox.state = self._state

    def start(self, seed: int, stream: int, nbits: int = 0) -> None:
        """Re-key for path (seed, stream), which reads `nbits` bits (0: unknown)."""
        self._rekey(seed, stream)
        self._raw = self._raw[:0]
        self._bits = None
        self._pos = 0
        self._left = -(-nbits // 64)  # words still to draw; 0 draws full refills

    def _next(self) -> int:
        """Bits left in the current refill, after refilling an exhausted one."""
        if self._pos == 8 * self._raw.size:
            words = min(_WORDS, self._left) if self._left else _WORDS
            self._left = max(0, self._left - words)
            self._raw = self._philox.random_raw(words).view(np.uint8)
            self._bits = None
            self._pos = 0
        return 8 * self._raw.size - self._pos

    def _unpacked(self) -> np.ndarray:
        if self._bits is None:
            self._bits = np.unpackbits(self._raw, bitorder="little")
        return self._bits

    def take(self, n: int) -> np.ndarray:
        """The next n sign bits, 0 or 1, as uint8 (a view while within a refill)."""
        if n <= self._next():
            self._pos += n
            return self._unpacked()[self._pos - n:self._pos]
        out = np.empty(n, dtype=np.uint8)
        filled = 0
        while filled < n:
            k = min(n - filled, self._next())
            out[filled:filled + k] = self._unpacked()[self._pos:self._pos + k]
            self._pos += k
            filled += k
        return out

    def rows(self, seed: int, streams: range, nbits: int) -> np.ndarray:
        """The first ceil(nbits/8) sign bytes of each path (seed, s), s in
        streams, as one uint8 row per path.  A path of nbits <= 2^16 bits
        reads one refill of ceil(nbits/64) words, as `start` and `take_bytes`
        would draw it.  Call `start` before reading a single path again."""
        words = -(-nbits // 64)
        out = np.empty((len(streams), words), dtype=np.uint64)
        for row, stream in zip(out, streams):
            self._rekey(seed, stream)
            row[:] = self._philox.random_raw(words)
        return out.view(np.uint8)[:, :-(-nbits // 8)]

    def take_bytes(self, n: int) -> np.ndarray:
        """The next n sign bytes (8 steps each, bit j little-endian is step j),
        read from a byte-aligned position."""
        out = np.empty(n, dtype=np.uint8)
        filled = 0
        while filled < n:
            k = min(n - filled, self._next() >> 3)
            at = self._pos >> 3
            out[filled:filled + k] = self._raw[at:at + k]
            self._pos += 8 * k
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


def _check_memory(spec: SequenceSpec, n: int) -> None:
    """Refuse a walk whose n-sized arrays are predicted above the band DP's
    byte budget, before they are built: 8 bytes per step for the weights
    and, for integer weights, 9 per sign byte for `_w0` and `_affine`."""
    steps = spec.steps(n)
    need = 8 * steps + (9 * -(-steps // 8) if spec.is_integer_valued else 0)
    if need > MAX_BUFFER_BYTES:
        raise ResourceError(f"walk needs about {need} bytes for {steps} steps per process "
                            f"(budget {MAX_BUFFER_BYTES})",
                            required=need, budget=MAX_BUFFER_BYTES)


def _weights_for(spec: SequenceSpec, n: int) -> np.ndarray:
    w = spec.terms(n)
    if w.size and not w.min() > 0:  # nan fails too
        raise DomainError(f"walk weights must be positive; {spec.canonical()} "
                          f"has weight {w.min()}")
    if w.dtype == np.int64 and w.size and int(w.max()) * w.size >= 1 << 62:
        total = int(np.sum(w, dtype=object))  # the bound failed: sum exactly
        if total >= 1 << 62:
            raise DomainError(f"integer walk range {total} overflows int64 accumulation")
    return w


class _PathKernel:
    """The one path kernel: partial sums S of one or several paths, fed to a
    reducer.

    The byte path (`bytewise`) takes every walk with integer weights, which
    `_weights_for` checked to be positive.  It reads whole sign bytes, in
    chunks of up to 2^15 bytes over all the paths of a pass, and forms each
    byte's sum from the tables (`_byte_sums`); a byte whose weights are not
    affine with the walk's one delta takes an exact row sum.  The last byte
    of a walk of n steps, n mod 8 > 0, gets weight 0 on its missing steps,
    so S stays at S(n) there and reducers skip them.  One cumsum per path gives S at the
    chunk's byte ends, which reducer.update_bytes reads; it expands only the
    bytes that end within their reach (`reach`, from the tables A and B) of
    what it looks for, to exact per-step sums (`expand`).

    Pass rule: a walk of at most 2^16 steps reads one refill per path, so
    `run_rows` walks `paths_per_pass` paths together, as many whole paths
    of a 64-path work unit as fit in one chunk; a longer walk goes one path
    per pass (`run`), a chunk at a time.

    The step path walks one path in segments that end at every multiple of
    2^16 steps, at each checkpoint and at the horizon, and calls
    reducer.update with the segment's partial sums.  It takes the real
    weights: a long-double cumsum per segment, then the carry added, so the
    cut positions fix the rounding: keep them where they are, or reports
    move.  A walk of no steps takes it too and returns at once.
    """

    def __init__(self, weights: np.ndarray, checkpoint_steps: Sequence[int] = ()):
        self.weights = weights
        self.steps = int(weights.size)
        self.checkpoints = frozenset(checkpoint_steps)
        self.bytewise = bool(self.steps) and weights.dtype == np.int64
        self.paths_per_pass = 1
        if self.bytewise:
            self.nbytes = -(-self.steps // 8)
            if self.steps <= 64 * _WORDS:
                self.paths_per_pass = min(_BLOCK, _BYTE_CHUNK // self.nbytes)
            self._init_bytes()
            size = min(_BYTE_CHUNK, self.paths_per_pass * self.nbytes)
            self._index = np.empty(size, dtype=np.intp)
            # sums, moment, a reducer's array and a limit per byte
            self._work = np.empty((4, size), dtype=np.int64)
            self._bound = np.empty(min(_BYTE_CHUNK, self.nbytes), dtype=np.int64)
            self._bound_at = None
            return
        ends = sorted(set(range(_CHUNK, self.steps, _CHUNK)) | self.checkpoints
                      | ({self.steps} if self.steps else set()))
        self.segments = list(zip([0] + ends[:-1], ends))
        size = min(_CHUNK, self.steps)
        self._signs = np.empty(size, dtype=np.uint8)
        self._sums = np.empty(size, dtype=np.longdouble)

    def _padded_blocks(self):
        """(first byte, weights) for blocks of 2^13 bytes; the last byte's
        missing steps get weight 0."""
        for lo in range(0, self.nbytes, _CHUNK // 8):
            w = self.weights[8 * lo:8 * (lo + _CHUNK // 8)]
            if w.size % 8:
                w = np.concatenate((w, np.zeros(-w.size % 8, dtype=w.dtype)))
            yield lo, w

    def _init_bytes(self) -> None:
        """Per-byte tables: w0 and which bytes are affine with the walk's one
        delta, w1 - w0 of its first unbent byte (0 for run-constant weights,
        1 for `linear`); the weights and reach (w_1 + ... + w_7) of the
        others.  Built in blocks of 2^16 steps, so no temporary is larger
        than the step path's buffers."""
        nb = self.nbytes
        self._w0 = np.empty(nb, dtype=np.int64)
        self._affine = np.ones(nb, dtype=bool)
        odd, delta = [], None
        for lo, w in self._padded_blocks():
            hi = lo + w.size // 8
            d = np.diff(w)
            # byte b is affine unless a second difference inside it is nonzero
            bent = np.flatnonzero(d[1:] != d[:-1])
            affine = self._affine[lo:hi]
            affine[bent[bent % 8 <= 5] // 8] = False
            if affine.any():
                if delta is None:
                    delta = int(d[8 * affine.argmax()])
                affine &= d[::8] == delta  # another delta: not affine
            self._w0[lo:hi] = w[::8]
            odd.append(w.reshape(-1, 8)[~affine])
        self._delta = delta or 0
        self._nonaffine = np.flatnonzero(~self._affine)
        self._odd = np.concatenate(odd)
        self._odd_reach = self._odd @ _REACH_LANES
        self._byte_cps = np.asarray(sorted(self.checkpoints), dtype=np.int64)

    def _odd_cols(self, lo: int, hi: int) -> tuple[slice, np.ndarray]:
        """Which non-affine bytes lie in lo..hi-1: their slice of `_odd` and
        their columns in the chunk."""
        a, b = np.searchsorted(self._nonaffine, (lo, hi))
        return slice(a, b), self._nonaffine[a:b] - lo

    def _at(self, lo: int, index: np.ndarray, flat: np.ndarray):
        """Byte numbers and codes of the flat positions `flat` of the chunk's
        (paths, bytes) arrays, whose bytes start at byte lo."""
        return lo + flat % index.shape[1], index.ravel()[flat]

    def reach_bound(self, lo: int, hi: int) -> np.ndarray:
        """w_1 + ... + w_7 of bytes lo..hi-1: a bound on `reach` for any code.
        The array is the kernel's, kept until a call for other bytes."""
        bound = self._bound[:hi - lo]
        if self._bound_at != (lo, hi):
            self._bound_at = (lo, hi)
            np.multiply(self._w0[lo:hi], 7, out=bound)
            if self._delta:
                bound += abs(self._delta) * 28
            odd, cols = self._odd_cols(lo, hi)
            bound[cols] = self._odd_reach[odd]
        return bound

    def reach(self, lo: int, index: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """How far S can lie from S at the byte's end, at any step of the
        bytes at flat positions `flat`: w0*A[c] + |delta|*B[c] for an affine
        byte with code c, `reach_bound` for the others."""
        at, code = self._at(lo, index, flat)
        reach = _REACH_SUM[code] * self._w0[at]
        if self._delta:
            reach += _REACH_MOMENT[code] * abs(self._delta)
        odd = ~self._affine[at]
        if odd.any():
            reach[odd] = self._odd_reach[np.searchsorted(self._nonaffine, at[odd])]
        return reach

    def near(self, lo: int, index: np.ndarray, abs_ends: np.ndarray, band) -> np.ndarray:
        """Flat positions of the chunk's bytes with |S| <= band possible at
        some step, |S at the end| <= reach + band, found by `reach_bound`
        first and `reach` on what passes it."""
        k = index.shape[1]
        limit = self.reach_bound(lo, lo + k)
        if band:
            limit = np.add(limit, band, out=self._work[3, :k])
        pass_ = np.flatnonzero(abs_ends <= limit)
        return pass_[abs_ends.ravel()[pass_] <= self.reach(lo, index, pass_) + band]

    def buffer(self, shape) -> np.ndarray:
        """An int64 array of this shape for a reducer, reused for the next
        chunk.  The kernel keeps its per-chunk arrays, because fresh arrays
        this large cost more than the work on them."""
        return _shaped(self._work[2], shape)

    def _byte_sums(self, lo: int, index: np.ndarray) -> np.ndarray:
        """The sum of w_j * x_j over each byte lo, lo+1, ... with codes `index`."""
        hi = lo + index.shape[1]
        # mode='clip' (codes are 0..255): take buffers `out` in its default mode
        sums = np.take(_BYTE_SUM, index, out=_shaped(self._work[0], index.shape),
                       mode="clip")
        sums *= self._w0[lo:hi]
        if self._delta:
            moment = np.take(_BYTE_MOMENT, index, out=_shaped(self._work[1], index.shape),
                             mode="clip")
            if self._delta != 1:
                moment *= self._delta
            sums += moment
        odd, cols = self._odd_cols(lo, hi)
        if cols.size:
            sums[:, cols] = (self._odd[odd] * _BYTE_SIGNS[index[:, cols]]).sum(axis=2)
        return sums

    def expand(self, lo: int, near: np.ndarray, index: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
        """Exact S at the 8 steps of the bytes at flat positions `near` of the
        chunk's (paths, bytes) arrays, (k, 8), from S at their ends."""
        at, code = self._at(lo, index, near)
        rows = np.take(_BYTE_PREFIX, code, axis=0)
        rows *= self._w0[at][:, None]
        if self._delta:
            rows += np.take(_BYTE_JPREFIX, code, axis=0) * self._delta
        odd = ~self._affine[at]
        if odd.any():
            w = self._odd[np.searchsorted(self._nonaffine, at[odd])]
            rows[odd] = np.cumsum(w * _BYTE_SIGNS[code[odd]], axis=1)
        rows += (ends.ravel()[near] - rows[:, -1])[:, None]
        return rows

    def run(self, stream, reducer=None) -> np.ndarray:
        """Walk one path read from `stream` (`take` bits, `take_bytes` bytes)
        into the reducer until it returns True; return the last partial sum
        formed, as a one-entry array."""
        if self.bytewise:
            return self._run_bytes(stream.take_bytes, reducer, 1)
        return np.asarray([self._run_steps(stream.take, reducer)])

    def run_rows(self, codes: np.ndarray, reducer=None) -> np.ndarray:
        """`run` for the paths whose sign bytes are the rows of `codes`,
        walked together; one last partial sum per path."""
        return self._run_bytes(_reader(codes), reducer, codes.shape[0])

    def _run_bytes(self, take_bytes, reducer, paths):
        carry = np.zeros(paths, dtype=np.int64)
        chunk = _BYTE_CHUNK // paths
        for lo in range(0, self.nbytes, chunk):
            codes = take_bytes(min(chunk, self.nbytes - lo))
            index = _shaped(self._index, (paths, codes.shape[-1]))
            index[...] = codes  # np.take is several times slower on uint8
            sums = self._byte_sums(lo, index)
            if reducer is None:
                carry += sums.sum(axis=1)
                continue
            sums[:, 0] += carry  # exact in int64
            ends = np.add.accumulate(sums, axis=1, out=sums)
            carry = ends[:, -1].copy()
            a, b = np.searchsorted(self._byte_cps, (8 * lo, 8 * (lo + index.shape[1])), "right")
            if reducer.update_bytes(self, lo, index, ends, self._byte_cps[a:b]):
                break
        return carry

    def _run_steps(self, take, reducer):
        """Feed each segment to reducer.update(pos, s, at_checkpoint) until it
        returns True; return the last partial sum formed."""
        w = self.weights
        carry = np.longdouble(0)
        for pos, end in self.segments:
            m = end - pos
            bits = take(m)
            signs = np.add(bits, bits, out=self._signs[:m])
            signs -= 1  # 0/1 -> 255/1, which is -1/+1 as int8
            signs = signs.view(np.int8)
            s_ld = np.multiply(w[pos:end], signs, out=self._sums[:m])
            np.add.accumulate(s_ld, out=s_ld)  # the cumsum
            s_ld += carry
            carry = s_ld[-1]
            if reducer is None:
                continue
            if reducer.update(pos, s_ld.astype(np.float64), end in self.checkpoints):
                break
        return carry


def _shaped(buf: np.ndarray, shape) -> np.ndarray:
    """The first entries of a flat buffer, viewed in this shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _reader(data: np.ndarray) -> Callable[[int], np.ndarray]:
    """take(m) over a fixed array: its next m entries along the last axis."""
    pos = 0

    def take(m):
        nonlocal pos
        pos += m
        return data[..., pos - m:pos]
    return take


def _last_true(mask: np.ndarray) -> int:
    return int(mask.nonzero()[0][-1])


class _PathTally:
    """Reducer for the path statistics of `PathStats`, one column entry per
    path of the pass (`paths`).

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
        self.widest = math.floor(max(self.bands, default=0))  # |S| <= c iff |S| <= floor(c)
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

    def _snapshot(self, at: int, zeros, changes, band_hits) -> None:
        self.snapshots.append((at, self.zero_hits + zeros, self.sign_changes + changes,
                               self.band_hits + band_hits))

    def update(self, pos: int, s: np.ndarray, at_checkpoint: bool) -> bool:
        """Step-path update of a one-path tally: S at steps pos, pos+1, ...,
        a real walk's, so a zero is |S| <= zero_tol."""
        abs_s = np.abs(s)
        zmask = abs_s <= self.zero_tol
        zeros = int(np.count_nonzero(zmask))
        if zeros:
            self.zero_hits += zeros
            if self.full:
                self.last_zero[0] = self.first + pos + _last_true(zmask)
        for b, c in enumerate(self.bands):
            bmask = abs_s <= c
            hits = int(np.count_nonzero(bmask))
            if hits:
                last = self.first + pos + _last_true(bmask) if self.full else -1
                self.band_hits[b] += hits
                self.last_band[b] = last
        # sign changes among the nonzero S; a zero never counts as a sign
        live = s[~zmask] if zeros else s
        if live.size:
            up = live > 0
            if self.last_sign[0] and (1 if up[0] else -1) != self.last_sign[0]:
                self.sign_changes += 1
            self.sign_changes += int(np.count_nonzero(up[1:] != up[:-1]))
            self.last_sign[0] = 1 if up[-1] else -1
        if self.full:
            self.max_abs[0] = max(self.max_abs[0], float(abs_s.max()))
            self.final[0] = float(s[-1])
        if at_checkpoint:
            self._snapshot(self.first + pos + s.size - 1, 0, 0, 0)
        return False

    def update_bytes(self, kernel: _PathKernel, lo: int, index: np.ndarray,
                     ends: np.ndarray, cps: np.ndarray) -> bool:
        """Byte-path `update`: `ends` holds S at the last step of bytes lo,
        lo+1, ... (one row per path), `index` their sign bytes and `cps` the
        checkpoints (step counts) that fall in them.

        Only a byte that ends within its reach of the widest band (0
        included) can hold a zero, a band hit or a sign change between its
        steps, so only those are expanded.  Every other byte has the sign of
        its end throughout.  Weights are positive, so zeros are isolated and
        every byte has a nonzero step; a change between bytes sits at the
        later byte's first nonzero step.  Events are keyed row * 8k + step
        in the chunk (k bytes per row), so each row's keys form one sorted
        run, which snapshots and totals count.
        """
        paths, k = ends.shape
        span, base = 8 * k, 8 * lo
        abs_ends = np.abs(ends, out=kernel.buffer(ends.shape))
        near = kernel.near(lo, index, abs_ends, self.widest)
        s = kernel.expand(lo, near, index, ends)
        key0 = 8 * near  # the key of each expanded byte's first step

        def keys(mask):  # the keys of the steps where mask holds
            at = np.flatnonzero(mask)
            return key0[at >> 3] + (at & 7)

        zero = s == 0
        real = kernel.steps - base
        if real < span:  # the steps past n that pad the last byte hold no event
            exists = (key0 % span)[:, None] + _LANES < real
        else:
            exists = True
        zeros_at = keys(zero & exists)
        events = [zeros_at] + [zeros_at if c == 0 else keys((s <= c) & (s >= -c) & exists)
                               for c in map(math.floor, self.bands)]
        # sign changes inside expanded bytes: zeros are isolated, so the last
        # sign before step j is that of step j-1 or, over a zero, of step j-2
        # (flat arrays, because short rows make numpy slow)
        up = s > 0
        u, z = up.ravel(), zero.ravel()
        filled = np.zeros_like(u)  # up, and a zero takes the sign of the step before it
        np.logical_and(z[1:], u[:-1], out=filled[1:])
        filled |= u
        inner = np.zeros_like(u)
        np.not_equal(u[1:], filled[:-1], out=inner[1:])
        inner &= ~z
        inner = inner.reshape(-1, 8)
        inner[:, 0] = False  # a change at a byte's first steps is counted between bytes
        inner[:, 1] &= ~zero[:, 0]
        inner_at = keys(inner)
        # ... and between bytes, from each byte's first and last nonzero sign
        end_up = ends > 0
        lead = zero[:, 0]
        first_up = end_up.copy()
        first_up.ravel()[near] = np.where(lead, up[:, 1], up[:, 0])
        last_up = end_up
        end_zero = zero[:, 7]
        if end_zero.any():
            last_up = end_up.copy()
            last_up.ravel()[near[end_zero]] = up[end_zero, 6]
        change = np.empty_like(end_up)
        change[:, 1:] = last_up[:, :-1] != first_up[:, 1:]
        change[:, 0] = (self.last_sign != 0) & (first_up[:, 0] != (self.last_sign > 0))
        between = np.flatnonzero(change)
        opens_zero = np.zeros(end_up.size, dtype=bool)  # a byte whose first step is a zero
        opens_zero[near] = lead
        between_at = 8 * between + opens_zero[between]
        if real < span:
            between_at = between_at[between_at % span < real]
        self.last_sign = np.where(last_up[:, -1], 1, -1)
        # per row: the events up to each checkpoint, then in the whole chunk
        starts = np.arange(paths) * span
        edges = starts + np.array([0] + [int(cp) - base for cp in cps] + [span])[:, None]

        def count(e):  # per later edge and row: the events before it; where the last stop
            stop = np.searchsorted(e, edges)
            return stop[1:] - stop[0], stop[-1]
        zeros = count(zeros_at)
        tallies = [zeros] + [zeros if e is zeros_at else count(e) for e in events[1:]]
        changes = count(between_at)[0] + count(inner_at)[0]
        band_counts = np.array([n for n, _ in tallies[1:]], dtype=np.int64).reshape(
            len(self.bands), len(edges) - 1, paths)
        for i, cp in enumerate(cps):
            self._snapshot(self.first + int(cp) - 1, zeros[0][i], changes[i], band_counts[:, i])
        self.zero_hits += zeros[0][-1]
        self.sign_changes += changes[-1]
        self.band_hits += band_counts[:, -1]
        if self.full:
            for e, (n, stop), last in zip(events, tallies, [self.last_zero, *self.last_band]):
                got = n[-1] > 0
                last[got] = e[stop[got] - 1] - starts[got] + self.first + base
            # only a byte that reaches past the largest |S| at a byte end can beat it
            top = np.maximum(self.max_abs.astype(np.int64), abs_ends.max(axis=1))
            bound = kernel.reach_bound(lo, lo + k)
            beat = np.flatnonzero(abs_ends > (top - bound.max())[:, None])
            beat = beat[abs_ends.ravel()[beat] + bound[beat % k] > top[beat // k]]
            if beat.size:
                np.maximum.at(top, beat // k,
                              np.abs(kernel.expand(lo, beat, index, ends)).max(axis=1))
            self.max_abs = top.astype(np.float64)
            self.final = ends[:, -1].astype(np.float64)
        return False

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

    def columns(self) -> np.ndarray:
        """One row per path, in the flat layout the experiment aggregators read."""
        cols = [self.zero_hits, self.sign_changes, self.last_zero, self.max_abs, self.final]
        for hits, last in zip(self.band_hits, self.last_band):
            cols += [hits, last]
        for _, zeros, changes, hits in self.snapshots:
            cols += [zeros, changes, *hits]
        return np.stack(cols, axis=1).astype(np.float64)


class _GrowthTest:
    """Reducer: does |S(m)| exceed m^exponent at every step of the window?

    Thresholds are computed for the expanded steps only, always by numpy's
    array power, whose last bit can differ from its scalar power.  `ok`
    holds one flag per path; set it to a fresh all-True array to test the
    next paths with the same kernel.
    """

    def __init__(self, window_start: int, first: int, exponent: float):
        self.window_start = window_start
        self.first = first
        self.exponent = exponent
        self.ok = np.ones(1, dtype=bool)

    def _thresholds(self, steps: np.ndarray) -> np.ndarray:
        return np.power((self.first + steps).astype(np.float64), self.exponent)

    def update_bytes(self, kernel: _PathKernel, lo: int, index: np.ndarray,
                     ends: np.ndarray, cps: np.ndarray) -> bool:
        """Only a byte that ends within its reach plus the chunk's largest
        threshold, its last one rounded up, can hold a failing step, so
        only those are expanded.  The growth experiment's weights are
        integers, so the byte path always runs it."""
        k = ends.shape[1]
        start = max(lo, self.window_start // 8)
        if start >= lo + k:
            return False
        last = min(8 * (lo + k), kernel.steps) - 1
        top = math.ceil(self._thresholds(np.array([last]))[0])
        near = kernel.near(lo, index, np.abs(ends, out=kernel.buffer(ends.shape)), top)
        near = near[near % k >= start - lo]
        if near.size:
            row = near // k
            # a padded step stands for step n, whose S it repeats
            step = np.minimum((8 * (lo + near % k))[:, None] + _LANES, kernel.steps - 1)
            s = kernel.expand(lo, near, index, ends)
            fail = (np.abs(s) <= self._thresholds(step)) & (step >= self.window_start)
            self.ok[row[fail.any(axis=1)]] = False
            return not self.ok.any()
        return False


def simulate(spec: SequenceSpec, n: int, rng: RngSpec, bands: Sequence[float] = (),
             *, zero_tol: float = 1e-9, checkpoints: Sequence[int] = ()) -> PathStats:
    """Stream one path to horizon n, reproducibly for the given RngSpec."""
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    bands = _checked_bands(bands, zero_tol)
    _check_memory(spec, n)
    weights = _weights_for(spec, n)
    return _path_stats(spec, weights, n, _BitStream(rng, weights.size), bands,
                       zero_tol, checkpoints)


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


def _path_stats(spec, weights, horizon, stream, bands, zero_tol, checkpoints) -> PathStats:
    """One path's statistics, its signs read from `stream` (see `_PathKernel.run`)."""
    first = spec.first_index
    cps = {int(c) for c in checkpoints if first <= c <= horizon}
    kernel = _PathKernel(weights, [c - first + 1 for c in cps])
    tally = _PathTally(first, bands, zero_tol)
    kernel.run(stream, tally)
    return tally.stats(horizon, kernel.steps)


# --- experiment plumbing -------------------------------------------------------

_CTX: dict = {}


def _init_worker(kind, spec, horizon, seed, bands, zero_tol, checkpoints, extra):
    """Per-process state: the kernel, one bit stream and, for `kind`, the
    reducer of a pass over some paths and the columns it gives them.

    Each worker builds its own weights and byte tables after the fork;
    built once in the parent, they would stay resident there for the whole
    pool and raise the peak memory of every job.

    An error raised here is kept and raised by `_path_block`: a pool
    replaces a worker whose initializer raises with another that raises
    too, and never returns."""
    _CTX.clear()
    first = spec.first_index
    try:
        weights = _weights_for(spec, horizon)
    except Exception as exc:  # raised again by _path_block
        _CTX.update(error=exc)
        return
    kernel = _PathKernel(weights, [c - first + 1 for c in checkpoints])
    if kind in ("stats", "counts"):
        def reducer(paths):
            return _PathTally(first, bands, zero_tol, full=kind == "stats", paths=paths)

        def columns(tally, last):
            return tally.columns()
    elif kind == "growth":
        test = _GrowthTest(*extra)

        def reducer(paths):
            test.ok = np.ones(paths, dtype=bool)
            return test

        def columns(test, last):
            return test.ok[:, None].astype(np.float64)
    else:  # "final": the value S(n) alone
        def reducer(paths):
            return None

        def columns(_, last):
            return last[:, None].astype(np.float64)
    _CTX.update(seed=seed, kernel=kernel, stream=_BitStream(), reducer=reducer,
                columns=columns)


def _path_block(block: tuple[int, int]) -> np.ndarray:
    """The columns of paths lo..hi-1, `paths_per_pass` of them per pass."""
    if "error" in _CTX:
        raise _CTX["error"]
    lo, hi = block
    seed, kernel, stream = _CTX["seed"], _CTX["kernel"], _CTX["stream"]
    per_pass = kernel.paths_per_pass
    out = []
    for a in range(lo, hi, per_pass):
        paths = range(a, min(a + per_pass, hi))
        reducer = _CTX["reducer"](len(paths))
        if per_pass > 1:
            last = kernel.run_rows(stream.rows(seed, paths, kernel.steps), reducer)
        else:
            stream.start(seed, a, kernel.steps)
            last = kernel.run(stream, reducer)
        out.append(_CTX["columns"](reducer, last))
    return np.concatenate(out, axis=0)


def _run_blocks(kind: str, spec: SequenceSpec, horizon: int, paths: int, seed: int,
                bands, zero_tol, checkpoints, extra) -> np.ndarray:
    """Run the per-path kernel over fixed path blocks; row order is path order.

    `kind` picks the reducer: "stats" (`_PathTally.columns`), "counts" (the
    same columns with only the counts filled in), "growth" (one 0/1 flag per path) or
    "final" (S(n) per path).  The pool forks, so the workers inherit the spec
    object itself (any spec, a callable block rule included); nothing is
    pickled.
    """
    if paths < 1:
        raise PreconditionError(f"paths must be >= 1, got {paths}")
    RngSpec(seed)  # validates the seed before any worker starts
    _check_memory(spec, horizon)
    blocks = [(lo, min(lo + _BLOCK, paths)) for lo in range(0, paths, _BLOCK)]
    args = (kind, spec, horizon, seed, tuple(bands), zero_tol,
            tuple(checkpoints), extra)
    workers = min(worker_count(), len(blocks))
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
    rows = _run_blocks("stats", spec, n, paths, seed, bands, zero_tol, cps, None)
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
                           checkpoints: Sequence[int] | None = None,
                           zero_tol: float = 1e-9) -> ExperimentReport:
    """Empirical CDF of strict sign-change counts at each checkpoint:
    the fraction of paths with at least k changes, for k = 1..20."""
    if not spec.is_non_decreasing:
        raise PreconditionError(
            f"sign-change experiment requires non-decreasing weights, got {spec.canonical()}")
    cps = _experiment_checkpoints(spec, n, checkpoints)
    _checked_bands((), zero_tol)
    rows = _run_blocks("counts", spec, n, paths, seed, (), zero_tol, cps, None)
    per_cp = 2
    aggregates: dict = {"fraction_at_least": {}, "mean_sign_changes": float(rows[:, 1].mean()),
                        "sign_change_quantiles": _quantiles(rows[:, 1])}
    for ci, cp in enumerate(cps):
        col = 5 + ci * per_cp + 1
        counts = rows[:, col]
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
    win_lo = max(spec.first_index, n // 10)
    win_lo_step = win_lo - spec.first_index  # 0-based step offset of the window start
    rows = _run_blocks("growth", spec, n, paths, seed, (), 0.0, (),
                       (win_lo_step, spec.first_index, exponent))
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
        from .exact import _sign_sums, distribution
        if spec.is_integer_valued:
            dist = distribution(spec, n)
            good = dist.band_count(math.isqrt(sum_squares_exact(spec, n)))
            prob: Fraction | float = Fraction(good, dist.total)
        else:
            steps = spec.steps(n)
            if steps > 24:
                raise PreconditionError(
                    f"enumeration mode capped at 24 steps, got {steps}")
            ws = spec.terms(n)
            sums = _sign_sums(ws)
            ssq_f = math.fsum(float(w) ** 2 for w in ws)
            prob = Fraction(int(np.count_nonzero(sums * sums <= ssq_f)), sums.size)
        return TomaszewskiReport(spec=spec.canonical(), horizon=n, mode="exact",
                                 probability=prob, passed=prob >= Fraction(1, 2))
    if mode == "mc":
        if n < 1:
            raise DomainError(f"horizon must be >= 1, got {n}")
        _check_memory(spec, n)
        root = math.sqrt(float(np.sum(spec.terms(n).astype(np.float64) ** 2)))
        finals = _run_blocks("final", spec, n, paths, seed, (), 0.0, (), None)
        freq = int(np.count_nonzero(np.abs(finals[:, 0]) <= root)) / paths
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / paths)
        return TomaszewskiReport(spec=spec.canonical(), horizon=n, mode="mc",
                                 probability=freq, passed=freq >= 0.5 - 3 * se,
                                 paths=paths, stderr=se)
    raise PreconditionError(f"mode must be exact|mc, got {mode!r}")
