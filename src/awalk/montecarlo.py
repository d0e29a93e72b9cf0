"""Deterministic parallel path simulation for sign walks.

Every path is addressed by (seed, stream): path p reads the uint64 words of
a Philox generator keyed by seed*2^64 + p, and bit j of their little-endian
unpacking is the sign bit of step j.  The signs of path p therefore do not
depend on how paths are partitioned over workers, on chunk or refill sizes,
or on which other paths run, and experiment reports are byte-identical for a
fixed seed no matter how many workers run (AWALK_THREADS caps the pool).
Philox is counter-based, so each process re-keys one generator per path and
draws only the words the path reads.

Every experiment streams its paths through one kernel, `_PathKernel.run`,
in O(2^16) memory.  A reducer per experiment reads the partial sums: the
path statistics (`_PathTally`, for `simulate`, `recurrence` and `signs`),
the growth window test (`_GrowthTest`) or, with no reducer, only S(n)
(`tomaszewski_check`).  The kernel walks a path in one of two ways:

- step by step: one cumsum per step, in int64 for integer weights (exact)
  and in extended precision for real weights, with the carry propagated
  across segments, which keeps the drift of a million-step sum far below the
  1e-9 zero-detection tolerance;
- a sign byte at a time, for integer weights and at least 2^16 steps.  Byte
  b of a path's words holds steps 8b..8b+7, and two 256-entry tables give
  its sums of x_j and j*x_j, so a byte whose weights run w0 + j*delta moves
  S by w0*sum + delta*moment; one cumsum per 8 steps gives S at every byte
  end.  Only the bytes that end within reach of a band (or a growth
  threshold) are expanded to exact per-step sums; every other byte keeps
  one sign and stays outside every band.  Both ways give the same
  statistics, bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import get_context
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, require_finite_nonnegative
from .sequences import SequenceSpec, sum_squares_exact

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
_BYTE_MIN_STEPS = 1 << 16  # integer walks this long take the byte path
_BYTE_CHUNK = 1 << 15      # sign bytes per byte-path chunk (2^18 steps)

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
    which bit a step reads.  `take` gives bits and `take_bytes` whole sign
    bytes of the same stream; a refill is unpacked only when bits are read.
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

    def start(self, seed: int, stream: int, nbits: int = 0) -> None:
        """Re-key for path (seed, stream), which reads `nbits` bits (0: unknown)."""
        self._state["state"]["key"] = np.array([stream, seed], dtype=np.uint64)
        self._philox.state = self._state
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


def _weights_for(spec: SequenceSpec, n: int) -> np.ndarray:
    w = spec.terms(n)
    if w.dtype == np.int64 and w.size and int(w.max()) * w.size >= 1 << 62:
        total = int(np.sum(w, dtype=object))  # the bound failed: sum exactly
        if total >= 1 << 62:
            raise DomainError(f"integer walk range {total} overflows int64 accumulation")
    return w


class _PathKernel:
    """The one path kernel: a path's partial sums S, fed to a reducer.

    The step path walks segments that end at every multiple of 2^16 steps,
    at each checkpoint and at the horizon, and calls reducer.update with the
    segment's partial sums.  Integer weights accumulate exactly in int64.
    Real weights take a long-double cumsum per segment and then add the
    carry, so the cut positions fix the rounding: keep them where they are,
    or reports move.

    The byte path (`bytewise`) takes integer walks of at least 2^16 steps
    with positive weights.  It reads whole sign bytes in chunks of up to 2^15
    bytes and forms each byte's sum from the tables (`_byte_sums`); a byte
    whose weights are not affine takes an exact row sum.  One cumsum gives S
    at the chunk's byte ends, which reducer.update_bytes reads; it expands
    the few bytes it needs to exact per-step sums (`expand`).  The last
    n mod 8 steps take the step path.  Below 2^16 steps the per-chunk calls
    cost more than the byte tables save.  Measured per path on 2 vCPUs, with
    `constant:1`, `linear`, `logceil:2` and the growth test, the byte path
    took 1.0-2.1x the step path's time at 2^14 steps, 0.8-1.4x at 2^15,
    0.5-1.05x at 2^16 and 0.25-0.45x at 10^6.
    """

    def __init__(self, weights: np.ndarray, checkpoint_steps: Sequence[int] = (),
                 bytewise: bool | None = None):
        """`bytewise` None picks the path by the rule above; True or False
        forces it (True needs positive integer weights)."""
        self.weights = weights
        self.steps = int(weights.size)
        self.integer = weights.dtype == np.int64
        self.checkpoints = frozenset(checkpoint_steps)
        if bytewise is None:
            bytewise = self.steps >= _BYTE_MIN_STEPS
        self.bytewise = bool(bytewise and self.integer and weights.min() > 0)
        self.nbytes = self.steps // 8 if self.bytewise else 0  # whole bytes
        self.segments = self._segments(8 * self.nbytes)
        size = min(_CHUNK, self.steps - 8 * self.nbytes)
        self._signs = np.empty(size, dtype=np.uint8)
        self._sums = np.empty(size, dtype=np.int64 if self.integer else np.longdouble)
        if self.bytewise:
            self._init_bytes()

    def _segments(self, start: int) -> list[tuple[int, int]]:
        """Step-path segments covering steps start..steps-1."""
        ends = sorted({e for e in range(_CHUNK, self.steps, _CHUNK) if e > start}
                      | {c for c in self.checkpoints if c > start}
                      | ({self.steps} if self.steps > start else set()))
        return list(zip([start] + ends[:-1], ends))

    def _init_bytes(self) -> None:
        """Per-byte tables: w0, delta and which bytes are affine.

        Built in blocks of 2^16 steps, so no temporary is larger than the
        step path's buffers."""
        nb = self.nbytes
        rows = self.weights[:8 * nb].reshape(nb, 8)  # a view: byte b's weights
        self._byte_weights = rows
        self._w0 = rows[:, 0].copy()  # contiguous: a strided w0 reads all of w
        self._affine = np.empty(nb, dtype=bool)
        deltas = set()
        for lo in range(0, nb, _CHUNK // 8):
            hi = min(lo + _CHUNK // 8, nb)
            d = np.diff(self.weights[8 * lo:8 * hi + 2])
            # byte b is affine unless a second difference inside it is nonzero
            bent = np.flatnonzero(d[1:] != d[:-1])
            affine = self._affine[lo:hi]
            affine[:] = True
            affine[bent[bent % 8 <= 5] // 8] = False
            steps = d[:8 * (hi - lo):8][affine]  # delta = w1 - w0 of the affine bytes
            if steps.size:
                deltas.update({int(steps.min()), int(steps.max())})
        self._nonaffine = np.flatnonzero(~self._affine)
        # one common delta (0 for run-constant weights, 1 for linear) stays a scalar
        if len(deltas) > 1:
            self._delta = rows[:, 1] - rows[:, 0]
        else:
            self._delta = deltas.pop() if deltas else 0
        self._byte_cps = np.asarray(sorted(c for c in self.checkpoints if c <= 8 * nb),
                                    dtype=np.int64)

    def reach(self, lo: int, hi: int) -> np.ndarray:
        """w_1 + ... + w_7 of bytes lo..hi-1: |S| moves by at most this much
        between a step of the byte and its end."""
        reach = self._w0[lo:hi] * 7
        delta = self._delta
        if isinstance(delta, np.ndarray):
            reach += delta[lo:hi] * 28
        elif delta:
            reach += delta * 28
        a, b = np.searchsorted(self._nonaffine, (lo, hi))
        if b > a:
            na = self._nonaffine[a:b]
            reach[na - lo] = self._byte_weights[na] @ _REACH_LANES
        return reach

    def _rows(self, idx: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Signed weights w_j * x_j of bytes idx with sign bytes codes, (k, 8)."""
        return self._byte_weights[idx] * _BYTE_SIGNS[codes]

    def _byte_sums(self, lo: int, codes: np.ndarray) -> np.ndarray:
        """The sum of w_j * x_j over each byte lo, lo+1, ... with these codes."""
        hi = lo + codes.size
        index = codes.astype(np.intp)  # np.take is several times slower on uint8
        sums = np.take(_BYTE_SUM, index)
        sums *= self._w0[lo:hi]
        delta = self._delta
        if isinstance(delta, np.ndarray):
            sums += np.take(_BYTE_MOMENT, index) * delta[lo:hi]
        elif delta:
            moment = np.take(_BYTE_MOMENT, index)
            sums += moment if delta == 1 else moment * delta
        a, b = np.searchsorted(self._nonaffine, (lo, hi))
        if b > a:
            na = self._nonaffine[a:b]
            sums[na - lo] = self._rows(na, codes[na - lo]).sum(axis=1)
        return sums

    def expand(self, lo: int, idx: np.ndarray, codes: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
        """Exact S at the 8 steps of chunk bytes idx, (k, 8), from S at their ends."""
        at, code = lo + idx, codes[idx]
        rows = _BYTE_PREFIX[code] * self._w0[at][:, None]
        delta = self._delta
        if isinstance(delta, np.ndarray):
            rows += _BYTE_JPREFIX[code] * delta[at][:, None]
        elif delta:
            rows += _BYTE_JPREFIX[code] * delta
        odd = ~self._affine[at]
        if odd.any():
            rows[odd] = np.cumsum(self._rows(at[odd], code[odd]), axis=1)
        rows += (ends[idx] - rows[:, -1])[:, None]
        return rows

    def run(self, stream, reducer=None):
        """Walk one path read from `stream` (`take` bits, `take_bytes` bytes)
        into the reducer until it returns True; return the last partial sum
        formed.  Without a reducer an integer walk only sums S(n)."""
        if self.bytewise:
            return self._run_bytes(stream.take_bytes, reducer)
        return self._run_steps(stream.take, reducer, self.segments, 0)

    def _run_bytes(self, take_bytes, reducer=None):
        carry = 0
        for lo in range(0, self.nbytes, _BYTE_CHUNK):
            codes = take_bytes(min(_BYTE_CHUNK, self.nbytes - lo))
            sums = self._byte_sums(lo, codes)
            if reducer is None:
                carry += int(sums.sum())
                continue
            sums[0] += carry  # exact in int64
            ends = np.add.accumulate(sums, out=sums)
            carry = int(ends[-1])
            a, b = np.searchsorted(self._byte_cps, (8 * lo, 8 * (lo + codes.size)), "right")
            if reducer.update_bytes(self, lo, codes, ends, self._byte_cps[a:b]):
                return carry
        if self.segments:  # the last n mod 8 steps
            bits = np.unpackbits(take_bytes(1), bitorder="little")
            carry = self._run_steps(_reader(bits), reducer, self.segments, carry)
        return carry

    def _run_steps(self, take, reducer, segments, carry):
        """Feed each segment to reducer.update(pos, s, at_checkpoint) until it
        returns True; return the last partial sum formed."""
        w = self.weights
        if not self.integer:
            carry = np.longdouble(carry)
        for pos, end in segments:
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


def _reader(bits: np.ndarray) -> Callable[[int], np.ndarray]:
    """take(m) over a fixed bit array: the next m bits, in order."""
    pos = 0

    def take(m):
        nonlocal pos
        pos += m
        return bits[pos - m:pos]
    return take


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
        self.widest = math.floor(max(self.bands, default=0))  # |S| <= c iff |S| <= floor(c)
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
        live = s[~zmask] if zeros else s
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

    def update_bytes(self, kernel: _PathKernel, lo: int, codes: np.ndarray,
                     ends: np.ndarray, cps: np.ndarray) -> bool:
        """Byte-path `update`: `ends` holds S at the last step of bytes lo,
        lo+1, ... and `cps` the checkpoints (step counts) that fall in them.

        Only a byte that ends within its reach of the widest band (0
        included) can hold a zero, a band hit or a sign change between its
        steps, so only those are expanded.  Every other byte has the sign of
        its end throughout.  Weights are positive, so zeros are isolated and
        every byte has a nonzero step; a change between bytes sits at the
        later byte's first nonzero step.  Events keep their exact steps and
        snapshots count them.
        """
        base = 8 * lo  # events carry steps relative to the chunk
        abs_ends = np.abs(ends)
        margin = kernel.reach(lo, lo + ends.size)
        if self.widest:
            margin += self.widest
        near = np.flatnonzero(abs_ends <= margin)
        s = kernel.expand(lo, near, codes, ends)
        at = (8 * near)[:, None] + _LANES
        zeros_at = at[s == 0]
        events = {None: zeros_at}  # step lists: None for zeros, then each band
        for c in self.bands:
            events[c] = zeros_at if c == 0 else at[np.abs(s) <= c]
        # sign changes: inside expanded bytes, skipping an isolated zero ...
        sg = np.sign(s)
        prev = sg[:, :-1].copy()
        hole = prev[:, 1:] == 0
        prev[:, 1:][hole] = sg[:, :-2][hole]
        inner_at = at[:, 1:][sg[:, 1:] * prev < 0]
        # ... and between bytes, from each byte's first and last nonzero sign
        up = ends > 0
        lead = sg[:, 0] == 0
        first_up = up.copy()
        first_up[near] = np.where(lead, sg[:, 1], sg[:, 0]) > 0
        last_up = up
        end_zero = sg[:, 7] == 0
        if end_zero.any():
            last_up = up.copy()
            last_up[near[end_zero]] = sg[end_zero, 6] > 0
        between = np.flatnonzero(last_up[:-1] != first_up[1:]) + 1
        if self.last_sign and first_up[0] != (self.last_sign > 0):
            between = np.concatenate(([0], between))
        first_step = np.zeros(ends.size, dtype=bool)  # a byte that opens with a zero
        first_step[near] = lead
        between_at = 8 * between + first_step[between]
        self.last_sign = 1 if last_up[-1] else -1
        if cps.size:
            changes_at = np.sort(np.concatenate((between_at, inner_at)))
            for cp in cps:
                t = cp - 1 - base
                before = {k: int(np.searchsorted(v, t, "right")) for k, v in events.items()}
                self.snapshots.append(CheckpointSnapshot(
                    at=self.first + int(cp) - 1, zero_hits=self.zero_hits + before[None],
                    sign_changes=self.sign_changes + int(np.searchsorted(changes_at, t,
                                                                         "right")),
                    band_hits={c: self.band_hits[c] + before[c] for c in self.bands}))
        self.sign_changes += between_at.size + inner_at.size
        self.zero_hits += zeros_at.size
        for c in self.bands:
            self.band_hits[c] += events[c].size
        if self.full:
            for c, steps in events.items():
                if steps.size:
                    last = self.first + base + int(steps[-1])
                    if c is None:
                        self.last_zero = last
                    else:
                        self.last_band[c] = last
            # only a byte that reaches past the largest |S| at a byte end can beat it
            top = max(int(self.max_abs), int(abs_ends.max()))
            beat = np.flatnonzero(np.add(abs_ends, margin, out=abs_ends) > top + self.widest)
            if beat.size:
                top = max(top, int(np.abs(kernel.expand(lo, beat, codes, ends)).max()))
            self.max_abs = float(top)
            self.final = float(ends[-1])
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
    """Reducer: does |S(m)| exceed threshold[m] at every step of the window?

    Set ``ok`` back to True to test the next path with the same kernel.
    """

    def __init__(self, window_start: int, thresholds: np.ndarray):
        self.window_start = window_start
        self.thresholds = thresholds
        self.ok = True
        self._tops: dict[int, int] = {}  # chunk -> its largest threshold, rounded up

    def update(self, pos: int, s: np.ndarray, at_checkpoint: bool) -> bool:
        end = pos + s.size
        if end <= self.window_start:
            return False
        a = max(self.window_start, pos)
        if np.any(np.abs(s[a - pos:]) <= self.thresholds[a:end]):
            self.ok = False
            return True  # the rest of the path cannot change the verdict
        return False

    def update_bytes(self, kernel: _PathKernel, lo: int, codes: np.ndarray,
                     ends: np.ndarray, cps: np.ndarray) -> bool:
        """Byte-path `update`: only a byte that ends within its reach plus its
        largest threshold in the chunk can hold a failing step, so only those
        are expanded."""
        hi = lo + ends.size
        start = max(lo, self.window_start // 8)
        if start >= hi:
            return False
        if lo not in self._tops:
            self._tops[lo] = math.ceil(self.thresholds[8 * start:8 * hi].max())
        near = np.flatnonzero(np.abs(ends[start - lo:])
                              <= kernel.reach(start, hi) + self._tops[lo])
        near += start - lo
        if near.size:
            at = (8 * (lo + near))[:, None] + _LANES
            s = kernel.expand(lo, near, codes, ends)
            if np.any((np.abs(s) <= self.thresholds[at]) & (at >= self.window_start)):
                self.ok = False
                return True
        return False


def simulate(spec: SequenceSpec, n: int, rng: RngSpec, bands: Sequence[float] = (),
             *, zero_tol: float = 1e-9, checkpoints: Sequence[int] = ()) -> PathStats:
    """Stream one path to horizon n, reproducibly for the given RngSpec."""
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    bands = _checked_bands(bands, zero_tol)
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
    tally = _PathTally(first, kernel.integer, bands, zero_tol)
    kernel.run(stream, tally)
    return tally.stats(horizon, kernel.steps)


# --- experiment plumbing -------------------------------------------------------

_CTX: dict = {}


def _init_worker(kind, spec, horizon, seed, bands, zero_tol, checkpoints, extra):
    """Per-process state: the kernel, one bit stream and the row reducer of `kind`.

    Each worker builds its own weights, byte tables and growth thresholds
    after the fork; built once in the parent, they would stay resident there
    for the whole pool and raise the peak memory of every job."""
    _CTX.clear()
    first = spec.first_index
    kernel = _PathKernel(_weights_for(spec, horizon), [c - first + 1 for c in checkpoints])
    stream = _BitStream()
    if kind in ("stats", "counts"):
        def row():
            tally = _PathTally(first, kernel.integer, bands, zero_tol, full=kind == "stats")
            kernel.run(stream, tally)
            return tally.row()
    elif kind == "growth":
        window_start, exponent = extra
        thresholds = np.arange(first, horizon + 1, dtype=np.float64)
        thresholds **= exponent  # in place: one array of n floats, not two
        test = _GrowthTest(window_start, thresholds)

        def row():
            test.ok = True
            kernel.run(stream, test)
            return [1.0 if test.ok else 0.0]
    else:  # "final": the value S(n) alone
        def row():
            return [float(kernel.run(stream))]
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
    "final" (S(n) per path).  The pool forks, so the workers inherit the spec
    object itself (any spec, a callable block rule included); nothing is
    pickled.
    """
    if paths < 1:
        raise PreconditionError(f"paths must be >= 1, got {paths}")
    RngSpec(seed)  # validates the seed before any worker starts
    blocks = [(lo, min(lo + _BLOCK, paths)) for lo in range(0, paths, _BLOCK)]
    args = (kind, spec, horizon, seed, tuple(bands), zero_tol,
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
    bands = _checked_bands(bands, zero_tol)
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
                           checkpoints: Sequence[int] | None = None,
                           zero_tol: float = 1e-9,
                           threads: int | None = None) -> ExperimentReport:
    """Empirical CDF of strict sign-change counts at each checkpoint:
    the fraction of paths with at least k changes, for k = 1..20."""
    if not spec.is_non_decreasing:
        raise PreconditionError(
            f"sign-change experiment requires non-decreasing weights, got {spec.canonical()}")
    cps = _experiment_checkpoints(spec, n, checkpoints)
    _checked_bands((), zero_tol)
    rows = _run_blocks("counts", spec, n, paths, seed, (), zero_tol, cps, None, threads)
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
