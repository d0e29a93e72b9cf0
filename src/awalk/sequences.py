"""Weight sequences a_1, a_2, ... for signed walks S(n) = a_1*x_1 + ... + a_n*x_n.

Variants: constant, linear (a_k = k), floor-power (a_k = floor(k**beta)),
log-ceiling blocks (a_k = ceil(log_gamma(k))), general blocks (value k repeated
L_k times), continuous logarithm (a_k = c*ln(k)), and explicit finite lists.

Every term is positive.  Because ceil(log_gamma(1)) = 0 and c*ln(1) = 0, the
two logarithmic variants start at index 2; their walks simply have one fewer
step per horizon.  Every variant lists its terms as (value, multiplicity)
runs (`value_runs`), which the spectral layer uses to evaluate cosine
products over distinct values instead of individual terms.  Any index range
k = start..stop-1 comes as arithmetic runs (first value, step, length;
`runs`, where `linear` is one run of step 1) or as its array of terms
(`terms_between`), so that a walk's weights are built a range at a time,
never for the whole horizon at once.

Integer-valued variants do all index/boundary arithmetic in exact integer or
rational form, so term values are reproducible bit-for-bit and run boundaries
are never off by one from floating-point rounding.
"""

from __future__ import annotations

import bisect
import math
import re
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError, UnsupportedVariantError

__all__ = [
    "SequenceSpec",
    "Constant",
    "Linear",
    "PowerFloor",
    "LogCeilBlocks",
    "GeneralBlocks",
    "LogContinuous",
    "Explicit",
    "parse_spec",
    "register_length_rule",
    "integer_nth_root",
]


def integer_nth_root(x: int, r: int) -> int:
    """Largest v >= 0 with v**r <= x, exact for arbitrary-size integers."""
    if x < 0 or r < 1:
        raise DomainError(f"integer_nth_root needs x >= 0 and r >= 1, got ({x}, {r})")
    if r == 1 or x < 2:
        return x
    if r == 2:
        return math.isqrt(x)
    v = 1 << -(-x.bit_length() // r)  # upper seed: 2^ceil(bits/r) >= x^(1/r)
    while True:
        w = ((r - 1) * v + x // v ** (r - 1)) // r
        if w >= v:
            break
        v = w
    while v ** r > x:
        v -= 1
    while (v + 1) ** r <= x:
        v += 1
    return v


def _floor_rational_power(base: Fraction, e: int) -> int:
    """floor(base**e) for base > 0, exact."""
    return (base.numerator ** e) // (base.denominator ** e)


def _rational(x):
    """x as an exact Fraction when it is a float, int or text; decimal text
    and float reprs parse exactly ("0.8" -> 4/5), and "p/q" is accepted.
    Any other value is returned as it is, for the caller to reject."""
    if isinstance(x, float):
        x = repr(x)
    return Fraction(x) if isinstance(x, (str, int)) else x


def _format_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        f = float(x)
        if Fraction(repr(f)) == x:
            return repr(f)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


class SequenceSpec:
    """Common interface of all weight-sequence variants."""

    kind: str = ""
    first_index: int = 1
    max_index: int | None = None

    @property
    def is_integer_valued(self) -> bool:
        raise NotImplementedError

    @property
    def is_non_decreasing(self) -> bool:
        raise NotImplementedError

    def canonical(self) -> str:
        """Canonical textual form, parseable by :func:`parse_spec` except for
        blocks with a callable length rule ("blocks:<name>")."""
        raise NotImplementedError

    def term(self, k: int):
        """a_k; raises DomainError outside the valid index range."""
        raise NotImplementedError

    def value_runs(self, n: int) -> list[tuple[float, int]]:
        """(value, multiplicity) runs covering indices first_index..n."""
        self._check_horizon(n)
        out = []
        for v, d, m in self.runs(self.first_index, max(n + 1, self.first_index)):
            out += [(v, m)] if not d else [(v + d * i, 1) for i in range(m)]
        return out

    def terms(self, n: int) -> np.ndarray:
        """Vector of a_k for k = first_index..n (int64 or float64)."""
        self._check_horizon(n)
        return self.terms_between(self.first_index, max(n + 1, self.first_index))

    def runs(self, start: int, stop: int) -> list[tuple]:
        """a_k for k = start..stop-1 as ordered arithmetic runs (first value,
        step, length): the runs of the sequence that overlap the range, cut
        to it, so that their lengths sum to stop - start."""
        self._check_range(start, stop)
        out = []
        while start < stop:
            value, end = self._run_at(start)
            out.append((value, 0, min(end, stop) - start))
            start = end
        return out

    def _run_at(self, k: int):
        """a_k and the first index past the run of equal values that holds k."""
        return self.term(k), k + 1

    def terms_between(self, start: int, stop: int) -> np.ndarray:
        """a_k for k = start..stop-1 (int64 or float64), equal bit for bit to
        the same entries of `terms`, without the terms outside the range."""
        runs = self.runs(start, stop)
        dtype = np.int64 if self.is_integer_valued else np.float64
        values, steps = (np.asarray([r[i] for r in runs], dtype=dtype) for i in (0, 1))
        lengths = np.asarray([r[2] for r in runs], dtype=np.int64)
        out = np.repeat(values, lengths)
        if steps.any():  # offset within the run times its step
            out += np.repeat(steps, lengths) * (
                np.arange(stop - start) - np.repeat(np.cumsum(lengths) - lengths, lengths))
        return out

    def int_terms(self, n: int) -> list[int]:
        if not self.is_integer_valued:
            raise UnsupportedVariantError(
                f"{self.canonical()} is not integer-valued")
        return [int(v) for v in self.terms(n)]

    def steps(self, n: int) -> int:
        """Number of walk steps up to horizon n."""
        self._check_horizon(n)
        return max(0, n - self.first_index + 1)

    def _check_index(self, k: int) -> None:
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise DomainError(f"index must be a positive integer, got {k!r}")
        if k < self.first_index:
            raise DomainError(
                f"{self.canonical()} starts at index {self.first_index}, got {k}")
        if self.max_index is not None and k > self.max_index:
            raise DomainError(
                f"{self.canonical()} has only {self.max_index} terms, got index {k}")

    def _check_range(self, start: int, stop: int) -> None:
        if not self.first_index <= start <= stop:
            raise DomainError(f"{self.canonical()} has no index range {start}..{stop - 1}")
        if stop > start:
            self._check_horizon(stop - 1)

    def _check_horizon(self, n: int) -> None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError(f"horizon must be a positive integer, got {n!r}")
        if self.max_index is not None and n > self.max_index:
            raise DomainError(
                f"{self.canonical()} has only {self.max_index} terms, horizon {n} too large")

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical()!r})"

    def __eq__(self, other):
        return isinstance(other, SequenceSpec) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())


class Constant(SequenceSpec):
    kind = "constant"

    def __init__(self, value):
        value = _coerce_number(value)
        if value <= 0:
            raise DomainError(f"constant weight must be positive, got {value}")
        self.value = value

    @property
    def is_integer_valued(self):
        return isinstance(self.value, int)

    @property
    def is_non_decreasing(self):
        return True

    def canonical(self):
        return f"constant:{_format_number(self.value)}"

    def term(self, k):
        self._check_index(k)
        return self.value

    def runs(self, start, stop):
        self._check_range(start, stop)
        return [(self.value, 0, stop - start)] if stop > start else []


class Linear(SequenceSpec):
    """a_k = k."""

    kind = "linear"

    @property
    def is_integer_valued(self):
        return True

    @property
    def is_non_decreasing(self):
        return True

    def canonical(self):
        return "linear"

    def term(self, k):
        self._check_index(k)
        return k

    def runs(self, start, stop):
        self._check_range(start, stop)
        return [(start, 1, stop - start)] if stop > start else []


class PowerFloor(SequenceSpec):
    """a_k = floor(k**beta) with beta in (0, 1].

    beta is held as an exact rational (decimal inputs like "0.8" mean 4/5),
    so floor values at perfect-power boundaries (e.g. 32**0.8 = 16) are exact.
    """

    kind = "powfloor"

    def __init__(self, beta):
        beta = _rational(beta)
        if not isinstance(beta, Fraction) or not (0 < beta <= 1):
            raise DomainError(f"beta must lie in (0, 1], got {beta}")
        self.beta = beta

    @property
    def is_integer_valued(self):
        return True

    @property
    def is_non_decreasing(self):
        return True

    def canonical(self):
        return f"powfloor:{_format_number(self.beta)}"

    def term(self, k):
        self._check_index(k)
        p, q = self.beta.numerator, self.beta.denominator
        return integer_nth_root(int(k) ** p, q)

    def value_start(self, m: int) -> int:
        """Smallest k with floor(k**beta) >= m, i.e. k**p >= m**q."""
        p, q = self.beta.numerator, self.beta.denominator
        return integer_nth_root(m ** q - 1, p) + 1 if m > 1 else 1

    def runs(self, start, stop):
        # floor(k**beta) rises by at most 1 per index, so run m + 1 follows run m
        self._check_range(start, stop)
        out, m = [], self.term(start) if start < stop else 0
        while start < stop:
            end = self.value_start(m + 1)
            out.append((m, 0, min(end, stop) - start))
            start, m = end, m + 1
        return out


class LogCeilBlocks(SequenceSpec):
    """a_k = ceil(log_gamma(k)) for k >= 2 and gamma > 1.

    Value m occupies the index block (gamma**(m-1), gamma**m]; gamma is kept
    as an exact rational so block boundaries are computed without rounding.
    """

    kind = "logceil"
    first_index = 2

    def __init__(self, gamma):
        gamma = _rational(gamma)
        if not isinstance(gamma, Fraction) or gamma <= 1:
            raise DomainError(f"gamma must exceed 1, got {gamma}")
        self.gamma = gamma

    @property
    def is_integer_valued(self):
        return True

    @property
    def is_non_decreasing(self):
        return True

    def canonical(self):
        return f"logceil:{_format_number(self.gamma)}"

    def term(self, k):
        self._check_index(k)
        # smallest m >= 1 with gamma**m >= k
        m = max(1, math.ceil(math.log(k) / math.log(float(self.gamma))) - 1)
        p, q = self.gamma.numerator, self.gamma.denominator
        while p ** m < k * q ** m:
            m += 1
        while m > 1 and p ** (m - 1) >= k * q ** (m - 1):
            m -= 1
        return m

    def block(self, m: int) -> tuple[int, int]:
        """(first index, length) of the run of value m."""
        if m < 1:
            raise DomainError(f"block label must be >= 1, got {m}")
        lo = _floor_rational_power(self.gamma, m - 1)
        hi = _floor_rational_power(self.gamma, m)
        return lo + 1, hi - lo

    def _run_at(self, k):
        m = self.term(k)
        start, length = self.block(m)
        return m, start + length


LENGTH_RULES: dict[str, Callable[[int], int]] = {}


def register_length_rule(name: str, fn: Callable[[int], int]) -> None:
    """Register a named block-length rule k -> L_k for GeneralBlocks."""
    if not re.fullmatch(r"[a-z][a-z0-9_]*", name):
        raise PreconditionError(f"rule name must be a lowercase identifier, got {name!r}")
    LENGTH_RULES[name] = fn


def _rule_one(k: int) -> int:
    return 1


def _rule_pow2(k: int) -> int:
    return 2 ** k


def _rule_k4lnk(k: int) -> int:
    # ceil(k^4 * ln k), clamped to 1 so every block is non-empty.
    return max(1, math.ceil(k ** 4 * math.log(k))) if k >= 2 else 1


register_length_rule("one", _rule_one)
register_length_rule("pow2", _rule_pow2)
register_length_rule("k4lnk", _rule_k4lnk)


class GeneralBlocks(SequenceSpec):
    """Block k consists of L_k copies of the value k.

    Lengths come from a registered named rule ("pow2", "one", ...) or an
    explicit list of positive integers.
    """

    kind = "blocks"

    def __init__(self, lengths):
        if isinstance(lengths, str):
            if lengths not in LENGTH_RULES:
                raise PreconditionError(
                    f"unknown block-length rule {lengths!r}; known: {sorted(LENGTH_RULES)}")
            self.rule_name: str | None = lengths
            self._rule = LENGTH_RULES[lengths]
            self.explicit_lengths: tuple[int, ...] | None = None
        elif callable(lengths):
            self.rule_name = getattr(lengths, "__name__", "callable")
            self._rule = lengths
            self.explicit_lengths = None
        else:
            vals = tuple(int(v) for v in lengths)
            if not vals or any(v < 1 for v in vals):
                raise DomainError("explicit block lengths must be positive integers")
            self.rule_name = None
            self._rule = None
            self.explicit_lengths = vals
        self._starts = [1]  # cumulative first indices i_1, i_2, ...

    @property
    def is_integer_valued(self):
        return True

    @property
    def is_non_decreasing(self):
        return True

    @property
    def max_index(self):
        if self.explicit_lengths is None:
            return None
        return sum(self.explicit_lengths)

    def canonical(self):
        if self.explicit_lengths is not None:
            return "blocks:" + ",".join(str(v) for v in self.explicit_lengths)
        return f"blocks:{self.rule_name}"

    def length(self, k: int) -> int:
        if k < 1:
            raise DomainError(f"block label must be >= 1, got {k}")
        if self.explicit_lengths is not None:
            if k > len(self.explicit_lengths):
                raise DomainError(
                    f"only {len(self.explicit_lengths)} block lengths given, got label {k}")
            return self.explicit_lengths[k - 1]
        length = int(self._rule(k))
        if length < 1:
            raise DomainError(f"length rule returned {length} < 1 at k={k}")
        return length

    def start(self, k: int) -> int:
        """First index i_k = 1 + L_1 + ... + L_{k-1} of block k."""
        if k < 1:
            raise DomainError(f"block label must be >= 1, got {k}")
        while len(self._starts) < k:
            j = len(self._starts)
            self._starts.append(self._starts[-1] + self.length(j))
        return self._starts[k - 1]

    def term(self, i):
        self._check_index(i)
        while self._starts[-1] <= i:  # i <= max_index, so the lengths reach past i
            self.start(len(self._starts) + 1)
        return bisect.bisect_right(self._starts, i)

    def _run_at(self, i):
        k = self.term(i)
        return k, self.start(k + 1)


class LogContinuous(SequenceSpec):
    """a_k = c * ln(k) for k >= 2, c > 0.  Real-valued, strictly increasing."""

    kind = "logcont"
    first_index = 2

    def __init__(self, c):
        c = float(c)
        if not (c > 0) or not math.isfinite(c):
            raise DomainError(f"c must be a positive finite real, got {c}")
        self.c = c

    @property
    def is_integer_valued(self):
        return False

    @property
    def is_non_decreasing(self):
        return True

    def canonical(self):
        return f"logcont:{repr(self.c)}"

    def term(self, k):
        self._check_index(k)
        return float(self.terms_between(k, k + 1)[0])

    def terms_between(self, start, stop):
        # np.log is elementwise, so a range gives the bits of the whole horizon;
        # `term` and `value_runs` read the same bits
        self._check_range(start, stop)
        return self.c * np.log(np.arange(start, stop, dtype=np.float64))

    def value_runs(self, n):
        return [(v, 1) for v in self.terms(n).tolist()]


class Explicit(SequenceSpec):
    """A finite list of positive weights, given verbatim."""

    kind = "explicit"

    def __init__(self, values):
        vals = []
        for v in values:
            v = _coerce_number(v)
            if v <= 0:
                raise DomainError(f"weights must be positive, got {v}")
            vals.append(v)
        if not vals:
            raise DomainError("explicit sequence needs at least one weight")
        self.values = tuple(vals)
        self._integer = all(isinstance(v, int) for v in vals)

    @property
    def max_index(self):
        return len(self.values)

    @property
    def is_integer_valued(self):
        return self._integer

    @property
    def is_non_decreasing(self):
        return all(a <= b for a, b in zip(self.values, self.values[1:]))

    def canonical(self):
        return "explicit:" + ",".join(_format_number(v) for v in self.values)

    def term(self, k):
        self._check_index(k)
        return self.values[k - 1]

    def runs(self, start, stop):
        self._check_range(start, stop)
        return [(v, 0, 1) for v in self.values[start - 1:stop - 1]]

    def terms_between(self, start, stop):
        self._check_range(start, stop)
        return np.asarray(self.values[start - 1:stop - 1],
                          dtype=np.int64 if self._integer else np.float64)


def _coerce_number(v):
    """Ints stay ints, integral floats become ints, the rest become floats.

    Integer weights are summed in int64 arrays, so each must be below 2^63."""
    if isinstance(v, (bool,)):
        raise DomainError(f"weights must be numbers, got {v!r}")
    if isinstance(v, (int, np.integer)):
        if v >= 1 << 63:
            raise DomainError(f"integer weight {v} does not fit in int64 (must be < 2^63)")
        return int(v)
    f = float(v)
    if not math.isfinite(f):
        raise DomainError(f"weights must be finite, got {v!r}")
    if f == int(f) and abs(f) < 2 ** 53:
        return int(f)
    return f


_INT_LIST = re.compile(r"-?\d+(,-?\d+)*$")


def parse_spec(text: str) -> SequenceSpec:
    """Parse the canonical textual form of a sequence spec.

    Grammar: ``constant:A``, ``linear``, ``powfloor:BETA``, ``logceil:GAMMA``,
    ``blocks:NAME`` or ``blocks:L1,L2,...``, ``logcont:C``,
    ``explicit:V1,V2,...``.  Numbers are plain decimal strings.
    """
    if not isinstance(text, str):
        raise PreconditionError(f"spec must be a string, got {text!r}")
    head, sep, payload = text.strip().partition(":")
    head = head.strip()
    payload = payload.strip()
    try:
        if head == "linear":
            if sep:
                raise PreconditionError("linear takes no parameter")
            return Linear()
        if head == "constant":
            return Constant(_parse_scalar(payload))
        if head == "powfloor":
            return PowerFloor(payload)
        if head == "logceil":
            return LogCeilBlocks(payload)
        if head == "logcont":
            return LogContinuous(float(payload))
        if head == "blocks":
            if _INT_LIST.fullmatch(payload):
                return GeneralBlocks([int(v) for v in payload.split(",")])
            return GeneralBlocks(payload)
        if head == "explicit":
            return Explicit([_parse_scalar(v) for v in payload.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, PreconditionError):
            raise
        raise PreconditionError(f"cannot parse spec {text!r}: {exc}") from exc
    raise PreconditionError(
        f"unknown spec {text!r}; expected one of constant:A, linear, powfloor:B, "
        f"logceil:G, blocks:NAME|L1,L2,..., logcont:C, explicit:V1,V2,...")


def _parse_scalar(text: str):
    if not text:
        raise ValueError("empty number")
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return float(text)


# --- module-level operations -------------------------------------------------

def sum_squares_exact(spec: SequenceSpec, n: int) -> int:
    """Exact integer sum of a_k**2 over k <= n (integer-valued specs only)."""
    if not spec.is_integer_valued:
        raise UnsupportedVariantError(f"{spec.canonical()} is not integer-valued")
    if n < spec.first_index:
        return 0
    total = 0
    for v, d, m in spec.runs(spec.first_index, n + 1):
        v, d = int(v), int(d)  # exact, whatever integer type a spec's terms have
        # the squares of the run v, v + d, ..., v + (m-1)d
        total += m * v * v + v * d * m * (m - 1) + d * d * (m - 1) * m * (2 * m - 1) // 6
    return total
