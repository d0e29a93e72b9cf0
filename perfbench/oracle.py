"""Reference values the benchmark computes on its own, without awalk.

Weights come from their closed forms, point masses from a float64 lattice
DP, and simulated paths from the documented bit stream: path p of seed s
draws uint64 words 1024 at a time from Philox keyed by s*2^64 + p, and bit
j of the little-endian bit order is the sign of step j.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _nth_root(x: int, r: int) -> int:
    """Largest v with v**r <= x."""
    v = int(round(x ** (1.0 / r)))
    while v ** r > x:
        v -= 1
    while (v + 1) ** r <= x:
        v += 1
    return v


def weights(spec: str, n: int) -> list[int]:
    """a_k for k = first index..n of an integer-valued spec."""
    head, _, arg = spec.partition(":")
    if head == "linear":
        return list(range(1, n + 1))
    if head == "constant":
        return [int(arg)] * n
    if head == "powfloor":
        beta = Fraction(arg)
        p, q = beta.numerator, beta.denominator
        return [_nth_root(k ** p, q) for k in range(1, n + 1)]
    if head == "logceil" and arg == "2":
        return [(k - 1).bit_length() for k in range(2, n + 1)]  # ceil(log2 k), from k = 2
    if head == "explicit":
        return [int(v) for v in arg.split(",")][:n]
    raise ValueError(f"no reference weights for {spec!r}")


def _lattice_pmfs(w: list[int]):
    """Yield (i, p) after each step i, with p[j] = P(S(i) = -W_i + 2j).

    Float64 DP over the lattice; each step halves and adds, so the rounding
    error stays near i * 2^-53 of the largest mass.
    """
    p = np.ones(1)
    for i, a in enumerate(w, start=1):
        nxt = np.zeros(p.size + a)
        nxt[:p.size] += 0.5 * p
        nxt[a:] += 0.5 * p
        p = nxt
        yield i, p


def _point_masses(w: list[int], wanted: dict[int, set[int]]) -> dict[tuple[int, int], float]:
    """P(S(i) = z) for every step count i in `wanted` and z in wanted[i]."""
    out = {}
    for i, p in _lattice_pmfs(w):
        total = p.size - 1  # W_i
        for z in wanted.get(i, ()):
            j2 = z + total
            out[(i, z)] = float(p[j2 // 2]) if j2 % 2 == 0 and 0 <= j2 <= 2 * total else 0.0
    return out


def point_mass_series(spec: str, points: list[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """P(S(n) = z) for (horizon n, z) pairs of one spec."""
    first = 2 if spec.startswith("logceil") else 1
    wanted: dict[int, set[int]] = {}
    for n, z in points:
        wanted.setdefault(n - first + 1, set()).add(z)
    if not wanted:
        return {}
    steps = _point_masses(weights(spec, max(wanted) + first - 1), wanted)
    return {(n, z): steps[(n - first + 1, z)] for n, z in points}


def tomaszewski_probability(spec: str, n: int) -> float:
    """P(|S(n)| <= sqrt(sum a_k^2)), exactly as a float."""
    w = weights(spec, n)
    for _, p in _lattice_pmfs(w):
        pass
    z = -sum(w) + 2 * np.arange(p.size, dtype=np.int64)
    return float(p[z * z <= sum(a * a for a in w)].sum())


def simulate(spec: str, n: int, seed: int, stream: int, bands: list[int],
             checkpoints: list[int]) -> dict:
    """Statistics of one path with integer bands, laid out as the `simulate` report."""
    w = np.asarray(weights(spec, n), dtype=np.int64)
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | stream))
    words = -(-w.size // (64 * 1024)) * 1024
    bits = np.unpackbits(gen.integers(0, 1 << 64, size=words, dtype=np.uint64).view(np.uint8),
                         bitorder="little")[:w.size]
    s = np.cumsum(w * (bits.astype(np.int64) * 2 - 1))
    abs_s = np.abs(s)
    zeros = np.flatnonzero(s == 0)
    signs = np.sign(s)
    nz = signs[signs != 0]
    changes = np.flatnonzero(np.diff(nz))  # positions among nonzero signs
    nz_pos = np.flatnonzero(signs != 0)

    def counts_upto(step):  # statistics over the first `step` steps
        zero_hits = int(np.count_nonzero(zeros < step))
        sign_changes = int(np.count_nonzero(nz_pos[changes + 1] < step))
        band = {str(c): int(np.count_nonzero(abs_s[:step] <= c)) for c in bands}
        return zero_hits, sign_changes, band

    zero_hits, sign_changes, band_hits = counts_upto(w.size)
    last_band = {}
    for c in bands:
        hit = np.flatnonzero(abs_s <= c)
        last_band[str(c)] = int(hit[-1]) + 1 if hit.size else None
    snaps = []
    for cp in checkpoints:
        zh, sc, bh = counts_upto(cp)
        snaps.append({"at": cp, "zero_hits": zh, "sign_changes": sc, "band_hits": bh})
    return {"horizon": n, "steps": int(w.size), "zero_hits": zero_hits,
            "sign_changes": sign_changes,
            "last_zero_hit": int(zeros[-1]) + 1 if zeros.size else None,
            "max_abs": float(abs_s.max()), "final_value": float(s[-1]),
            "band_hits": band_hits, "last_band_hit": last_band, "checkpoints": snaps}


def default_checkpoints(n: int) -> list[int]:
    """n/100, n/10 and n, the CLI's default checkpoints for a walk from index 1."""
    return sorted({max(1, n // 100), max(1, n // 10), n})

