"""The environment a result was measured in, and the numpy floors of the MC kernel."""

from __future__ import annotations

import os
import platform
import subprocess
from time import perf_counter

import numpy as np

_CHUNK = 1 << 16  # the MC kernel's chunk length; floors are measured at this size


def describe(root: str) -> dict:
    import mpmath
    return {"commit": _commit(root), "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "AWALK_THREADS": os.environ.get("AWALK_THREADS"),
            "platform": platform.platform()}


def _commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _best_ns(fn, elements: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return 1e9 * best / elements


def numpy_floors(chunks: int = 32) -> dict[str, float]:
    """ns per element of the numpy passes the MC kernel is built from, on
    kernel-sized chunks (best of three over `chunks` chunks)."""
    gen = np.random.Generator(np.random.Philox(key=12345))
    signs = gen.integers(0, 2, size=_CHUNK, dtype=np.int64) * 2 - 1
    elements = chunks * _CHUNK
    out = {}
    for label, dtype in (("int64", np.int64), ("float64", np.float64),
                         ("longdouble", np.longdouble)):
        a = signs.astype(dtype)
        out[f"cumsum_{label}_ns"] = _best_ns(lambda: [np.cumsum(a) for _ in range(chunks)],
                                             elements)

    def bits():
        for _ in range(chunks):
            words = gen.integers(0, 1 << 64, size=_CHUNK // 64, dtype=np.uint64)
            yield np.unpackbits(words.view(np.uint8), bitorder="little")

    out["philox_bit_ns"] = _best_ns(lambda: [b for b in bits()], elements)
    out["mc_step_floor_ns"] = _best_ns(lambda: [np.cumsum(b, dtype=np.int64) for b in bits()],
                                       elements)
    return out

