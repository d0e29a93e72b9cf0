"""One pass of a workload in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED OUTDIR RESULT [--trace | --setup-only | --repeat]

Imports awalk from the checkout's `src`, builds the job list (the set-up),
runs every job through `awalk.cli.main` with outputs in OUTDIR, checks each
output and writes the measurements to the JSON file RESULT.  `--trace` runs
the jobs with spans around each layer's public functions; `--setup-only`
stops after the set-up; `--repeat` skips the reference-value checks and the
numpy floors, for a pass whose digests the caller compares with an earlier
pass.  AWALK_THREADS comes from the environment.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from awalk import cli  # noqa: E402  (needs the path above)

import checks  # noqa: E402
import env  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run_job(job: workloads.Job, outdir: str) -> tuple[float, object, str]:
    """(wall seconds, exit code or exception text, captured output tail)."""
    argv = job.argv + ["--out", os.path.join(outdir, job.out)]
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code: object = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crashing job is counted, the pass goes on
        code = f"raised {exc!r}"
    return perf_counter() - t0, code, sink.getvalue()[-400:]


def _point_error(points) -> float:
    """Largest |value - reference| over (spec, n, z, value) point masses."""
    by_spec = defaultdict(list)
    for spec, n, z, value in points:
        by_spec[spec].append((n, z, value))
    worst = 0.0
    for spec, rows in by_spec.items():
        ref = oracle.point_mass_series(spec, [(n, z) for n, z, _ in rows])
        worst = max([worst] + [abs(v - ref[(n, z)]) for n, z, v in rows])
    return worst


def main(argv: list[str]) -> int:
    workload, seed, outdir, result_path = argv[:4]
    flags = set(argv[4:])
    seed = int(seed)
    jobs = workloads.build(workload, seed)
    setup_done = time.monotonic()
    if "--setup-only" in flags:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_done": setup_done}, fh)
        return 0

    tracer = spans.Tracer() if "--trace" in flags else None
    if tracer:
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    runs = [_run_job(job, outdir) for job in jobs]
    wall = perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer:
        patched = tracer.patched
        tracer.restore()

    def cpu(a, b):
        return (b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime)

    expected = checks.load_expected()
    records = []
    for job, (job_wall, code, tail) in zip(jobs, runs):
        problems, digests = [f"exit {code}: {tail}"], {}
        if code == 0:
            problems, digests = checks.check_job(workload, job, outdir, seed, expected,
                                                 references="--repeat" not in flags)
        records.append({"name": job.name, "command": job.command, "wall_s": job_wall,
                        "problems": problems, "digests": digests})
    result = {
        "setup_done": setup_done, "wall_s": wall,
        "cpu_s": cpu(self0, self1) + cpu(kids0, kids1),
        # ru_maxrss is in KiB: this process plus its largest reaped pool worker
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "jobs": records,
        "env": env.describe(ROOT),
    }
    if "--repeat" not in flags:
        result["floors"] = env.numpy_floors()
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, _point_error)
        result["self_times"] = spans.self_times(tracer.spans)
        result["trace"] = {"spans": len(tracer.spans), "patched": patched,
                           "leftover": spans.leftover_wrappers()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
