"""The awalk benchmark.

    python3 perfbench/run.py --workload {mc-long,mc-many,exact,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every pass of a workload runs in a fresh
`perfbench/child.py` process with AWALK_THREADS=2 and writes its outputs to
a fresh directory under `.perfbench_out/`, removed afterwards.

--trace 0 (timed run): five set-up-only processes, then whole passes for
about S seconds: another pass starts unless it would end more than half a
pass after S.  Passes after the first must write the first pass's bytes.
Reports wall_s and cpu_s (means over passes), peak_rss_mb (median over
passes) and setup_s (median over all set-ups).

--trace 1 (traced run): one pass at 2 workers and one at 1 worker, both
untraced, then one traced pass at 1 worker.  Reports the per-layer metrics
of the traced pass, the pool efficiency of the two untraced passes and the
tracing overhead, and requires all three passes to write identical files.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A job fails when it exits non-zero or one
of its outputs fails its check; error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, POOL_COMMANDS, WORKLOADS  # noqa: E402

E2E = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120  # a pass takes 5 to 15 s; a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under the checkout's .perfbench_out/, removed afterwards."""
    out_root = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    path = tempfile.mkdtemp(dir=out_root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not os.listdir(out_root):
            os.rmdir(out_root)


def run_child(workload: str, seed: int, outdir: str, threads: int, *flags: str) -> dict:
    """Run one child pass and return its result, with setup_s measured from launch."""
    os.makedirs(outdir)
    result = os.path.join(outdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), outdir,
           result, *flags]
    child_env = dict(os.environ, AWALK_THREADS=str(threads))
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        try:  # the child's session: the child and any pool worker it left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not os.path.exists(result):
        raise ChildFailed(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = res["setup_done"] - launched
    if "--setup-only" not in flags:
        shutil.rmtree(outdir)  # outputs are checked; keep the disk footprint small
    return res


def _failed_jobs(res: dict) -> int:
    return sum(1 for j in res["jobs"] if j["problems"])


def _same_outputs(res: dict, ref: dict, label: str) -> None:
    """Mark each job of `res` whose files differ from those of `ref`."""
    for job, ref_job in zip(res["jobs"], ref["jobs"]):
        if not job["problems"] and job["digests"] != ref_job["digests"]:
            job["problems"].append(f"outputs differ from the {label}")


def timed_run(workload: str, seed: int, seconds: float, scratch: str) -> dict:
    setups = [run_child(workload, seed, os.path.join(scratch, f"setup{i}"), 2,
                        "--setup-only")["setup_s"] for i in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        res = run_child(workload, seed, os.path.join(scratch, f"pass{len(passes)}"), 2,
                        *(["--repeat"] if passes else []))
        if passes:  # checked against the first pass, which the references checked
            _same_outputs(res, passes[0], "first pass")
        passes.append(res)
        setups.append(res["setup_s"])
        now = time.monotonic()
        if now - start + (now - began) / 2 >= seconds:  # the next pass would end late
            break
    # Means over the passes: the host's load comes and goes in bursts, and a
    # mean of every pass follows their average share of the run, where a
    # median of a few passes jumps with whichever passes the bursts hit.
    metrics = {"wall_s": statistics.fmean(p["wall_s"] for p in passes),
               "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    return {"metrics": metrics, "passes": passes,
            "attempted": sum(len(p["jobs"]) for p in passes),
            "failed": sum(_failed_jobs(p) for p in passes)}


def traced_run(workload: str, seed: int, scratch: str) -> dict:
    u2 = run_child(workload, seed, os.path.join(scratch, "untraced2"), 2)
    u1 = run_child(workload, seed, os.path.join(scratch, "untraced1"), 1)
    t1 = run_child(workload, seed, os.path.join(scratch, "traced1"), 1, "--trace")
    passes = [u2, u1, t1]
    # criterion 9 from outside, and tracing must not change any output byte
    for res in (u1, t1):
        _same_outputs(res, u2, "2-worker untraced pass")
    if t1["trace"]["leftover"]:
        t1["jobs"][-1]["problems"].append(f"wrappers left: {t1['trace']['leftover']}")

    def pool_wall(res):
        return sum(j["wall_s"] for j in res["jobs"] if j["command"] in POOL_COMMANDS)

    layers = dict(t1["layers"])
    layers["montecarlo.ns_per_step.floor"] = t1["floors"]["mc_step_floor_ns"]
    layers["montecarlo.pool_efficiency"] = (pool_wall(u1) / (2 * pool_wall(u2))
                                            if pool_wall(u2) else 0.0)
    layers["trace.overhead_frac"] = (t1["wall_s"] - u1["wall_s"]) / u1["wall_s"]
    return {"metrics": {k: layers[k] for k in PER_LAYER}, "passes": passes,
            "attempted": sum(len(p["jobs"]) for p in passes),
            "failed": sum(_failed_jobs(p) for p in passes)}


def _units(trace: bool) -> dict[str, str]:
    return {k: u for k, (u, _) in PER_LAYER.items()} if trace else E2E


def report(workload: str, seed: int, trace: bool, run: dict) -> None:
    units = _units(trace)
    passes = run["passes"]
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'timed'} run, "
          f"{len(passes)} pass(es)")
    for name, value in run["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not trace:
        walls = sorted(p["wall_s"] for p in passes)
        print(f"  {'pass wall (median, slowest)':34s} {statistics.median(walls):14.6g} "
              f"{walls[-1]:.6g} s over {len(walls)} passes")
    print(f"  {'error_rate':34s} {run['failed'] / run['attempted']:14.6g} "
          f"({run['failed']} of {run['attempted']} jobs)")
    for job in passes[-1]["jobs"]:
        status = "ok" if not job["problems"] else "FAILED: " + "; ".join(job["problems"])[:600]
        print(f"  job {job['name']:28s} {job['wall_s']:9.3f} s  {status}")
    for p in passes[:-1]:
        for job in p["jobs"]:
            if job["problems"]:
                print(f"  job {job['name']} FAILED in an earlier pass: {job['problems']}")
    if trace:
        self_times = passes[-1]["self_times"]
        print("  self time by layer (s): " + "  ".join(
            f"{k}={v:.3f}" for k, v in sorted(self_times.items(), key=lambda kv: -kv[1])))
        print(f"  spans: {passes[-1]['trace']['spans']}, patched references: "
              f"{passes[-1]['trace']['patched']}")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in passes[0]["env"].items()))
    print("  numpy floors (ns/element): " + "  ".join(
        f"{k[:-3]}={v:.3f}" for k, v in passes[0]["floors"].items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "awalk", "cli.py")):
        print(f"perfbench: no awalk sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {}
    try:
        with scratch_dir() as scratch:
            for name in names:
                sub = os.path.join(scratch, name)
                run = (traced_run(name, args.seed, sub) if args.trace
                       else timed_run(name, args.seed, args.seconds, sub))
                report(name, args.seed, bool(args.trace), run)
                runs[name] = run
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = _units(bool(args.trace))
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    prefix = len(names) > 1
    metrics = {(f"{w}.{k}" if prefix else k): {"value": v, "unit": units[k]}
               for w, r in runs.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
