"""Checks of every job's output files.

Each file must match the digest its run manifest records.  Files whose
inputs the seed does not change, and every file at the default seed, must
match the digests recorded in `expected.json`.  Seeded outputs get a check
that holds for any seed: against the benchmark's own reference values
(`oracle`) or, for Monte Carlo aggregates, against ranges and the run's
arguments.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import oracle
from workloads import Job

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
DIGEST_MISMATCH = "digest differs from the one recorded"


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def load_expected() -> dict | None:
    """Recorded output digests at the default seed, or None before they exist."""
    if not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _flag(job: Job, name: str) -> str:
    return job.argv[job.argv.index(name) + 1]


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _report_range_problems(report: dict) -> list[str]:
    """Range checks that hold for every MC report whatever the seed."""
    problems = []

    def frac(label, x):
        if not (isinstance(x, float) and 0.0 <= x <= 1.0 and math.isfinite(x)):
            problems.append(f"{label}={x!r} is not a fraction")

    agg = report["aggregates"]
    for label, stats in agg.get("per_band", {}).items():
        frac(f"{label}.fraction_any_hit", stats["fraction_any_hit"])
        frac(f"{label}.fraction_last_hit_final_decade", stats["fraction_last_hit_final_decade"])
        per_cp = stats["mean_hits_at_checkpoint"]
        means = [per_cp[k] for k in sorted(per_cp, key=int)]
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append(f"{label}: mean hits decrease across checkpoints")
    for cp, fracs in agg.get("fraction_at_least", {}).items():
        vals = [fracs[k] for k in sorted(fracs, key=int)]
        for k, v in fracs.items():
            frac(f"fraction_at_least[{cp}][{k}]", v)
        if any(b > a for a, b in zip(vals, vals[1:])):
            problems.append(f"fraction_at_least[{cp}] increases with k")
    if "fraction_maintaining" in agg:
        frac("fraction_maintaining", agg["fraction_maintaining"])
    return problems


def _mc_report(job: Job, paths: dict) -> list[str]:
    rep = _load(paths[job.out])
    want = {"schema": "awalk-report/1", "kind": job.command,
            "horizon": int(_flag(job, "--n")), "paths": int(_flag(job, "--paths")),
            "seed": int(_flag(job, "--seed"))}
    problems = [f"{k}={rep.get(k)!r}, expected {v!r}" for k, v in want.items() if rep.get(k) != v]
    problems += _report_range_problems(rep)
    if job.command in ("recurrence", "signs") and not _rows(paths[job.name + ".csv"]):
        problems.append("checkpoint CSV has no rows")
    return problems


def _simulate(job: Job, paths: dict) -> list[str]:
    c = job.check
    got = _load(paths[job.out])["path"]
    want = oracle.simulate(c["spec"], c["n"], c["seed"], c["stream"], c["bands"],
                           oracle.default_checkpoints(c["n"]))
    return [f"path.{k}={got.get(k)!r}, reference {v!r}" for k, v in want.items()
            if got.get(k) != v]


def _tomaszewski(job: Job, paths: dict) -> list[str]:
    c = job.check
    rep = _load(paths[job.out])
    exact = oracle.tomaszewski_probability(c["spec"], c["n"])
    freq, se = rep["probability"]["float"], rep["stderr"]
    problems = []
    if rep["paths"] != c["paths"] or rep["mode"] != "mc":
        problems.append(f"paths={rep['paths']} mode={rep['mode']}")
    if not abs(freq - exact) <= 5 * se:  # false alarm rate below 1e-6
        problems.append(f"frequency {freq} is more than 5 stderr from {exact}")
    if rep["passed"] != (freq >= 0.5 - 3 * se):
        problems.append("passed flag disagrees with the frequency")
    return problems


def _lattice_dist(job: Job, paths: dict) -> list[str]:
    w = job.check["weights"]
    rows = _rows(paths[job.out])
    total, steps = sum(w), len(w)
    zs = [int(r["z"]) for r in rows]
    counts = [int(r["count"]) for r in rows]
    problems = []
    if zs != list(range(-total, total + 1, 2)):
        problems.append("support is not -W, -W+2, ..., W")
    if sum(counts) != 1 << steps:
        problems.append("counts do not sum to 2^steps")
    if counts != counts[::-1]:
        problems.append("counts are not symmetric")
    if any(r["prob"] != repr(c / (1 << steps)) for r, c in zip(rows, counts)):
        problems.append("prob column is not count / 2^steps")
    return problems


def _point_mass(job: Job, paths: dict) -> list[str]:
    c = job.check
    rows = _rows(paths[job.out])
    points = [(int(r["n"]), c["z"]) for r in rows]
    ref = oracle.point_mass_series(c["spec"], points)
    return [f"n={n}: value {r['value']} differs from {ref[(n, z)]!r} by more than {c['tol']}"
            for (n, z), r in zip(points, rows)
            if not abs(float(r["value"]) - ref[(n, z)]) <= c["tol"]]


_CHECKS = {"mc-report": _mc_report, "simulate": _simulate, "tomaszewski": _tomaszewski,
           "lattice-dist": _lattice_dist, "point-mass": _point_mass}


def check_job(workload: str, job: Job, outdir: str, seed: int, expected: dict | None,
              references: bool = True) -> tuple[list[str], dict]:
    """(problems, digests of the job's deterministic files).

    `references=False` skips the reference-value checks, for a pass whose
    digests the caller compares with those of a checked pass instead.
    """
    paths = {f: os.path.join(outdir, f) for f in job.files()}
    missing = [f for f, p in paths.items() if not os.path.exists(p)]
    if missing:
        return [f"missing output {f}" for f in missing], {}
    digests = {f: sha256(p) for f, p in paths.items()}
    manifest = _load(os.path.join(outdir, job.out + ".manifest.json"))["outputs"]
    problems = [f"{f}: manifest digest {manifest.get(p)} != file digest"
                for f, p in paths.items() if manifest.get(p) != digests[f]]
    if expected is not None and (seed == expected["seed"] or not job.seeded):
        recorded = expected["outputs"].get(workload, {})
        problems += [f"{f}: {DIGEST_MISMATCH} at seed {expected['seed']}"
                     for f, d in digests.items() if recorded.get(f) != d]
    kind = job.check.get("kind")
    if kind and references:
        try:
            problems += _CHECKS[kind](job, paths)
        except (KeyError, ValueError, TypeError) as exc:  # malformed output
            problems.append(f"unreadable output: {exc!r}")
    return problems, digests

