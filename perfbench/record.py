"""Record, or check, the digests the benchmark compares outputs against.

    python3 perfbench/record.py outputs [--update]
    python3 perfbench/record.py criterion8 [--update]

`outputs` runs one untraced pass of every workload at the default seed and
compares the SHA-256 of each output file with `expected.json`, which the
benchmark checks every pass against.

`criterion8` runs the Monte Carlo experiments of criterion 8, exactly as
`tests/test_acceptance.py::run_all_mc` runs them, at AWALK_THREADS=1 and at
AWALK_THREADS=2, writes each report with the CLI's JSON writer
(`awalk.reports.write_json(path, report.to_dict())`) and compares the
SHA-256 of each with `criterion8.json`.  The two worker counts must agree.
This is the equality gate for changes to the MC kernel: about two minutes on
2 vCPUs.

Both exit 1 on any difference.  `--update` writes the new digests instead,
with the environment they were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

CRITERION8 = os.path.join(HERE, "criterion8.json")


def output_digests() -> tuple[dict, dict]:
    """({workload: {file: sha256}} at the default seed, environment)."""
    digests, environment = {}, None
    with run.scratch_dir() as scratch:
        for name in WORKLOADS:
            res = run.run_child(name, DEFAULT_SEED, os.path.join(scratch, name), 2)
            environment = res["env"]
            for job in res["jobs"]:
                # digest mismatches are what this command reports; anything else is fatal
                other = [p for p in job["problems"] if checks.DIGEST_MISMATCH not in p]
                if other:
                    raise SystemExit(f"{name}/{job['name']}: {other}")
                digests.setdefault(name, {}).update(job["digests"])
    return digests, environment


def criterion8_digests() -> tuple[dict, dict]:
    """({threads: {report key: sha256}}, environment)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import env
    import test_acceptance
    from awalk.reports import write_json

    out = {}
    with run.scratch_dir() as scratch:
        for threads in ("1", "2"):
            reports = test_acceptance.run_all_mc(threads)
            out[threads] = {}
            for key, rep in sorted(reports.items()):
                path = os.path.join(scratch, f"{key}-{threads}.json")
                write_json(path, rep.to_dict())
                out[threads][key] = checks.sha256(path)
    return out, env.describe(ROOT)


def _compare(label: str, new: dict, old: dict | None) -> int:
    if old is None:
        print(f"{label}: nothing recorded yet")
        return 1
    bad = 0
    for group, files in new.items():
        for name, digest in files.items():
            was = old.get(group, {}).get(name)
            same = was == digest
            bad += not same
            print(f"{label} {group}/{name}: {'same' if same else f'DIFFERS (recorded {was})'}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=["outputs", "criterion8"])
    parser.add_argument("--update", action="store_true", help="write the new digests")
    args = parser.parse_args()
    if args.what == "outputs":
        path = checks.EXPECTED
        recorded = checks.load_expected()
        new, environment = output_digests()
        doc = {"seed": DEFAULT_SEED, "environment": environment, "outputs": new}
        old = recorded["outputs"] if recorded else None
    else:
        path = CRITERION8
        recorded = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                recorded = json.load(fh)
        new, environment = criterion8_digests()
        if new["1"] != new["2"]:
            print("criterion 8 reports differ between 1 and 2 workers")
            return 1
        doc = {"source": "tests/test_acceptance.py::run_all_mc",
               "writer": "awalk.reports.write_json(path, report.to_dict())",
               "environment": environment, "threads": new}
        old = recorded["threads"] if recorded else None
    if args.update:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
        return 0
    return _compare(args.what, new, old)


if __name__ == "__main__":
    sys.exit(main())
