"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that
- BENCHMARK.json names exactly the workloads and metrics run.py reports;
- the tracer patches every traced function and restores every reference;
- work counts do not depend on the seed: montecarlo.path_steps and
  exact.cell_steps are equal at two seeds (fourier.nodes is printed per
  seed, since the seeded targets z move the adaptive quadrature a little);
- a traced pass writes the same output bytes as an untraced pass.

It runs one traced pass per workload at two seeds and one untraced pass at
one of them: about two minutes on 2 vCPUs.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SEEDS = (DEFAULT_SEED, DEFAULT_SEED + 1)
SEED_FREE = ("montecarlo.path_steps", "exact.cell_steps")


def check_benchmark_json() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != run.E2E:
        problems.append("BENCHMARK.json end_to_end differs from run.E2E")
    if {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} != spans.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    return problems


def check_restore() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from awalk import cli, sequences
    originals = (cli.main, cli.parse_spec, sequences.SequenceSpec.terms)
    tracer = spans.Tracer()
    tracer.install()
    problems = []
    if tracer.patched < 20 or cli.parse_spec is originals[1]:
        problems.append(f"install patched only {tracer.patched} references")
    tracer.restore()
    if (cli.main, cli.parse_spec, sequences.SequenceSpec.terms) != originals:
        problems.append("restore left a wrapper in place")
    problems += [f"left after restore: {name}" for name in spans.leftover_wrappers()]
    return problems


def check_passes(scratch: str) -> list[str]:
    problems = []
    for name in WORKLOADS:
        traced = {s: run.run_child(name, s, os.path.join(scratch, f"{name}-t{s}"), 1, "--trace")
                  for s in SEEDS}
        untraced = run.run_child(name, SEEDS[0], os.path.join(scratch, f"{name}-u"), 1)
        for s, res in traced.items():
            problems += [f"{name} seed {s} {j['name']}: {j['problems']}"
                         for j in res["jobs"] if j["problems"]]
            if res["trace"]["leftover"]:
                problems.append(f"{name} seed {s}: wrappers left {res['trace']['leftover']}")
        for key in SEED_FREE:
            values = [traced[s]["layers"][key] for s in SEEDS]
            if values[0] != values[1]:
                problems.append(f"{name}: {key} depends on the seed: {values}")
        nodes = {s: traced[s]["layers"]["fourier.nodes"] for s in SEEDS}
        print(f"{name}: " + ", ".join(f"{k}={traced[SEEDS[0]]['layers'][k]}" for k in SEED_FREE)
              + f", fourier.nodes per seed {nodes}")
        for tj, uj in zip(traced[SEEDS[0]]["jobs"], untraced["jobs"]):
            if tj["digests"] != uj["digests"]:
                problems.append(f"{name}/{tj['name']}: traced and untraced outputs differ")
    return problems


def main() -> int:
    problems = check_benchmark_json() + check_restore()
    with run.scratch_dir() as scratch:
        problems += check_passes(scratch)
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
