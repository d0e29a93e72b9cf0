"""The benchmark's workloads: lists of `awalk` CLI jobs built from a seed.

The seed picks every Monte Carlo `--seed` and `--stream`, the lattice
target `--z` of the point-mass jobs and one explicit integer weight list.
It never changes the amount of work: path counts, horizons and DP sizes are
fixed, z stays within a few lattice steps of 0, and the seeded weight list
keeps the sum and first moment of its base list, which fix the number of
cells its DP visits and the number of rows it writes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# Commands that run paths through the montecarlo worker pool.
POOL_COMMANDS = ("recurrence", "signs", "growth")


@dataclass
class Job:
    """One CLI invocation.  `argv` lacks `--out`, which the runner adds."""

    name: str
    argv: list[str]
    seeded: bool = True     # does the seed change this job's inputs?
    check: dict = field(default_factory=dict)  # parameters of its output check

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> str:
        return self.name + (".csv" if self.command in _CSV_COMMANDS else ".json")

    def files(self) -> list[str]:
        """Output files whose bytes are deterministic (manifests hold timestamps)."""
        if self.command in ("recurrence", "signs"):
            return [self.out, self.name + ".csv"]
        return [self.out]


_CSV_COMMANDS = ("dist", "qn", "visits", "fourier", "sullivan", "transience", "pattern")


def _mc_seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 32))


def mc_long(rng: random.Random) -> list[Job]:
    """Few long paths: the per-step kernel dominates, with int and long-double weights."""
    n = 10 ** 6
    paths = "128"  # a multiple of 128, so both workers get equal 64-path blocks

    def experiment(name, *argv):
        return Job(name, [*argv, "--n", str(n), "--paths", paths, "--seed", _mc_seed(rng)],
                   check={"kind": "mc-report"})

    stream = rng.randrange(1 << 16)
    sim_seed = _mc_seed(rng)
    return [
        experiment("recurrence-logceil", "recurrence", "--spec", "logceil:2", "--bands", "0"),
        experiment("signs-linear", "signs", "--spec", "linear"),
        experiment("growth-sqrt", "growth", "--beta", "0.5", "--delta", "0.2"),
        experiment("recurrence-logcont", "recurrence", "--spec",
                   "logcont:1.4426950408889634", "--bands", "3"),
        Job("simulate-sqrt", ["simulate", "--spec", "powfloor:0.5", "--n", str(n),
                              "--seed", sim_seed, "--stream", str(stream), "--bands", "0,2"],
            check={"kind": "simulate", "spec": "powfloor:0.5", "n": n,
                   "seed": int(sim_seed), "stream": stream, "bands": [0, 2]}),
    ]


def mc_many(rng: random.Random) -> list[Job]:
    """Many short paths: per-path setup, pool dispatch, bootstrap and the serial
    per-path Tomaszewski loop dominate."""
    paths = "6144"
    tom_paths = 15000
    return [
        Job("recurrence-linear", ["recurrence", "--spec", "linear", "--n", "10000",
                                  "--paths", paths, "--bands", "0,2", "--seed", _mc_seed(rng)],
            check={"kind": "mc-report"}),
        Job("signs-constant", ["signs", "--spec", "constant:1", "--n", "2000",
                               "--paths", paths, "--seed", _mc_seed(rng)],
            check={"kind": "mc-report"}),
        Job("growth-sqrt", ["growth", "--beta", "0.5", "--delta", "0.2", "--n", "1000",
                            "--paths", paths, "--seed", _mc_seed(rng)],
            check={"kind": "mc-report"}),
        Job("tomaszewski-linear", ["tomaszewski", "--spec", "linear", "--mode", "mc",
                                   "--n", "200", "--paths", str(tom_paths),
                                   "--seed", _mc_seed(rng)],
            check={"kind": "tomaszewski", "spec": "linear", "n": 200, "paths": tom_paths}),
    ]


def explicit_weights(rng: random.Random, length: int = 160) -> list[int]:
    """Seeded positive weights with the sum and first moment of 1..length.

    Each move adds 1 at i-d and at i+d and takes 2 from i, which keeps
    sum(w) and sum(i*w).  The exact DP visits sum_i (1 + w_1 + ... + w_{i-1})
    cells, a function of those two sums only, so every seed costs the same.
    """
    w = list(range(1, length + 1))
    for _ in range(4 * length):
        i = rng.randrange(1, length - 1)
        d = rng.randrange(1, min(i, length - 1 - i) + 1)
        if w[i] > 2:
            w[i - d] += 1
            w[i] -= 2
            w[i + d] += 1
    return w


def _point_mass(name: str, command: str, spec: str, horizon_flag: str, horizon: int,
                z: int) -> Job:
    tol = 1e-10
    return Job(name, [command, "--spec", spec, horizon_flag, str(horizon), "--z", str(z),
                      "--tol", repr(tol)],
               check={"kind": "point-mass", "spec": spec, "z": z, "tol": tol})


def exact(rng: random.Random) -> list[Job]:
    """Big-integer lattice DPs, exhaustive sweeps and the CSV writer, with no
    worker pool, plus small spectral jobs so that every fourier metric is
    measured somewhere."""
    weights = explicit_weights(rng)
    z = 2 * rng.randrange(-3, 4)  # S(100) of 1,2,...,100 is even, so even z carry mass

    def fixed(name, *argv):
        return Job(name, list(argv), seeded=False)

    return [
        fixed("dist-linear", "dist", "--spec", "linear", "--n", "250"),
        fixed("hit-sqrt", "hit", "--spec", "powfloor:0.5", "--n", "700", "--band", "1"),
        fixed("visits-logceil", "visits", "--spec", "logceil:2", "--n", "600"),
        fixed("visits-linear-float256", "visits", "--spec", "linear", "--n", "60",
              "--mode", "float256"),
        Job("dist-explicit", ["dist", "--spec", "explicit:" + ",".join(map(str, weights)),
                              "--n", str(len(weights))],
            check={"kind": "lattice-dist", "weights": weights}),
        fixed("qn", "qn", "--max-n", "120"),
        fixed("verify-inequalities", "verify", "--suite", "inequalities"),
        fixed("verify-oracles", "verify", "--suite", "oracles"),
        fixed("pattern", "pattern", "--kappa-max", "250"),
        _point_mass("transience-linear", "transience", "linear", "--n-max", 50, z),
        _point_mass("fourier-linear", "fourier", "linear", "--n", 100, z),
        fixed("sullivan", "sullivan", "--beta", "0.9", "--n", "2500,5000,10000"),
    ]


WORKLOADS = {"mc-long": mc_long, "mc-many": mc_many, "exact": exact}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of `workload` for `seed`; the same seed gives the same jobs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
