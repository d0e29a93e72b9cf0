"""Spans around the public functions of each awalk layer, for the traced pass.

`Tracer.install()` replaces every reference to a traced function, in every
loaded awalk module and class, by a wrapper that appends a span (name,
start, end, parent span) to an in-memory list.  For some functions the
wrapper also records work counts read from the call's arguments and result;
it computes them after the span has closed, with tracing paused, so the
counting is neither timed nor traced.  `Tracer.restore()` puts every
original back.  The program itself is not modified.

A span's self time is its duration minus the durations of its direct child
spans.  `layer_metrics` turns the spans into the per-layer metrics below.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# name -> (unit, better); the benchmark's per-layer metrics, in report order.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "reports.write_s": ("s", "lower"),
    "reports.digest_s": ("s", "lower"),
    "reports.bytes_written": ("bytes", "lower"),
    "sequences.s": ("s", "lower"),
    "montecarlo.path_steps": ("count", "lower"),
    "montecarlo.ns_per_step.int": ("ns", "lower"),
    "montecarlo.ns_per_step.real": ("ns", "lower"),
    "montecarlo.ns_per_step.floor": ("ns", "lower"),
    "montecarlo.us_per_path": ("us", "lower"),
    "montecarlo.tomaszewski_s": ("s", "lower"),
    "montecarlo.pool_efficiency": ("ratio", "higher"),
    "exact.cell_steps": ("count", "lower"),
    "exact.cell_steps_per_s.exact": ("1/s", "higher"),
    "exact.cell_steps_per_s.float256": ("1/s", "higher"),
    "exact.distribution_s": ("s", "lower"),
    "exact.zero_hit_probability_s": ("s", "lower"),
    "exact.expected_visits_s": ("s", "lower"),
    "verify.inequalities_s": ("s", "lower"),
    "verify.oracles_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "fourier.nodes": ("count", "lower"),
    "fourier.nodes_per_point_mass": ("count", "lower"),
    "fourier.ns_per_node_value": ("ns", "lower"),
    "fourier.point_mass_s": ("s", "lower"),
    "fourier.transience_s": ("s", "lower"),
    "fourier.abs_integral_s": ("s", "lower"),
    "fourier.max_abs_err": ("abs", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def within(self, prefix: str) -> bool:
        """Does an ancestor's name start with `prefix`?"""
        p = self.parent
        while p is not None:
            if p.name.startswith(prefix):
                return True
            p = p.parent
        return False


def _arg(fn):
    """getter(args, kwargs, name) for the parameters of `fn`, positional or not."""
    index = {name: i for i, name in enumerate(inspect.signature(fn).parameters)}

    def get(args, kwargs, name):
        i = index[name]
        return args[i] if i < len(args) else kwargs[name]
    return get


def _mc_counter(fn):
    get = _arg(fn)
    per_call = "paths" not in inspect.signature(fn).parameters  # simulate: one path

    def count(result, args, kwargs):
        spec, n = get(args, kwargs, "spec"), get(args, kwargs, "n")
        paths = 1 if per_call else get(args, kwargs, "paths")
        return {"paths": paths, "steps": paths * spec.steps(n),
                "integer": spec.is_integer_valued}
    return count


def _dp_counter(fn):
    get = _arg(fn)

    def count(result, args, kwargs):
        cells, width = 0, 1
        for a in get(args, kwargs, "spec").int_terms(get(args, kwargs, "n")):
            cells += width  # one shift-add over the current lattice
            width += a
        mode = getattr(result, "mode", "exact")
        return {"cells": cells, "mode": "float256" if mode == "float256" else "exact"}
    return count


def _fourier_counter(fn, point: bool):
    get = _arg(fn)

    def count(result, args, kwargs):
        spec, n = get(args, kwargs, "spec"), get(args, kwargs, "n")
        info = {"nodes": result.nodes, "values": len(spec.value_runs(n))}
        if point:
            info["point"] = (spec.canonical(), n, int(get(args, kwargs, "z")), result.value)
        return info
    return count


def _bytes_counter(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _suite_counter(result, args, kwargs):
    return {"suite": result.suite, "checks": len(result.checks)}


def _targets():
    """(span name, function, counter) for every traced function."""
    from awalk import cli, exact, fourier, montecarlo, reports, sequences, verify
    out = [("cli.main", cli.main, None),
           ("reports.write_csv", reports.write_csv, _bytes_counter),
           ("reports.write_json", reports.write_json, _bytes_counter),
           ("reports.sha256_file", reports.sha256_file, None),
           ("reports.RunManifest.write", reports.RunManifest.write, None),
           ("sequences.parse_spec", sequences.parse_spec, None),
           ("verify.run_suite", verify.run_suite, _suite_counter),
           ("montecarlo.tomaszewski_check", montecarlo.tomaszewski_check, None),
           ("exact.dominance_check", exact.dominance_check, None),
           ("exact.avoid_pattern_count", exact.avoid_pattern_count, None),
           ("fourier.sullivan_constant_estimate", fourier.sullivan_constant_estimate, None),
           ("fourier.transience_report", fourier.transience_report, None),
           ("fourier.point_mass_fourier", fourier.point_mass_fourier,
            _fourier_counter(fourier.point_mass_fourier, point=True)),
           ("fourier.abs_integral", fourier.abs_integral,
            _fourier_counter(fourier.abs_integral, point=False))]
    for name in ("simulate", "recurrence_experiment", "sign_change_experiment",
                 "growth_experiment"):
        fn = getattr(montecarlo, name)
        out.append((f"montecarlo.{name}", fn, _mc_counter(fn)))
    for name in ("distribution", "zero_hit_probability", "expected_visits"):
        fn = getattr(exact, name)
        out.append((f"exact.{name}", fn, _dp_counter(fn)))
    for cls in vars(sequences).values():
        if isinstance(cls, type) and issubclass(cls, sequences.SequenceSpec):
            for name in ("terms", "int_terms", "value_runs"):
                if name in vars(cls):
                    out.append((f"sequences.{name}", vars(cls)[name], None))
    return out


def _owners():
    """Every loaded awalk module and every class defined in one."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "awalk" or name.startswith("awalk."))]
    classes = {id(v): v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("awalk")}
    return mods + list(classes.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._quiet = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._quiet:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                self._quiet += 1
                try:
                    span.info = count(result, args, kwargs)
                finally:
                    self._quiet -= 1
            return result

        traced.perfbench_original = fn
        return traced

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(name, fn, count)) for name, fn, count in _targets()}
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, value))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> int:
        return len(self._patches)


def leftover_wrappers() -> list[str]:
    """Names of traced wrappers still reachable from awalk modules or classes."""
    return [f"{getattr(o, '__name__', o)}.{a}" for o in _owners()
            for a, v in vars(o).items() if hasattr(v, "perfbench_original")]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's first part)."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.duration
    out = defaultdict(float)
    for s in spans:
        out[s.name.split(".")[0]] += s.duration - child[id(s)]
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], point_error) -> dict[str, float]:
    """Per-layer metrics of one traced pass, without the ones measured outside
    its spans (pool efficiency, the kernel floor and the tracing overhead).

    `point_error(points)` gives the largest error of (spec, n, z, value)
    point masses against an independent reference.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(*names, key=None):
        return sum((s.info.get(key, 0) if key else s.duration) for n in names for s in by[n])

    def outermost(layer, skip=()):
        return sum(s.duration for s in spans if s.name.startswith(layer + ".")
                   and s.name not in skip and not s.within(layer + "."))

    mains = {id(s) for s in by["cli.main"]}
    cli_self = total("cli.main") - sum(s.duration for s in spans if id(s.parent) in mains)
    # spans of calls that raised carry no counts
    experiments = [s for n in ("recurrence_experiment", "sign_change_experiment",
                               "growth_experiment") for s in by[f"montecarlo.{n}"] if s.info]
    sims = [s for s in by["montecarlo.simulate"] if s.info]
    kernel = experiments + [s for s in sims if not s.within("montecarlo.tomaszewski_check")]

    def ns_per_step(integer):
        ks = [s for s in kernel if s.info["integer"] == integer]
        return 1e9 * _ratio(sum(s.duration for s in ks), sum(s.info["steps"] for s in ks))

    dps = [s for n in ("distribution", "zero_hit_probability", "expected_visits")
           for s in by[f"exact.{n}"] if s.info]

    def cells_per_s(mode):
        ds = [s for s in dps if s.info["mode"] == mode]
        return _ratio(sum(s.info["cells"] for s in ds), sum(s.duration for s in ds))

    suites = defaultdict(float)
    for s in by["verify.run_suite"]:
        suites[s.info.get("suite")] += s.duration
    quad = [s for n in ("point_mass_fourier", "abs_integral")
            for s in by[f"fourier.{n}"] if s.info]
    pms = [s for s in by["fourier.point_mass_fourier"] if s.info]
    return {
        "cli.self_s": cli_self,
        "reports.write_s": outermost("reports", skip=("reports.sha256_file",)),
        "reports.digest_s": total("reports.sha256_file"),
        "reports.bytes_written": total("reports.write_csv", "reports.write_json", key="bytes"),
        "sequences.s": outermost("sequences"),
        "montecarlo.path_steps": sum(s.info["steps"] for s in experiments + sims),
        "montecarlo.ns_per_step.int": ns_per_step(True),
        "montecarlo.ns_per_step.real": ns_per_step(False),
        "montecarlo.us_per_path": 1e6 * _ratio(sum(s.duration for s in experiments),
                                               sum(s.info["paths"] for s in experiments)),
        "montecarlo.tomaszewski_s": total("montecarlo.tomaszewski_check"),
        "exact.cell_steps": sum(s.info["cells"] for s in dps),
        "exact.cell_steps_per_s.exact": cells_per_s("exact"),
        "exact.cell_steps_per_s.float256": cells_per_s("float256"),
        "exact.distribution_s": total("exact.distribution"),
        "exact.zero_hit_probability_s": total("exact.zero_hit_probability"),
        "exact.expected_visits_s": total("exact.expected_visits"),
        "verify.inequalities_s": suites["inequalities"],
        "verify.oracles_s": suites["oracles"],
        "verify.checks": total("verify.run_suite", key="checks"),
        "fourier.nodes": sum(s.info["nodes"] for s in quad),
        "fourier.nodes_per_point_mass": _ratio(sum(s.info["nodes"] for s in pms), len(pms)),
        "fourier.ns_per_node_value": 1e9 * _ratio(
            sum(s.duration for s in quad), sum(s.info["nodes"] * s.info["values"] for s in quad)),
        "fourier.point_mass_s": total("fourier.point_mass_fourier"),
        "fourier.transience_s": total("fourier.transience_report"),
        "fourier.abs_integral_s": total("fourier.abs_integral"),
        "fourier.max_abs_err": point_error([s.info["point"] for s in pms]),
    }
