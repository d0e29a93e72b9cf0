"""Command-line surface: reproducible experiments with file outputs.

Every run writes its primary output (CSV or JSON) plus a run manifest
recording the argv, parameters, seed, tool version, timestamps and SHA-256
digests of the outputs.  Exact-mode subcommands reproduce their outputs byte
for byte when re-run from a manifest's argv.

Each `_cmd_*` handler computes and writes nothing: it returns ``(files,
summary)``, ``files`` an ordered list of ``(path, content)`` pairs whose
content is a dict (written as JSON), a ``(header, rows)`` pair (CSV) or
``bytes`` (as they are).  `main` refuses an existing output path, and one
path named for two outputs, before the handler runs, then writes the files
in order, records their digests in the manifest and prints the summary.

Exit codes: 0 success, 2 precondition error, 3 resource error, 4 tolerance
or verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__, exact, fourier, montecarlo, verify
from .errors import PreconditionError, ResourceError, ToleranceError
from .reports import (RunManifest, ensure_writable, fraction_fields, jsonable, sha256_file,
                      write_csv, write_json)
from .sequences import parse_spec

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3
EXIT_TOLERANCE = 4

_EXPERIMENT_COMMANDS = {"simulate", "recurrence", "signs", "growth"}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


# Flags that several commands share, each defined once as (flag, keywords).
_N = ("--n", dict(type=int, required=True, help="horizon"))
_PATHS = ("--paths", dict(type=int, required=True, help="number of paths"))
_SEED = ("--seed", dict(type=int, default=None, help="RNG seed (required)"))
_BAND = ("--band", dict(type=float, default=0.0, help="band half-width C (default 0)"))
_DP_MODE = ("--mode", dict(choices=["auto", "exact", "float256"], default="auto",
                           help="arithmetic mode (default auto)"))
_Z = ("--z", dict(type=int, default=0, help="lattice point (default 0)"))
_ZERO_TOL = ("--zero-tol", dict(type=float, default=1e-9,
                                help="zero-detection tolerance for real weights"))
_CHECKPOINTS = ("--checkpoints", dict(type=_int_list, default=None,
                                      help="sub-horizon snapshot indices (default n/100,n/10,n)"))
_CSV = ("--csv", dict(default=None, help="per-checkpoint CSV (default: OUT stem + .csv)"))
_COMMON = (
    ("--out", dict(required=True, help="output file path")),
    ("--force", dict(action="store_true", help="overwrite existing output files")),
    ("--config", dict(default=None, help="JSON file with default flag values (flags override)")),
    ("--manifest", dict(default=None, help="manifest path (default: OUT.manifest.json)")),
)


def _spec(help_text: str = "sequence spec"):
    return ("--spec", dict(required=True, help=help_text))


def _tol(help_text: str):
    return ("--tol", dict(type=float, default=1e-10, help=help_text))


def _bands(default: list[float], help_text: str):
    return ("--bands", dict(type=_float_list, default=default, metavar="C1,C2,...",
                            help=help_text))


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="awalk",
        description="Exact, spectral and Monte Carlo diagnostics for weighted sign walks.")
    parser.add_argument("--version", action="version", version=f"awalk {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    subs: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, help_text: str, *flags) -> None:
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag, kwargs in _COMMON + flags:
            p.add_argument(flag, **kwargs)
        subs[name] = p

    add("dist", "exact distribution of S(n) as CSV (z,count,prob)",
        _spec("sequence spec, e.g. linear or powfloor:0.5"), _N,
        ("--binary", dict(default=None, help="also write the compact binary form here")))
    add("qn", "zero-sum sign counts for the 1,2,...,n walk as CSV (n,count,prob)",
        ("--max-n", dict(type=int, required=True, help="largest horizon")))
    add("hit", "first-passage probability into a band, as JSON", _spec(), _N, _BAND, _DP_MODE)
    add("visits", "expected band visits per horizon as CSV (n,prob,cumulative)",
        _spec(), _N, _BAND, _DP_MODE)
    add("fourier", "point mass by cosine-product inversion as CSV (n,value,error,nodes)",
        _spec("integer-valued sequence spec"), _N, _Z, _tol("absolute tolerance"))
    add("sullivan", "scaled absolute cosine-product integrals as CSV (n,value,error,nodes)",
        ("--beta", dict(required=True, help="floor-power exponent in (0,1]")),
        ("--n", dict(type=_int_list, required=True, metavar="N1,N2,...",
                     help="increasing horizons")))
    add("transience", "point-mass series with summability diagnostic, CSV (n,value,error,nodes)",
        _spec("integer-valued sequence spec"),
        ("--n-max", dict(type=int, required=True, help="largest horizon")),
        _Z, _tol("absolute tolerance per point"))
    add("simulate", "one simulated path's statistics as JSON", _spec(), _N, _SEED,
        ("--stream", dict(type=int, default=0, help="path stream index")),
        _bands([], "band half-widths to track"), _ZERO_TOL, _CHECKPOINTS)
    add("recurrence", "band-hit experiment over many paths: JSON report + checkpoint CSV",
        _spec(), _N, _PATHS, _SEED, _bands([0.0], "band half-widths to track (default 0)"),
        _ZERO_TOL, _CHECKPOINTS, _CSV)
    add("signs", "sign-change experiment over many paths: JSON report + checkpoint CSV",
        _spec("non-decreasing sequence spec"), _N, _PATHS, _SEED, _CHECKPOINTS, _CSV)
    add("growth", "fraction of paths staying above n^(beta/2-delta): JSON report",
        ("--beta", dict(required=True, help="floor-power exponent in (0,1)")),
        ("--delta", dict(type=float, required=True, help="margin in (0, beta/2)")),
        _N, _PATHS, _SEED)
    add("tomaszewski", "P(|S(n)| <= sqrt(sum a^2)) >= 1/2 check as JSON", _spec(), _N,
        ("--mode", dict(choices=["exact", "mc"], default="exact",
                        help="exact enumeration or Monte Carlo")),
        ("--paths", dict(type=int, default=100_000, help="paths for mc mode")),
        ("--seed", dict(type=int, default=0, help="seed for mc mode")))
    add("verify", "run a verification suite and write its JSON report",
        ("--suite", dict(required=True, choices=sorted(verify.SUITES),
                         help="inequalities | oracles | patterns | bc")))
    add("pattern", "pattern-avoiding string counts as CSV (kappa,count,ratio)",
        ("--kappa-max", dict(type=int, required=True, help="largest string length")))
    return parser, subs


def _apply_config(parser_map, argv):
    """Let a JSON config supply defaults; explicit flags still win.  A silent
    parse, required flags relaxed, finds --config as argparse reads it (--conf too)."""
    p = parser_map.get(argv[0]) if argv else None
    if p is None:
        return
    required = [a for a in p._actions if a.required]
    try:
        for a in required:
            a.required = False
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cfg_path = p.parse_known_args(argv[1:])[0].config
    except SystemExit:  # --help or a bad flag: `main`'s own parse stops there and speaks
        return
    finally:
        for a in required:
            a.required = True
    if cfg_path is None:
        return
    try:
        with open(cfg_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"cannot read config {cfg_path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise PreconditionError(f"config {cfg_path!r} must hold a JSON object, "
                                f"got {type(cfg).__name__}")
    merged = {}
    for section in ("defaults", argv[0]):
        values = cfg.get(section, {})
        if not isinstance(values, dict):
            raise PreconditionError(f"config {cfg_path!r}: key {section!r} must map flags "
                                    f"to values, got {values!r}")
        merged.update(values)
    actions = {a.dest: a for a in p._actions}
    for key, value in merged.items():
        a = actions.get(key.replace("-", "_"))
        if a is not None:
            a.default = _config_value(a, value, f"config {cfg_path!r}: key {key!r}")
            a.required = False  # the config satisfies the requirement


def _config_value(action, value, where: str):
    """A config value checked against its flag.  A string goes through the
    flag's type, as on the command line; another JSON value must already be
    what the flag takes: true or false for a switch, an integer for an int
    flag, a number for a float flag."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if action.nargs == 0:
        want, ok = "true or false", isinstance(value, bool)
    elif isinstance(value, str):
        want, ok = "", True
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError as exc:
                raise PreconditionError(f"{where}: {exc}") from exc
    elif action.type is int:
        want, ok = "an integer or a string", number and isinstance(value, int)
    elif action.type is float:
        want, ok = "a number or a string", number
        value = float(value) if ok else value
    else:
        want, ok = "a string", False
    if not ok:
        raise PreconditionError(f"{where}: expected {want}, got {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise PreconditionError(f"{where}: expected one of {sorted(action.choices)}, "
                                f"got {json.dumps(value)}")
    return value


def _require_seed(args, parser_map):
    if args.command in _EXPERIMENT_COMMANDS and args.seed is None:
        parser_map[args.command].error("--seed is required (no silent entropy)")


# --- subcommand implementations ---------------------------------------------------

def _cmd_dist(args):
    spec = parse_spec(args.spec)
    dist = exact.distribution(spec, args.n)
    files = [(args.out, (["z", "count", "prob"], dist.csv_rows()))]
    if args.binary:
        files.append((args.binary, dist.to_bytes()))
    return files, {"spec": spec.canonical(), "n": args.n, "steps": dist.n}


def _cmd_qn(args):
    # one incremental DP pass; the per-n zero masses are exactly count/2^n
    series = exact.expected_visits(parse_spec("linear"), args.max_n, 0).per_n
    rows = [(n, int(p * (1 << n)), float(p)) for n, p in series]
    return [(args.out, (["n", "count", "prob"], rows))], {"max_n": args.max_n}


def _cmd_hit(args):
    spec = parse_spec(args.spec)
    rep = exact.zero_hit_probability(spec, args.n, args.band, mode=args.mode)
    payload = {
        "spec": rep.spec, "horizon": rep.horizon, "band": rep.band, "mode": rep.mode,
        "hit_probability": fraction_fields(rep.hit_probability),
        "per_n": [{"n": n, "first_hit_mass": float(p)} for n, p in rep.per_n],
    }
    return [(args.out, payload)], {"spec": rep.spec, "mode": rep.mode,
                                   "hit_probability": float(rep.hit_probability)}


def _cmd_visits(args):
    spec = parse_spec(args.spec)
    rep = exact.expected_visits(spec, args.n, args.band, mode=args.mode)
    rows = []
    running = 0.0
    for n, p in rep.per_n:
        running += float(p)
        rows.append((n, float(p), running))
    return [(args.out, (["n", "prob", "cumulative"], rows))], {
        "spec": rep.spec, "mode": rep.mode, "expected_visits": float(rep.expected_visits)}


def _cmd_fourier(args):
    spec = parse_spec(args.spec)
    res = fourier.point_mass_fourier(spec, args.n, args.z, abs_tol=args.tol)
    rows = [(args.n, res.value, res.abs_error_estimate, res.nodes)]
    return [(args.out, (["n", "value", "error", "nodes"], rows))], {
        "spec": spec.canonical(), "z": args.z, "value": res.value}


def _cmd_sullivan(args):
    rep = fourier.sullivan_constant_estimate(args.beta, args.n)
    rows = [(e.n, e.scaled, e.abs_error, e.nodes) for e in rep.entries]
    return [(args.out, (["n", "value", "error", "nodes"], rows))], {
        "beta": rep.beta, "target": rep.target,
        "extrapolated": rep.extrapolated, "rel_gap_last": rep.rel_gap_last}


def _cmd_transience(args):
    spec = parse_spec(args.spec)
    rep = fourier.transience_report(spec, args.n_max, args.z, abs_tol=args.tol)
    rows = [(e.n, e.value, e.abs_error, e.nodes) for e in rep.entries]
    return [(args.out, (["n", "value", "error", "nodes"], rows))], {
        "spec": rep.spec, "z": rep.z, "slope": rep.slope,
        "summable_trend": rep.summable_trend, "fit_points": rep.fit_points, "note": rep.note}


def _cmd_simulate(args):
    spec = parse_spec(args.spec)
    cps = args.checkpoints if args.checkpoints is not None \
        else montecarlo.default_checkpoints(args.n, spec.first_index)
    st = montecarlo.simulate(spec, args.n, montecarlo.RngSpec(args.seed, args.stream),
                             args.bands, zero_tol=args.zero_tol, checkpoints=cps)
    payload = {"schema": montecarlo.REPORT_SCHEMA, "kind": "simulate",
               "spec": spec.canonical(), "seed": args.seed, "stream": args.stream,
               "path": asdict(st)}
    return [(args.out, payload)], {"spec": spec.canonical(), "zero_hits": st.zero_hits,
                                   "sign_changes": st.sign_changes}


def _csv_path(args) -> str:
    """The checkpoint CSV: --csv, or OUT without .json, plus .csv."""
    return args.csv or (args.out[:-5] if args.out.endswith(".json") else args.out) + ".csv"


def _report_files(args, report):
    """The report's JSON at --out and its per-checkpoint CSV at `_csv_path`."""
    agg = report.aggregates
    rows = [(int(cp), label, "mean_hits", mean)
            for label, stats in agg.get("per_band", {}).items()
            for cp, mean in stats["mean_hits_at_checkpoint"].items()]
    rows += [(int(cp), f">={k}", "fraction_sign_changes", frac)
             for cp, fracs in agg.get("fraction_at_least", {}).items()
             for k, frac in fracs.items()]
    rows.sort(key=lambda r: r[:3])
    return [(args.out, report.to_dict()),
            (_csv_path(args), (["checkpoint", "target", "statistic", "value"], rows))]


def _cmd_recurrence(args):
    spec = parse_spec(args.spec)
    rep = montecarlo.recurrence_experiment(spec, args.n, args.bands, args.paths,
                                           args.seed, checkpoints=args.checkpoints,
                                           zero_tol=args.zero_tol)
    return _report_files(args, rep), {"spec": spec.canonical(), "paths": args.paths}


def _cmd_signs(args):
    spec = parse_spec(args.spec)
    rep = montecarlo.sign_change_experiment(spec, args.n, args.paths, args.seed,
                                            checkpoints=args.checkpoints)
    return _report_files(args, rep), {
        "spec": spec.canonical(), "paths": args.paths,
        "mean_sign_changes": rep.aggregates["mean_sign_changes"]}


def _cmd_growth(args):
    from .sequences import PowerFloor
    spec = PowerFloor(args.beta)
    rep = montecarlo.growth_experiment(spec, args.n, args.delta, args.paths, args.seed)
    return [(args.out, rep.to_dict())], {
        "spec": spec.canonical(), "fraction_maintaining": rep.aggregates["fraction_maintaining"]}


def _cmd_tomaszewski(args):
    spec = parse_spec(args.spec)
    rep = montecarlo.tomaszewski_check(spec, args.n, args.mode,
                                       paths=args.paths, seed=args.seed)
    payload = {**asdict(rep), "probability": fraction_fields(rep.probability)}
    return [(args.out, payload)], {"spec": rep.spec, "passed": rep.passed}


def _cmd_verify(args):
    result = verify.run_suite(args.suite)
    return [(args.out, result.to_dict())], {"suite": args.suite, "passed": result.passed}


def _cmd_pattern(args):
    counts = exact.pattern_free_counts(args.kappa_max)
    rows = [(kappa, count, "" if kappa == 1 else count / counts[kappa - 2])
            for kappa, count in enumerate(counts, start=1)]
    return [(args.out, (["kappa", "count", "ratio"], rows))], {"kappa_max": args.kappa_max}


_HANDLERS = {
    "dist": _cmd_dist, "qn": _cmd_qn, "hit": _cmd_hit, "visits": _cmd_visits,
    "fourier": _cmd_fourier, "sullivan": _cmd_sullivan, "transience": _cmd_transience,
    "simulate": _cmd_simulate, "recurrence": _cmd_recurrence, "signs": _cmd_signs,
    "growth": _cmd_growth, "tomaszewski": _cmd_tomaszewski, "verify": _cmd_verify,
    "pattern": _cmd_pattern,
}


def _write(path: str, content, force: bool) -> None:
    """One output: a dict as JSON, a (header, rows) pair as CSV, bytes as they are."""
    if isinstance(content, dict):
        write_json(path, content, force=force)
    elif isinstance(content, bytes):
        ensure_writable(path, force)
        with open(path, "wb") as fh:
            fh.write(content)
    else:
        write_csv(path, *content, force=force)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        _apply_config(subs, argv)
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_PRECONDITION
        _require_seed(args, subs)
        manifest_path = args.manifest or args.out + ".manifest.json"
        # refuse an existing or repeated output before computing anything
        named: set[str] = set()
        for path in filter(None, (args.out, manifest_path, getattr(args, "binary", None),
                                  _csv_path(args) if hasattr(args, "csv") else None)):
            ensure_writable(path, args.force)
            if os.path.realpath(path) in named:
                raise PreconditionError(f"{path} is named for two outputs")
            named.add(os.path.realpath(path))
        started = datetime.now(timezone.utc).isoformat()
        files, summary = _HANDLERS[args.command](args)
        outputs: list[str] = []
        for path, content in files:
            _write(path, content, args.force)
            outputs.append(path)
        finished = datetime.now(timezone.utc).isoformat()
        manifest = RunManifest(
            tool="awalk", version=__version__, subcommand=args.command, argv=argv,
            parameters={k: v for k, v in sorted(vars(args).items())
                        if k not in ("command", "force", "manifest", "config")},
            seed=getattr(args, "seed", None),
            started_at=started, finished_at=finished,
            outputs={p: sha256_file(p) for p in outputs})
        manifest.write(manifest_path, force=args.force)
        print(json.dumps({"ok": True, "command": args.command, "outputs": outputs,
                          "manifest": manifest_path, **jsonable(summary)},
                         sort_keys=True))
        if args.command == "verify" and not summary["passed"]:
            return EXIT_TOLERANCE
        return EXIT_OK
    except ToleranceError as exc:
        print(f"awalk: tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ResourceError, MemoryError) as exc:
        print(f"awalk: resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        print(f"awalk: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
