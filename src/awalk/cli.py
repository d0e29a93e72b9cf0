"""Command-line surface: reproducible experiments with file outputs.

Every run writes its primary output (CSV or JSON) plus a run manifest
recording the argv, parameters, seed, tool version, timestamps and SHA-256
digests of the outputs.  Exact-mode subcommands reproduce their outputs byte
for byte when re-run from a manifest's argv.

Exit codes: 0 success, 2 precondition error, 3 resource error, 4 tolerance
or verification failure.
"""

from __future__ import annotations

import argparse
import json
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="awalk",
        description="Exact, spectral and Monte Carlo diagnostics for weighted sign walks.")
    parser.add_argument("--version", action="version", version=f"awalk {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    subs: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        p.add_argument("--config", default=None,
                       help="JSON file with default flag values (flags override)")
        p.add_argument("--manifest", default=None,
                       help="manifest path (default: OUT.manifest.json)")
        subs[name] = p
        return p

    p = add("dist", "exact distribution of S(n) as CSV (z,count,prob)")
    p.add_argument("--spec", required=True, help="sequence spec, e.g. linear or powfloor:0.5")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--binary", default=None, help="also write the compact binary form here")

    p = add("qn", "zero-sum sign counts for the 1,2,...,n walk as CSV (n,count,prob)")
    p.add_argument("--max-n", type=int, required=True, help="largest horizon")

    p = add("hit", "first-passage probability into a band, as JSON")
    p.add_argument("--spec", required=True, help="sequence spec")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--band", type=float, default=0.0, help="band half-width C (default 0)")
    p.add_argument("--mode", choices=["auto", "exact", "float256"], default="auto",
                   help="arithmetic mode (default auto)")

    p = add("visits", "expected band visits per horizon as CSV (n,prob,cumulative)")
    p.add_argument("--spec", required=True, help="sequence spec")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--band", type=float, default=0.0, help="band half-width C (default 0)")
    p.add_argument("--mode", choices=["auto", "exact", "float256"], default="auto",
                   help="arithmetic mode (default auto)")

    p = add("fourier", "point mass by cosine-product inversion as CSV (n,value,error,nodes)")
    p.add_argument("--spec", required=True, help="integer-valued sequence spec")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--z", type=int, default=0, help="lattice point (default 0)")
    p.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance")

    p = add("sullivan", "scaled absolute cosine-product integrals as CSV (n,value,error,nodes)")
    p.add_argument("--beta", required=True, help="floor-power exponent in (0,1]")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...",
                   help="increasing horizons")

    p = add("transience", "point-mass series with summability diagnostic, CSV (n,value,error,nodes)")
    p.add_argument("--spec", required=True, help="integer-valued sequence spec")
    p.add_argument("--n-max", type=int, required=True, help="largest horizon")
    p.add_argument("--z", type=int, default=0, help="lattice point (default 0)")
    p.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance per point")

    p = add("simulate", "one simulated path's statistics as JSON")
    p.add_argument("--spec", required=True, help="sequence spec")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required)")
    p.add_argument("--stream", type=int, default=0, help="path stream index")
    p.add_argument("--bands", type=_float_list, default=[], metavar="C1,C2,...",
                   help="band half-widths to track")
    p.add_argument("--zero-tol", type=float, default=1e-9,
                   help="zero-detection tolerance for real weights")
    p.add_argument("--checkpoints", type=_int_list, default=None,
                   help="sub-horizon snapshot indices (default n/100,n/10,n)")

    p = add("recurrence", "band-hit experiment over many paths: JSON report + checkpoint CSV")
    p.add_argument("--spec", required=True, help="sequence spec")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--paths", type=int, required=True, help="number of paths")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required)")
    p.add_argument("--bands", type=_float_list, default=[0.0], metavar="C1,C2,...",
                   help="band half-widths to track (default 0)")
    p.add_argument("--zero-tol", type=float, default=1e-9,
                   help="zero-detection tolerance for real weights")
    p.add_argument("--checkpoints", type=_int_list, default=None,
                   help="sub-horizon snapshot indices (default n/100,n/10,n)")
    p.add_argument("--csv", default=None, help="per-checkpoint CSV (default: OUT stem + .csv)")

    p = add("signs", "sign-change experiment over many paths: JSON report + checkpoint CSV")
    p.add_argument("--spec", required=True, help="non-decreasing sequence spec")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--paths", type=int, required=True, help="number of paths")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required)")
    p.add_argument("--checkpoints", type=_int_list, default=None,
                   help="sub-horizon snapshot indices (default n/100,n/10,n)")
    p.add_argument("--csv", default=None, help="per-checkpoint CSV (default: OUT stem + .csv)")

    p = add("growth", "fraction of paths staying above n^(beta/2-delta): JSON report")
    p.add_argument("--beta", required=True, help="floor-power exponent in (0,1)")
    p.add_argument("--delta", type=float, required=True, help="margin in (0, beta/2)")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--paths", type=int, required=True, help="number of paths")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required)")

    p = add("tomaszewski", "P(|S(n)| <= sqrt(sum a^2)) >= 1/2 check as JSON")
    p.add_argument("--spec", required=True, help="sequence spec")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact",
                   help="exact enumeration or Monte Carlo")
    p.add_argument("--paths", type=int, default=100_000, help="paths for mc mode")
    p.add_argument("--seed", type=int, default=0, help="seed for mc mode")

    p = add("verify", "run a verification suite and write its JSON report")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES),
                   help="inequalities | oracles | patterns | bc")

    p = add("pattern", "pattern-avoiding string counts as CSV (kappa,count,ratio)")
    p.add_argument("--kappa-max", type=int, required=True, help="largest string length")

    return parser, subs


def _apply_config(parser_map, argv):
    """Let a JSON config supply defaults; explicit flags still win."""
    if not argv or argv[0] not in parser_map:
        return
    name = argv[0]
    cfg_path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif a.startswith("--config="):
            cfg_path = a.split("=", 1)[1]
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
    for section in ("defaults", name):
        values = cfg.get(section, {})
        if not isinstance(values, dict):
            raise PreconditionError(f"config {cfg_path!r}: key {section!r} must map flags "
                                    f"to values, got {values!r}")
        merged.update(values)
    p = parser_map[name]
    dests = {a.dest for a in p._actions}
    defaults = {}
    for key, value in merged.items():
        dest = key.replace("-", "_")
        if dest in dests:
            for a in p._actions:
                if a.dest == dest:
                    value = _config_value(a, value, f"config {cfg_path!r}: key {key!r}")
                    a.required = False  # the config satisfies the requirement
            defaults[dest] = value
    p.set_defaults(**defaults)


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

def _cmd_dist(args, outputs):
    spec = parse_spec(args.spec)
    dist = exact.distribution(spec, args.n)
    write_csv(args.out, ["z", "count", "prob"], dist.csv_rows(), force=args.force)
    outputs.append(args.out)
    if args.binary:
        ensure_writable(args.binary, args.force)
        with open(args.binary, "wb") as fh:
            fh.write(dist.to_bytes())
        outputs.append(args.binary)
    return {"spec": spec.canonical(), "n": args.n, "steps": dist.n}


def _cmd_qn(args, outputs):
    # one incremental DP pass; the per-n zero masses are exactly count/2^n
    series = exact.expected_visits(parse_spec("linear"), args.max_n, 0).per_n
    rows = [(n, int(p * (1 << n)), float(p)) for n, p in series]
    write_csv(args.out, ["n", "count", "prob"], rows, force=args.force)
    outputs.append(args.out)
    return {"max_n": args.max_n}


def _cmd_hit(args, outputs):
    spec = parse_spec(args.spec)
    rep = exact.zero_hit_probability(spec, args.n, args.band, mode=args.mode)
    payload = {
        "spec": rep.spec, "horizon": rep.horizon, "band": rep.band, "mode": rep.mode,
        "hit_probability": fraction_fields(rep.hit_probability),
        "per_n": [{"n": n, "first_hit_mass": float(p)} for n, p in rep.per_n],
    }
    write_json(args.out, payload, force=args.force)
    outputs.append(args.out)
    return {"spec": rep.spec, "mode": rep.mode,
            "hit_probability": float(rep.hit_probability)}


def _cmd_visits(args, outputs):
    spec = parse_spec(args.spec)
    rep = exact.expected_visits(spec, args.n, args.band, mode=args.mode)
    rows = []
    running = 0.0
    for n, p in rep.per_n:
        running += float(p)
        rows.append((n, float(p), running))
    write_csv(args.out, ["n", "prob", "cumulative"], rows, force=args.force)
    outputs.append(args.out)
    return {"spec": rep.spec, "mode": rep.mode,
            "expected_visits": float(rep.expected_visits)}


def _cmd_fourier(args, outputs):
    spec = parse_spec(args.spec)
    res = fourier.point_mass_fourier(spec, args.n, args.z, abs_tol=args.tol)
    write_csv(args.out, ["n", "value", "error", "nodes"],
              [(args.n, res.value, res.abs_error_estimate, res.nodes)], force=args.force)
    outputs.append(args.out)
    return {"spec": spec.canonical(), "z": args.z, "value": res.value}


def _cmd_sullivan(args, outputs):
    rep = fourier.sullivan_constant_estimate(args.beta, args.n)
    rows = [(e.n, e.scaled, e.abs_error, e.nodes) for e in rep.entries]
    write_csv(args.out, ["n", "value", "error", "nodes"], rows, force=args.force)
    outputs.append(args.out)
    return {"beta": rep.beta, "target": rep.target,
            "extrapolated": rep.extrapolated, "rel_gap_last": rep.rel_gap_last}


def _cmd_transience(args, outputs):
    spec = parse_spec(args.spec)
    rep = fourier.transience_report(spec, args.n_max, args.z, abs_tol=args.tol)
    rows = [(e.n, e.value, e.abs_error, e.nodes) for e in rep.entries]
    write_csv(args.out, ["n", "value", "error", "nodes"], rows, force=args.force)
    outputs.append(args.out)
    return {"spec": rep.spec, "z": rep.z, "slope": rep.slope,
            "summable_trend": rep.summable_trend, "fit_points": rep.fit_points,
            "note": rep.note}


def _cmd_simulate(args, outputs):
    spec = parse_spec(args.spec)
    cps = args.checkpoints if args.checkpoints is not None \
        else montecarlo.default_checkpoints(args.n, spec.first_index)
    st = montecarlo.simulate(spec, args.n, montecarlo.RngSpec(args.seed, args.stream),
                             args.bands, zero_tol=args.zero_tol, checkpoints=cps)
    payload = {"schema": montecarlo.REPORT_SCHEMA, "kind": "simulate",
               "spec": spec.canonical(), "seed": args.seed, "stream": args.stream,
               "path": jsonable(asdict(st))}
    write_json(args.out, payload, force=args.force)
    outputs.append(args.out)
    return {"spec": spec.canonical(), "zero_hits": st.zero_hits,
            "sign_changes": st.sign_changes}


def _checkpoint_csv_rows(report):
    rows = []
    for label, stats in report.aggregates.get("per_band", {}).items():
        for cp, mean in stats["mean_hits_at_checkpoint"].items():
            rows.append((int(cp), label, "mean_hits", mean))
    for cp, fracs in report.aggregates.get("fraction_at_least", {}).items():
        for k, frac in fracs.items():
            rows.append((int(cp), f">={k}", "fraction_sign_changes", frac))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def _write_report(args, rep, outputs):
    """The report's JSON at --out and its checkpoint CSV at --csv (default:
    OUT without .json, plus .csv)."""
    write_json(args.out, rep.to_dict(), force=args.force)
    outputs.append(args.out)
    csv_path = args.csv or (args.out[:-5] if args.out.endswith(".json") else args.out) + ".csv"
    write_csv(csv_path, ["checkpoint", "target", "statistic", "value"],
              _checkpoint_csv_rows(rep), force=args.force)
    outputs.append(csv_path)


def _cmd_recurrence(args, outputs):
    spec = parse_spec(args.spec)
    rep = montecarlo.recurrence_experiment(spec, args.n, args.bands, args.paths,
                                           args.seed, checkpoints=args.checkpoints,
                                           zero_tol=args.zero_tol)
    _write_report(args, rep, outputs)
    return {"spec": spec.canonical(), "paths": args.paths}


def _cmd_signs(args, outputs):
    spec = parse_spec(args.spec)
    rep = montecarlo.sign_change_experiment(spec, args.n, args.paths, args.seed,
                                            checkpoints=args.checkpoints)
    _write_report(args, rep, outputs)
    return {"spec": spec.canonical(), "paths": args.paths,
            "mean_sign_changes": rep.aggregates["mean_sign_changes"]}


def _cmd_growth(args, outputs):
    from .sequences import PowerFloor
    spec = PowerFloor(args.beta)
    rep = montecarlo.growth_experiment(spec, args.n, args.delta, args.paths, args.seed)
    write_json(args.out, rep.to_dict(), force=args.force)
    outputs.append(args.out)
    return {"spec": spec.canonical(),
            "fraction_maintaining": rep.aggregates["fraction_maintaining"]}


def _cmd_tomaszewski(args, outputs):
    spec = parse_spec(args.spec)
    rep = montecarlo.tomaszewski_check(spec, args.n, args.mode,
                                       paths=args.paths, seed=args.seed)
    payload = {"spec": rep.spec, "horizon": rep.horizon, "mode": rep.mode,
               "probability": fraction_fields(rep.probability),
               "passed": rep.passed, "paths": rep.paths, "stderr": rep.stderr}
    write_json(args.out, payload, force=args.force)
    outputs.append(args.out)
    return {"spec": rep.spec, "passed": rep.passed}


def _cmd_verify(args, outputs):
    result = verify.run_suite(args.suite)
    write_json(args.out, result.to_dict(), force=args.force)
    outputs.append(args.out)
    return {"suite": args.suite, "passed": result.passed}


def _cmd_pattern(args, outputs):
    counts = exact.pattern_free_counts(args.kappa_max)
    rows = [(kappa, count, "" if kappa == 1 else count / counts[kappa - 2])
            for kappa, count in enumerate(counts, start=1)]
    write_csv(args.out, ["kappa", "count", "ratio"], rows, force=args.force)
    outputs.append(args.out)
    return {"kappa_max": args.kappa_max}


_HANDLERS = {
    "dist": _cmd_dist, "qn": _cmd_qn, "hit": _cmd_hit, "visits": _cmd_visits,
    "fourier": _cmd_fourier, "sullivan": _cmd_sullivan, "transience": _cmd_transience,
    "simulate": _cmd_simulate, "recurrence": _cmd_recurrence, "signs": _cmd_signs,
    "growth": _cmd_growth, "tomaszewski": _cmd_tomaszewski, "verify": _cmd_verify,
    "pattern": _cmd_pattern,
}


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
        started = datetime.now(timezone.utc).isoformat()
        outputs: list[str] = []
        summary = _HANDLERS[args.command](args, outputs)
        finished = datetime.now(timezone.utc).isoformat()
        manifest_path = args.manifest or args.out + ".manifest.json"
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
