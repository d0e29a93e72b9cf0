import ast
import importlib
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import awalk
from awalk import cli, exact
from awalk.cli import build_parser, main
from awalk.errors import ResourceError
from awalk.reports import fmt_cell, sha256_file, write_csv, write_json
from awalk.sequences import Linear

from conftest import legacy_csv_bytes

GOLDEN = Path(__file__).parent / "golden"


def run(args, cwd):
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


def test_dist_q8(tmp_path, capsys):
    assert run(["dist", "--spec", "linear", "--n", "8", "--out", "d.csv",
                "--binary", "d.bin"], tmp_path) == 0
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "z,count,prob"
    assert "0,14,0.0546875" in lines
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "dist"
    assert set(manifest["outputs"]) == {"d.csv", "d.bin"}
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True

    from awalk.exact import LatticeDist
    dist = LatticeDist.from_bytes((tmp_path / "d.bin").read_bytes())
    assert dist.count(0) == 14


def test_manifest_rerun_is_byte_identical(tmp_path):
    assert run(["qn", "--max-n", "30", "--out", "q.csv"], tmp_path) == 0
    digest = sha256_file(tmp_path / "q.csv")
    manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
    assert run(manifest["argv"] + ["--force"], tmp_path) == 0
    assert sha256_file(tmp_path / "q.csv") == digest == \
        json.loads((tmp_path / "q.csv.manifest.json").read_text())["outputs"]["q.csv"]


def test_overwrite_protection(tmp_path):
    assert run(["pattern", "--kappa-max", "5", "--out", "p.csv"], tmp_path) == 0
    assert run(["pattern", "--kappa-max", "5", "--out", "p.csv"], tmp_path) == 2
    assert run(["pattern", "--kappa-max", "5", "--out", "p.csv", "--force"], tmp_path) == 0


@pytest.mark.parametrize("argv, existing", [
    (["dist", "--spec", "linear", "--n", "8", "--out", "d.csv", "--binary", "d.bin"], "d.bin"),
    (["pattern", "--kappa-max", "5", "--out", "p.csv"], "p.csv.manifest.json"),
    (["signs", "--spec", "linear", "--n", "50", "--paths", "2", "--seed", "1",
      "--out", "s.json"], "s.csv"),
], ids=["binary", "manifest", "checkpoint-csv"])
def test_an_existing_output_is_refused_before_any_file_is_written(argv, existing, tmp_path):
    (tmp_path / existing).write_text("kept")
    assert run(argv, tmp_path) == 2
    assert [p.name for p in tmp_path.iterdir()] == [existing]
    assert (tmp_path / existing).read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["dist", "--spec", "linear", "--n", "4", "--out", "x", "--binary", "x"],
    ["dist", "--spec", "linear", "--n", "4", "--out", "x", "--manifest", "x"],
    ["dist", "--spec", "linear", "--n", "4", "--out", "x", "--binary", "./sub/../x"],
    ["recurrence", "--spec", "linear", "--n", "50", "--paths", "2", "--seed", "1",
     "--out", "r.json", "--csv", "r.json"],
], ids=["binary", "manifest", "binary-by-another-name", "checkpoint-csv"])
@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_a_path_named_for_two_outputs_is_refused(argv, force, tmp_path):
    (tmp_path / "sub").mkdir()
    assert run(argv + force, tmp_path) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_an_existing_output_is_refused_before_computing(tmp_path, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli.montecarlo, "recurrence_experiment", computed)
    (tmp_path / "r.json").write_text("kept")
    assert run(["recurrence", "--spec", "linear", "--n", "1000000", "--paths", "640",
                "--seed", "1", "--out", "r.json"], tmp_path) == 2


def test_only_simulating_commands_import_numpy_random(tmp_path):
    # numpy loads numpy.random lazily, and importing it costs about a tenth
    # of the startup of a short exact command, so in a fresh process the
    # exact, spectral and verify commands must leave it unloaded
    code = """if True:
        import sys
        from awalk.cli import main
        for argv in (["dist", "--spec", "linear", "--n", "40"],
                     ["hit", "--spec", "powfloor:0.5", "--n", "70", "--band", "1"],
                     ["visits", "--spec", "logceil:2", "--n", "60"], ["qn", "--max-n", "20"],
                     ["pattern", "--kappa-max", "25"],
                     ["transience", "--spec", "linear", "--n-max", "10", "--z", "0"],
                     ["fourier", "--spec", "linear", "--n", "10", "--z", "0"],
                     ["sullivan", "--beta", "0.9", "--n", "25,50"],
                     *(["verify", "--suite", s] for s in ("patterns", "inequalities", "oracles"))):
            assert main(argv + ["--out", argv[0] + argv[-1]]) == 0, argv
        assert "numpy.random" not in sys.modules
        assert main(["simulate", "--spec", "linear", "--n", "50", "--seed", "1",
                     "--out", "s.json"]) == 0
        assert "numpy.random" in sys.modules
    """
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr


# every command at a tiny size; `out` has no suffix, so the checkpoint CSV is out.csv
TINY = {
    "dist": ["--spec", "linear", "--n", "6", "--binary", "d.bin"],
    "qn": ["--max-n", "6"],
    "hit": ["--spec", "linear", "--n", "4"],
    "visits": ["--spec", "linear", "--n", "6"],
    "fourier": ["--spec", "linear", "--n", "6"],
    "sullivan": ["--beta", "0.5", "--n", "10,20"],
    "transience": ["--spec", "linear", "--n-max", "6"],
    "simulate": ["--spec", "linear", "--n", "50", "--seed", "1"],
    "recurrence": ["--spec", "linear", "--n", "50", "--paths", "4", "--seed", "1"],
    "signs": ["--spec", "linear", "--n", "50", "--paths", "4", "--seed", "1"],
    "growth": ["--beta", "0.5", "--delta", "0.2", "--n", "50", "--paths", "4", "--seed", "1"],
    "tomaszewski": ["--spec", "linear", "--n", "4"],
    "verify": ["--suite", "bc"],
    "pattern": ["--kappa-max", "5"],
}


def test_tiny_runs_cover_every_command():
    assert set(TINY) == set(cli._HANDLERS)


@pytest.mark.parametrize("command", TINY)
def test_manifest_records_exactly_the_files_written(command, tmp_path, capsys):
    assert run([command, *TINY[command], "--out", "out"], tmp_path) == 0
    written = {p.name: sha256_file(p) for p in tmp_path.iterdir()
               if p.name != "out.manifest.json"}
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["outputs"] == written
    assert sorted(json.loads(capsys.readouterr().out)["outputs"]) == sorted(written)


def test_unknown_spec_usage_error(tmp_path, capsys):
    assert run(["dist", "--spec", "bogus:1", "--n", "5", "--out", "x.csv"], tmp_path) == 2
    err = capsys.readouterr().err
    assert "constant:A" in err and "powfloor:B" in err  # grammar shown


def test_resource_exit_code(tmp_path):
    assert run(["visits", "--spec", "linear", "--n", "400", "--out", "v.csv"], tmp_path) == 0
    # huge horizon trips the cell budget
    assert run(["dist", "--spec", "linear", "--n", "50000", "--out", "big.csv"],
               tmp_path) == 3


def test_oversized_visits_exit_before_running(tmp_path):
    # linear n=20000 needs about 2e8 lattice cells, over the 5e7 budget
    for argv in (["visits", "--spec", "linear", "--n", "20000", "--out", "v.csv"],
                 ["qn", "--max-n", "20000", "--out", "q.csv"]):
        start = time.perf_counter()
        assert run(argv, tmp_path) == 3
        assert time.perf_counter() - start < 1.0


def test_band_dp_refuses_oversized_buffers_at_once(tmp_path):
    # linear n=9999 has 49,995,001 cells, under the cell budget, but its
    # counts of up to 10,000 bits would need about 68 GB
    for argv in (["dist", "--spec", "linear", "--n", "9999", "--out", "d.csv"],
                 ["hit", "--spec", "linear", "--n", "9999", "--out", "h.json"],
                 ["visits", "--spec", "linear", "--n", "9999", "--out", "v.csv"]):
        start = time.perf_counter()
        assert run(argv, tmp_path) == 3
        assert time.perf_counter() - start < 1.0
    assert not list(tmp_path.iterdir())
    with pytest.raises(ResourceError) as exc:
        exact.distribution(Linear(), 9999)
    assert exc.value.budget == exact.MAX_BUFFER_BYTES < exc.value.required
    # float256 runs the same DP: 12.5 million cells of counts up to 5,001 bits
    with pytest.raises(ResourceError) as exc:
        exact.expected_visits(Linear(), 5000, mode="float256")
    assert exc.value.budget == exact.MAX_BUFFER_BYTES < exc.value.required


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    # the handler raises at once: nothing is really allocated
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "pattern", exhausted)
    assert run(["pattern", "--kappa-max", "300000", "--out", "p.csv"], tmp_path) == 3
    assert capsys.readouterr().err == "awalk: resource limit: out of memory\n"
    assert not list(tmp_path.iterdir())

def test_tolerance_exit_code(tmp_path):
    assert run(["fourier", "--spec", "linear", "--n", "60", "--z", "0",
                "--tol", "1e-16", "--out", "f.csv"], tmp_path) in (0, 4)
    # an impossible tolerance must not silently succeed
    from awalk.fourier import point_mass_fourier
    from awalk.errors import ToleranceError
    from awalk.sequences import Linear
    with pytest.raises(ToleranceError):
        point_mass_fourier(Linear(), 60, 0, abs_tol=1e-18, max_nodes=2000)
    # splitting toward the full 2*10^6-node budget ends within seconds
    assert run(["fourier", "--spec", "linear", "--n", "5", "--z", "1",
                "--tol", "1e-300", "--out", "g.csv"], tmp_path) == 4


def test_tolerance_must_be_finite_and_positive(tmp_path, capsys):
    # a tolerance that can never be met used to split panels for minutes
    for command, horizon in (("fourier", "--n"), ("transience", "--n-max")):
        for tol in ("0", "-1", "nan", "inf"):
            start = time.perf_counter()
            assert run([command, "--spec", "linear", horizon, "5", "--tol", tol,
                        "--out", "f.csv"], tmp_path) == 2
            assert time.perf_counter() - start < 1.0
            assert f"abs_tol must be finite and > 0, got {float(tol)}" in capsys.readouterr().err
            assert not (tmp_path / "f.csv").exists()


def test_integer_weights_beyond_int64_are_rejected(tmp_path, capsys):
    big = "99999999999999999999"
    for spec in (f"explicit:1,{big}", f"constant:{big}", f"constant:{2 ** 63}"):
        for command in (["dist"], ["hit"], ["simulate", "--seed", "1"], ["tomaszewski"],
                        ["fourier"]):
            start = time.perf_counter()
            assert run([*command, "--spec", spec, "--n", "2", "--out", "x.out"], tmp_path) == 2
            assert time.perf_counter() - start < 1.0
            weight = spec.rpartition(",")[2].rpartition(":")[2]
            assert f"integer weight {weight} does not fit in int64" in capsys.readouterr().err
    # the largest int64 weight is accepted; the cell budget then refuses the lattice
    assert run(["dist", "--spec", f"constant:{2 ** 63 - 1}", "--n", "1", "--out", "x.out"],
               tmp_path) == 3


def test_writers_keep_every_digit(tmp_path):
    limit = sys.get_int_max_str_digits()
    big = 7 * 10 ** 4999 + 3  # 5,000 digits, over the default limit of 4,300
    tiny = Fraction(1, 2 ** 15000)
    write_csv(str(tmp_path / "b.csv"), ["count", "prob"], [(big, tiny)])
    write_json(str(tmp_path / "b.json"), {"count": big, "prob": tiny})
    assert sys.get_int_max_str_digits() == limit  # the limit is left as it was
    digits = "7" + "0" * 4998 + "3"
    den_digits = str(Decimal(2 ** 15000))  # str() of the int itself would raise
    assert (tmp_path / "b.csv").read_text() == f"count,prob\n{digits},1/{den_digits}\n"
    payload = (tmp_path / "b.json").read_text()
    assert f'"count": {digits},' in payload
    assert f'"fraction": "1/{den_digits}"' in payload and '"float": 0.0' in payload


def test_csv_bytes_match_the_per_cell_writer(tmp_path):
    header = ["a", "b", "c", "d", "e"]
    rows = [(1, -2, 0.1, True, False),
            (7 * 10 ** 4999 + 3, Fraction(-3, 7), float("nan"), float("inf"), -0.0),
            (2 ** 64, 1e-300, "text", None, ""),
            (Fraction(1, 2 ** 15000), 5e-324, 1.5, 0, -1)]
    write_csv(str(tmp_path / "m.csv"), header, rows)
    assert (tmp_path / "m.csv").read_bytes() == legacy_csv_bytes(header, rows)


def test_numpy_scalars_are_written_as_python_values(tmp_path):
    assert fmt_cell(np.float64(0.5)) == fmt_cell(0.5) == "0.5"
    assert fmt_cell(np.float64(0.1)) == repr(0.1)
    assert fmt_cell(np.bool_(True)) == "true" and fmt_cell(np.bool_(False)) == "false"
    assert fmt_cell(np.int64(-7)) == "-7"
    write_csv(str(tmp_path / "np.csv"), ["x", "y", "z"],
              [(np.int64(3), np.float64(0.25), np.bool_(True))])
    write_csv(str(tmp_path / "py.csv"), ["x", "y", "z"], [(3, 0.25, True)])
    assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()


def test_pattern_writes_every_digit(tmp_path):
    # the counts of kappa = 18,000 have 4,397 digits
    assert run(["pattern", "--kappa-max", "18000", "--out", "p.csv"], tmp_path) == 0
    rows = (tmp_path / "p.csv").read_text().splitlines()
    assert rows[:4] == ["kappa,count,ratio", "1,2,", "2,4,2.0", "3,7,1.75"]
    last = [int(Decimal(r.split(",")[1])) for r in rows[-4:]]
    assert len(rows[-1].split(",")[1]) == 4397
    # a_k = 2 a_(k-1) - a_(k-2) + a_(k-3), from x^3 - 2x^2 + x - 1
    assert last[3] == 2 * last[2] - last[1] + last[0]


def test_hit_and_visits_outputs(tmp_path):
    assert run(["hit", "--spec", "linear", "--n", "4", "--band", "0",
                "--out", "h.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "h.json").read_text())
    assert payload["hit_probability"]["fraction"] == "3/8"
    assert payload["hit_probability"]["float"] == 0.375

    assert run(["visits", "--spec", "linear", "--n", "8", "--band", "0",
                "--out", "v.csv"], tmp_path) == 0
    rows = (tmp_path / "v.csv").read_text().splitlines()
    assert rows[0] == "n,prob,cumulative"
    assert rows[-1].startswith("8,") and rows[-1].endswith("0.4921875")


def test_fourier_and_sullivan_csv(tmp_path):
    assert run(["fourier", "--spec", "linear", "--n", "8", "--out", "f.csv"],
               tmp_path) == 0
    rows = (tmp_path / "f.csv").read_text().splitlines()
    assert rows[0] == "n,value,error,nodes"
    assert float(rows[1].split(",")[1]) == pytest.approx(14 / 256, abs=1e-10)

    assert run(["sullivan", "--beta", "0.5", "--n", "50,100,200", "--out", "s.csv"],
               tmp_path) == 0
    rows = (tmp_path / "s.csv").read_text().splitlines()
    assert rows[0] == "n,value,error,nodes" and len(rows) == 4


def test_sullivan_cli_acceptance_series(tmp_path):
    assert run(["sullivan", "--beta", "0.5", "--n", "250,500,1000,2000",
                "--out", "c.csv"], tmp_path) == 0
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    target = math.sqrt(16 * math.pi)
    gaps = [abs(v - target) for v in vals]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # trending toward 7.0898
    assert gaps[-1] / target <= 0.15


def test_transience_csv(tmp_path, capsys):
    assert run(["transience", "--spec", "linear", "--n-max", "40", "--z", "0",
                "--out", "t.csv"], tmp_path) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["summable_trend"] is True
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert len(rows) == 41


def test_simulate_and_experiments(tmp_path):
    assert run(["simulate", "--spec", "linear", "--n", "1000", "--seed", "5",
                "--bands", "0,3", "--out", "sim.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert payload["schema"] == "awalk-report/1"
    assert payload["path"]["steps"] == 1000

    assert run(["recurrence", "--spec", "linear", "--n", "1000", "--paths", "64",
                "--seed", "5", "--bands", "0", "--out", "rec.json"], tmp_path) == 0
    rep = json.loads((tmp_path / "rec.json").read_text())
    assert rep["schema"] == "awalk-report/1"
    csv_rows = (tmp_path / "rec.csv").read_text().splitlines()
    assert csv_rows[0] == "checkpoint,target,statistic,value"
    assert len(csv_rows) > 3

    assert run(["signs", "--spec", "linear", "--n", "1000", "--paths", "64",
                "--seed", "5", "--out", "sg.json"], tmp_path) == 0
    assert run(["growth", "--beta", "0.5", "--delta", "0.2", "--n", "1000",
                "--paths", "64", "--seed", "5", "--out", "gr.json"], tmp_path) == 0
    rep = json.loads((tmp_path / "gr.json").read_text())
    assert 0.0 <= rep["aggregates"]["fraction_maintaining"] <= 1.0


def test_seed_required_for_experiments(tmp_path):
    for args in (["simulate", "--spec", "linear", "--n", "10", "--out", "a.json"],
                 ["recurrence", "--spec", "linear", "--n", "10", "--paths", "2",
                  "--out", "b.json"],
                 ["signs", "--spec", "linear", "--n", "10", "--paths", "2",
                  "--out", "c.json"],
                 ["growth", "--beta", "0.5", "--delta", "0.2", "--n", "10",
                  "--paths", "2", "--out", "d.json"]):
        with pytest.raises(SystemExit) as exc:
            run(args, tmp_path)
        assert exc.value.code == 2


def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"defaults": {"seed": 17}, "simulate": {"n": 64}}))
    assert run(["simulate", "--spec", "linear", "--config", str(cfg),
                "--out", "s1.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "s1.json").read_text())
    assert payload["seed"] == 17 and payload["path"]["steps"] == 64
    # explicit flag overrides the config value
    assert run(["simulate", "--spec", "linear", "--config", str(cfg), "--n", "32",
                "--seed", "18", "--out", "s2.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "s2.json").read_text())
    assert payload["seed"] == 18 and payload["path"]["steps"] == 32
    # argparse takes --config abbreviated, with its value apart or after "="
    for out, flag in (("s3.json", ["--conf", str(cfg)]), ("s4.json", [f"--conf={cfg}"])):
        assert run(["simulate", "--spec", "linear", *flag, "--out", out], tmp_path) == 0
        payload = json.loads((tmp_path / out).read_text())
        assert payload["seed"] == 17 and payload["path"]["steps"] == 64


@pytest.mark.parametrize("config, named", [
    ([{"seed": 1}], "must hold a JSON object, got list"),
    ({"simulate": 5}, "key 'simulate' must map flags to values, got 5"),
    ({"defaults": [1]}, "key 'defaults' must map flags to values"),
    ({"defaults": {"n": "abc"}}, "key 'n': invalid literal for int()"),
    ({"simulate": {"bands": "0,x"}}, "key 'bands': could not convert string to float"),
    ({"simulate": {"bands": 5}}, "key 'bands': expected a string, got 5"),
    ({"defaults": {"n": 8.5}}, "key 'n': expected an integer or a string, got 8.5"),
    ({"defaults": {"seed": True}}, "key 'seed': expected an integer or a string, got true"),
    ({"simulate": {"zero-tol": [0]}}, "key 'zero-tol': expected a number or a string, got [0]"),
    ({"simulate": {"force": "yes"}}, "key 'force': expected true or false, got \"yes\""),
])
def test_bad_config_is_a_precondition_error(config, named, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--spec", "linear", "--n", "8", "--seed", "1",
                "--config", str(cfg), "--out", "s.json"], tmp_path) == 2
    err = capsys.readouterr().err
    assert f"config {str(cfg)!r}" in err and named in err
    assert not (tmp_path / "s.json").exists()


def test_tomaszewski_cli(tmp_path):
    assert run(["tomaszewski", "--spec", "explicit:1,2,3", "--n", "3",
                "--out", "tz.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "tz.json").read_text())
    assert payload["passed"] is True
    assert payload["probability"]["fraction"] == "1/2"


def test_tomaszewski_mc_rejects_non_positive_paths(tmp_path, capsys):
    for paths in ("0", "-5"):
        assert run(["tomaszewski", "--spec", "linear", "--n", "20", "--mode", "mc",
                    "--paths", paths, "--out", "tz.json"], tmp_path) == 2
        assert "paths must be >= 1" in capsys.readouterr().err


def test_band_commands_reject_non_finite_band(tmp_path, capsys):
    for command, out in (("hit", "h.json"), ("visits", "v.csv")):
        for band in ("inf", "nan", "-1"):
            assert run([command, "--spec", "linear", "--n", "10", "--band", band,
                        "--out", out], tmp_path) == 2
            assert f"band must be finite and >= 0, got {float(band)}" in capsys.readouterr().err
            assert not (tmp_path / out).exists()


def test_pattern_rejects_non_positive_kappa_max(tmp_path, capsys):
    for kappa_max in ("0", "-3"):
        assert run(["pattern", "--kappa-max", kappa_max, "--out", "p.csv"], tmp_path) == 2
        assert f"kappa must be >= 1, got {kappa_max}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()
    assert run(["pattern", "--kappa-max", "1", "--out", "p.csv"], tmp_path) == 0
    assert (tmp_path / "p.csv").read_text().splitlines() == ["kappa,count,ratio", "1,2,"]


def test_experiment_rejects_bad_checkpoints(tmp_path, capsys):
    for command in ("recurrence", "signs"):
        for cps in ("0,50", "50,200"):
            assert run([command, "--spec", "linear", "--n", "100", "--paths", "4",
                        "--seed", "1", "--checkpoints", cps, "--out", "x.json"],
                       tmp_path) == 2
            assert "checkpoints must lie in [1, 100]" in capsys.readouterr().err
    assert run(["recurrence", "--spec", "linear", "--n", "100", "--paths", "4", "--seed", "1",
                "--checkpoints", ",", "--out", "x.json"], tmp_path) == 2
    assert "at least one checkpoint" in capsys.readouterr().err
    assert run(["recurrence", "--spec", "logceil:2", "--n", "1", "--paths", "4", "--seed", "1",
                "--out", "x.json"], tmp_path) == 2
    assert "horizon must be >= 2" in capsys.readouterr().err
    # a single path keeps dropping the snapshots it cannot take
    assert run(["simulate", "--spec", "linear", "--n", "100", "--seed", "1",
                "--checkpoints", "0,50,200", "--out", "sim.json"], tmp_path) == 0
    path = json.loads((tmp_path / "sim.json").read_text())["path"]
    assert [c["at"] for c in path["checkpoints"]] == [50]


_PATH_COMMANDS = (["simulate"], ["recurrence", "--paths", "4"])


def test_path_commands_reject_duplicate_bands(tmp_path, capsys):
    for bands, twice in (("0,0", "0"), ("2,2", "2"), ("1,1.0", "1"), ("0,2.5,2.5", "2.5")):
        for command in _PATH_COMMANDS:
            assert run([*command, "--spec", "linear", "--n", "100", "--seed", "1",
                        "--bands", bands, "--out", "x.json"], tmp_path) == 2
            assert f"band {twice} is given twice" in capsys.readouterr().err
            assert not (tmp_path / "x.json").exists()


def test_path_commands_reject_bad_bands_and_zero_tol(tmp_path, capsys):
    for command in _PATH_COMMANDS:
        for value in ("inf", "nan", "-1"):
            for flag, name in (("--bands=0,", "band"), ("--zero-tol=", "zero_tol")):
                assert run([*command, "--spec", "linear", "--n", "100", "--seed", "1",
                            flag + value, "--out", "x.json"], tmp_path) == 2
                err = capsys.readouterr().err
                assert f"{name} must be finite and >= 0, got {float(value)}" in err
                assert not (tmp_path / "x.json").exists()


def test_verify_cli_pass_and_written_report(tmp_path):
    assert run(["verify", "--suite", "bc", "--out", "bc.json"], tmp_path) == 0
    payload = json.loads((tmp_path / "bc.json").read_text())
    assert payload["schema"] == "awalk-verify/1" and payload["passed"] is True


def test_verify_cli_inequalities_suite(tmp_path):
    assert run(["verify", "--suite", "inequalities", "--out", "ineq.json"],
               tmp_path) == 0
    payload = json.loads((tmp_path / "ineq.json").read_text())
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    names = {c["name"] for c in payload["checks"]}
    assert "azuma-exact-tail-bound" in names and len(names) == 6


def test_help_golden_files(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    parser, subs = build_parser()
    assert parser.format_help() == (GOLDEN / "help_main.txt").read_text()
    for name, sub in subs.items():
        assert sub.format_help() == (GOLDEN / f"help_{name}.txt").read_text(), name


def test_help_documents_every_flag(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    _, subs = build_parser()
    for name, sub in subs.items():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in text, (name, opt)
            assert action.help, (name, action.dest)  # every flag has help text


@pytest.mark.parametrize("module", ["exact", "fourier", "montecarlo", "reports", "sequences",
                                    "verify"])
def test_every_exported_name_exists(module):
    # a stale __all__ entry breaks `from awalk.<module> import *`
    mod = importlib.import_module(f"awalk.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# exact.dominance_check has no caller in the package, but the benchmark's
# traced runs wrap it by attribute, so it stays exported.
UNCALLED_EXPORTS = {"dominance_check"}


def _references(node) -> list[str]:
    """Names and attributes read, and names imported, within node."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name)
    return out


@pytest.mark.parametrize("module", ["exact", "fourier", "montecarlo", "reports", "sequences",
                                    "verify"])
def test_every_exported_name_has_a_caller(module):
    # an exported name, or any module-level function or class, private ones
    # included, that only the tests reach is code nothing needs: each must
    # be referenced somewhere in the package outside its own definition
    # (strings, docstrings and __all__ do not count)
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(awalk.__file__).parent.glob("*.py")}
    refs = [r for tree in trees.values() for r in _references(tree)]
    definitions = {node.name: node for node in trees[module].body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = []
    for name in sorted(set(definitions) | set(importlib.import_module(f"awalk.{module}").__all__)):
        inside = _references(definitions[name]) if name in definitions else []
        if refs.count(name) == inside.count(name) and name not in UNCALLED_EXPORTS:
            unused.append(name)
    assert unused == []
