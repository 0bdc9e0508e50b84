"""scripts/bench_record.py's CLI and in-process rows, checked without running
the benchmark or the CLI ladder; one in-process row runs, on B2, and times
the report's JSON text too, and one parser row runs, on `cech h`."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_row_keeps_every_run_and_masks_the_temp_dir(bench_record, monkeypatch):
    runs = []

    def fake_run(argv, env):
        runs.append(argv)
        return {"wall_s": 0.01 * len(runs), "peak_rss_mib": float(len(runs))}

    monkeypatch.setattr(bench_record, "time_cli", fake_run)
    row = bench_record.cli_row("x", ["cech", "<dir>/a"], {}, "<dir>")
    assert row["argv"] == ["cech", "<tmp>/a"]
    assert len(runs) == bench_record.REPEATS == len(row["runs"])
    assert row["wall_s_median"] == 0.02
    assert row["peak_rss_mib_max"] == 3.0
    assert set(row) == {"name", "argv", "wall_s_median", "peak_rss_mib_max", "runs"}


def test_the_ladder_times_both_cech_commands_up_to_the_256_torus(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *args, **kwargs: None)
    names = [name for name, _ in bench_record.cli_ladder("<dir>")]
    for n in (32, 64, 128, 256):
        for command in ("cech h --k 0", "cech h --k 1", "cech chern"):
            assert f"{command} torus{n}" in names


def test_the_ladder_times_cech_chern_on_the_256_klein_bottle(bench_record, monkeypatch):
    written = []
    monkeypatch.setattr(bench_record.subprocess, "run", lambda argv, **kwargs: written.append(argv))
    ladder = dict(bench_record.cli_ladder("<dir>"))
    prefix = os.path.join("<dir>", "klein256")
    assert ladder["cech chern klein256"] == [
        "cech", "chern", "--nerve", prefix + ".nerve", "--cocycle", prefix + ".cochain",
        "--output", "json"]
    assert written[-1][1:] == [os.path.join("scripts", "torus_example.py"), "--klein", "--n",
                               "256", "--seed", "256", "--out", prefix]
    assert [name for name in ladder if "klein" in name] == ["cech chern klein256"]


def test_the_ladder_times_the_cap_reports_and_the_zero_d22_adjoint_one(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *args, **kwargs: None)
    ladder = dict(bench_record.cli_ladder("<dir>"))
    for series in ("B22", "A31", "D22", "C22"):
        assert ladder[f"orbit {series} regular"][-4:] == ["--lattice", "sc", "--output", "json"]
    assert ladder["orbit D22 zero adjoint"] == [
        "orbit", "--series", "D22", "--lambda=" + ",".join(["0"] * 22), "--lattice", "adjoint",
        "--output", "json"]


def test_the_ladder_times_the_su3_and_su5_audits(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *args, **kwargs: None)
    ladder = dict(bench_record.cli_ladder("<dir>"))
    for n in ("3", "5"):
        assert ladder[f"audit --n {n}"] == ["audit", "--n", n, "--output", "json"]
    assert [name for name in ladder if name.startswith("audit")] == ["audit --n 3", "audit --n 5"]


def test_an_inprocess_row_times_build_and_report_in_a_child(bench_record):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    row = bench_record.inprocess_row("B2 zero adjoint", "B2", "0,0", "adjoint", env)
    assert set(row) == {"name", "series", "lambda", "lattice", "build_report_s_min", "runs_s",
                        "emit_s_min", "emit_runs_s"}
    for runs, least in (("runs_s", "build_report_s_min"), ("emit_runs_s", "emit_s_min")):
        assert len(row[runs]) == bench_record.INPROCESS_REPEATS
        assert row[least] == min(row[runs]) > 0
    names = [case[0] for case in bench_record.CAP_CASES]
    assert names == ["B22 regular", "A31 regular", "D22 regular", "C22 regular",
                     "D22 zero adjoint"]


def test_a_parse_row_times_the_cli_parser_in_a_child(bench_record):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    name, argv = bench_record.PARSE_CASES[1]
    row = bench_record.parse_row(name, argv, env)
    assert set(row) == {"name", "argv", "parse_s_min", "runs_s"}
    assert row["argv"] == ["cech", "h", "--nerve", "n", "--k", "1"]
    assert len(row["runs_s"]) == bench_record.INPROCESS_REPEATS
    assert row["parse_s_min"] == min(row["runs_s"]) > 0
    assert [case[0] for case in bench_record.PARSE_CASES] == [
        "parse orbit", "parse cech h", "parse cech chern", "parse audit"]


def test_the_record_runs_without_bytecode_of_the_checkout(bench_record, monkeypatch, tmp_path):
    for top in ("src/orbitkit", "perfbench"):
        (tmp_path / top / "__pycache__").mkdir(parents=True)
        (tmp_path / top / "__pycache__" / "x.pyc").write_bytes(b"")
    (tmp_path / "src" / "orbitkit" / "__init__.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")  # restored after the test
    monkeypatch.setattr(bench_record, "git", lambda *args: "")
    monkeypatch.setattr(bench_record, "run_perfbench", lambda *args: {})
    monkeypatch.setattr(bench_record, "cli_ladder", lambda tmp: [])
    monkeypatch.setattr(bench_record, "inprocess_row", lambda name, *args: {"name": name})
    monkeypatch.setattr(bench_record, "parse_row", lambda name, *args: {"name": name})
    assert bench_record.main(["--out-dir", str(tmp_path)]) == 0
    assert not list(tmp_path.rglob("__pycache__"))
    assert bench_record.os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    record = json.loads((tmp_path / "BENCH_.json").read_text())
    assert [row["name"] for row in record["inprocess"]] == [
        case[0] for case in bench_record.CAP_CASES + bench_record.PARSE_CASES]
