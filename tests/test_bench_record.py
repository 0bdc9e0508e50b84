"""scripts/bench_record.py's CLI rows, checked without running the benchmark
or the CLI ladder."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


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
    assert bench_record.main(["--out-dir", str(tmp_path)]) == 0
    assert not list(tmp_path.rglob("__pycache__"))
    assert bench_record.os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
