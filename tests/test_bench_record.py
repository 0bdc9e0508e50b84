"""scripts/bench_record.py's host-speed reading, checked without running
the benchmark or the CLI ladder."""

import importlib.util
import signal
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_row_keeps_the_samplers_reading_over_its_runs(bench_record, monkeypatch):
    runs, readings = [], []

    def fake_run(argv, env):
        t0 = time.perf_counter()
        time.sleep(0.03)  # SIGALRM samples the kernel during the sleep
        runs.append((t0, time.perf_counter()))
        return {"wall_s": 0.03, "peak_rss_mib": 1.0}

    class Sampler(bench_record.bench_speed.SpeedSampler):
        def kernel_s(self, t0, t1):
            readings.append((t0, t1, len(self.starts), super().kernel_s(t0, t1)))
            return readings[-1][-1]

    monkeypatch.setattr(bench_record, "time_cli", fake_run)
    monkeypatch.setattr(bench_record.bench_speed, "SpeedSampler", Sampler)
    row = bench_record.cli_row("x", ["cech", "<dir>/a"], {}, "<dir>")
    assert row["argv"] == ["cech", "<tmp>/a"]
    assert len(runs) == bench_record.REPEATS == len(row["runs"])
    [(t0, t1, samples, kernel_s)] = readings
    assert t0 <= runs[0][0] and runs[-1][1] <= t1
    assert samples >= bench_record.bench_speed.MIN_SAMPLES
    assert row["host_kernel_s"] == kernel_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
