"""Tests of the benchmark itself: deterministic inputs, a checker that
catches corrupted outputs, and a tracer that leaves orbitkit as it found it.

Run with:  PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_check  # noqa: E402
import bench_gen  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402


def _snapshot(out_dir: str) -> dict[str, bytes]:
    """Every generated file by name, with the directory itself masked out."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read().replace(out_dir.encode(), b"<dir>")
    return files


@pytest.mark.parametrize("workload", bench_gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    dirs = [str(tmp_path / name) for name in ("a", "b", "c")]
    for d in dirs:
        os.makedirs(d)
    bench_gen.generate(workload, 7, 2, dirs[0])
    bench_gen.generate(workload, 7, 2, dirs[1])
    bench_gen.generate(workload, 8, 2, dirs[2])
    assert _snapshot(dirs[0]) == _snapshot(dirs[1])
    assert _snapshot(dirs[0]) != _snapshot(dirs[2])


def _plan(workload: str, tmp_path) -> dict:
    return bench_gen.generate(workload, 3, 1, str(tmp_path))


def test_checker_rejects_altered_weyl_orbit_size(tmp_path):
    case = next(c for c in _plan("orbit-survey", tmp_path)["passes"][0]
                if c["series"] == "B2xT1" and c["lam_kind"] == "regular")
    payload = bench_worker.survey_op(case)
    assert bench_check.check_orbit_report(case, payload) == []
    bad = copy.deepcopy(payload)
    bad["weyl_orbit_size"] += 1
    assert bench_check.check_orbit_report(case, bad) != []


def _cech_h_case(tmp_path, space: str, k: int) -> dict:
    return bench_gen._cech_h_case(
        bench_gen.random.Random(0), bench_gen._Files(str(tmp_path)), space, 4, k, "z"
    )


def test_checker_rejects_dropped_torsion_factor(tmp_path):
    case = _cech_h_case(tmp_path, "klein", 2)
    code, stdout = bench_worker.cech_h_op(case)
    assert bench_check.check_cech_h(case, code, stdout) == []
    payload = json.loads(stdout)
    assert payload["torsion"] == [2]
    payload["torsion"] = []
    assert bench_check.check_cech_h(case, code, json.dumps(payload)) != []


def test_checker_rejects_wrong_free_rank(tmp_path):
    case = _cech_h_case(tmp_path, "torus", 1)
    code, stdout = bench_worker.cech_h_op(case)
    assert bench_check.check_cech_h(case, code, stdout) == []
    payload = json.loads(stdout)
    payload["free_rank"] -= 1
    assert bench_check.check_cech_h(case, code, json.dumps(payload)) != []


def test_checker_rejects_wrong_chern_torsion(tmp_path):
    plan = bench_gen.generate("cech-chern", 5, 1, str(tmp_path))
    case = next(c for c in plan["passes"][0] if c["space"] == "klein")
    code, stdout = bench_worker.chern_op(case)
    assert bench_check.check_chern(case, code, stdout) == []
    payload = json.loads(stdout)
    payload["torsion_coords"] = [[1 - case["m"] % 2, 2]]
    assert bench_check.check_chern(case, code, json.dumps(payload)) != []


def test_trace_restores_every_wrapped_global(tmp_path):
    plan = _plan("orbit-rank4", tmp_path)
    tracer = bench_trace.Tracer()
    tracer.install()
    bound = tracer.bound
    try:
        code, _ = tracer.op(bench_worker.rank4_op, plan["warmup"])
    finally:
        tracer.restore()
    assert code == 0
    rebound = {(m.__name__, attr) for m, attr, _ in bound}
    # names imported under another module's name are wrapped too
    assert ("orbitkit.pipeline", "generate_weyl_group") in rebound
    assert ("orbitkit.cech", "rational_rank") in rebound
    assert ("orbitkit.quantize", "singular_roots") in rebound
    for module, attr, original in bound:
        assert getattr(module, attr) is original
    metrics = tracer.per_op_metrics()
    assert metrics["pipeline.analyze_orbit.calls"] == 1
    assert metrics["cli.main.calls"] == 1


def test_speed_sampler_scales_by_the_kernel_time_around_an_op():
    assert bench_speed.kernel() == (4, 24)
    assert "orbitkit" not in vars(bench_speed)
    sampler = bench_speed.SpeedSampler()
    # a host half as fast as the reference: the kernel takes 2 * REF_S,
    # sampled every 10 ms
    for i in range(101):
        sampler.starts.append(i * 0.01)
        sampler.durations.append(2 * bench_speed.REF_S)
    own = 10 * 2 * bench_speed.REF_S  # samples at 0.31 .. 0.40 fall inside
    assert sampler.own_s(0.305, 0.405) == pytest.approx(own)
    assert sampler.scaled(0.305, 0.405) == pytest.approx((0.1 - own) / 2)


def test_speed_sampler_runs_while_started():
    sampler = bench_speed.SpeedSampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.durations) >= bench_speed.MIN_SAMPLES
    assert bench_speed.signal.getsignal(bench_speed.signal.SIGALRM) == bench_speed.signal.SIG_DFL


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tracer = bench_trace.Tracer()
    tracer.op(lambda: None)
    traced = list(tracer.per_op_metrics()) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(traced)
    assert len(spec["per_layer"]) == len(traced)
