"""orbitkit benchmark: seeded workloads, end-to-end metrics, layer trace.

Run from the root of a checkout:
    python3 perfbench/run.py --workload orbit-survey --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): orbit-survey,
orbit-rank4, cech-h, cech-chern.  Inputs are generated from the seed into a
scratch directory under .perfbench/ before anything is timed.

--trace 0: SETUP_SAMPLES fresh processes each import orbitkit and warm up;
the last of them also runs the timed closed loop on whole passes of the
workload's mix.  Prints ops_per_s, op_s.p50 and op_s.p90 (Harrell-Davis
estimates over every timed op), setup_s (median over the processes) and
peak_rss_mib.  Every time is scaled to a fixed host speed by the host-speed
sampler of bench_speed, which runs while ops and set-ups are timed; the
unscaled wall-clock figures are in the provenance line.
--trace 1: one fresh process alternates untraced passes with passes in
which every traced orbitkit function is wrapped from outside; prints per-op
span calls, self times, layer totals, size counters and the tracing
overhead.  The spans are written to .perfbench/spans-<workload>.bin.

The last stdout line is the result object; the line before it records the
run's provenance (source revision, Python, CPUs, seed, op counts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import bench_gen

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30
# shortest pass expected on a fast host; sizes how many passes to generate
MIN_PASS_S = {"orbit-survey": 0.4, "orbit-rank4": 2.0, "cech-h": 2.0, "cech-chern": 2.0}
END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_units(names) -> dict[str, str]:
    units = {}
    for name in names:
        if name.endswith(".calls") or name in ("cech.eliminations", "weyl.elements", "weyl.orbit_points"):
            units[name] = "count"
        elif name.endswith(".cells"):
            units[name] = "cells"
        elif name.endswith("_bytes"):
            units[name] = "B"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "s"
    return units


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump
    when the ops around rank p*n switch between two op kinds of unequal
    cost, which a mix of kinds in fixed shares makes common."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def source_revision() -> dict:
    """Git SHA when the checkout has a .git directory, and a digest of the
    package sources either way."""
    sha = None
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join("src", "orbitkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(plan_path: str, mode: str, out_path: str, seconds: float, trace: int,
               timeout: float, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "bench_worker.py"), "--plan", plan_path,
           "--mode", mode, "--seconds", str(seconds), "--trace", str(trace),
           "--result", out_path]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, timeout=timeout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench_gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "orbitkit", "__init__.py")):
        sys.stderr.write("run.py: src/orbitkit not found; run from the root of an orbitkit checkout\n")
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        passes = math.ceil(args.seconds / MIN_PASS_S[args.workload]) + 1
        bench_gen.generate(args.workload, args.seed, passes, tmp)
        plan = os.path.join(tmp, "plan.json")
        run_timeout = 2 * args.seconds + 60
        if args.trace:
            spans = os.path.join(WORK_DIR, f"spans-{args.workload}.bin")
            run = run_worker(plan, "run", os.path.join(tmp, "run.json"), args.seconds, 1,
                             run_timeout, spans)
        else:
            setups = [
                run_worker(plan, "setup", os.path.join(tmp, f"setup{i}.json"), 0, 0,
                           SETUP_TIMEOUT_S)
                for i in range(SETUP_SAMPLES - 1)
            ]
            run = run_worker(plan, "run", os.path.join(tmp, "run.json"), args.seconds, 0,
                             run_timeout)
            setups.append(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values = run["per_layer"]
        units = per_layer_units(values)
    else:
        lat = run["scaled_op_s"]
        run["ops"] = len(lat)
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "op_s.p50": hd_quantile(lat, 0.5),
            "op_s.p90": hd_quantile(lat, 0.9),
            "setup_s": statistics.median(w["scaled_setup_s"] for w in setups),
            "peak_rss_mib": run["peak_rss_mib"],
        }
        units = END_TO_END
    info = {
        **source_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": run["ops"],
        "timed_passes": run["passes"],
        "failed_ratio": run["failed"] / run["attempted"],
        "failures": run["failures"],
    }
    if args.trace:
        info["setup_s_unscaled"] = run["setup_s"]
    else:
        raw = run["op_s"]
        info.update({
            "samples_beyond_p90": sum(1 for x in lat if x > values["op_s.p90"]),
            "speed_samples": run["samples"],
            "kernel_s_median": run["kernel_s"],
            "unscaled": {
                "ops_per_s": len(raw) / sum(raw),
                "op_s.p50": hd_quantile(raw, 0.5),
                "op_s.p90": hd_quantile(raw, 0.9),
                "setup_samples": [w["setup_s"] for w in setups],
            },
        })
    print(json.dumps({"run_info": info}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
