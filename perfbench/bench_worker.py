"""One benchmark process: imports orbitkit fresh, warms up, then either
reports its set-up time alone (``--mode setup``) or runs the timed closed
loop (``--mode run``): one client, each op starting only after the previous
one has finished, on whole passes of the plan.

``setup_s`` runs from just before ``import orbitkit`` to the start of the
first timed op, warm-up included; reading the plan comes before it.  Untraced
runs sample the host's speed throughout (see bench_speed) and report each
time both as measured, less the sampler's own time, and scaled to a fixed
host speed.

Usage (from the root of a checkout, normally started by run.py):
    python3 perfbench/bench_worker.py --plan PLAN --mode run --seconds 30 \
        --trace 0 --result OUT.json [--spans SPANS.bin]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import bench_check
import bench_speed
from bench_trace import Tracer

CLI_WORKLOADS = ("orbit-rank4", "cech-h", "cech-chern")
MAX_FAILURES_SHOWN = 5


def _cli(argv: list[str]) -> tuple[int, str]:
    import orbitkit.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = orbitkit.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def survey_op(case: dict) -> dict:
    from orbitkit import pipeline, quantize, rootsys

    if case["lattice"] == "sc":
        lattice = quantize.LatticeSpec(quantize.SIMPLY_CONNECTED)
    elif case["lattice"] == "adjoint":
        lattice = quantize.LatticeSpec(quantize.ADJOINT)
    else:
        rs = rootsys.build_root_system(rootsys.parse_series(case["series"]))
        lattice = quantize.custom_lattice(case["generators"], rs)
    return pipeline.analyze_orbit(case["series"], case["lam"], lattice).to_json_dict()


def rank4_op(case: dict) -> tuple[int, str]:
    flag = case["lattice"]
    if flag == "custom":
        flag = "custom:" + case["lattice_file"]
    # "--lambda=" form: a value that starts with "-" must not parse as an option
    return _cli(["orbit", "--series", case["series"], "--lambda=" + ",".join(case["lam"]),
                 "--lattice", flag, "--output", "json"])


def cech_h_op(case: dict) -> tuple[int, str]:
    return _cli(["cech", "h", "--nerve", case["nerve"], "--k", str(case["k"]),
                 "--ring", case["ring"], "--output", "json"])


def chern_op(case: dict) -> tuple[int, str]:
    return _cli(["cech", "chern", "--nerve", case["nerve"], "--cocycle", case["cocycle"],
                 "--output", "json"])


OPS = {
    "orbit-survey": (survey_op, bench_check.check_orbit_report),
    "orbit-rank4": (rank4_op, lambda case, out: bench_check.check_orbit_cli(case, *out)),
    "cech-h": (cech_h_op, lambda case, out: bench_check.check_cech_h(case, *out)),
    "cech-chern": (chern_op, lambda case, out: bench_check.check_chern(case, *out)),
}


class Loop:
    """Closed-loop runner: times ops, checks every output outside the op's
    time, and keeps the failure tally."""

    def __init__(self, workload: str, passes: list[list[dict]]):
        self.op, self.check = OPS[workload]
        self.cli = workload in CLI_WORKLOADS
        self.passes = passes
        self.next_pass = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = Tracer()
        self.tracing = False

    def run_case(self, case: dict) -> tuple[float, float]:
        """Run and check one op; return the times it started and ended."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracing:
                out = self.tracer.op(self.op, case)
            else:
                out = self.op(case)
        except Exception as exc:  # any exception from the program is a failed op
            t1 = time.perf_counter()
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            t1 = time.perf_counter()
            problems = self.check(case, out)
            if self.tracing and self.cli:
                self.tracer.counters["cli.stdout_bytes"] += len(out[1].encode())
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"{json.dumps(case)[:300]}: {problems[:3]}")
        return t0, t1

    def run_pass(self) -> tuple[list[tuple[float, float]], float]:
        """Run the next pass; return each op's start and end times and the
        pass's wall time without the checker."""
        # plans hold more passes than a run is expected to use; if a host
        # is fast enough to run out, passes are reused from the start
        cases = self.passes[self.next_pass % len(self.passes)]
        self.next_pass += 1
        spans = []
        checking = 0.0
        start = time.perf_counter()
        for case in cases:
            t0 = time.perf_counter()
            spans.append(self.run_case(case))
            checking += time.perf_counter() - t0 - (spans[-1][1] - spans[-1][0])
        return spans, time.perf_counter() - start - checking

    def run_traced_pass(self) -> tuple[list[tuple[float, float]], float]:
        self.tracer.install()
        self.tracing = True
        try:
            return self.run_pass()
        finally:
            self.tracing = False
            self.tracer.restore()


def until(deadline: float, step) -> list:
    """Call step() while the next call is expected to end before the
    deadline, at least once; return the results."""
    results = []
    spent = 0.0
    while not results or time.perf_counter() + spent / len(results) <= deadline:
        t0 = time.perf_counter()
        results.append(step())
        spent += time.perf_counter() - t0
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    loop = Loop(plan["workload"], plan["passes"])

    sampler = None if args.trace else bench_speed.SpeedSampler()
    if sampler:
        sampler.start()
    t_setup = time.perf_counter()
    import orbitkit

    if loop.cli:
        import orbitkit.cli  # noqa: F401
    if not os.path.abspath(orbitkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"orbitkit imported from {orbitkit.__file__}, not from {src}")
    loop.run_case(plan["warmup"])
    setup = (t_setup, time.perf_counter())
    result = {"setup_s": setup[1] - setup[0]}

    if args.mode == "run" and args.trace:
        deadline = time.perf_counter() + args.seconds
        # untraced and traced passes alternate, so that drift in host
        # speed falls on both sides of the overhead ratio alike
        pairs = until(deadline, lambda: (loop.run_pass(), loop.run_traced_pass()))
        per_layer = loop.tracer.per_op_metrics()
        plain_s = sum(plain[1] for plain, _ in pairs)
        traced_s = sum(traced[1] for _, traced in pairs)
        per_layer["trace.overhead_ratio"] = traced_s / plain_s - 1
        if args.spans:
            loop.tracer.write_spans(args.spans)
        result["per_layer"] = per_layer
        result["ops"] = sum(len(traced[0]) for _, traced in pairs)
        result["passes"] = len(pairs)
    elif args.mode == "run":
        deadline = time.perf_counter() + args.seconds
        passes = until(deadline, loop.run_pass)
        spans = [span for pass_spans, _ in passes for span in pass_spans]
        result.update({
            "op_s": [t1 - t0 - sampler.own_s(t0, t1) for t0, t1 in spans],
            "scaled_op_s": [sampler.scaled(t0, t1) for t0, t1 in spans],
            "passes": len(passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    elif sampler:
        # the host speed for the set-up is taken over a window that reaches
        # past its end
        while time.perf_counter() < setup[1] + bench_speed.WINDOW_S:
            pass
    if sampler:
        sampler.stop()
        result["setup_s"] -= sampler.own_s(*setup)
        result["scaled_setup_s"] = sampler.scaled(*setup)
        result["kernel_s"] = statistics.median(sampler.durations)
        result["samples"] = len(sampler.durations)
    result.update(attempted=loop.attempted, failed=loop.failed, failures=loop.failures)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
