#!/usr/bin/env python3
"""Record one BENCH_<short-sha>.json for the checkout it runs in.

It runs perfbench/run.py on every workload at seeds 1 and 2, each run as
long as BENCHMARK.json's run_seconds, and times the CLI on a fixed size
ladder:

* regular `orbit` reports at B22, A31, D22 and C22, and the lambda = 0
  D22 report on the adjoint lattice, where every root is singular;
* `cech h --k 0`, `cech h --k 1` and `cech chern` on examples/torus32.*,
  and on 64 x 64, 128 x 128 and 256 x 256 tori that
  scripts/torus_example.py writes into a temp dir, and `cech chern` on the
  256 x 256 Klein bottle it writes there with --klein;
* `audit` of su(3) and su(5) at the first fundamental weight, the numeric
  oracle's cross-check.

Each CLI command runs REPEATS times in a fresh process; the file keeps every
wall time, the child's peak RSS (from os.wait4, so it is that child's
alone), the exit code and a digest of stdout, which lets two BENCH files
confirm that two commits print the same bytes.

At the root cap a CLI row is mostly process start-up, so the same five
orbit cases are also timed in process: one child builds the root system
and runs analyze_orbit INPROCESS_REPEATS times, and after each report
writes its JSON text, cli.canonical_json(report.to_json_dict()), timed
apart.  The row keeps every time of each part and each part's minimum.
The CLI's parser layer is timed in process as well: for one valid argv of
each command in PARSE_CASES, one child runs cli.build_parser().parse_args
in INPROCESS_REPEATS batches of PARSE_BATCH calls, and the row keeps each
batch's time per call and their minimum.

Like the benchmark, every child runs without bytecode of the checkout's
sources: the script deletes the __pycache__ directories under src/ and
perfbench/ and sets PYTHONDONTWRITEBYTECODE.

Rows hold raw wall times, with no correction for the host's speed: a
reading of the host's speed taken in this process did not follow the speed
of the busy child.  Compare two commits by recording their files in
alternating runs on one host.

Usage, from the root of an orbitkit checkout:
    python3 scripts/bench_record.py [--out-dir .]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SEEDS = (1, 2)
WORKLOADS = ("orbit-survey", "orbit-rank4", "cech-h", "cech-chern")
REPEATS = 3
TORUS_SIZES = (64, 128, 256)
KLEIN_SIZE = 256
AUDIT_SIZES = (3, 5)
INPROCESS_REPEATS = 7
# (name, series, lambda, lattice) at the root cap, timed in process and by the CLI
CAP_CASES = (
    ("B22 regular", "B22", ",".join(map(str, range(22, 0, -1))), "sc"),
    ("A31 regular", "A31", ",".join(map(str, range(31, -1, -1))), "sc"),
    ("D22 regular", "D22", ",".join(map(str, range(22, 0, -1))), "sc"),
    ("C22 regular", "C22", ",".join(map(str, range(22, 0, -1))), "sc"),
    ("D22 zero adjoint", "D22", ",".join(["0"] * 22), "adjoint"),
)
# one valid argv of each command, parsed in process; the files need not exist
PARSE_CASES = (
    ("parse orbit", ["orbit", "--series", "A2", "--lambda", "1,0,-1"]),
    ("parse cech h", ["cech", "h", "--nerve", "n", "--k", "1"]),
    ("parse cech chern", ["cech", "chern", "--nerve", "n", "--cocycle", "c"]),
    ("parse audit", ["audit", "--n", "3"]),
)
PARSE_BATCH = 200
# build plus report, then its JSON text, timed apart on each repeat;
# argv: series, lambda, lattice, repeats
INPROCESS_PROBE = """
import json, sys, time
from fractions import Fraction
from orbitkit import LatticeSpec, analyze_orbit, build_root_system, cli, parse_series
from orbitkit.quantize import ADJOINT, SIMPLY_CONNECTED
series, lam, flag, repeats = sys.argv[1:]
lam = [Fraction(x) for x in lam.split(",")]
kind = {"sc": SIMPLY_CONNECTED, "adjoint": ADJOINT}[flag]
walls, emits = [], []
for _ in range(int(repeats)):
    t0 = time.perf_counter()
    report = analyze_orbit(build_root_system(parse_series(series)), lam, LatticeSpec(kind))
    t1 = time.perf_counter()
    cli.canonical_json(report.to_json_dict())
    emits.append(time.perf_counter() - t1)
    walls.append(t1 - t0)
print(json.dumps([walls, emits]))
"""
# time per cli.build_parser().parse_args(argv) of each batch;
# argv: repeats, batch, then the parsed argv
PARSE_PROBE = """
import json, sys, time
from orbitkit import cli
repeats, batch, *argv = sys.argv[1:]
runs = []
for _ in range(int(repeats)):
    t0 = time.perf_counter()
    for _ in range(int(batch)):
        cli.build_parser().parse_args(argv)
    runs.append((time.perf_counter() - t0) / int(batch))
print(json.dumps(runs))
"""


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_perfbench(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, check=True,
    )
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {"workload": workload, "seed": seed, **info, "result": result}


def time_cli(argv: list[str], env: dict) -> dict:
    """Wall time, peak RSS, exit code and stdout digest of one CLI process."""
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "orbitkit.cli", *argv], env=env,
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        data = out.read()
    return {
        "wall_s": wall,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
        "stdout_bytes": len(data),
        "stdout_sha256": hashlib.sha256(data).hexdigest(),
    }


def cli_row(name: str, argv: list[str], env: dict, tmp: str) -> dict:
    """REPEATS runs of one CLI command."""
    runs = [time_cli(argv, env) for _ in range(REPEATS)]
    return {
        "name": name,
        "argv": [a.replace(tmp, "<tmp>") for a in argv],
        "wall_s_median": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mib_max": max(r["peak_rss_mib"] for r in runs),
        "runs": runs,
    }


def inprocess_row(name: str, series: str, lam: str, lattice: str, env: dict) -> dict:
    """INPROCESS_REPEATS in-process builds plus reports of one case, in one
    child, each followed by the report's canonical JSON, timed apart."""
    done = subprocess.run(
        [sys.executable, "-c", INPROCESS_PROBE, series, lam, lattice, str(INPROCESS_REPEATS)],
        env=env, capture_output=True, text=True, check=True,
    )
    walls, emits = json.loads(done.stdout)
    return {"name": name, "series": series, "lambda": lam, "lattice": lattice,
            "build_report_s_min": min(walls), "runs_s": walls,
            "emit_s_min": min(emits), "emit_runs_s": emits}


def parse_row(name: str, argv: list[str], env: dict) -> dict:
    """INPROCESS_REPEATS batches of PARSE_BATCH parses of argv by a newly
    built CLI parser, in one child; each run is a batch's time per parse."""
    done = subprocess.run(
        [sys.executable, "-c", PARSE_PROBE, str(INPROCESS_REPEATS), str(PARSE_BATCH), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    runs = json.loads(done.stdout)
    return {"name": name, "argv": argv, "parse_s_min": min(runs), "runs_s": runs}


def chern_argv(prefix: str) -> list[str]:
    return ["cech", "chern", "--nerve", prefix + ".nerve", "--cocycle", prefix + ".cochain",
            "--output", "json"]


def cli_ladder(tmp: str) -> list[tuple[str, list[str]]]:
    ladder = [
        (f"orbit {name}", ["orbit", "--series", series, "--lambda=" + lam, "--lattice", lattice,
                           "--output", "json"])
        for name, series, lam, lattice in CAP_CASES
    ]
    tori = [("torus32", os.path.join("examples", "torus32"))]
    for n in TORUS_SIZES:
        prefix = os.path.join(tmp, f"torus{n}")
        subprocess.run([sys.executable, os.path.join("scripts", "torus_example.py"),
                        "--n", str(n), "--seed", str(n), "--out", prefix], check=True)
        tori.append((f"torus{n}", prefix))
    for name, prefix in tori:
        for k in ("0", "1"):
            ladder.append((f"cech h --k {k} {name}",
                           ["cech", "h", "--nerve", prefix + ".nerve", "--k", k,
                            "--output", "json"]))
        ladder.append((f"cech chern {name}", chern_argv(prefix)))
    prefix = os.path.join(tmp, f"klein{KLEIN_SIZE}")
    subprocess.run([sys.executable, os.path.join("scripts", "torus_example.py"), "--klein",
                    "--n", str(KLEIN_SIZE), "--seed", str(KLEIN_SIZE), "--out", prefix],
                   check=True)
    ladder.append((f"cech chern klein{KLEIN_SIZE}", chern_argv(prefix)))
    ladder += [(f"audit --n {n}", ["audit", "--n", str(n), "--output", "json"])
               for n in AUDIT_SIZES]
    return ladder


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "orbitkit", "__init__.py")):
        sys.stderr.write("bench_record.py: run from the root of an orbitkit checkout\n")
        return 2

    # the benchmark runs in a checkout without bytecode: left in place, the
    # bytecode of the checkout's own sources about halves setup_s
    for top in ("src", "perfbench"):
        for root, dirs, _ in os.walk(top):
            if "__pycache__" in dirs:
                dirs.remove("__pycache__")
                shutil.rmtree(os.path.join(root, "__pycache__"))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    sha = git("rev-parse", "--short", "HEAD")
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {
        "git_sha": sha,
        # true when src/ differs from the commit the file is named after
        "src_dirty": bool(git("status", "--porcelain", "src")),
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "machine": platform.machine()},
        "perfbench": [run_perfbench(w, s, seconds) for w in WORKLOADS for s in SEEDS],
        "cli": [],
    }
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        for name, cli_argv in cli_ladder(tmp):
            record["cli"].append(cli_row(name, cli_argv, env, tmp))
    record["inprocess"] = [inprocess_row(*case, env) for case in CAP_CASES]
    record["inprocess"] += [parse_row(*case, env) for case in PARSE_CASES]
    path = os.path.join(args.out_dir, f"BENCH_{sha}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
