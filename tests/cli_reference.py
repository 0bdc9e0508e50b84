"""Reference argparse parser: `orbitkit.cli.build_parser` as it was before
each subcommand's parser was built only when that subcommand is parsed,
kept verbatim as the oracle whose help, usage, error bytes, exit codes and
namespaces the deferred parser must match.  The deferred parser hands
argparse's `add_parser` a `parser_class` that builds the real parser on its
first parse, so this comparison also checks that each Python's `add_parser`
still lists the help and passes on the keywords that parser is built from.

Run as a script to compare the two on every argv of ARGVS at each width of
COLUMNS, without pytest:
    PYTHONPATH=src python tests/cli_reference.py
It prints one line per mismatch and exits 1 if there is any.
"""

import argparse
import contextlib
import io
import os
import sys

from orbitkit.cli import _sample_count, _seed

COLUMNS = (80, 200)

RUN = ["orbit", "--series", "A1", "--lambda", "1/2,-1/2"]
ARGVS = [
    # every help
    ["--help"],
    ["-h"],
    ["-h", "orbit"],
    ["orbit", "--help"],
    ["orbit", "-h"],
    ["cech", "--help"],
    ["cech", "h", "--help"],
    ["cech", "chern", "-h"],
    ["audit", "--help"],
    ["audit", "-h", "--n", "x"],
    # no command, no cech command, an invalid one
    [],
    ["cech"],
    ["bogus"],
    ["cech", "hh", "--nerve", "x"],
    ["--bogus", "orbit"],
    # a missing required option
    ["orbit", "--series", "A1"],
    ["cech", "h", "--nerve", "x"],
    ["cech", "chern", "--cocycle", "c"],
    # an unknown option, an extra positional
    RUN + ["--bogus"],
    RUN + ["extra"],
    ["cech", "h", "--nerve", "x", "--k", "1", "extra"],
    # bad values
    ["cech", "h", "--nerve", "x", "--k", "a"],
    ["audit", "--n", "x"],
    ["audit", "--samples", "0"],
    ["audit", "--seed", "-1"],
    ["audit", "--samples", "9" * 5000],
    RUN + ["--output", "xml"],
    ["cech", "h", "--nerve", "x", "--k", "1", "--ring", "r"],
    ["orbit", "--lambda"],
    # abbreviations
    ["orbit", "--ser", "A1", "--lam", "1/2,-1/2"],
    ["orbit", "--ser=A1", "--lam=1/2,-1/2", "--lat", "adjoint", "--out", "json"],
    ["audit", "--sam", "5", "--se", "3"],
    # successes
    RUN,
    RUN + ["--lattice", "custom:lat.json", "--output", "json", "--output", "text"],
    ["cech", "h", "--nerve", "n", "--k", "1", "--ring", "q", "--output", "json"],
    ["cech", "chern", "--nerve", "n", "--cocycle", "c"],
    ["audit"],
    ["audit", "--n", "4", "--lambda", "1,0,0,-1", "--samples", "10000", "--seed", "7"],
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Exact coadjoint-orbit analysis and finite-nerve Cech cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="analyze one coadjoint orbit")
    p_orbit.add_argument("--series", required=True, help='factor string, e.g. "A2xT1"')
    p_orbit.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help="comma-separated rational ambient coordinates, e.g. 1/2,-1/2",
    )
    p_orbit.add_argument(
        "--lattice",
        default="sc",
        help="character lattice: sc, adjoint, or custom:FILE (JSON generators)",
    )
    p_orbit.add_argument("--output", choices=("text", "json"), default="text")

    p_cech = sub.add_parser("cech", help="finite-nerve Cech cohomology")
    cech_sub = p_cech.add_subparsers(dest="cech_command", required=True)
    p_h = cech_sub.add_parser("h", help="cohomology group of a nerve")
    p_h.add_argument("--nerve", required=True, help="nerve file, one simplex per line")
    p_h.add_argument("--k", type=int, required=True, help="degree")
    p_h.add_argument("--ring", choices=("z", "q"), default="z")
    p_h.add_argument("--output", choices=("text", "json"), default="text")
    p_chern = cech_sub.add_parser("chern", help="class of an integer 2-cocycle")
    p_chern.add_argument("--nerve", required=True)
    p_chern.add_argument("--cocycle", required=True, help="2-cochain file")
    p_chern.add_argument("--output", choices=("text", "json"), default="text")

    p_audit = sub.add_parser("audit", help="numeric su(n) oracle cross-checks")
    p_audit.add_argument("--n", type=int, default=3, help="su(n) size, 2..5")
    p_audit.add_argument("--lambda", dest="lam", default=None)
    p_audit.add_argument("--samples", type=_sample_count, default=20)
    p_audit.add_argument("--seed", type=_seed, default=0)
    p_audit.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def outcome(build, argv, columns):
    """(stdout, stderr, exit code, vars of the namespace) of
    build().parse_args(argv) at a terminal width of columns; the exit code
    is None and the namespace's vars are given on success."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(columns)
    out, err = io.StringIO(), io.StringIO()
    code = names = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            names = vars(build().parse_args(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return out.getvalue(), err.getvalue(), code, names


def main() -> int:
    from orbitkit.cli import build_parser as lazy

    bad = 0
    for argv in ARGVS:
        for columns in COLUMNS:
            ours, ref = outcome(lazy, argv, columns), outcome(build_parser, argv, columns)
            if ours != ref:
                bad += 1
                print(f"mismatch at COLUMNS={columns} for {argv[:8]}: {ours!r} != {ref!r}")
    print(f"{sys.version.split()[0]}: {len(ARGVS) * len(COLUMNS) - bad} of "
          f"{len(ARGVS) * len(COLUMNS)} outcomes identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
