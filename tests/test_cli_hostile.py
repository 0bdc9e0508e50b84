"""Hostile inputs to the CLI, run in process: whatever the argv and the
bytes of the files it names, `cli.main` ends in a report, a usage error, or
a typed error with its documented exit code, and lets no exception out.

An exit other than 0 or 2 comes with one JSON error on stderr whose kind
names the exit code, except for the two documented verdicts printed on
stdout: `cech chern` on a cochain that is not a cocycle (exit 3), and an
`audit` whose bracket audit or stabilizer rank disagrees (exit 5).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from orbitkit.cli import main

EXIT_OF_KIND = {"input": 3, "io": 3, "cap_exceeded": 4, "theorem_violation": 5, "oracle": 5}
# a theorem violation is an arithmetic bug, and only the audit's numeric
# checks may disagree with an exact report
EXITS = {"orbit": {0, 2, 3, 4}, "cech": {0, 2, 3, 4}, "audit": {0, 2, 3, 5}}

HUGE = "9" * 100
# lambda tokens that parse (at most 100 digits) and tokens that do not; half
# of the drawn tokens come from the first, so that a drawn lambda often gets
# past its parse
PARSED = ("1e5", "1e-5", "1e100", "0", "1", "-1", "1/2", "-2/3", "١", "٣/٤", "1_0", "1.5",
          HUGE, "-" + HUGE, "9" * 50 + "/" + "7" * 50, "1/" + "9" * 99)
UNPARSED = ("", " ", "nan", "inf", "-inf", "1e101", "1/0", "0/0", "½", "0x10", "1,", "--1",
            "9" * 101, "1e99999999999")
numbers = st.sampled_from(PARSED + UNPARSED) | st.sampled_from(PARSED)
SERIES = (
    "", "A1", "A2", "B2", "C3", "D4", "G2", "A1xT1", "T1", "A2xA1", "A0", "B1", "D2",
    "A5000", "A1x", "xA1", "a2", "A 2", "A١", "nan", "A" + HUGE,
)
# series that parse, with their ambient dimension
AMBIENT = {"A1": 2, "A2": 3, "B2": 2, "C3": 3, "D4": 4, "A1xT1": 3, "T1": 1, "A2xA1": 5}
outputs = st.lists(st.sampled_from(["--output=text", "--output=json"]), max_size=1)

FAR = 10**18
VERTICES = ("0", "1", "2", "3", str(FAR - 1), str(FAR), str(FAR + 1), "-1", "١", "x", "01")
VALUES = ("0", "1", "-1", "7", "1/2", "nan", "1e3", HUGE, "9" * 101, "", "\x00", "١")
# non-UTF-8 bytes (a lone lead byte, stray continuation bytes) and NUL
RAW = (b"\xff", b"\xc3", b"\x80\x80", b"\x00")


def simplices(low, high):
    """Strictly increasing lines of low to high vertices, ids near 10^18 among them."""
    ids = st.sampled_from([0, 1, 2, 3, FAR - 1, FAR, FAR + 1])
    return st.sets(ids, min_size=low, max_size=high).map(lambda s: " ".join(map(str, sorted(s))))


def file_bytes(lines, tails=(b"",)):
    """A file of up to 6 drawn lines that ends in one of tails."""
    return st.tuples(st.lists(lines, max_size=6), st.sampled_from(tails)).map(
        lambda parts: "\n".join(parts[0]).encode() + parts[1]
    )


hostile_lines = st.lists(st.sampled_from(VERTICES), max_size=4).map(" ".join) | st.sampled_from(
    ["", "#", "# comment", "0 0", "1 0", "\x00", "0 \x00 1", "0\t1", "0 1 # x"]
)
cochain_lines = st.tuples(simplices(3, 3), st.sampled_from(VALUES)).map(" ".join) | st.sampled_from(
    ["", "#", "0 1 2", "0 1 x 1", "\x00"]
)
# a solid tetrahedron holds every triangle a drawn cochain names
nerve_lines = simplices(1, 4) | st.just("0 1 2 3")
cech_draws = st.tuples(
    file_bytes(nerve_lines) | file_bytes(nerve_lines | hostile_lines, (b"",) + RAW),
    file_bytes(cochain_lines) | file_bytes(cochain_lines, (b"",) + RAW),
    st.builds(lambda k, ring, out: ["h", f"--k={k}", *ring, *out],
              st.sampled_from(["0", "1", "2", "3", "-1", "10", "x", "1" + "0" * 30]),
              st.lists(st.sampled_from(["--ring=z", "--ring=q"]), max_size=1), outputs)
    | st.builds(lambda out: ["chern", *out], outputs),
)


def orbit_argvs(series, lam):
    return st.builds(
        lambda series, lam, lattice, out: ["orbit", f"--series={series}", f"--lambda={lam}",
                                           *lattice, *out],
        series, lam, st.lists(st.sampled_from(["--lattice=adjoint", "--lattice=x"]), max_size=1),
        outputs,
    )


def coordinates(n):
    return st.lists(numbers, min_size=n, max_size=n).map(",".join)


orbit_draws = orbit_argvs(
    st.sampled_from(SERIES) | st.text("ABCDTx01٣ ", max_size=6),
    st.lists(numbers, max_size=5).map(",".join),
) | st.sampled_from(sorted(AMBIENT.items())).flatmap(
    lambda item: orbit_argvs(st.just(item[0]), coordinates(item[1]))
)
# an audit of su(n) at n drawn coordinates of lambda
audit_draws = st.sampled_from([1, 2, 3]).flatmap(
    lambda n: st.builds(
        lambda lam, samples, out: ["audit", f"--n={n}", f"--lambda={lam}",
                                   f"--samples={samples}", *out],
        coordinates(n), st.sampled_from(["1", "2", "3"]), outputs,
    )
)


def run(argv):
    """(exit code, stdout, stderr) of main(argv); a usage error's SystemExit
    gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    command = argv[0]
    assert code in EXITS[command], (code, err)
    if code in (0, 2):
        return
    if err:
        error = json.loads(err)["error"]
        assert EXIT_OF_KIND[error["kind"]] == error["exit_code"] == code
    elif command == "cech":
        assert code == 3 and ('"valid": false' in out or out.startswith("not a cocycle"))
    else:
        assert code == 5 and ("FAILED" in out or "matches orbit dimension: False" in out
                              or '"root_audit_ok": false' in out
                              or '"stabilizer_rank_matches": false' in out)


@settings(max_examples=500, deadline=None)
@given(orbit_draws | cech_draws | audit_draws)
@example(["audit", "--n=3", "--lambda=100000,0,-100000", "--samples=3"])
@example(["audit", "--n=2", "--samples=1"])
@example(["audit", "--n=3", "--lambda=1/10000000000000,0,-1/10000000000000", "--samples=1"])
@example(["audit", "--n=3", "--lambda=1,1.00000000000000000001,-2.00000000000000000001",
          "--samples=1"])
@example(["orbit", "--series=A1xT1", f"--lambda={HUGE},-{HUGE},1/{HUGE[1:]}", "--output=json"])
@example((b"0 1000000000000000000\n\n0 1\x00", b"0 1 2 1\xff", ["h", "--k=0"]))
@example((b"0 1 2\n0 1 3\n0 2 3\n1 2 3", b"0 1 2 1", ["chern"]))
@example((b"0 1 2 3", b"0 1 2 1", ["chern", "--output=json"]))
def test_no_input_escapes_the_exit_code_map(drawn):
    if drawn[0] in ("orbit", "audit"):
        check(drawn)
        return
    nerve, cochain, (command, *rest) = drawn
    with tempfile.TemporaryDirectory() as tmp:
        nerve_path, cochain_path = Path(tmp, "n.nerve"), Path(tmp, "c.cochain")
        nerve_path.write_bytes(nerve)
        cochain_path.write_bytes(cochain)
        files = ["--nerve", str(nerve_path)]
        if command == "chern":
            files += ["--cocycle", str(cochain_path)]
        check(["cech", command, *files, *rest])
