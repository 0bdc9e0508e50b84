import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitkit import LatticeSpec, analyze_orbit
from orbitkit.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_THEOREM,
    MAX_AUDIT_SAMPLES,
    _sample_count,
    _seed,
    canonical_json,
    main,
)
from orbitkit.errors import TheoremViolationError
from orbitkit.quantize import SIMPLY_CONNECTED

TRIANGLE = "0 1\n1 2\n0 2\n"
TETRA = "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbitCommand:
    def test_a1_fundamental_sc(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2", "--lattice", "sc"
        )
        assert code == EXIT_OK
        assert "regular" in out
        assert "dim orbit = 2" in out
        assert "nonzero_irreducible" in out

    def test_a2_zero_trivial_orbit(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--series", "A2", "--lambda", "0,0,0", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dim_orbit"] == 0
        assert payload["verdict"]["integral"] is True
        assert payload["verdict"]["dominant_rep"] == ["0", "0", "0"]

    def test_a2_adjoint_non_integral(self, capsys):
        code, out, _ = run(
            capsys,
            "orbit",
            "--series",
            "A2",
            "--lambda",
            "2/3,-1/3,-1/3",
            "--lattice",
            "adjoint",
            "--output",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"]["integral"] is False
        assert payload["verdict"]["borel_weil"] == "zero_section_space"

    def test_json_round_trip_byte_identical(self, capsys):
        code, out, _ = run(
            capsys,
            "orbit",
            "--series",
            "B2",
            "--lambda",
            "3/2,1/2",
            "--output",
            "json",
        )
        assert code == EXIT_OK
        assert canonical_json(json.loads(out)) == out

    def test_determinism_across_runs(self, capsys):
        args = ("orbit", "--series", "A2xT1", "--lambda", "1,0,-1,2", "--output", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_rationals_never_floats(self, capsys):
        _, out, _ = run(
            capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2", "--output", "json"
        )
        payload = json.loads(out)
        assert payload["lambda"] == ["1/2", "-1/2"]
        assert all(isinstance(x, str) for x in payload["lambda"])

    def test_bad_series_exit_code(self, capsys):
        code, _, err = run(capsys, "orbit", "--series", "Q7", "--lambda", "1")
        assert code == EXIT_PARSE
        assert json.loads(err)["error"]["kind"] == "input"

    def test_dimension_mismatch_exit_code(self, capsys):
        code, _, err = run(capsys, "orbit", "--series", "A2", "--lambda", "1,0")
        assert code == EXIT_PARSE
        assert "error" in err

    def test_bad_lambda_exit_code(self, capsys):
        code, _, _ = run(capsys, "orbit", "--series", "A1", "--lambda", "1/x,2")
        assert code == EXIT_PARSE

    def test_cap_exceeded_exit_code(self, capsys):
        # A5000 has about 2.5e7 roots: refused before any root is built
        code, _, err = run(capsys, "orbit", "--series", "A5000", "--lambda", "0")
        assert code == EXIT_CAP
        assert json.loads(err)["error"]["kind"] == "cap_exceeded"

    def test_a9_weyl_counts_past_the_enumeration_cap(self, capsys):
        # |W(A9)| = 10! exceeds the 10^6 enumeration cap; the report does not
        # enumerate, so a regular point of A9 reports |W.lambda| = |W|
        code, out, _ = run(
            capsys,
            "orbit",
            "--series",
            "A9",
            "--lambda",
            "9,8,7,6,5,4,3,2,1,0",
            "--output",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["weyl_order"] == 3628800
        assert payload["weyl_orbit_size"] == 3628800

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orbit"])  # missing required flags
        assert exc.value.code == 2

    def test_theorem_violation_exit_code(self, capsys, monkeypatch):
        # unreachable with valid inputs by design; force it to pin the mapping
        # (cmd_orbit imports analyze_orbit from its home module on each call)
        import orbitkit.pipeline

        def boom(*args, **kwargs):
            raise TheoremViolationError("forced for the exit-code map")

        monkeypatch.setattr(orbitkit.pipeline, "analyze_orbit", boom)
        code, _, err = run(capsys, "orbit", "--series", "A1", "--lambda", "1,-1")
        assert code == EXIT_THEOREM
        assert json.loads(err)["error"]["kind"] == "theorem_violation"

    def test_custom_lattice_file(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"generators": [["1", "-1"]]}))
        code, out, _ = run(
            capsys,
            "orbit",
            "--series",
            "A1",
            "--lambda",
            "1/2,-1/2",
            "--lattice",
            f"custom:{path}",
            "--output",
            "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"]["integral"] is False

    def test_custom_lattice_rejects_bad_file(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"generators": [["2", "-2"]]}))
        code, _, err = run(
            capsys,
            "orbit",
            "--series",
            "A1",
            "--lambda",
            "1/2,-1/2",
            "--lattice",
            f"custom:{path}",
        )
        assert code == EXIT_PARSE
        assert "not a member" in json.loads(err)["error"]["message"]


    @pytest.mark.parametrize(
        "series,lam,generators",
        [
            ("A1", "1/2,-1/2", [[1e400, 0]]),
            ("A1", "1/2,-1/2", [[0.5, -0.5]]),
            ("A1", "1/2,-1/2", [[True, -1]]),
            ("T2", "1,1", ["11"]),
        ],
        ids=["overflow", "float", "bool", "string-row"],
    )
    def test_custom_lattice_refuses_non_exact_entries(
        self, capsys, tmp_path, series, lam, generators
    ):
        # each of these read as a valid lattice, or crashed, before entries
        # were restricted to integers and "p/q" strings
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"generators": generators}))
        code, _, err = run(
            capsys, "orbit", "--series", series, "--lambda", lam,
            "--lattice", f"custom:{path}",
        )
        assert code == EXIT_PARSE
        assert json.loads(err)["error"]["kind"] == "input"

    def test_custom_lattice_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_bytes(b'{"generators": [["1", "-1"]]}\xff\xfe')
        code, _, err = run(
            capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2",
            "--lattice", f"custom:{path}",
        )
        assert code == EXIT_PARSE
        assert json.loads(err)["error"]["kind"] == "input"

    def test_custom_lattice_integer_too_long_for_json(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_text("[[" + "1" * 5000 + ", 0]]")
        code, _, err = run(
            capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2",
            "--lattice", f"custom:{path}",
        )
        assert code == EXIT_PARSE
        assert json.loads(err)["error"]["kind"] == "input"


# Rationals past MAX_RATIONAL_DIGITS; "1e5000" used to crash with a traceback
# when the report printed its 5001 digits, and an exponent costs no time
# because the token is measured before Fraction() builds the number.
HUGE_RATIONALS = ["1e5000", "1" * 5000, "1/" + "7" * 5000, "1e100000", "-3e+101"]


@pytest.mark.parametrize("token", HUGE_RATIONALS, ids=lambda t: t[:8])
def test_orbit_refuses_a_lambda_coordinate_past_the_digit_bound(capsys, token):
    code, out, err = run(capsys, "orbit", "--series", "A1", f"--lambda={token},0",
                         "--output", "json")
    assert (code, out) == (EXIT_PARSE, "")
    assert json.loads(err)["error"]["kind"] == "input"
    assert "more than 100 digits" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("token", HUGE_RATIONALS, ids=lambda t: t[:8])
def test_custom_lattice_refuses_an_entry_past_the_digit_bound(capsys, tmp_path, token):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"generators": [[token, "-1/2"], ["1", "-1"]]}))
    code, _, err = run(capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2",
                       "--lattice", f"custom:{path}")
    assert code == EXIT_PARSE
    assert "more than 100 digits" in json.loads(err)["error"]["message"]


def test_a_lattice_integer_entry_past_the_digit_bound_is_refused(capsys, tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text('{"generators": [[' + "1" * 101 + ", 0]]}")
    code, _, err = run(capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2",
                       "--lattice", f"custom:{path}")
    assert code == EXIT_PARSE
    assert "more than 100 digits" in json.loads(err)["error"]["message"]


def test_lambda_coordinates_at_the_digit_bound_report(capsys):
    lam = f"{'9' * 100},-1e99"
    code, out, _ = run(capsys, "orbit", "--series", "T2", f"--lambda={lam}", "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out)["lambda"] == ["9" * 100, "-1" + "0" * 99]


def test_error_messages_quote_a_long_token_shortened(capsys, tmp_path):
    token = "1" * 5000
    code, _, err = run(capsys, "orbit", "--series", "A1", f"--lambda=0,{token}")
    message = json.loads(err)["error"]["message"]
    assert code == EXIT_PARSE
    assert len(message) < 200
    assert message.startswith("bad lambda coordinate '" + "1" * 20 + "...'")
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"generators": [["1", "-1"], ["0", token]]}))
    code, _, err = run(capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2",
                       "--lattice", f"custom:{path}")
    message = json.loads(err)["error"]["message"]
    assert code == EXIT_PARSE
    assert len(message) < 200
    assert message.startswith("bad lattice generator entry '" + "1" * 20 + "...'")
    path.write_text(json.dumps({"generators": [["1", "x" * 5000]]}))
    code, _, err = run(capsys, "orbit", "--series", "A1", "--lambda", "1/2,-1/2",
                       "--lattice", f"custom:{path}")
    assert code == EXIT_PARSE
    assert len(json.loads(err)["error"]["message"]) < 200


def torus_files(tmp_path, value: str):
    """A triangulated 6x6 torus and a cochain holding value on the 36
    triangles (i, j), (i+1, j), (i+1, j+1) of its squares."""
    n = 6

    def v(i, j):
        return (i % n) * n + j % n

    squares = [(v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1))
               for i in range(n) for j in range(n)]
    lower = [sorted((a, b, d)) for a, b, _, d in squares]
    upper = [sorted((a, c, d)) for a, _, c, d in squares]
    nerve, cocycle = tmp_path / "torus.nerve", tmp_path / "torus.cochain"
    nerve.write_text("".join(f"{t[0]} {t[1]} {t[2]}\n" for t in lower + upper))
    cocycle.write_text("".join(f"{t[0]} {t[1]} {t[2]} {value}\n" for t in lower))
    return str(nerve), str(cocycle)


def test_chern_refuses_an_integer_value_past_the_digit_bound(capsys, tmp_path):
    # this input crashed with a traceback (exit 1) when the class coordinate,
    # a multiple of 10^4300 - 1, passed the integer print limit
    nerve, cocycle = torus_files(tmp_path, "9" * 4300)
    code, out, err = run(capsys, "cech", "chern", "--nerve", nerve, "--cocycle", cocycle,
                         "--output", "json")
    error = json.loads(err)["error"]
    assert (code, out, error["kind"]) == (EXIT_PARSE, "", "input")
    assert error["message"] == (
        "cochain file line 1: '" + "9" * 20 + "...' has more than 100 digits"
    )


def test_chern_reports_integer_values_at_the_digit_bound(capsys, tmp_path):
    nerve, cocycle = torus_files(tmp_path, "9" * 100)
    code, out, _ = run(capsys, "cech", "chern", "--nerve", nerve, "--cocycle", cocycle,
                       "--output", "json")
    (coord,) = json.loads(out)["free_coords"]
    assert code == EXIT_OK
    assert coord != 0 and coord % (10**100 - 1) == 0


class TestCechCommand:
    def test_h_tetrahedron_z(self, capsys, tmp_path):
        nerve = tmp_path / "tet.nerve"
        nerve.write_text(TETRA)
        code, out, _ = run(
            capsys, "cech", "h", "--nerve", str(nerve), "--k", "2", "--ring", "z"
        )
        assert code == EXIT_OK
        assert out.strip() == "H^2 = Z"

    def test_h_far_above_the_dimension_is_zero_at_once(self, capsys, tmp_path):
        nerve = tmp_path / "tet.nerve"
        nerve.write_text(TETRA)
        k = "1" + "0" * 21
        code, out, _ = run(capsys, "cech", "h", "--nerve", str(nerve), "--k", k)
        assert code == EXIT_OK
        assert out.strip() == f"H^{k} = 0"

    def test_h_on_vertex_ids_near_10_to_the_18(self, capsys, tmp_path):
        # a union-find sized by the largest id + 1 would not fit in memory
        nerve = tmp_path / "far.nerve"
        nerve.write_text("0 1000000000000000000\n5 999999999999999999 1000000000000000000\n")
        start = time.perf_counter()
        for k, group in (("0", "Z"), ("1", "0")):
            code, out, _ = run(capsys, "cech", "h", "--nerve", str(nerve), "--k", k)
            assert code == EXIT_OK
            assert out.strip() == f"H^{k} = {group}"
        assert time.perf_counter() - start < 5

    def test_a_nerve_past_the_simplex_bound_is_refused(self, capsys, tmp_path):
        # a 40-vertex line closes to 2^40 - 1 faces; it ran out of memory
        nerve = tmp_path / "line.nerve"
        nerve.write_text(" ".join(map(str, range(40))) + "\n")
        code, out, err = run(capsys, "cech", "h", "--nerve", str(nerve), "--k", "1")
        assert code == EXIT_CAP
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "cap_exceeded"
        assert error["message"] == "the nerve has more than 1000000 simplices"

    def test_h_triangle_q_rank(self, capsys, tmp_path):
        nerve = tmp_path / "tri.nerve"
        nerve.write_text(TRIANGLE)
        code, out, _ = run(
            capsys,
            "cech",
            "h",
            "--nerve",
            str(nerve),
            "--k",
            "1",
            "--ring",
            "q",
            "--output",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["free_rank"] == 1
        assert payload["torsion"] == []

    def test_chern_zero_cocycle(self, capsys, tmp_path):
        nerve = tmp_path / "tet.nerve"
        nerve.write_text(TETRA)
        cocycle = tmp_path / "zero.cochain"
        cocycle.write_text("0 1 2 0\n")
        code, out, _ = run(
            capsys,
            "cech",
            "chern",
            "--nerve",
            str(nerve),
            "--cocycle",
            str(cocycle),
            "--output",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["trivial"] is True

    def test_chern_generator(self, capsys, tmp_path):
        nerve = tmp_path / "tet.nerve"
        nerve.write_text(TETRA)
        cocycle = tmp_path / "face.cochain"
        cocycle.write_text("0 1 2 1\n")
        code, out, _ = run(
            capsys, "cech", "chern", "--nerve", str(nerve), "--cocycle", str(cocycle),
            "--output", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["free_coords"] in ([1], [-1])

    def test_chern_of_a_sphere_beside_a_solid_tetrahedron(self, capsys, tmp_path):
        # H^2 = Z from the sphere; the solid tetrahedron brings 3-simplices,
        # so the class is read in the Hermite basis of the boundaries'
        # annihilator, as in the CI step that runs the same files
        nerve = tmp_path / "sphere_tetra.nerve"
        nerve.write_text(TETRA + "4 5 6 7\n")
        cocycle = tmp_path / "sphere_tetra.cochain"
        cocycle.write_text("0 1 2 1\n4 5 6 2\n4 5 7 2\n")
        code, out, _ = run(
            capsys, "cech", "chern", "--nerve", str(nerve), "--cocycle", str(cocycle),
            "--output", "json",
        )
        assert code == EXIT_OK
        assert out == canonical_json(
            {"free_coords": [1], "torsion_coords": [], "trivial": False, "valid": True,
             "witness": None}
        )

    def test_malformed_nerve_line_numbered(self, capsys, tmp_path):
        nerve = tmp_path / "bad.nerve"
        nerve.write_text("0 1\n1 zebra\n")
        code, _, err = run(capsys, "cech", "h", "--nerve", str(nerve), "--k", "0")
        assert code == EXIT_PARSE
        assert "line 2" in json.loads(err)["error"]["message"]

    def test_nerve_file_not_utf8(self, capsys, tmp_path):
        nerve = tmp_path / "bad.nerve"
        nerve.write_bytes(b"0 1\n1 \xff\xfe\n")
        code, _, err = run(capsys, "cech", "h", "--nerve", str(nerve), "--k", "0")
        assert code == EXIT_PARSE
        assert json.loads(err)["error"]["kind"] == "input"

    def test_cocycle_file_not_utf8(self, capsys, tmp_path):
        nerve = tmp_path / "tet.nerve"
        nerve.write_text(TETRA)
        cocycle = tmp_path / "bad.cochain"
        cocycle.write_bytes(b"0 1 2 \xff\n")
        code, _, err = run(
            capsys, "cech", "chern", "--nerve", str(nerve), "--cocycle", str(cocycle)
        )
        assert code == EXIT_PARSE
        assert json.loads(err)["error"]["kind"] == "input"

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "cech", "h", "--nerve", str(tmp_path / "nope"), "--k", "0"
        )
        assert code == EXIT_PARSE


class TestAuditCommand:
    def test_su2_json(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--n", "2", "--samples", "5", "--output", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["algebra"] == "su(2)"
        assert payload["root_audit_ok"] is True
        assert payload["stabilizer_rank_matches"] is True
        assert payload["root_match_max_residual"] < 1e-8

    def test_su3_with_lambda(self, capsys):
        code, out, _ = run(
            capsys,
            "audit",
            "--n",
            "3",
            "--lambda",
            "2/3,-1/3,-1/3",
            "--samples",
            "10",
        )
        assert code == EXIT_OK
        assert "ok" in out

    @pytest.mark.parametrize(
        "s", ["1/10000000000000", "1/1000000", "1", "100000", "1000000000"]
    )
    def test_the_audit_does_not_depend_on_the_scale_of_lambda(self, capsys, s):
        # the rank of X -> lambda([X, .]) does not change with the scale of
        # lambda, and the finite-difference error grows linearly with it: an
        # absolute rank tolerance failed at 10^-13 and an absolute residual
        # bound raised at 10^5
        code, out, err = run(capsys, "audit", "--n", "3", f"--lambda={s},0,-{s}",
                             "--output", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["stabilizer_rank_matches"] is True

    @pytest.mark.parametrize("lam", [
        "1,1099511627777/1099511627776,-2199023255553/1099511627776",  # lambda_2 = 1 + 2^-40
        "1,1.00000000000000000001,-2.00000000000000000001",
    ])
    def test_a_lambda_that_doubles_cannot_resolve_is_refused_before_any_numeric_check(
        self, capsys, monkeypatch, lam
    ):
        # both exited 5: the first with a false rank verdict, the second with
        # a KKS block mismatch of kind oracle, though each exact report is right
        from orbitkit import oracle

        def numeric(*args, **kwargs):
            raise AssertionError("a numeric check ran")

        monkeypatch.setattr(oracle, "numeric_root_decomposition", numeric)
        code, out, err = run(capsys, "audit", "--n", "3", f"--lambda={lam}", "--samples", "1")
        assert (code, out) == (EXIT_PARSE, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and "rank tolerance" in error["message"]

    def test_a_lambda_near_a_wall_passes_the_kks_check_on_the_scale_of_lambda(self, capsys):
        # its least pairing, 10^-8, is above RANK_TOL |lambda|, yet the block
        # check, relative to the block, exited 5 with kind oracle
        code, out, err = run(capsys, "audit", "--n", "3", "--lambda=1,0.99999999,-1.99999999",
                             "--output", "json")
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert payload["root_audit_ok"] is payload["stabilizer_rank_matches"] is True

    def test_an_oracle_error_is_a_json_error(self, capsys, monkeypatch):
        # it escaped main as a traceback with exit 1
        from orbitkit import oracle

        def boom(*args, **kwargs):
            raise oracle.OracleError("forced for the exit-code map")

        monkeypatch.setattr(oracle, "numeric_kks_check", boom)
        code, out, err = run(capsys, "audit", "--n", "2", "--samples", "1")
        assert (code, out) == (EXIT_THEOREM, "")
        assert json.loads(err) == {"error": {
            "kind": "oracle", "message": "forced for the exit-code map", "exit_code": EXIT_THEOREM,
        }}

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_must_be_positive(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--n", "2", "--samples", samples])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["10001", "100000000", "9" * 4000])
    def test_samples_are_bounded_above(self, capsys, samples):
        # refused while the arguments are parsed, before any sample is drawn
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--n", "2", "--samples", samples])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be at most {MAX_AUDIT_SAMPLES}" in err
        assert len(err) < 1000

    @pytest.mark.parametrize(
        "samples, message",
        [
            ("9" * 5000, f"must be at most {MAX_AUDIT_SAMPLES}"),
            ("-" + "9" * 5000, "must be at least 1"),
            ("+1_" + "0" * 5000, f"must be at most {MAX_AUDIT_SAMPLES}"),
            ("-" + "0" * 5000, "must be at least 1"),
            ("9" * 4999 + "x", "expected an integer"),
            ("1__0", "expected an integer"),
            ("1__" + "0" * 5000, "expected an integer"),
        ],
    )
    def test_samples_past_the_integer_digit_limit(self, capsys, samples, message):
        # int() refuses strings of more than 4300 digits; they are read by
        # their sign and significant digits, and malformed ones still refused
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--n", "2", f"--samples={samples}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err) < 1000

    def test_leading_zeros_past_the_integer_digit_limit_are_read(self):
        assert _sample_count("0" * 5000 + "5") == 5
        assert _sample_count("+" + "0_" * 3000 + "10_000") == MAX_AUDIT_SAMPLES

    @pytest.mark.parametrize("seed", ["-1", "-" + "9" * 5000])
    def test_seed_must_not_be_negative(self, capsys, seed):
        # numpy's default_rng raised a ValueError with a traceback (exit 1)
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--n", "2", "--samples", "1", f"--seed={seed}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be at least 0" in err
        assert "Traceback" not in err and len(err) < 1000

    def test_any_seed_from_zero_up_is_taken(self, capsys):
        outs = []
        for seed in ("0", "-0", "123456789012345678901234567890"):
            code, out, _ = run(capsys, "audit", "--n", "2", "--samples", "3",
                               "--seed", seed, "--output", "json")
            assert code == EXIT_OK
            outs.append(json.loads(out)["equivariance_samples"])
        assert outs == [3, 3, 3]
        assert _seed("0" * 5000 + "7") == 7

    def test_the_bounds_themselves_are_accepted(self):
        assert _sample_count(str(MAX_AUDIT_SAMPLES)) == MAX_AUDIT_SAMPLES == 10_000
        assert _sample_count("1") == 1


# -- the canonical JSON writer ---------------------------------------------------

# keys and strings with non-ASCII, control characters, quotes and backslashes
texts = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\u00e9\U0001f600'))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),  # nan, inf and -0.0 among them
    texts,
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)
# a singular non-dominant report with a torus fills every list of the payload
PRODUCT_REPORT = {
    **analyze_orbit(
        "A3xB2xC2xD3xT1", [2, 2, -1, -3, 1, 0, 2, -2, 1, -1, 0, 1], LatticeSpec(SIMPLY_CONNECTED)
    ).to_json_dict(),
    "lattice": "sc",
}


@settings(max_examples=300, deadline=None)
@given(trees)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}})
@example([[[]], [{}], ({},)])
@example(PRODUCT_REPORT)
def test_canonical_json_is_json_dumps_with_sorted_keys_and_indent_2(tree):
    assert canonical_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"
