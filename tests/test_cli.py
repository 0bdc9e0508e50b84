import json

import pytest

from orbitkit.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_THEOREM,
    canonical_json,
    main,
)
from orbitkit.errors import TheoremViolationError

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
        import orbitkit.cli as cli_mod

        def boom(*args, **kwargs):
            raise TheoremViolationError("forced for the exit-code map")

        monkeypatch.setattr(cli_mod, "analyze_orbit", boom)
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


class TestCechCommand:
    def test_h_tetrahedron_z(self, capsys, tmp_path):
        nerve = tmp_path / "tet.nerve"
        nerve.write_text(TETRA)
        code, out, _ = run(
            capsys, "cech", "h", "--nerve", str(nerve), "--k", "2", "--ring", "z"
        )
        assert code == EXIT_OK
        assert out.strip() == "H^2 = Z"

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

    def test_malformed_nerve_line_numbered(self, capsys, tmp_path):
        nerve = tmp_path / "bad.nerve"
        nerve.write_text("0 1\n1 zebra\n")
        code, _, err = run(capsys, "cech", "h", "--nerve", str(nerve), "--k", "0")
        assert code == EXIT_PARSE
        assert "line 2" in json.loads(err)["error"]["message"]

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

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_must_be_positive(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--n", "2", "--samples", samples])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
