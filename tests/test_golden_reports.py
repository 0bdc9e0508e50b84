"""Golden orbit reports: every output byte of analyze_orbit, pinned by sha256.

``golden_reports.json`` lists about 150 seeded cases (series, lambda,
lattice) with the sha256 of each report's canonical JSON and of its CLI
text rendering.  The cases span A1-A4, B2-B4, C2-C4, D2-D4 and D8, products
with torus factors, the ``sc``, ``adjoint`` and one custom lattice (Z^n on
the D series), and lambdas with zero, repeated and opposite-sign
coordinates.  The fixture was generated at commit
bf06df50d1d5d0fc100794e26170e804d2744c02, before the orbit pipeline was
reduced to a single pass, by running from the repository root:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json

A refactor that keeps reports byte-identical keeps this test passing;
regenerate the fixture only for a deliberate change of output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitkit import build_root_system, cli, parse_series, quantize
from orbitkit.pipeline import analyze_orbit

FIXTURE = Path(__file__).with_name("golden_reports.json")
SEED = 20261018
SERIES = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
    "D2", "D3", "D4", "D8",
    "A1xT1", "A2xT1", "B2xT2", "A1xA1xT1", "A1xC2xT1", "D3xT1", "T2",
)
PATTERNS = ("random", "random", "zeros", "repeated", "opposite", "zero", "regular")
VALUES = ("-2", "-3/2", "-1", "-1/2", "-1/3", "1/3", "1/2", "1", "3/2", "2", "5/2")


def _lambda(rng: random.Random, dim: int, pattern: str) -> list[str]:
    if pattern == "zero":
        return ["0"] * dim
    if pattern == "regular":
        return [str(dim - i) for i in range(dim)]
    lam = [rng.choice(VALUES) for _ in range(dim)]
    if dim < 2:
        return lam
    i, j = rng.sample(range(dim), 2)
    if pattern == "zeros":
        lam[i] = lam[j] = "0"
    elif pattern == "repeated":
        lam[j] = lam[i]
    elif pattern == "opposite":
        lam[j] = str(-Fraction(lam[i]))
    return lam


def cases() -> list[dict]:
    rng = random.Random(SEED)
    out = []
    for series in SERIES:
        dim = parse_series(series).ambient_dim
        lattices = ("sc", "adjoint", "custom") if series.startswith("D") else ("sc", "adjoint")
        for k, pattern in enumerate(PATTERNS):
            out.append({
                "series": series,
                "lam": _lambda(rng, dim, pattern),
                "lattice": lattices[k % len(lattices)],
            })
    return out


def _lattice(name: str, series: str) -> quantize.LatticeSpec:
    if name == "sc":
        return quantize.LatticeSpec(quantize.SIMPLY_CONNECTED)
    if name == "adjoint":
        return quantize.LatticeSpec(quantize.ADJOINT)
    rs = build_root_system(parse_series(series))
    n = rs.ambient_dim
    return quantize.custom_lattice([[int(i == j) for j in range(n)] for i in range(n)], rs)


def digests(case: dict) -> dict:
    report = analyze_orbit(case["series"], case["lam"], _lattice(case["lattice"], case["series"]))
    payload = report.to_json_dict()
    payload["lattice"] = case["lattice"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli._print_orbit_text(payload)
    return {
        "json_sha256": hashlib.sha256(cli.canonical_json(payload).encode()).hexdigest(),
        "text_sha256": hashlib.sha256(text.getvalue().encode()).hexdigest(),
    }


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(FIXTURE.read_text())


def test_fixture_matches_the_seeded_cases(golden):
    assert [{k: c[k] for k in ("series", "lam", "lattice")} for c in golden] == CASES


@pytest.mark.parametrize(
    "index",
    range(len(CASES)),
    ids=[f"{c['series']}-{c['lattice']}-{','.join(c['lam'])}" for c in CASES],
)
def test_report_bytes_match_the_fixture(index, golden):
    expected = golden[index]
    assert digests(CASES[index]) == {k: expected[k] for k in ("json_sha256", "text_sha256")}


if __name__ == "__main__":
    sys.stdout.write(json.dumps([{**c, **digests(c)} for c in CASES], indent=1) + "\n")
