"""Golden Chern-class coordinates: every stdout byte of `cech chern`, pinned
by sha256.

``golden_chern.json`` lists seeded integer 2-cocycles delta(b) + m*[face] on
randomly relabelled torus grids (n = 6, 8, 10, 12) and Klein-bottle grids
(n = 7, 9, 11), with the sha256 of `cech chern --output json` on each.  The
free coordinate of a torus class is its pairing with the fundamental cycle
that is +1 on the first triangle in sorted order, the row Hermite normal
form of the 2-cycles, so its sign pins that canonical basis and no
elimination order.  The Klein entries were generated at commit
798cd9cbcdc78ca660461a6ad67920b1b593db4e; the torus entries were
regenerated when the class moved to that basis, six of the eight changing
bytes (the free coordinate of torus n = 6, m = -1 went 1 -> -1, for
instance), by running from the repository root:

    PYTHONPATH=src python tests/test_golden_chern.py > tests/golden_chern.json

The cases after them put delta(b) + m*[face], m != 0, on randomly relabelled
Freudenthal cube grids (c = 2, 3, 4): 2-cochains that are not closed, so
`cech chern` exits 3 and names the witness 3-simplex.  Their entries carry
the exit code; they were appended at commit
7db324537aad161145aed8a18c43270293fcf228, before the cocycle check read the
coboundary one 3-simplex at a time.

The last cases are disjoint unions of n x n grids, each component a Klein
bottle or a torus, relabelled together, with (k + 1)*m, m odd, added on one
face of the k-th component: Klein+Klein (H^2 = Z/2 + Z/2, the class 1 on
one summand and 0 on the other), Klein+torus (Z + Z/2) and
torus+torus+Klein (Z^2 + Z/2).  Their torsion coordinates are listed in the
order of the elimination's pivots (see ``cech.chern_class``), so these
bytes pin that order.  They were appended at commit
112354b2aa6aab387728af5dd84cf797594599fe.

Apart from those unions, the bytes depend only on the nerve and the class,
so a change of elimination order keeps this test passing; regenerate the
fixture only for a deliberate change of output, and only the cases whose
bytes change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from orbitkit import cli

FIXTURE = Path(__file__).with_name("golden_chern.json")
SEED = 20261019
GRIDS = (("torus", 6), ("torus", 8), ("torus", 10), ("torus", 12),
         ("klein", 7), ("klein", 9), ("klein", 11),
         ("cube", 2), ("cube", 3), ("cube", 4),
         ("klein+klein", 7), ("klein+torus", 7), ("torus+torus+klein", 5))
CASES_PER_GRID = 2


def grid_triangles(n: int, klein: bool) -> list[tuple[int, ...]]:
    """Triangulated n x n torus, vertex (i, j) -> i*n + j; a Klein bottle
    when the wrap in the second direction reflects the first coordinate."""

    def v(i, j):
        if j == n:
            i, j = (n - 1 - i if klein else i), 0
        return (i % n) * n + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [(a, b, d), (a, c, d)]
    return tris


def cube_tetrahedra(c: int) -> list[tuple[int, ...]]:
    """Freudenthal triangulation of a c x c x c block of cubes, vertex
    (x, y, z) -> (x*(c+1) + y)*(c+1) + z: one tetrahedron per cube and
    order of the three unit steps."""
    side = c + 1
    tets = []
    for corner in itertools.product(range(c), repeat=3):
        for steps in itertools.permutations(range(3)):
            p = list(corner)
            verts = [(p[0] * side + p[1]) * side + p[2]]
            for axis in steps:
                p[axis] += 1
                verts.append((p[0] * side + p[1]) * side + p[2])
            tets.append(tuple(verts))
    return tets


def cases() -> list[dict]:
    """Each case: the relabelled top simplices and the nonzero cochain
    values, both as sorted simplices, plus the multiple m of the added face."""
    rng = random.Random(SEED)
    out = []
    for space, n in GRIDS:
        parts = space.split("+")
        for _ in range(CASES_PER_GRID):
            if space == "cube":
                size, top = (n + 1) ** 3, cube_tetrahedra(n)
            else:
                size = n * n
                top = [tuple([k * size + x for x in s]) for k, part in enumerate(parts)
                       for s in grid_triangles(n, part == "klein")]
            count = size * len(parts)
            perm = rng.sample(range(count), count)
            part_of = {perm[x]: x // size for x in range(count)}
            tops = sorted(tuple(sorted(perm[x] for x in s)) for s in top)
            tris = sorted({f for s in tops for f in itertools.combinations(s, 3)})
            edges = sorted({(s[a], s[b]) for s in tris for a, b in ((0, 1), (0, 2), (1, 2))})
            b = {e: rng.randint(-3, 3) for e in edges}
            values = {s: b[s[1:]] - b[(s[0], s[2])] + b[s[:2]] for s in tris}
            if space == "cube":
                m = rng.choice((1, 2, -1, -3))
            else:
                m = rng.choice((0, 1, -1, 2, -2, 3) if len(parts) == 1 else (1, -1, 3, -3))
            for k in range(len(parts)):
                values[rng.choice([s for s in tris if part_of[s[0]] == k])] += (k + 1) * m
            out.append({
                "space": space,
                "n": n,
                "m": m,
                "simplices": tops,
                "values": [(s, x) for s, x in sorted(values.items()) if x],
            })
    return out


def chern_run(case: dict) -> tuple[int, str]:
    """Exit code and stdout of `cech chern --output json` on the case."""
    with tempfile.TemporaryDirectory() as tmp:
        nerve = Path(tmp, "grid.nerve")
        nerve.write_text("".join(" ".join(map(str, s)) + "\n" for s in case["simplices"]))
        cocycle = Path(tmp, "grid.cochain")
        cocycle.write_text(
            "".join(" ".join(map(str, s)) + f" {x}\n" for s, x in case["values"])
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["cech", "chern", "--nerve", str(nerve), "--cocycle", str(cocycle),
                 "--output", "json"]
            )
    return code, out.getvalue()


def record(case: dict) -> dict:
    code, stdout = chern_run(case)
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    out = {"space": case["space"], "n": case["n"], "m": case["m"], "stdout_sha256": digest}
    if case["space"] == "cube":
        out["exit_code"] = code
    else:
        assert code == cli.EXIT_OK
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(FIXTURE.read_text())


def test_fixture_matches_the_seeded_cases(golden):
    assert [(c["space"], c["n"], c["m"]) for c in golden] == [
        (c["space"], c["n"], c["m"]) for c in CASES
    ]


@pytest.mark.parametrize(
    "index",
    range(len(CASES)),
    ids=[f"{c['space']}{c['n']}-m{c['m']}-{i}" for i, c in enumerate(CASES)],
)
def test_chern_bytes_match_the_fixture(index, golden):
    assert record(CASES[index]) == golden[index]


if __name__ == "__main__":
    sys.stdout.write(json.dumps([record(c) for c in CASES], indent=1) + "\n")
