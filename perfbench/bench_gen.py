"""Seeded input generator for the orbitkit benchmark.

The same (workload, seed) always yields the same plan and the same files.
The program under test only ever sees the generated lambda strings and the
lattice, nerve and cochain files; the extra fields of each case (space,
grid size, the multiple ``m``, the cochain values) are kept for the checker.

A plan is ``{"workload", "seed", "warmup", "passes"}``.  Every pass of a
workload has the same composition -- the same series, lambda kinds, grid
sizes, degrees and rings in the same slots -- and differs only in its
seeded values, vertex labels and order.  The benchmark times whole passes,
so a run's input mix does not depend on how many passes fit in it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("orbit-survey", "orbit-rank4", "cech-h", "cech-chern")

SURVEY_SERIES = ("A1", "A2", "B2", "C2", "A1xA1", "A1xT1", "A2xT1", "B2xT1")
# one op per series per pass, the costliest (A3xB2) twice: with ten equal
# shares the median and the 90th percentile would fall on the step between
# two series' op times, where they jump from run to run; this way they fall
# inside A4's and A3xB2's
RANK4_SERIES = (
    "A4", "B4", "C4", "D4", "A3xA1", "A2xA2xT1", "B3xA1", "C3xA1", "D4xT1", "A3xB2", "A3xB2",
)
LAM_KINDS = ("regular", "singular", "zero", "generic")
LATTICES = ("sc", "adjoint", "custom")

# cech-h pass: (n, degree, ring) per grid, the same slots for torus and Klein
# bottle, then (d, degree, ring) on the sphere boundary of the (d+1)-simplex.
# Two slots at n = 7 put the 90th percentile inside their op times rather
# than on the step between n = 6 and n = 7.
CECH_H_GRID_SLOTS = (
    (4, 0, "z"), (4, 1, "q"), (4, 2, "z"), (4, 3, "q"),
    (5, 1, "z"), (5, 2, "q"),
    (6, 0, "q"), (6, 2, "z"),
    (7, 1, "q"), (7, 2, "z"),
)
CECH_H_BIG = {"torus": (8, 1, "z"), "klein": (8, 2, "z")}
CECH_H_SPHERE_SLOTS = tuple(
    (d, k, "z" if (d + k) % 2 == 0 else "q") for d in (1, 2, 3) for k in range(4)
)

# cech-chern pass: cocycles on torus and Klein grids, non-cocycles on a
# three-dimensional cube grid.  As in orbit-rank4, some slots come twice,
# so that the pass's median and 90th percentile fall inside one slot's op
# times (klein 7 and torus 12) rather than on the step between two.
CHERN_GRID_SLOTS = (
    ("torus", 6), ("torus", 8), ("torus", 10), ("torus", 12), ("torus", 12),
    ("klein", 7), ("klein", 7), ("klein", 9), ("klein", 11),
)
CHERN_NONCOCYCLES = 5
CUBE_GRID = 3


# ---------------------------------------------------------------- series


def series_blocks(series: str) -> list[tuple[str, int, int, int]]:
    """(letter, rank, start, stop) per factor, torus coordinates last."""
    factors = []
    torus = 0
    for token in series.split("x"):
        letter, rank = token[0], int(token[1:])
        if letter == "T":
            torus += rank
        else:
            factors.append((letter, rank))
    out = []
    pos = 0
    for letter, rank in factors:
        size = rank + 1 if letter == "A" else rank
        out.append((letter, rank, pos, pos + size))
        pos += size
    if torus:
        out.append(("T", torus, pos, pos + torus))
    return out


def fmt(x: Fraction) -> str:
    return str(Fraction(x))


def _distinct(rnd: random.Random, count: int, lo: int, hi: int) -> list[int]:
    return rnd.sample(range(lo, hi + 1), count)


def _semisimple_block(rnd: random.Random, letter: str, size: int, kind: str) -> list[Fraction]:
    den = rnd.choice((1, 1, 2))
    if kind == "zero":
        return [Fraction(0)] * size
    if kind == "generic":
        return [Fraction(rnd.randint(-9, 9), rnd.choice((1, 2, 3, 5))) for _ in range(size)]
    if letter == "A":
        vals = _distinct(rnd, size, -6, 6)
        if kind == "singular" and size > 1:
            i, j = rnd.sample(range(size), 2)
            vals[j] = vals[i]
        mean = Fraction(sum(vals), size)
        return [(Fraction(v) - mean) / den for v in vals]
    mags = _distinct(rnd, size, 1, 8)
    vals = [Fraction(m * rnd.choice((1, -1)), den) for m in mags]
    if kind == "singular":
        i = rnd.randrange(size)
        if size > 1 and rnd.random() < 0.5:
            j = rnd.choice([t for t in range(size) if t != i])
            vals[j] = vals[i] * rnd.choice((1, -1))
        else:
            vals[i] = Fraction(0)
    return vals


def make_lambda(rnd: random.Random, series: str, kind: str) -> list[str]:
    """Ambient coordinates of the given kind.  ``generic`` A-blocks are drawn
    without the sum-zero constraint, so the program must project them."""
    coords: list[Fraction] = []
    for letter, rank, start, stop in series_blocks(series):
        size = stop - start
        if letter == "T":
            if kind == "zero":
                coords += [Fraction(0)] * size
            else:
                coords += [Fraction(rnd.randint(-4, 4), rnd.choice((1, 2, 3))) for _ in range(size)]
            continue
        block = _semisimple_block(rnd, letter, size, kind)
        if kind == "generic" and letter == "A" and sum(block) == 0:
            block[0] += 1
        coords += block
    return [fmt(c) for c in coords]


def weight_lattice_generators(series: str) -> list[list[str]]:
    """Generators of the weight lattice of the semisimple part plus Z^k on
    the central torus, in ambient coordinates."""
    blocks = series_blocks(series)
    dim = blocks[-1][3]
    rows = []
    for letter, rank, start, stop in blocks:
        size = stop - start
        if letter == "A":
            for k in range(1, size):
                row = [Fraction(0)] * dim
                for i in range(size):
                    row[start + i] = (1 if i < k else 0) - Fraction(k, size)
                rows.append(row)
        else:
            for i in range(start, stop - (0 if letter in "CT" else 1)):
                row = [Fraction(0)] * dim
                row[i] = Fraction(1)
                rows.append(row)
            if letter in "BD":
                row = [Fraction(0)] * dim
                for i in range(start, stop):
                    row[i] = Fraction(1, 2)
                rows.append(row)
    return [[fmt(x) for x in row] for row in rows]


# ---------------------------------------------------------------- nerves


def grid_triangles(n: int, klein: bool) -> list[tuple[int, int, int]]:
    """Triangulated n x n torus (or Klein bottle: the wrap in the second
    direction reflects the first coordinate), vertex (i, j) -> i*n + j."""

    def v(i: int, j: int) -> int:
        if j == n:
            j = 0
            if klein:
                i = n - 1 - i
        return (i % n) * n + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [(a, b, d), (a, c, d)]
    return tris


def sphere_facets(d: int) -> list[tuple[int, ...]]:
    """Facets of the boundary of the (d+1)-simplex, a d-sphere."""
    return list(itertools.combinations(range(d + 2), d + 1))


def cube_grid_tetrahedra(c: int) -> list[tuple[int, ...]]:
    """Freudenthal triangulation of a c x c x c block of cubes."""
    side = c + 1

    def v(x: int, y: int, z: int) -> int:
        return (x * side + y) * side + z

    tets = []
    for x, y, z in itertools.product(range(c), repeat=3):
        for perm in itertools.permutations(range(3)):
            p = [x, y, z]
            verts = [v(*p)]
            for axis in perm:
                p[axis] += 1
                verts.append(v(*p))
            tets.append(tuple(verts))
    return tets


def relabel(rnd: random.Random, simplices: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Random vertex relabeling and line order; each simplex sorted."""
    verts = sorted({x for s in simplices for x in s})
    perm = dict(zip(verts, rnd.sample(verts, len(verts))))
    out = [tuple(sorted(perm[x] for x in s)) for s in simplices]
    rnd.shuffle(out)
    return out


def closure(simplices: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """All dim-dimensional faces of the given simplices, sorted."""
    faces = set()
    for s in simplices:
        faces.update(itertools.combinations(s, dim + 1))
    return sorted(faces)


def coboundary_values(values: dict, simplices: list[tuple[int, ...]]) -> dict:
    """delta of a cochain given as {face: value}, on the given simplices."""
    out = {}
    for s in simplices:
        total = 0
        for omit in range(len(s)):
            total += (-1) ** omit * values.get(s[:omit] + s[omit + 1:], 0)
        out[s] = total
    return out


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_nerve(path: str, simplices: list[tuple[int, ...]]) -> None:
    _write_lines(path, [" ".join(map(str, s)) for s in simplices])


def _write_cochain(rnd: random.Random, path: str, values: dict) -> None:
    items = [(s, v) for s, v in values.items() if v != 0]
    rnd.shuffle(items)
    _write_lines(path, ["# generated 2-cochain"] + [" ".join(map(str, s)) + f" {v}" for s, v in items])


# ---------------------------------------------------------------- cases


class _Files:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.count = 0

    def path(self, stem: str, ext: str) -> str:
        self.count += 1
        return os.path.join(self.out_dir, f"{self.count:05d}-{stem}.{ext}")


def _orbit_case(rnd, files, series, kind, lattice, cli: bool) -> dict:
    case = {"series": series, "lam_kind": kind, "lam": make_lambda(rnd, series, kind), "lattice": lattice}
    if lattice == "custom":
        gens = weight_lattice_generators(series)
        case["generators"] = gens
        if cli:
            path = files.path(series, "json")
            with open(path, "w") as fh:
                json.dump({"generators": gens}, fh)
            case["lattice_file"] = path
    return case


def _cech_h_case(rnd, files, space: str, size: int, k: int, ring: str) -> dict:
    if space == "sphere":
        simplices = sphere_facets(size)
    else:
        simplices = grid_triangles(size, space == "klein")
    path = files.path(f"{space}{size}", "nerve")
    _write_nerve(path, relabel(rnd, simplices))
    return {"space": space, "size": size, "k": k, "ring": ring, "nerve": path}


def _chern_case(rnd, files, space: str, size: int) -> dict:
    if space == "cube":
        simplices = relabel(rnd, cube_grid_tetrahedra(size))
    else:
        simplices = relabel(rnd, grid_triangles(size, space == "klein"))
    edges = closure(simplices, 1)
    faces = closure(simplices, 2)
    b = {e: rnd.randint(-3, 3) for e in edges}
    values = coboundary_values(b, faces)
    face = rnd.choice(faces)
    if space == "cube":
        m = rnd.choice((1, 2, -1, -3))
    else:
        m = rnd.choice((0, 1, -1, 2, -2, 3))
    values[face] += m
    nerve = files.path(f"{space}{size}", "nerve")
    cocycle = files.path(f"{space}{size}", "cochain")
    _write_nerve(nerve, simplices)
    _write_cochain(rnd, cocycle, values)
    case = {"space": space, "size": size, "m": m, "nerve": nerve, "cocycle": cocycle}
    if space == "cube":
        case["values"] = [[list(s), v] for s, v in sorted(values.items()) if v != 0]
    return case


def _pass(workload: str, rnd: random.Random, files: _Files) -> list[dict]:
    if workload == "orbit-survey":
        cases = [
            _orbit_case(rnd, files, s, kind, lat, cli=False)
            for s in SURVEY_SERIES
            for kind in LAM_KINDS
            for lat in LATTICES
        ]
    elif workload == "orbit-rank4":
        # one op per series, with the lambda kind and lattice fixed by the
        # series' slot, so that every pass has the same mix
        cases = [
            _orbit_case(rnd, files, s, LAM_KINDS[i % len(LAM_KINDS)],
                        LATTICES[i % len(LATTICES)], cli=True)
            for i, s in enumerate(RANK4_SERIES)
        ]
    elif workload == "cech-h":
        cases = []
        for space in ("torus", "klein"):
            for n, k, ring in CECH_H_GRID_SLOTS + (CECH_H_BIG[space],):
                cases.append(_cech_h_case(rnd, files, space, n, k, ring))
        for d, k, ring in CECH_H_SPHERE_SLOTS:
            cases.append(_cech_h_case(rnd, files, "sphere", d, k, ring))
    else:  # cech-chern
        cases = [_chern_case(rnd, files, space, n) for space, n in CHERN_GRID_SLOTS]
        cases += [_chern_case(rnd, files, "cube", CUBE_GRID) for _ in range(CHERN_NONCOCYCLES)]
    rnd.shuffle(cases)
    return cases


def _warmup(workload: str, rnd: random.Random, files: _Files) -> dict:
    if workload == "orbit-survey":
        return _orbit_case(rnd, files, "A1", "regular", "sc", cli=False)
    if workload == "orbit-rank4":
        return _orbit_case(rnd, files, "A1", "regular", "sc", cli=True)
    if workload == "cech-h":
        return _cech_h_case(rnd, files, "sphere", 1, 1, "z")
    return _chern_case(rnd, files, "klein", 4)


def generate(workload: str, seed: int, passes: int, out_dir: str) -> dict:
    """Write the inputs of ``passes`` passes under out_dir and return the
    plan; plan.json in out_dir holds the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rnd = random.Random(f"{workload}:{seed}")
    files = _Files(out_dir)
    plan = {
        "workload": workload,
        "seed": seed,
        "warmup": _warmup(workload, rnd, files),
        "passes": [_pass(workload, rnd, files) for _ in range(passes)],
    }
    with open(os.path.join(out_dir, "plan.json"), "w") as fh:
        json.dump(plan, fh)
    return plan
