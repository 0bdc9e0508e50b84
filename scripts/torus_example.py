#!/usr/bin/env python3
"""Write a randomly relabelled torus, Klein-bottle or cube-grid nerve and an integer 2-cochain on it.

The torus nerve is the triangulated n x n torus grid, vertex (i, j) -> i*n + j;
with --klein the wrap in the second direction reflects the first coordinate,
which makes it a Klein bottle, and with --cube it is the Freudenthal
triangulation of an n x n x n block of cubes instead, vertex (x, y, z) ->
(x*(n+1) + y)*(n+1) + z.  Its vertices are relabelled by a permutation drawn
from random.Random(seed).  The cochain is delta(b) for a random 1-cochain b
with values in [-3, 3], drawn from the same generator, plus 2 on one randomly
chosen face.  On the torus it is a cocycle whose class is twice a generator
of H^2 = Z, on the Klein bottle one whose class in H^2 = Z/2 is trivial; on
the cube grid it is not closed, so `cech chern` exits 3 and names a witness.

Usage: python3 scripts/torus_example.py --n 32 --seed 32 --out examples/torus32
writes examples/torus32.nerve and examples/torus32.cochain; n = 12 with
seed 12 reproduces examples/torus12.*, and

    python3 scripts/torus_example.py --cube --n 3 --seed 3 --out examples/cube3 \\
        --cochain examples/cube3_open.cochain

reproduces examples/cube3.nerve and examples/cube3_open.cochain.
"""

import argparse
import itertools
import random


def torus_triangles(n: int, klein: bool = False) -> list[tuple[int, int, int]]:
    """A Klein bottle when the wrap in the second direction reflects the first."""

    def v(i, j):
        if klein and j == n:
            i = n - 1 - i
        return (i % n) * n + j % n

    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [(a, b, d), (a, c, d)]
    return tris


def cube_tetrahedra(n: int) -> list[tuple[int, int, int, int]]:
    """One tetrahedron per cube and order of the three unit steps."""
    side = n + 1
    tets = []
    for corner in itertools.product(range(n), repeat=3):
        for steps in itertools.permutations(range(3)):
            p = list(corner)
            verts = [(p[0] * side + p[1]) * side + p[2]]
            for axis in steps:
                p[axis] += 1
                verts.append((p[0] * side + p[1]) * side + p[2])
            tets.append(tuple(verts))
    return tets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="path prefix of the two files")
    shape = parser.add_mutually_exclusive_group()
    shape.add_argument("--cube", action="store_true", help="an n x n x n cube grid")
    shape.add_argument("--klein", action="store_true", help="an n x n Klein bottle")
    parser.add_argument("--cochain", help="cochain path (default: PREFIX.cochain)")
    args = parser.parse_args()
    n, rng = args.n, random.Random(args.seed)

    if args.cube:
        count, top, name = (n + 1) ** 3, cube_tetrahedra(n), f"{n}x{n}x{n} cube grid"
    else:
        surface = "Klein bottle" if args.klein else "torus"
        count, top, name = n * n, torus_triangles(n, args.klein), f"{n}x{n} {surface}"
    perm = rng.sample(range(count), count)
    tops = sorted(tuple(sorted(perm[x] for x in s)) for s in top)
    tris = sorted({f for s in tops for f in itertools.combinations(s, 3)})
    edges = sorted({(s[a], s[b]) for s in tris for a, b in ((0, 1), (0, 2), (1, 2))})
    b = {e: rng.randint(-3, 3) for e in edges}
    values = {s: b[s[1:]] - b[(s[0], s[2])] + b[s[:2]] for s in tris}
    face = rng.choice(tris)
    values[face] += 2

    with open(f"{args.out}.nerve", "w") as f:
        f.write(f"# triangulated {name}, vertices relabelled at random (seed {args.seed})\n")
        f.writelines(" ".join(map(str, s)) + "\n" for s in tops)
    with open(args.cochain or f"{args.out}.cochain", "w") as f:
        f.write(
            "# delta(b) for a random integer 1-cochain b, plus 2 on the face "
            + " ".join(map(str, face)) + "\n"
        )
        f.writelines(
            " ".join(map(str, s)) + f" {x}\n" for s, x in sorted(values.items()) if x
        )


if __name__ == "__main__":
    main()
