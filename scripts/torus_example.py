#!/usr/bin/env python3
"""Write a randomly relabelled n x n torus nerve and an integer 2-cocycle on it.

The nerve is the triangulated n x n torus grid, vertex (i, j) -> i*n + j,
with its vertices relabelled by a permutation drawn from random.Random(seed).
The cocycle is delta(b) for a random 1-cochain b with values in [-3, 3],
drawn from the same generator, plus 2 on one randomly chosen face, so its
class is twice a generator of H^2 = Z.

Usage: python3 scripts/torus_example.py --n 32 --seed 32 --out examples/torus32
writes examples/torus32.nerve and examples/torus32.cochain; n = 12 with
seed 12 reproduces examples/torus12.*.
"""

import argparse
import random


def torus_triangles(n: int) -> list[tuple[int, int, int]]:
    def v(i, j):
        return (i % n) * n + j % n

    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [(a, b, d), (a, c, d)]
    return tris


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="path prefix of the two files")
    args = parser.parse_args()
    n, rng = args.n, random.Random(args.seed)

    perm = rng.sample(range(n * n), n * n)
    tris = sorted(tuple(sorted(perm[x] for x in s)) for s in torus_triangles(n))
    edges = sorted({(s[a], s[b]) for s in tris for a, b in ((0, 1), (0, 2), (1, 2))})
    b = {e: rng.randint(-3, 3) for e in edges}
    values = {s: b[s[1:]] - b[(s[0], s[2])] + b[s[:2]] for s in tris}
    face = rng.choice(tris)
    values[face] += 2

    with open(f"{args.out}.nerve", "w") as f:
        f.write(f"# triangulated {n}x{n} torus, vertices relabelled at random (seed {args.seed})\n")
        f.writelines(" ".join(map(str, s)) + "\n" for s in tris)
    with open(f"{args.out}.cochain", "w") as f:
        f.write(
            "# delta(b) for a random integer 1-cochain b, plus 2 on the face "
            + " ".join(map(str, face)) + "\n"
        )
        f.writelines(
            " ".join(map(str, s)) + f" {x}\n" for s, x in sorted(values.items()) if x
        )


if __name__ == "__main__":
    main()
