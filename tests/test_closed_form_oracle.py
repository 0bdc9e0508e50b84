"""Closed-form oracle for high-rank reports (Bourbaki, Lie Groups and Lie
Algebras, Ch. VI, Planches I-IV).

In the fixed realization the singular set of lambda follows from coordinate
equalities alone, block by block:

* A: e_i - e_j is singular iff lambda_i = lambda_j;
* B, C, D: ±(e_i - e_j) iff lambda_i = lambda_j, and ±(e_i + e_j) iff
  lambda_i = -lambda_j; for B the short roots ±e_i, and for C the long roots
  ±2 e_i, iff lambda_i = 0.

From that set and the closed-form root counts follow dim g_lambda and
dim O_lambda.  Each KKS block is checked against 2 (lambda, alpha), taken
here as a plain Fraction dot product.  None of this reads the root kernel,
the root table or the Weyl group, and it reaches ranks that the su(n) oracle
and the permutation models cannot.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from orbitkit import LatticeSpec, analyze_orbit
from orbitkit.quantize import SIMPLY_CONNECTED

SC = LatticeSpec(SIMPLY_CONNECTED)
SERIES = ("A31", "B22", "C22", "D22", "A31xT1", "B22xT2", "C22xT1", "D22xT3",
          "A4xB3xC3xD4xT2")
DENOMINATORS = (1, 2, 3, 5, 7, 12, 10**9 + 7, 10**30 + 57)


def blocks(series):
    """(letter, rank, start, stop) per factor, torus coordinates last."""
    factors, torus = [], 0
    for token in series.split("x"):
        letter, rank = token[0], int(token[1:])
        if letter == "T":
            torus += rank
        else:
            factors.append((letter, rank))
    out, pos = [], 0
    for letter, rank in factors:
        size = rank + 1 if letter == "A" else rank
        out.append((letter, rank, pos, pos + size))
        pos += size
    if torus:
        out.append(("T", torus, pos, pos + torus))
    return out


def root_count(letter, n):
    return {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n, "D": 2 * n * (n - 1)}[letter]


def expected_singular(series, lam):
    """The singular set of lam, from its coordinate equalities."""
    dim = len(lam)

    def root(*entries):
        v = [0] * dim
        for i, x in entries:
            v[i] = x
        return tuple(v)

    out = set()
    for letter, _, start, stop in blocks(series):
        if letter == "T":
            continue
        for i in range(start, stop):
            for j in range(start, stop):
                if i != j and lam[i] == lam[j]:
                    out.add(root((i, 1), (j, -1)))
                if letter != "A" and i < j and lam[i] == -lam[j]:
                    out |= {root((i, 1), (j, 1)), root((i, -1), (j, -1))}
            if letter in "BC" and lam[i] == 0:
                k = 1 if letter == "B" else 2
                out |= {root((i, k)), root((i, -k))}
    return out


def random_lambda(rnd, series):
    """A few rationals with mixed denominators, placed with repeats, zeros
    and opposite signs."""
    dim = blocks(series)[-1][3]
    pool = [Fraction(rnd.randint(-30, 30), rnd.choice(DENOMINATORS))
            for _ in range(rnd.randint(2, max(2, dim // 3)))]
    lam = []
    for _ in range(dim):
        r = rnd.random()
        lam.append(Fraction(0) if r < 0.1 else rnd.choice(pool) * rnd.choice((1, -1)))
    return lam


@pytest.mark.parametrize("series", SERIES)
def test_reports_match_the_closed_form(series):
    rnd = random.Random(f"closed-form {series}")
    for _ in range(3):
        lam = random_lambda(rnd, series)
        report = analyze_orbit(series, [str(x) for x in lam], SC)
        sing = expected_singular(series, lam)
        assert {a.coords for a in report.stabilizer.singular} == sing
        roots = sum(root_count(l, r) for l, r, _, _ in blocks(series) if l != "T")
        rank = sum(r for _, r, _, _ in blocks(series))
        assert report.stabilizer.dim_g_lambda == rank + len(sing)
        assert report.dim_orbit == roots - len(sing)
        # an A-block is projected onto its sum-zero hyperplane, which moves no
        # pairing with a root, so the blocks are read off the input lambda
        assert len(report.kks.blocks) == (roots - len(sing)) // 2
        for alpha, value in zip(report.kks.basis_labels, report.kks.blocks):
            assert alpha.coords not in sing
            assert value == 2 * sum((x * a for x, a in zip(lam, alpha.coords)), Fraction(0))


def test_the_closed_form_sees_zeros_and_opposite_signs():
    # B2: lambda = (1, -1) kills e_1 + e_2; C2: lambda = (0, 3) kills 2 e_1
    assert expected_singular("B2", [Fraction(1), Fraction(-1)]) == {(1, 1), (-1, -1)}
    assert expected_singular("C2", [Fraction(0), Fraction(3)]) == {(2, 0), (-2, 0)}
    assert expected_singular("D2", [Fraction(0), Fraction(0)]) == {
        (1, -1), (-1, 1), (1, 1), (-1, -1)}
