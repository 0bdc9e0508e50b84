"""Kirillov's dimension formula as an oracle of the report's KKS blocks.

For a dominant integral lambda, dim V_lambda is the Liouville volume of the
orbit of lambda + rho over that of the orbit of rho (Kirillov, *Lectures on
the Orbit Method*, Ch. 5).  The KKS form of a report is block-diagonal, so
that ratio is prod blocks(lambda + rho) / prod blocks(rho): the per-root
constant cancels, and the ratio checks the pairings, the set of labels and
their signs.  It is compared with two sources that do not touch the orbit
code: dimensions from the classification tables, and on A1-A3 a brute-force
count of semistandard tableaux.  A torus factor adds no block.

The Harish-Chandra form of the same volume touches no orbit code either:
with N = |Phi+| and a regular integer H, the ratio is
sum_w e(w) <w(lambda + rho), H>^N / sum_w e(w) <w rho, H>^N over the Weyl
group, here the signed permutations of `tests/models.py`.  Both sums are
W-skew polynomials of degree N in H, so each is a multiple of prod <alpha, H>
over the positive roots, and the ratio is Weyl's prod <lambda + rho, alpha> /
prod <rho, alpha>.  It is checked against the blocks on every dominant
integral lambda with Dynkin labels below 4, on A1-A4, B1-B4, C1-C4 and
D2-D4, spinor weights included.

A non-dominant input, a Weyl image of a tabled lambda, gives the same
dimension through its report's `verdict.dominant_rep`.  On products with
T1 and T2 the verdict is `nonzero_irreducible` exactly when every coroot
pairing of lambda is an integer and so is every torus coordinate.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from orbitkit import LatticeSpec, Weight, analyze_orbit, build_root_system, parse_series
from orbitkit.quantize import NONZERO_IRREDUCIBLE, SIMPLY_CONNECTED
from orbitkit.rootsys import default_chamber_seed

import root_reference as ref
from models import signed_permutation_images, signed_permutations

SC = LatticeSpec(SIMPLY_CONNECTED)


def kirillov_dimension(series, lam):
    rs = build_root_system(parse_series(series))
    rho = default_chamber_seed(rs).coords
    shifted = [Fraction(x) + r for x, r in zip(lam, rho)]
    blocks = analyze_orbit(rs, shifted, SC).kks.blocks
    base = analyze_orbit(rs, rho, SC).kks.blocks
    assert len(blocks) == len(base)
    return prod(blocks, start=Fraction(1)) / prod(base, start=Fraction(1))


def semistandard_tableaux(shape, n):
    """Count the fillings of shape by 1..n, weakly increasing along rows and
    strictly down columns, row by row."""

    def rows_below(above, rest):
        if not rest:
            return 1
        return sum(
            rows_below(row, rest[1:])
            for row in combinations_with_replacement(range(1, n + 1), rest[0])
            if all(x > y for x, y in zip(row, above))
        )

    return rows_below((), shape)


HALF = Fraction(1, 2)
TABLE = [
    ("B2", (1, 0), 5),
    ("B2", (HALF, HALF), 4),
    ("C2", (1, 0), 4),
    ("C2", (1, 1), 5),
    ("B3", (1, 1, 0), 21),
    ("C3", (2, 0, 0), 21),
    ("D4", (1, 0, 0, 0), 8),
    ("D4", (HALF, HALF, HALF, HALF), 8),
    ("D4", (HALF, HALF, HALF, -HALF), 8),
    ("D4", (1, 1, 0, 0), 28),
]


@pytest.mark.parametrize("series, lam, dim", TABLE, ids=lambda x: str(x))
def test_kirillov_gives_the_tabled_dimensions(series, lam, dim):
    assert kirillov_dimension(series, lam) == dim


# every dominant lambda of A1, A2 and A3 with each Dynkin label at most 3:
# 4 + 16 + 64 = 84 weights, as partitions with last part 0
PARTITIONS = [
    (rank, tuple(sum(labels[i:]) for i in range(rank)) + (0,))
    for rank in (1, 2, 3)
    for labels in product(range(4), repeat=rank)
]


def test_there_are_84_partitions():
    assert len(PARTITIONS) == 84


@pytest.mark.parametrize("rank, shape", PARTITIONS, ids=lambda x: str(x))
def test_kirillov_counts_the_semistandard_tableaux(rank, shape):
    assert kirillov_dimension(f"A{rank}", shape) == semistandard_tableaux(shape, rank + 1)


def test_a_torus_factor_adds_no_block():
    # (2, 0) on A1 is V of dimension 3; the torus coordinate 5 changes nothing
    assert kirillov_dimension("A1xT1", (2, 0, 5)) == kirillov_dimension("A1", (2, 0)) == 3
    rs = build_root_system(parse_series("A1xT1"))
    assert len(analyze_orbit(rs, default_chamber_seed(rs).coords, SC).kks.blocks) == 1


def weyl_images(series, lam, count):
    """Up to count images of lam under the Weyl group of the single factor
    series other than lam itself, spread over their sorted list: none is
    dominant, since an orbit meets the dominant chamber once."""
    point = tuple(Fraction(x) for x in lam)
    images = sorted(signed_permutation_images(point, series[0]) - {point})
    return images[::max(1, len(images) // count)][:count]


@pytest.mark.parametrize("series, lam, dim", TABLE, ids=lambda x: str(x))
def test_non_dominant_inputs_give_the_dimension_through_dominant_rep(series, lam, dim):
    rs = build_root_system(parse_series(series))
    for mu in weyl_images(series, lam, 6):
        verdict = analyze_orbit(rs, mu, SC).verdict
        assert verdict.integral and not verdict.is_dominant_input
        assert kirillov_dimension(series, verdict.dominant_rep.coords) == dim


@pytest.mark.parametrize("rank, shape", [p for p in PARTITIONS if any(p[1])],
                         ids=lambda x: str(x))
def test_reversed_partitions_give_the_tableau_count(rank, shape):
    verdict = analyze_orbit(f"A{rank}", shape[::-1], SC).verdict
    assert not verdict.is_dominant_input
    dim = kirillov_dimension(f"A{rank}", verdict.dominant_rep.coords)
    assert dim == semistandard_tableaux(shape, rank + 1)


THIRD = Fraction(1, 3)
SEMISIMPLE = {
    "A1": [(1, -1), (HALF, -HALF), (HALF / 2, -HALF / 2), (0, 0)],
    "B2": [(HALF, HALF), (1, 0), (HALF, 0)],
    "C2": [(1, 1), (HALF, HALF)],
    "D3": [(HALF, HALF, HALF), (1, 0, 0), (HALF, HALF, 0)],
}
TORUS = {1: [(0,), (3,), (-HALF,), (THIRD,)],
         2: [(0, 0), (1, -2), (HALF, 1), (1, THIRD)]}
TORUS_CASES = [
    (semisimple, k, lam, t)
    for semisimple, k in (("A1", 1), ("A1", 2), ("B2", 1), ("C2", 2), ("D3", 1))
    for lam in SEMISIMPLE[semisimple]
    for t in TORUS[k]
]


@pytest.mark.parametrize("semisimple, k, lam, torus", TORUS_CASES, ids=lambda x: str(x))
def test_torus_products_are_irreducible_iff_every_coordinate_is_integral(
    semisimple, k, lam, torus
):
    series = f"{semisimple}xT{k}"
    rs = build_root_system(parse_series(series))
    weight = Weight(tuple(Fraction(x) for x in lam + torus))
    every_coroot = all(ref.coroot_pairing(weight, a, rs).denominator == 1 for a in rs.roots)
    want = every_coroot and ref.torus_integral(weight, rs)
    verdict = analyze_orbit(rs, weight.coords, SC).verdict
    assert (verdict.borel_weil == NONZERO_IRREDUCIBLE) == want
    if want:
        # V_lambda is the semisimple part's irreducible, the torus acting by a character
        dom = verdict.dominant_rep.coords
        dim = kirillov_dimension(series, dom)
        assert dim == kirillov_dimension(semisimple, dom[:len(lam)])
        assert dim.denominator == 1 and dim >= 1


# -- the Harish-Chandra side ---------------------------------------------------

# a regular H: distinct nonzero absolute values, and on A distinct entries with sum 0
H_PARTS = (29, 17, 10, 4)
LABELS = range(4)


def fundamental_weights(letter, rank):
    """The fundamental weights of one factor in its ambient coordinates
    (Bourbaki, Ch. VI, Plates I-IV); on A as partitions, off the sum-zero
    hyperplane, which the A-side H ignores."""
    size = rank + 1 if letter == "A" else rank
    first = [tuple([1] * i + [0] * (size - i)) for i in range(1, rank + 1)]
    if letter in "AC":
        return first
    spin = tuple([HALF] * rank)
    if letter == "B":
        return first[:-1] + [spin]
    return first[:-2] + [spin[:-1] + (-HALF,), spin]


def dominant_integral_weights(letter, rank):
    """Every sum of fundamental weights with each Dynkin label in LABELS."""
    omegas = fundamental_weights(letter, rank)
    return [tuple(sum(a * w[i] for a, w in zip(labels, omegas)) for i in range(len(omegas[0])))
            for labels in product(LABELS, repeat=rank)]


def harish_chandra_dimension(letter, rank, lam):
    """sum_w e(w) <w(lam + rho), H>^N / sum_w e(w) <w rho, H>^N, exact: twice
    lam + rho and rho are integers, and the factor 2^N cancels."""
    rs = build_root_system(parse_series(f"{letter}{rank}"))
    n, size = len(rs.roots) // 2, rs.ambient_dim
    h = list(H_PARTS[:size - 1]) + [-sum(H_PARTS[:size - 1])] if letter == "A" else H_PARTS[:size]
    rho = default_chamber_seed(rs).coords

    def skew_sum(mu):
        twice = [int(2 * x) for x in mu]
        return sum(det * sum(s * twice[q] * hi for s, q, hi in zip(signs, p, h)) ** n
                   for p, signs, det in signed_permutations(size, letter))

    return Fraction(skew_sum([Fraction(x) + r for x, r in zip(lam, rho)]), skew_sum(rho))


HC_SERIES = [(letter, rank) for letter in "ABCD" for rank in range(2 if letter == "D" else 1, 5)]


@pytest.mark.parametrize("letter", "ABCD")
def test_there_are_200_dominant_weights_per_type(letter):
    count = sum(len(dominant_integral_weights(l, r)) for l, r in HC_SERIES if l == letter)
    assert count >= 200


@pytest.mark.parametrize("letter, rank", HC_SERIES, ids=lambda x: str(x))
def test_harish_chandra_sums_give_the_kirillov_dimension(letter, rank):
    for lam in dominant_integral_weights(letter, rank):
        dim = harish_chandra_dimension(letter, rank, lam)
        assert dim.denominator == 1 and dim >= 1
        assert kirillov_dimension(f"{letter}{rank}", lam) == dim


def test_harish_chandra_sums_give_the_tabled_dimensions():
    for series, lam, dim in TABLE:
        assert harish_chandra_dimension(series[0], int(series[1:]), lam) == dim
