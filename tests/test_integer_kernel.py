"""Weights meet roots in integers: the integer kernel of `rootsys` and its
callers, checked against the `Fraction`-sum code they replaced
(`tests/root_reference.py`) on A/B/C/D series up to rank 22, alone and in
products with each other and with torus factors.

The weights mix small and large denominators, and carry repeated
coordinates, zeros and opposite signs, so that singular sets, walls and
non-integral pairings all occur.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import root_reference as ref
from orbitkit import (
    InputError,
    LatticeSpec,
    Weight,
    build_root_system,
    default_order,
    dominant_representative,
    is_dominant,
    is_integral,
    parse_series,
    positive_roots,
    singular_roots,
)
from orbitkit.orbit import (
    _build_polarization,
    admissible_positive_system,
    kks_matrix,
    stabilizer_report,
)
from orbitkit.linalg import mat_vec
from orbitkit.quantize import SIMPLY_CONNECTED
from orbitkit.rootsys import coroot_value, default_chamber_seed, pairing, root_numerators
from orbitkit.weyl import reflection

SC = LatticeSpec(SIMPLY_CONNECTED)
SERIES = (
    "A1", "B2", "C2", "D2", "A3xT1", "B3xC2", "C4xT2", "D5xA2", "B2xC3xD4xT1",
    "A22", "B22", "C22", "D22", "C22xT1", "A10xC10xT1", "B12xD10", "A31",
)
DENOMINATORS = (1, 1, 2, 3, 4, 7, 9, 10**20 + 39, 3 * 10**41 + 21)


@lru_cache(maxsize=None)
def system(series):
    return build_root_system(parse_series(series))


@st.composite
def weights(draw, rs):
    """Coordinates drawn from a small pool of rationals with mixed
    denominators, each maybe negated or replaced by zero."""
    pool = draw(st.lists(
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS)),
        min_size=1, max_size=6,
    ))
    coords = []
    for _ in range(rs.ambient_dim):
        x = draw(st.sampled_from(pool)) * draw(st.sampled_from((1, -1)))
        coords.append(Fraction(0) if draw(st.integers(0, 6)) == 0 else x)
    return Weight(tuple(coords))


cases = st.sampled_from(SERIES).flatmap(
    lambda s: st.tuples(st.just(system(s)), weights(system(s)), weights(system(s)))
)


def roots_to_pair(rs):
    """Every root on small systems, every seventh one on large ones."""
    return rs.roots if len(rs.roots) <= 100 else rs.roots[::7]


@settings(max_examples=60, deadline=None)
@given(cases)
@example((system("C2"), Weight((Fraction(1, 3), Fraction(-2, 7))), Weight((1, 0))))
def test_kernels_agree_with_the_fraction_sums(case):
    rs, lam, mu = case
    for other in (mu, *roots_to_pair(rs)):
        got = pairing(lam, other, rs)
        assert got == ref.pairing(lam, other, rs) and type(got) is Fraction
    scan, d = root_numerators(lam, rs), lam.integer_form[1]
    for alpha in roots_to_pair(rs):
        k = rs.index[alpha.coords]
        got = coroot_value(scan[k], rs.supports[k])
        assert Fraction(got, d) == ref.coroot_pairing(lam, alpha, rs) and type(got) is int
    # a reflection matrix has n^2 entries, so past rank 12 this samples the
    # roots; test_reflection_matrices_are_the_reference_reflections checks
    # every root that roots_to_pair gives, once for all weights
    for alpha in roots_to_pair(rs)[:: 1 if rs.ambient_dim <= 12 else 5]:
        assert mat_vec(reflection(alpha, rs), lam.coords) == ref.reflect(lam, alpha, rs).coords


@pytest.mark.parametrize("series", SERIES)
def test_reflection_matrices_are_the_reference_reflections(series):
    # column a of reflection(alpha) is the reflection of the basis vector
    # e_a, so the matrix is the old reflect, a linear map, on every weight
    rs = system(series)
    n = rs.ambient_dim
    basis = [Weight(tuple(Fraction(int(a == b)) for b in range(n))) for a in range(n)]
    for alpha in roots_to_pair(rs):
        columns = [ref.reflect(e, alpha, rs).coords for e in basis]
        assert reflection(alpha, rs) == tuple(zip(*columns))


@settings(max_examples=40, deadline=None)
@given(cases)
@example((system("C22"), Weight(tuple(Fraction((-1) ** k * (k + 1), 3 if k % 2 else 7)
                                      for k in range(22))), Weight((0,) * 22)))
def test_orbit_callers_agree_with_the_fraction_sums(case):
    rs, lam, _ = case
    assert singular_roots(lam, rs) == ref.singular_roots(lam, rs)
    seed = ref.admissible_chamber_seed(lam, rs)
    sing = singular_roots(lam, rs)
    order, cert = admissible_positive_system(lam, rs)
    assert list(order.positive) == ref.positive_split(rs, seed)
    assert is_dominant(lam, order) == ref.is_dominant(lam, order) == True  # noqa: E712
    pol = _build_polarization(order, sing, cert)
    assert kks_matrix(lam, pol).blocks == ref.kks_blocks(lam, pol.b_roots, rs)
    default = default_order(rs)
    assert is_dominant(lam, default) == ref.is_dominant(lam, default)
    dom, word = dominant_representative(lam, default)
    ref_dom, ref_word = ref.dominant_representative(lam, default)
    assert word == ref_word
    assert dom.coords == ref_dom.coords
    # P + Z^k: the old coroot test, and every torus coordinate in Z
    torus = ref.torus_integral(lam, rs)
    assert is_integral(lam, SC, rs) == (ref.is_integral_sc(lam, default) and torus)
    assert is_integral(dom, SC, rs) == (ref.is_integral_sc(dom, default) and torus)


@st.composite
def wall_weights(draw, rs):
    """lambda = 0, or coordinates drawn from at most three small values, each
    maybe negated: they repeat, cancel and vanish, torus coordinates too, so
    lambda lies on many walls."""
    if draw(st.integers(0, 5)) == 0:
        return Weight((0,) * rs.ambient_dim)
    pool = draw(st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3))),
                         min_size=1, max_size=3))
    return Weight(tuple(draw(st.sampled_from(pool)) * draw(st.sampled_from((1, -1)))
                        for _ in range(rs.ambient_dim)))


wall_cases = st.sampled_from(SERIES).flatmap(
    lambda s: st.tuples(st.just(system(s)), wall_weights(system(s)))
)


@settings(max_examples=60, deadline=None)
@given(wall_cases)
@example((system("A3xT1"), Weight((0,) * 5)))
@example((system("B2xC3xD4xT1"), Weight((1, 1, 0, -1, 1, 0, 0, -1, 1, 2))))
def test_admissible_order_is_the_chamber_of_the_reference_seed(case):
    # p or r per root is the sign of (lam + t rho, alpha) for every small
    # t > 0, the old seed's t among them
    rs, lam = case
    order, _ = admissible_positive_system(lam, rs)
    want = positive_roots(rs, ref.admissible_chamber_seed(lam, rs))
    assert order.positive == want.positive
    assert order.simple == want.simple


@settings(max_examples=40, deadline=None)
@given(wall_cases)
@example((system("D22"), Weight((0,) * 22)))
@example((system("A3xB2xC2xD3xT1"), Weight((2, 2, -1, -3, 1, 0, 2, -2, 1, -1, 0, 1))))
@example((system("B22"), Weight(tuple(range(22, 0, -1)))))
@example((system("C22"), Weight(tuple(range(22, 0, -1)))))
@example((system("A31"), Weight(tuple(range(31, -1, -1)))))
def test_simple_roots_of_the_admissible_order_are_the_indecomposable_ones(case):
    # the 2 rho rule against the old search for positive roots that are not
    # a sum of two positives, in the same textbook order
    rs, lam = case
    order, _ = admissible_positive_system(lam, rs)
    want = ref.simple_roots(order.positive)
    want.sort(key=lambda a: (next(i for i, x in enumerate(a.coords) if x), a.coords))
    assert order.simple == tuple(want)
    assert len(want) == rs.rank - rs.spec.torus_rank


@settings(max_examples=60, deadline=None)
@given(wall_cases)
@example((system("A3xT1"), Weight((0,) * 5)))
def test_t1_equations_are_the_singular_roots_positive_for_rho(case):
    rs, lam = case
    positive = {a.coords for a in ref.positive_split(rs, default_chamber_seed(rs))}
    want = tuple(a for a in ref.singular_roots(lam, rs) if a.coords in positive)
    assert stabilizer_report(lam, rs).t1_equations == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SERIES[:9]).flatmap(
    lambda s: st.tuples(st.just(system(s)), st.lists(
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 4))),
        min_size=system(s).ambient_dim, max_size=system(s).ambient_dim))))
def test_sc_integrality_agrees_on_weights_near_the_lattice(case):
    # denominators 1, 2 and 4 make integral and half-integral weights common;
    # P + Z^k is the old coroot test with every torus coordinate in Z
    rs, coords = case
    lam = Weight(tuple(coords))
    want = ref.is_integral_sc(lam, default_order(rs)) and ref.torus_integral(lam, rs)
    assert is_integral(lam, SC, rs) == want


def test_a_seed_on_a_wall_is_refused_with_the_same_root():
    rs = system("B3xC2")
    seed = Weight((3, 2, 2, 1, 5))
    with pytest.raises(InputError) as got:
        positive_roots(rs, seed)
    with pytest.raises(InputError) as want:
        ref.positive_split(rs, seed)
    assert str(got.value) == str(want.value)


def test_a_scan_follows_the_root_system():
    # B3 and C3 share their coordinates but not their roots
    lam = Weight((Fraction(1, 2), Fraction(-1, 3), 2))
    for series in ("B3", "C3", "B3"):
        rs = build_root_system(parse_series(series))
        assert root_numerators(lam, rs) == [
            ref.pairing(lam, a, rs) * lam.integer_form[1] for a in rs.roots
        ]


def test_scans_check_the_dimension():
    rs = system("D5xA2")
    with pytest.raises(InputError, match="coordinates, expected 8"):
        root_numerators(Weight((1, 2, 3)), rs)
    with pytest.raises(InputError, match="coordinates, expected 8"):
        dominant_representative(Weight((1, 2, 3)), default_order(rs))
    with pytest.raises(InputError, match="coordinates, expected 8"):
        is_integral(Weight((1, 2, 3)), SC, rs)


def test_reflecting_in_the_zero_vector_is_refused():
    rs = system("A1")
    with pytest.raises(InputError, match="is not a root of this system"):
        reflection(Weight((0, 0)), rs)
    with pytest.raises(ZeroDivisionError):
        ref.reflect(Weight((1, -1)), Weight((0, 0)), rs)
