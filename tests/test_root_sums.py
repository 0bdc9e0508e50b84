"""Root addition through `rootsys.root_sums`, checked against the pairwise
loops it replaced (`tests/root_reference.py`) on series up to B22 and D22,
including products with torus factors.

The checks compared are the enumerator itself, the closure of a root subset,
conditions (i) and (ii) of T1-admissibility, and the simple roots of a
positive system, which are now read off 2 rho with no root sum.  The closure
of b_roots + singular, which the polarization no longer checks at run time,
is checked here.  Two orbit facts ride along:
dim O_lambda = 2 |b_roots|, and integrality is invariant under every simple
reflection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import root_reference as ref
from orbitkit import (
    LatticeSpec,
    TheoremViolationError,
    Weight,
    admissible_positive_system,
    analyze_orbit,
    build_root_system,
    default_order,
    is_integral,
    pairing,
    parse_series,
    polarization,
    positive_roots,
    singular_roots,
)
from orbitkit import orbit, rootsys
from orbitkit.orbit import _check_closed, check_admissibility
from orbitkit.quantize import ADJOINT, SIMPLY_CONNECTED
from orbitkit.rootsys import RootOrder, root_sums

SC = LatticeSpec(SIMPLY_CONNECTED)
AD = LatticeSpec(ADJOINT)

SMALL = ("A1", "A3", "B2", "B3", "C2", "C3", "D2", "D4", "A2xT1", "B2xT2", "A1xC2xT1",
         "C2xD3", "A2xB2", "B3xC2xD3")
LARGE = ("B8", "D8", "C6xA2", "B12xT1", "D12", "A12xT2", "B22", "D22", "B22xT2", "D22xT1",
         "C22", "A31", "B10xD10xT2")
SERIES = SMALL + LARGE
series_st = st.one_of(st.sampled_from(SMALL), st.sampled_from(SERIES))


@lru_cache(maxsize=None)
def system(series):
    return build_root_system(parse_series(series))


def raises(check, *args) -> bool:
    try:
        check(*args)
    except TheoremViolationError:
        return True
    return False


@st.composite
def chamber_seeds(draw, rs):
    """A regular seed in a random Weyl chamber: the magnitudes 1..n, each on
    its own coordinate with a random sign, so no root is orthogonal to it."""
    n = rs.ambient_dim
    mags = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return Weight(tuple(s * m for s, m in zip(signs, mags)))


@st.composite
def near_regular(draw, rs):
    """A chamber seed with a few coordinates zeroed or copied, up to sign,
    from another one: its singular set is small, closed and rarely empty."""
    coords = list(draw(chamber_seeds(rs)).coords)
    n = len(coords)
    for _ in range(draw(st.integers(0, min(3, n)))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        coords[i] = draw(st.sampled_from((0, coords[j], -coords[j])))
    return Weight(tuple(coords))


@st.composite
def subsets(draw):
    """(rs, subset): random sets of roots, closed singular sets, and singular
    sets with one root added or removed."""
    rs = system(draw(series_st))
    kind = draw(st.sampled_from(("random", "singular", "singular+1", "singular-1")))
    if kind == "random":
        k = draw(st.integers(1, min(40, len(rs.roots))))
        return rs, tuple(draw(st.lists(st.sampled_from(rs.roots), min_size=k, max_size=k,
                                       unique=True)))
    sing = singular_roots(draw(near_regular(rs)), rs)
    if kind == "singular+1":
        return rs, sing + (draw(st.sampled_from(rs.roots)),)
    if kind == "singular-1" and sing:
        drop = draw(st.integers(0, len(sing) - 1))
        return rs, sing[:drop] + sing[drop + 1 :]
    return rs, sing


def test_table_lists_every_root_sum():
    for series in SMALL + ("B8", "D8", "C6xA2", "A12xT2", "B10xD10xT2", "B22", "D22"):
        rs = system(series)
        roots = [a.coords for a in rs.roots]
        assert sorted(root_sums(roots, roots, rs)) == ref.root_sums(roots, roots, rs), series
        assert list(root_sums([], roots, rs)) == list(root_sums(roots, [], rs)) == []
    b2, c2 = system("B2"), system("C2")
    # B_n: e_1 + e_2 from two single-coordinate roots
    assert list(root_sums([(1, 0)], [(0, 1), (0, -1), (-1, 0)], b2)) == [
        ((1, 0), (0, 1), (1, 1)), ((1, 0), (0, -1), (1, -1))]
    # C_n: (e_1 - e_2) + (e_1 + e_2) = 2 e_1, listed once though both share both coordinates
    assert list(root_sums([(1, -1)], [(1, 1)], c2)) == [((1, -1), (1, 1), (2, 0))]


@settings(max_examples=100, deadline=None)
@given(series_st.flatmap(lambda s: st.tuples(
    st.just(system(s)), st.sets(st.sampled_from(system(s).roots), max_size=40),
    st.sets(st.sampled_from(system(s).roots), max_size=40))))
def test_root_sums_of_two_subsets_agree_with_reference(case):
    rs, left, right = case
    left, right = [a.coords for a in left], [a.coords for a in right]
    assert sorted(root_sums(left, right, rs)) == ref.root_sums(left, right, rs)


def test_roots_are_integer_tuples():
    for series in ("A2", "B3xT1", "C2", "D4"):
        for a in system(series).roots:
            assert all(type(x) is int for x in a.coords)


@settings(max_examples=300, deadline=None)
@given(subsets())
@example((system("B2"), tuple(a for a in system("B2").roots if sum(map(abs, a.coords)) == 1)))
def test_closure_check_agrees_with_reference(case):
    rs, subset = case
    assert raises(_check_closed, subset, rs, "s") == raises(ref.check_closed, subset, rs, "s")


@st.composite
def admissibility_cases(draw):
    """(lam, order, singular) with order admissible for lam, a random Weyl
    chamber, or a random choice of one root from each +/- pair."""
    rs = system(draw(series_st))
    lam = draw(near_regular(rs))
    kind = draw(st.sampled_from(("admissible", "chamber", "signs")))
    if kind == "admissible":
        order, _ = admissible_positive_system(lam, rs)
    elif kind == "chamber":
        order = positive_roots(rs, draw(chamber_seeds(rs)))
    else:
        flips = draw(st.lists(st.booleans(), min_size=len(rs.roots), max_size=len(rs.roots)))
        pos = tuple(
            a if flip else -a
            for a, flip in zip(rs.roots, flips)
            if a.coords > tuple(-x for x in a.coords)
        )
        order = RootOrder(rs, pos, ())
    return lam, order, singular_roots(lam, rs)


A2 = system("A2")
# one root of each +/- pair, yet (e1 - e2) + (e2 - e3) = e1 - e3 is negative: (i) fails
A2_CYCLE = RootOrder(A2, tuple(Weight(c) for c in ((1, -1, 0), (0, 1, -1), (-1, 0, 1))), ())


@settings(max_examples=150, deadline=None)
@given(admissibility_cases())
@example((Weight((0, 0, 0)), A2_CYCLE, A2.roots))
def test_admissibility_agrees_with_reference(case):
    lam, order, sing = case
    cert = check_admissibility(lam, order, sing)
    assert (cert.condition_i, cert.condition_ii) == ref.admissibility_conditions(order, sing)


@settings(max_examples=80, deadline=None)
@given(series_st.flatmap(lambda s: st.tuples(st.just(s), chamber_seeds(system(s)))))
@example(("B2", Weight((2, 1))))
@example(("B22", Weight(tuple(range(22, 0, -1)))))
@example(("D22xT1", Weight(tuple(range(23, 0, -1)))))
# seeds chamber_seeds never draws: one zero coordinate (regular for D), all negative (B)
@example(("D4", Weight((2, 0, -3, 1))))
@example(("D22xT1", Weight(tuple(range(21, -1, -1)) + (0,))))
@example(("B22", Weight(tuple(range(-1, -23, -1)))))
def test_simple_roots_agree_with_reference(case):
    series, seed = case
    rs = system(series)
    order = positive_roots(rs, seed)
    simple = {a.coords for a in order.simple}
    assert simple == {a.coords for a in ref.simple_roots(order.positive)}
    assert len(simple) == rs.rank - rs.spec.torus_rank


def test_simple_roots_and_a_full_singular_set_add_no_roots(monkeypatch):
    """The simple roots are read off 2 rho, with no root sum, and closure is
    checked only where it can fail: not when every root is singular."""
    def no_sums(*args):
        raise AssertionError("sign_split enumerated root sums")

    monkeypatch.setattr(rootsys, "root_sums", no_sums)
    closure_checks = []
    check = orbit._check_closed
    monkeypatch.setattr(orbit, "_check_closed",
                        lambda *args: closure_checks.append(args) or check(*args))
    for series in ("B3xC2xD3xT1", "A4"):
        rs = build_root_system(parse_series(series))  # no split cached yet
        n = rs.ambient_dim
        assert len(default_order(rs).simple) == rs.rank - rs.spec.torus_rank
        positive_roots(rs, Weight(tuple(range(-1, -n - 1, -1))))
        for lam in ((0,) * n, (1,) + (0,) * (n - 1), tuple(range(n))):
            closure_checks.clear()
            analyze_orbit(rs, lam, SC)
            assert len(closure_checks) == (0 if not any(lam) else 1)


@settings(max_examples=25, deadline=None)
@given(series_st.flatmap(lambda s: st.tuples(st.just(s), near_regular(system(s)))))
@example(("B22", Weight((0,) * 22)))
@example(("B22", Weight(tuple(range(22, 0, -1)))))
def test_polarization_labels_and_singular_roots_are_closed(case):
    """The guarantee that lets the polarization run no closure pass of its own:
    b_roots + singular is closed for the admissible order of lambda."""
    series, lam = case
    rs = system(series)
    order, _ = admissible_positive_system(lam, rs)
    pol = polarization(lam, order)
    ref.check_closed(pol.b_roots + singular_roots(lam, rs), rs, "polarization label set")


@st.composite
def rational_weights(draw, rs):
    """Coordinates over one common denominator most of the time, so that
    integral and non-integral weights both occur."""
    den = draw(st.sampled_from((1, 1, 2, 2, 3, 6)))
    return Weight(tuple(
        Fraction(draw(st.integers(-12, 12)), draw(st.sampled_from((den, den, den, 1, 2, 3))))
        for _ in range(rs.ambient_dim)
    ))


@settings(max_examples=20, deadline=None)
@given(series_st.flatmap(lambda s: st.tuples(st.just(s), near_regular(system(s)))))
@example(("B22", Weight((0,) * 22)))
@example(("B22", Weight(tuple(range(22, 0, -1)))))
def test_orbit_dimension_is_twice_the_polarization_labels(case):
    series, lam = case
    report = analyze_orbit(system(series), lam.coords, SC)
    assert report.dim_orbit == 2 * len(report.polarization.b_roots)


def reflect(lam: Weight, alpha: Weight, rs) -> Weight:
    c = 2 * pairing(lam, alpha, rs) / pairing(alpha, alpha, rs)
    return Weight(tuple(x - c * a for x, a in zip(lam.coords, alpha.coords)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SERIES).flatmap(
    lambda s: st.tuples(st.just(s), rational_weights(system(s)))))
@example(("B22", Weight((Fraction(1, 2),) * 22)))
def test_integrality_is_invariant_under_simple_reflections(case):
    series, lam = case
    rs = system(series)
    for lattice in (SC, AD):
        verdict = is_integral(lam, lattice, rs)
        for alpha in default_order(rs).simple:
            assert is_integral(reflect(lam, alpha, rs), lattice, rs) == verdict


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SERIES).flatmap(
    lambda s: st.tuples(st.just(s), rational_weights(system(s)))))
def test_sc_integrality_matches_every_coroot(case):
    # P + Z^k: every coroot pairing is an integer, and every torus coordinate
    series, lam = case
    rs = system(series)
    every_coroot = all(
        (2 * pairing(lam, a, rs) / pairing(a, a, rs)).denominator == 1 for a in rs.roots
    )
    assert is_integral(lam, SC, rs) == (every_coroot and ref.torus_integral(lam, rs))


@pytest.mark.parametrize("series", ["B22", "D22", "C22xT1"])
def test_regular_report_certificates_hold_at_rank_22(series):
    rs = system(series)
    lam = Weight(tuple(range(rs.ambient_dim, 0, -1)))
    order, cert = admissible_positive_system(lam, rs)
    assert cert.holds()
    assert ref.admissibility_conditions(order, ()) == (True, True)
