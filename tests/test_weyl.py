import random
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitkit import (
    CapExceededError,
    InputError,
    LatticeSpec,
    Weight,
    ambient_weight,
    analyze_orbit,
    custom_lattice,
    build_root_system,
    default_order,
    dominant_representative,
    fundamental_weights,
    generate_weyl_group,
    is_dominant,
    pairing,
    parse_series,
    reflection,
    weyl_orbit,
    weyl_orbit_size,
    weyl_order,
)
from orbitkit import weyl
from orbitkit.linalg import identity, mat_mul, mat_vec
from orbitkit.quantize import ADJOINT, SIMPLY_CONNECTED
from orbitkit.rootsys import default_chamber_seed

from models import (
    brute_dominant_points,
    even_hyperoctahedral_order,
    frac_vec,
    hyperoctahedral_order,
    signed_permutation_images,
    symmetric_group_order,
)


def w(*coords):
    return Weight(frac_vec(coords))


class TestReflection:
    def test_maps_root_to_negative(self, a2):
        alpha = a2.roots[0]
        s = reflection(alpha, a2)
        assert mat_vec(s, alpha.coords) == tuple(-c for c in alpha.coords)

    def test_fixes_orthogonal_vectors(self, a2):
        alpha = w(1, -1, 0)
        s = reflection(alpha, a2)
        fixed = w(1, 1, -2)  # orthogonal to alpha
        assert pairing(fixed, alpha, a2) == 0
        assert mat_vec(s, fixed.coords) == fixed.coords

    def test_involution(self, b2):
        for alpha in b2.roots:
            s = reflection(alpha, b2)
            assert mat_mul(s, s) == identity(b2.ambient_dim)

    def test_a2_simple_on_fundamental(self, a2, a2_order):
        # s_alpha1(omega1) = omega1 - alpha1: frozen from the defining formula
        # and cross-checked below through the orbit enumeration
        omega1 = fundamental_weights(a2_order)[0]
        alpha1 = a2_order.simple[0]
        s = reflection(alpha1, a2)
        image = Weight(mat_vec(s, omega1.coords))
        assert image.coords == (omega1 - alpha1).coords
        assert image.coords in {p.coords for p in weyl_orbit(omega1, generate_weyl_group(a2)).points}

    def test_non_root_rejected(self, a2):
        with pytest.raises(InputError):
            reflection(w(1, 1, -2), a2)


@lru_cache(maxsize=None)
def _group(series):
    return generate_weyl_group(build_root_system(parse_series(series)))


# orders from the independent enumeration models in tests/models.py:
#   W(A_{n-1}) = S_n, W(B_n) = W(C_n) = signed perms, W(D_n) = even-signed;
# the enumerated group and the closed form must both match
@pytest.mark.parametrize(
    "series,expected",
    [
        ("A1", symmetric_group_order(2)),
        ("A2", symmetric_group_order(3)),
        ("A3", symmetric_group_order(4)),
        ("A4", symmetric_group_order(5)),
        ("B2", hyperoctahedral_order(2)),
        ("B3", hyperoctahedral_order(3)),
        ("B4", hyperoctahedral_order(4)),
        ("C2", hyperoctahedral_order(2)),
        ("C3", hyperoctahedral_order(3)),
        ("C4", hyperoctahedral_order(4)),
        ("D2", even_hyperoctahedral_order(2)),
        ("D3", even_hyperoctahedral_order(3)),
        ("D4", even_hyperoctahedral_order(4)),
        ("A1xB2xT1", symmetric_group_order(2) * hyperoctahedral_order(2)),
        ("T2", 1),
    ],
)
def test_group_orders_match_permutation_models(series, expected):
    assert _group(series).order == expected
    assert weyl_order(parse_series(series)) == expected


CLOSED_FORM_SERIES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4",
    "A1xT1", "D3xT2", "A1xB2xT1", "C2xD2", "A2xD2",
]
# zero, equal magnitudes of both signs, and a few distinct magnitudes
COORDS = st.sampled_from([Fraction(x) for x in (0, 0, 1, -1, 2, -2, "1/2", "-1/2", 3)])


@st.composite
def series_and_weight(draw):
    series = draw(st.sampled_from(CLOSED_FORM_SERIES))
    rs = build_root_system(parse_series(series))
    coords = draw(st.lists(COORDS, min_size=rs.ambient_dim, max_size=rs.ambient_dim))
    return series, coords


@settings(max_examples=200, deadline=None)
@given(series_and_weight())
@example(("D4", [1, -1, 1, -1]))
@example(("D4", [2, -2, 0, 0]))
@example(("D3", [0, 0, 0]))
@example(("D2", [1, -1]))
@example(("D3xT2", [0, 1, -1, 5, 0]))
def test_closed_form_orbit_size_matches_enumeration(case):
    series, coords = case
    spec = parse_series(series)
    lam = ambient_weight(coords, build_root_system(spec))
    size = weyl_orbit_size(lam, spec)
    assert size == len(weyl_orbit(lam, _group(series)).points)
    # per-factor (signed) permutation model; torus blocks are fixed
    model = prod(
        len(signed_permutation_images(lam.coords[start:stop], letter))
        for letter, _, start, stop in spec.blocks()
        if letter != "T"
    )
    assert size == model


def test_orbit_size_dimension_checked():
    with pytest.raises(InputError):
        weyl_orbit_size(w(1, 0), parse_series("A2"))


def test_d3_a3_exceptional_isomorphism():
    d3 = generate_weyl_group(build_root_system(parse_series("D3")))
    a3 = generate_weyl_group(build_root_system(parse_series("A3")))
    assert d3.order == a3.order == 24


def test_product_group_order():
    rs = build_root_system(parse_series("A1xB2xT1"))
    group = generate_weyl_group(rs)
    assert group.order == symmetric_group_order(2) * hyperoctahedral_order(2)
    # torus coordinate fixed by every element
    for g in group.elements:
        assert mat_vec(g, frac_vec((0, 0, 0, 0, 1))) == frac_vec((0, 0, 0, 0, 1))


def test_cap_exceeded():
    rs = build_root_system(parse_series("B3"))
    with pytest.raises(CapExceededError):
        generate_weyl_group(rs, cap=10)


class TestGroupStructure:
    @pytest.mark.parametrize("series", ["A2", "A3", "B2", "B3", "D3", "D4"])
    def test_elements_permute_roots(self, series):
        rs = build_root_system(parse_series(series))
        group = generate_weyl_group(rs)
        for g in group.elements:
            images = {mat_vec(g, a.coords) for a in rs.roots}
            assert images == rs.index.keys()

    def test_closed_under_product_and_inverse(self, b2):
        group = generate_weyl_group(b2)
        for g in group.elements:
            assert mat_mul(g, g) in group.element_set
        sample = group.elements[: min(8, group.order)]
        for g in sample:
            for h in sample:
                assert mat_mul(g, h) in group.element_set

    def test_words_reproduce_elements(self, a2):
        group = generate_weyl_group(a2)
        for g, word in zip(group.elements, group.words):
            acc = identity(a2.ambient_dim)
            for i in word:
                acc = mat_mul(acc, group.generators[i])
            assert acc == g

    def test_pairing_invariance_under_generators(self, b2):
        group = generate_weyl_group(b2)
        rng = random.Random(7)
        for _ in range(20):
            x = Weight(frac_vec([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)]))
            y = Weight(frac_vec([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)]))
            for s in group.generators:
                gx = Weight(mat_vec(s, x.coords))
                gy = Weight(mat_vec(s, y.coords))
                assert pairing(gx, gy, b2) == pairing(x, y, b2)


class TestWeylOrbit:
    def test_zero_is_fixed(self, a2):
        group = generate_weyl_group(a2)
        orbit = weyl_orbit(w(0, 0, 0), group)
        assert [p.coords for p in orbit.points] == [frac_vec((0, 0, 0))]
        assert orbit.stabilizer_order == group.order

    def test_a1_fundamental(self, a1):
        group = generate_weyl_group(a1)
        omega = w("1/2", "-1/2")
        orbit = weyl_orbit(omega, group)
        assert {p.coords for p in orbit.points} == {
            omega.coords,
            (-omega).coords,
        }

    def test_a2_fundamental_orbit_size(self, a2, a2_order):
        # permutation model: images of (2/3,-1/3,-1/3) under S_3 = 3 points
        omega1 = fundamental_weights(a2_order)[0]
        expected = signed_permutation_images(omega1.coords, "A")
        group = generate_weyl_group(a2)
        orbit = weyl_orbit(omega1, group)
        assert {p.coords for p in orbit.points} == expected
        assert len(orbit.points) == 3

    @pytest.mark.parametrize("series", ["A2", "B2", "D3"])
    def test_orbit_stabilizer_identity(self, series):
        rs = build_root_system(parse_series(series))
        group = generate_weyl_group(rs)
        rng = random.Random(11)
        for _ in range(25):
            coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rs.ambient_dim)]
            if series.startswith("A"):
                mean = sum(coords, Fraction(0)) / len(coords)
                coords = [c - mean for c in coords]
            orbit = weyl_orbit(Weight(tuple(coords)), group)
            assert len(orbit.points) * orbit.stabilizer_order == group.order

    @pytest.mark.parametrize("series", ["A2", "B2"])
    def test_orbit_matches_signed_permutation_model(self, series):
        rs = build_root_system(parse_series(series))
        group = generate_weyl_group(rs)
        rng = random.Random(3)
        for _ in range(10):
            coords = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rs.ambient_dim))
            if series.startswith("A"):
                mean = sum(coords, Fraction(0)) / len(coords)
                coords = tuple(c - mean for c in coords)
            expected = signed_permutation_images(coords, series[0])
            got = {p.coords for p in weyl_orbit(Weight(coords), group).points}
            assert got == expected


class TestDominantRepresentative:
    def test_idempotent_on_dominant(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        dom, word = dominant_representative(omega1, a2_order)
        assert dom.coords == omega1.coords
        assert word == ()

    def test_a1_reflection(self, a1):
        order = default_order(a1)
        dom, word = dominant_representative(w("-1/2", "1/2"), order)
        assert dom.coords == frac_vec(("1/2", "-1/2"))
        assert len(word) == 1

    def test_a2_negative_fundamental(self, a2, a2_order):
        # brute-force oracle: enumerate the orbit, filter by dominance
        group = generate_weyl_group(a2)
        fw = fundamental_weights(a2_order)
        lam = -fw[0]
        orbit = weyl_orbit(lam, group)
        brute = brute_dominant_points(
            [p.coords for p in orbit.points],
            [s.coords for s in a2_order.simple],
        )
        assert len(brute) == 1
        dom, _ = dominant_representative(lam, a2_order)
        assert dom.coords == brute[0]
        assert dom.coords == fw[1].coords  # -omega1 straightens to omega2

    def test_word_maps_lambda_to_dominant(self, b2):
        order = default_order(b2)
        rng = random.Random(5)
        for _ in range(20):
            lam = Weight(tuple(Fraction(rng.randint(-5, 5), 2) for _ in range(2)))
            dom, word = dominant_representative(lam, order)
            current = lam.coords
            for i in word:
                current = mat_vec(reflection(order.simple[i], b2), current)
            assert current == dom.coords

    @pytest.mark.parametrize("series", ["A2", "B2", "D3"])
    def test_exactly_one_dominant_point_per_orbit(self, series):
        rs = build_root_system(parse_series(series))
        group = generate_weyl_group(rs)
        order = default_order(rs)
        rng = random.Random(13)
        samples = []
        for _ in range(100):
            coords = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rs.ambient_dim)
            ]
            if series.startswith("A"):
                mean = sum(coords, Fraction(0)) / len(coords)
                coords = [c - mean for c in coords]
            samples.append(tuple(coords))
        # explicit singular weights: zero and points on every reflection wall
        zero = (Fraction(0),) * rs.ambient_dim
        samples.append(zero)
        for alpha in rs.roots:
            seed = default_chamber_seed(rs)
            proj = sum(s * a for s, a in zip(seed.coords, alpha.coords))
            norm = sum(a * a for a in alpha.coords)
            wall = tuple(
                s - proj * a / norm for s, a in zip(seed.coords, alpha.coords)
            )
            samples.append(wall)
        for coords in samples:
            orbit = weyl_orbit(Weight(coords), group)
            dominant = [p for p in orbit.points if is_dominant(p, order)]
            assert len(dominant) == 1


STRAIGHTEN_SERIES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "D3", "D4"]


@lru_cache(maxsize=None)
def _rs(series):
    return build_root_system(parse_series(series))


@st.composite
def simple_factor_and_weight(draw):
    series = draw(st.sampled_from(STRAIGHTEN_SERIES))
    rs = _rs(series)
    coords = draw(st.lists(COORDS, min_size=rs.ambient_dim, max_size=rs.ambient_dim))
    if series.startswith("A"):
        mean = sum(coords, Fraction(0)) / len(coords)
        coords = [c - mean for c in coords]
    return rs, Weight(tuple(coords))


@settings(max_examples=200, deadline=None)
@given(simple_factor_and_weight())
@example((_rs("A3"), w(-2, -1, 1, 2)))
@example((_rs("D4"), w(0, 0, 1, -1)))
@example((_rs("C3"), w("-1/2", 0, "1/2")))
def test_dominant_representative_matches_permutation_model(case):
    rs, lam = case
    order = default_order(rs)
    dom, word = dominant_representative(lam, order)
    # the unique dominant point of the orbit in the (signed) permutation model
    orbit = signed_permutation_images(lam.coords, rs.spec.factors[0][0])
    assert brute_dominant_points(orbit, [a.coords for a in order.simple]) == [dom.coords]
    # the word replays to it through the reflection matrices
    current = lam.coords
    for i in word:
        current = mat_vec(reflection(order.simple[i], rs), current)
    assert current == dom.coords
    verdict = analyze_orbit(rs, lam.coords, LatticeSpec(SIMPLY_CONNECTED)).verdict
    assert verdict.dominant_rep == dom
    assert verdict.is_dominant_input == is_dominant(lam, order)


def test_analyze_orbit_builds_no_reflection_matrix(monkeypatch, tmp_path):
    calls = []
    original = weyl.reflection
    monkeypatch.setattr(weyl, "reflection", lambda *a: calls.append(a) or original(*a))
    rs = _rs("B2xT1")
    custom = custom_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)], rs)
    cases = [
        ("A3", ["-2", "-1", "1", "2"], LatticeSpec(SIMPLY_CONNECTED)),
        ("D4", ["0", "-1", "2", "-3"], LatticeSpec(ADJOINT)),
        (rs, ["-1", "2", "1/3"], custom),
    ]
    for series, lam, lattice in cases:
        report = analyze_orbit(series, lam, lattice)
        assert report.verdict.straightening_word  # each one straightens
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    )
)
def test_b2_orbit_closure_under_all_generators(coords):
    rs = build_root_system(parse_series("B2"))
    group = generate_weyl_group(rs)
    points = {p.coords for p in weyl_orbit(Weight(coords), group).points}
    for s in group.generators:
        assert {mat_vec(s, p) for p in points} == points
