from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit import (
    CapExceededError,
    InputError,
    SeriesSpec,
    Weight,
    ambient_weight,
    build_root_system,
    default_order,
    fundamental_weights,
    is_dominant,
    pairing,
    parse_series,
    positive_roots,
    weight_from_fundamental,
)
from orbitkit.linalg import identity, mat, mat_mul, mat_vec, vec
from orbitkit.rootsys import (
    MAX_ROOTS,
    coroot_value,
    default_chamber_seed,
    numerator_scan,
    require_ambient,
)
from orbitkit.weyl import reflection, weyl_orbit_size

from exact_reference import rref_solve, simple_root_coefficients
from root_reference import coroot_pairing, reflect as ref_reflect
from models import frac_vec


def w(*coords):
    return Weight(frac_vec(coords))


class TestParseSeries:
    def test_single_factor(self):
        spec = parse_series("A2")
        assert spec.factors == (("A", 2),)
        assert spec.torus_rank == 0
        assert spec.ambient_dim == 3

    def test_product_with_torus(self):
        spec = parse_series("A2xB3xT1")
        assert spec.factors == (("A", 2), ("B", 3))
        assert spec.torus_rank == 1
        assert spec.ambient_dim == 3 + 3 + 1
        assert spec.rank == 2 + 3 + 1

    def test_round_trip_string(self):
        assert str(parse_series("A2xB3xT1")) == "A2xB3xT1"

    def test_rejects_unknown_letter(self):
        with pytest.raises(InputError):
            parse_series("E8")

    def test_rejects_low_rank_d(self):
        with pytest.raises(InputError):
            parse_series("D1")

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_series("A2x??")


# expected root counts per the standard patterns:
#   |A_n| = n(n+1), |B_n| = |C_n| = 2n^2, |D_n| = 2n(n-1)
@pytest.mark.parametrize(
    "series,count",
    [
        ("A1", 2),  # matrix-oracle count for su(2), see test_oracle.py
        ("A2", 6),  # matrix-oracle count for su(3)
        ("A3", 12),
        ("B2", 8),
        ("B3", 18),
        ("C3", 18),
        ("D3", 12),
        ("D4", 24),
        ("A1xA1", 4),
        ("A2xT2", 6),
    ],
)
def test_root_counts(series, count):
    spec = parse_series(series)
    rs = build_root_system(spec)
    assert len(rs.roots) == count
    assert spec.root_count == count


def test_root_bound():
    # the largest single factors within the bound build; one rank more is refused
    for ok, over in [("A31", "A32"), ("B22", "B23"), ("C22", "C23"), ("D22", "D23")]:
        spec = parse_series(ok)
        assert spec.root_count <= MAX_ROOTS
        assert len(build_root_system(spec).roots) == spec.root_count
        assert parse_series(over).root_count > MAX_ROOTS
        with pytest.raises(CapExceededError):
            build_root_system(parse_series(over))
    with pytest.raises(CapExceededError):
        build_root_system(parse_series("A20xB20"))


def test_torus_only_has_no_roots():
    rs = build_root_system(SeriesSpec((), torus_rank=3))
    assert rs.roots == ()
    assert rs.ambient_dim == 3
    assert rs.dim_g == 3


def test_squared_lengths_per_series():
    for series, lengths in [("A2", {2}), ("B2", {1, 2}), ("C2", {2, 4}), ("D3", {2})]:
        rs = build_root_system(parse_series(series))
        got = {pairing(a, a, rs) for a in rs.roots}
        assert got == {Fraction(x) for x in lengths}


def test_roots_closed_under_negation_and_no_zero(a2, b2):
    for rs in (a2, b2):
        assert all(not a.is_zero() for a in rs.roots)
        assert {tuple(-c for c in a.coords) for a in rs.roots} == rs.index.keys()


def test_cartan_integers(a2, b2):
    for rs in (a2, b2):
        for a in rs.roots:
            for b in rs.roots:
                val = 2 * pairing(a, b, rs) / pairing(a, a, rs)
                assert val.denominator == 1


@pytest.mark.parametrize("series", ["A2", "A3", "B2", "B3", "C3", "D3"])
def test_closure_audit(series):
    # index knows every root that a sum of two roots can land on
    rs = build_root_system(parse_series(series))
    coords = {a.coords for a in rs.roots}
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if all(v == 0 for v in s):
                continue
            if s in coords:
                assert s in rs.index


@pytest.mark.parametrize("series", ["A3", "B3", "C3", "D3"])
def test_every_stored_root_fits_series_pattern(series):
    rs = build_root_system(parse_series(series))
    for a in rs.roots:
        nonzero = sorted(abs(c) for c in a.coords if c != 0)
        if series.startswith("A") or series.startswith("D"):
            assert nonzero == [1, 1]
        elif series.startswith("B"):
            assert nonzero in ([1], [1, 1])
        else:  # C
            assert nonzero in ([2], [1, 1])
        if series.startswith("A"):
            assert sum(a.coords, Fraction(0)) == 0


class TestPairing:
    def test_zero_weight(self, a2):
        eta = w(1, 2, -3)
        assert pairing(w(0, 0, 0), eta, a2) == 0

    def test_a2_simple_pairing(self, a2):
        # alpha1 = e1 - e2, alpha2 = e2 - e3 in the length^2 = 2 convention
        assert pairing(w(1, -1, 0), w(0, 1, -1), a2) == -1

    def test_a1_root_norm(self, a1):
        assert pairing(w(1, -1), w(1, -1), a1) == 2

    def test_symmetry_and_bilinearity(self, a2):
        x, y, z = w(1, 0, -1), w(2, -1, -1), w(0, 1, -1)
        assert pairing(x, y, a2) == pairing(y, x, a2)
        assert pairing(x + z, y, a2) == pairing(x, y, a2) + pairing(z, y, a2)

    def test_dimension_mismatch(self, a2):
        with pytest.raises(InputError):
            pairing(w(1, -1), w(1, -1, 0), a2)


class TestPositiveRoots:
    def test_a1_rank_one(self, a1):
        order = positive_roots(a1, w(1, -1))
        assert [r.coords for r in order.positive] == [frac_vec((1, -1))]
        assert order.simple == order.positive

    def test_a2_counts(self, a2):
        order = positive_roots(a2, w(2, 0, -2))
        assert len(order.positive) == 3
        assert len(order.simple) == 2

    def test_b2_counts(self, b2):
        order = positive_roots(b2, w(2, 1))
        assert len(order.positive) == 4
        assert len(order.simple) == 2

    def test_wall_seed_rejected_with_root_named(self, a2):
        with pytest.raises(InputError) as err:
            positive_roots(a2, w(1, 1, -2))
        assert "wall" in str(err.value)

    def test_partition_in_half(self, a2, b2):
        for rs in (a2, b2):
            order = default_order(rs)
            assert 2 * len(order.positive) == len(rs.roots)

    def test_positive_decompose_over_simple(self):
        for series in ("A3", "B3", "C3", "D3"):
            rs = build_root_system(parse_series(series))
            order = default_order(rs)
            for root in order.positive:
                coeffs = simple_root_coefficients(order, root)
                assert all(c.denominator == 1 and c >= 0 for c in coeffs)


class TestIsDominant:
    def test_zero_weight(self, a2_order):
        assert is_dominant(w(0, 0, 0), a2_order)

    def test_first_fundamental(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        assert omega1.coords == frac_vec(("2/3", "-1/3", "-1/3"))
        assert pairing(omega1, a2_order.simple[-1], a2) in (0, 1)
        assert is_dominant(omega1, a2_order)

    def test_negative_root(self, a1):
        order = default_order(a1)
        assert not is_dominant(w(-1, 1), order)


class TestAmbientIngestion:
    def test_projection_flag(self, a2):
        lam = ambient_weight([1, 0, 0], a2)
        assert lam.projected
        assert sum(lam.coords) == 0
        assert lam.coords == frac_vec(("2/3", "-1/3", "-1/3"))

    def test_no_projection_when_sum_zero(self, a2):
        lam = ambient_weight(["1/2", "1/2", -1], a2)
        assert not lam.projected

    def test_torus_coordinates_untouched(self):
        rs = build_root_system(parse_series("A1xT1"))
        lam = ambient_weight([1, 0, 5], rs)
        assert lam.projected
        assert lam.coords == frac_vec(("1/2", "-1/2", 5))

    def test_dimension_check(self, a2):
        with pytest.raises(InputError):
            ambient_weight([1, 0], a2)


class TestWeightWireFormat:
    def test_round_trip(self):
        from orbitkit import weight_from_strings

        lam = weight_from_strings(["1/2", "-3", "0"])
        assert lam.coords == frac_vec(("1/2", -3, 0))
        assert lam.to_strings() == ["1/2", "-3", "0"]

    def test_bad_rational_rejected(self):
        from orbitkit import weight_from_strings

        with pytest.raises(InputError):
            weight_from_strings(["1/0"])
        with pytest.raises(InputError):
            weight_from_strings(["pi"])

    def test_oversized_rational_refused_before_it_is_built(self):
        from orbitkit import weight_from_strings

        with pytest.raises(InputError, match="more than 100 digits"):
            weight_from_strings(["1", "1e999999999"])
        with pytest.raises(InputError, match="more than 100 digits"):
            weight_from_strings(["1" * 101 + "/3"])


class TestWeightBuiltDirectly:
    """Weight reads ints and Fractions to the 100-digit bound, as every other
    number is read; 10**150 was kept, and 10**5000 reached to_strings as a
    bare ValueError."""

    BOUND = 10**100

    @pytest.mark.parametrize(
        "coord", [BOUND - 1, -(BOUND - 1), Fraction(BOUND - 1, 7), Fraction(-1, BOUND - 1)]
    )
    def test_a_coordinate_below_the_bound_is_kept(self, coord):
        lam = Weight((coord, 0))
        assert lam.coords == (coord, 0) and type(lam.coords[0]) is type(coord)
        assert lam.to_strings() == [str(coord), "0"]

    @pytest.mark.parametrize(
        "coord",
        [BOUND, -BOUND, Fraction(BOUND, 7), Fraction(-BOUND, 7), Fraction(1, BOUND), 10**150,
         10**5000],
        ids=["bound", "-bound", "bound/7", "-bound/7", "1/bound", "10**150", "10**5000"],
    )
    def test_a_coordinate_at_the_bound_is_refused(self, coord):
        with pytest.raises(InputError, match="^bad weight coordinate .*: more than 100 digits$"):
            Weight((coord, -1))


class TestFundamentalBasis:
    def test_a1(self, a1):
        order = default_order(a1)
        (omega,) = fundamental_weights(order)
        assert omega.coords == frac_vec(("1/2", "-1/2"))

    def test_round_trip(self, a2, a2_order):
        lam = weight_from_fundamental([2, 1], a2_order)
        fw = fundamental_weights(a2_order)
        assert lam.coords == (2 * fw[0] + 1 * fw[1]).coords
        assert is_dominant(lam, a2_order)

    def test_coefficient_count_checked(self, a2_order):
        with pytest.raises(InputError):
            weight_from_fundamental([1], a2_order)


@lru_cache(maxsize=None)
def _rs(series):
    return build_root_system(parse_series(series))


@st.composite
def weights_and_roots(draw):
    """A series, lambda with many zero coordinates, and roots to pair it with:
    all of them on small series, a random subset on B22 and D22."""
    rs = _rs(draw(st.sampled_from(["A2", "B3xT1", "D4", "B22", "D22"])))
    coord = st.one_of(
        st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=6)
    )
    lam = Weight(tuple(draw(coord) for _ in range(rs.ambient_dim)))
    if len(rs.roots) > 100:
        idx = draw(st.sets(st.integers(0, len(rs.roots) - 1), min_size=1, max_size=40))
        roots = [rs.roots[i] for i in sorted(idx)]
    else:
        roots = list(rs.roots)
    return rs, lam, roots


@settings(deadline=None)
@given(weights_and_roots())
def test_pairing_matches_dot_product(case):
    rs, lam, roots = case
    for alpha in roots:
        expected = sum(c * a for c, a in zip(lam.coords, alpha.coords))
        got = pairing(lam, alpha, rs)
        assert got == expected
        assert type(got) is Fraction
        assert type(pairing(alpha, alpha, rs)) is Fraction


class _Counted(int):
    """A weight numerator that counts the products made with it."""

    uses = 0

    def __mul__(self, other):
        _Counted.uses += 1
        return int(self) * other

    __rmul__ = __mul__


def test_pairing_reads_the_weight_only_on_the_root_support():
    # O(|supp alpha|): one product of a numerator of lambda per coordinate
    # where alpha is nonzero, none elsewhere
    rs = _rs("B22")
    lam = Weight(tuple(range(1, 23)))
    nums, d = lam.integer_form
    lam.__dict__["integer_form"] = (tuple(_Counted(n) for n in nums), d)
    for alpha in rs.roots:
        expected = sum(c * a for c, a in zip(range(1, 23), alpha.coords))
        _Counted.uses = 0
        assert pairing(lam, alpha, rs) == expected
        assert _Counted.uses == sum(1 for x in alpha.coords if x)


def test_pairing_rejects_either_wrong_dimension(a2):
    alpha = a2.roots[0]
    for bad in ((w(1, 0), alpha), (alpha, w(1, 0, 0, 0))):
        with pytest.raises(InputError, match="coordinates, expected 3"):
            pairing(*bad, a2)


@pytest.mark.parametrize(
    "check",
    [
        lambda rs, c: require_ambient(c, rs),
        lambda rs, c: ambient_weight(c, rs),
        lambda rs, c: weyl_orbit_size(Weight(c), rs.spec),
        lambda rs, c: pairing(Weight(c), rs.roots[0], rs),
        lambda rs, c: pairing(rs.roots[0], Weight(c), rs),
    ],
    ids=["require_ambient", "ambient_weight", "weyl_orbit_size", "pairing", "pairing_eta"],
)
def test_every_entry_point_words_the_dimension_rule_alike(a2, check):
    for coords in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(InputError) as exc:
            check(a2, frac_vec(coords))
        assert str(exc.value) == f"weight has {len(coords)} coordinates, expected 3"


class TestCorootKernel:
    def test_coroot_pairing_on_b2(self, b2):
        # lam = (1, 6) / 2; short root e_1: (alpha, alpha) = 1; long root
        # e_1 + e_2: 2.  coroot_value returns <lam, alpha^vee> D
        lam = w("1/2", 3)
        nums, d = lam.integer_form
        got = {}
        for alpha in (w(1, 0), w(1, 1)):
            s = b2.supports[b2.index[alpha.coords]]
            got[alpha.coords] = coroot_value(numerator_scan(nums, [s])[0], s)
        assert d == 2 and got == {(1, 0): 2, (1, 1): 7}
        assert all(type(v) is int for v in got.values())

    def test_reflect_negates_the_root(self, b2):
        for alpha in b2.roots:
            assert mat_vec(reflection(alpha, b2), alpha.coords) == (-alpha).coords

    def test_reflect_is_an_involution_on_c3(self):
        rs = _rs("C3")
        lam = w("1/3", -2, "5/2")
        for alpha in rs.roots:
            s = reflection(alpha, rs)
            assert mat_mul(s, s) == identity(3)
            assert mat_vec(s, mat_vec(s, lam.coords)) == lam.coords

    def test_reflect_changes_only_the_support(self):
        rs = _rs("D4xT1")
        lam = w(1, 2, 3, 4, 5)
        alpha = w(0, 1, 0, -1, 0)
        s = reflection(alpha, rs)
        assert mat_vec(s, lam.coords) == (1, 4, 3, 2, 5)
        # columns off the support {1, 3} are those of the identity
        moved = [c for c, col in enumerate(zip(*s)) if col != identity(5)[c]]
        assert moved == [1, 3]


def test_default_seed_is_regular():
    for series in ("A2", "B3", "C3", "D4", "A2xB2xT1"):
        rs = build_root_system(parse_series(series))
        seed = default_chamber_seed(rs)
        assert all(pairing(seed, a, rs) != 0 for a in rs.roots)


@pytest.mark.parametrize(
    "series",
    [f"{x}{n}" for x in "ABC" for n in range(1, 6)] + [f"D{n}" for n in range(2, 6)]
    + ["A2xB3xC2xD4xT2"],
)
def test_default_seed_is_rho(series):
    """2 * seed is the sum of the positive roots of the order it picks."""
    rs = build_root_system(parse_series(series))
    total = [Fraction(0)] * rs.ambient_dim
    for a in default_order(rs).positive:
        total = [t + x for t, x in zip(total, a.coords)]
    assert [2 * x for x in default_chamber_seed(rs).coords] == total


@st.composite
def classical_series(draw, max_rank=8):
    """One or two A/B/C/D factors of rank at most max_rank, sometimes with a
    torus."""
    factors = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=2))
    tokens = [f"{x}{draw(st.integers(2 if x == 'D' else 1, max_rank))}" for x in factors]
    return "x".join(tokens + ["T1"] * draw(st.integers(0, 1)))


@settings(max_examples=30, deadline=None)
@given(classical_series(max_rank=6))
def test_reflection_matrices_map_each_basis_vector_as_the_reference_reflects_it(series):
    rs = build_root_system(parse_series(series))
    n = rs.ambient_dim
    basis = [Weight(tuple([int(k == i) for k in range(n)])) for i in range(n)]
    for alpha in rs.roots:
        columns = [ref_reflect(e, alpha, rs).coords for e in basis]
        assert reflection(alpha, rs) == tuple(zip(*columns))


@settings(max_examples=40, deadline=None)
@given(classical_series())
def test_fundamental_weights_are_dual_to_the_simple_coroots(series):
    rs = build_root_system(parse_series(series))
    order = default_order(rs)
    simple = order.simple
    k = len(simple)
    fw = fundamental_weights(order)
    cartan = mat([[coroot_pairing(a, b, rs) for a in simple] for b in simple])
    for i, omega in enumerate(fw):
        assert [coroot_pairing(omega, a, rs) for a in simple] == [int(i == j) for j in range(k)]
        coeffs = rref_solve(cartan, vec([int(m == i) for m in range(k)]))
        expected = [
            sum((c * alpha.coords[t] for c, alpha in zip(coeffs, simple)), Fraction(0))
            for t in range(rs.ambient_dim)
        ]
        assert omega.coords == tuple(expected)
