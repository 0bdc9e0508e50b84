from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
from orbitkit.rootsys import (
    MAX_ROOTS,
    default_chamber_seed,
    simple_root_coefficients,
)

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
        assert {tuple(-c for c in a.coords) for a in rs.roots} == rs.root_set


def test_cartan_integers(a2, b2):
    for rs in (a2, b2):
        for a in rs.roots:
            for b in rs.roots:
                val = 2 * pairing(a, b, rs) / pairing(a, a, rs)
                assert val.denominator == 1


@pytest.mark.parametrize("series", ["A2", "A3", "B2", "B3", "C3", "D3"])
def test_closure_audit(series):
    # root sums that are roots are stored, and nothing extraneous is stored
    rs = build_root_system(parse_series(series))
    coords = rs.root_set
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if all(v == 0 for v in s):
                continue
            if s in coords:
                assert rs.contains_root(Weight(s))


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

    def test_operations_reject_fundamental_tag(self, a2, a2_order):
        from orbitkit.rootsys import FUNDAMENTAL

        lam = Weight(frac_vec((1, 0)), basis=FUNDAMENTAL)
        with pytest.raises(InputError):
            is_dominant(lam, a2_order)
        with pytest.raises(InputError):
            pairing(lam, lam, a2)


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


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=3,
        max_size=3,
    )
)
def test_pairing_matches_dot_product_on_a2(coords):
    rs = build_root_system(parse_series("A2"))
    lam = Weight(tuple(coords))
    for alpha in rs.roots:
        expected = sum(c * a for c, a in zip(coords, alpha.coords))
        assert pairing(lam, alpha, rs) == expected


def test_default_seed_is_regular():
    for series in ("A2", "B3", "C3", "D4", "A2xB2xT1"):
        rs = build_root_system(parse_series(series))
        seed = default_chamber_seed(rs)
        assert all(pairing(seed, a, rs) != 0 for a in rs.roots)
