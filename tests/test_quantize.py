import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitkit import (
    InputError,
    LatticeSpec,
    Weight,
    analyze_orbit,
    build_root_system,
    custom_lattice,
    default_order,
    extendability_certificate,
    fundamental_weights,
    generate_weyl_group,
    is_integral,
    orbit_to_rep,
    pairing,
    parse_series,
    singular_roots,
    weyl_orbit,
)
from orbitkit import linalg
from orbitkit.linalg import mat_vec
from orbitkit.quantize import (
    ADJOINT,
    CUSTOM,
    NONZERO_IRREDUCIBLE,
    SIMPLY_CONNECTED,
    ZERO_SECTION_SPACE,
)

import root_reference as ref
from models import frac_vec
from snf_reference import in_row_span

SC = LatticeSpec(SIMPLY_CONNECTED)
AD = LatticeSpec(ADJOINT)


def w(*coords):
    return Weight(frac_vec(coords))


class TestIsIntegral:
    def test_zero_on_every_lattice(self, a1, a2):
        for rs in (a1, a2):
            zero = Weight((Fraction(0),) * rs.ambient_dim)
            assert is_integral(zero, SC, rs)
            assert is_integral(zero, AD, rs)

    def test_a1_fundamental_dichotomy(self, a1):
        omega1 = w("1/2", "-1/2")
        # (omega1, alpha_check) = 1 in Z; omega1 = alpha/2 not in the root lattice
        assert is_integral(omega1, SC, a1)
        assert not is_integral(omega1, AD, a1)

    def test_a1_half_fundamental(self, a1):
        half = w("1/4", "-1/4")
        assert not is_integral(half, SC, a1)  # pairing 1/2 not in Z
        assert not is_integral(half, AD, a1)

    def test_a2_fundamental_not_in_root_lattice(self, a2):
        omega1 = w("2/3", "-1/3", "-1/3")
        assert is_integral(omega1, SC, a2)
        assert not is_integral(omega1, AD, a2)

    def test_root_lattice_members(self, a2, a2_order):
        alpha1, alpha2 = a2_order.simple
        for lam in (alpha1, alpha2, alpha1 + alpha2, alpha1 - alpha2):
            assert is_integral(lam, AD, a2)
            assert is_integral(lam, SC, a2)

    def test_torus_coordinates(self):
        # the central torus counts: sc is P + Z^k and adjoint Q + Z^k
        rs = build_root_system(parse_series("A1xT1"))
        assert not is_integral(w("1/2", "-1/2", "7/3"), SC, rs)
        assert is_integral(w("1/2", "-1/2", "2"), SC, rs)
        assert not is_integral(w("1/2", "-1/2", "2"), AD, rs)
        assert is_integral(w(1, -1, 2), AD, rs)
        assert not is_integral(w(1, -1, "1/2"), AD, rs)

    @pytest.mark.parametrize("series, lam, lattice, integral", [
        ("A1xT1", ["1/2", "-1/2", "1/3"], SC, False),
        ("T2", ["1/7", "3/5"], SC, False),
        ("A1xT1", ["1", "-1", "1"], AD, True),
        ("T2", ["2", "-5"], SC, True),
        ("B2xT1", ["1/2", "1/2", "3"], SC, True),
        ("B2xT1", ["1/2", "1/2", "3"], AD, False),
    ])
    def test_torus_verdicts_of_reports(self, series, lam, lattice, integral):
        verdict = analyze_orbit(series, lam, lattice).verdict
        assert verdict.integral is integral
        assert verdict.borel_weil == (NONZERO_IRREDUCIBLE if integral else ZERO_SECTION_SPACE)

    def test_b2_spinor_weight(self, b2):
        # (1/2, 1/2) pairs integrally with both coroot lengths but misses the
        # root lattice Z^2: the weight exists upstairs, not on the adjoint form
        spinor = w("1/2", "1/2")
        assert is_integral(spinor, SC, b2)
        assert not is_integral(spinor, AD, b2)

    def test_weyl_invariance(self):
        rng = random.Random(31)
        for series in ("A2", "B2", "C3"):
            rs = build_root_system(parse_series(series))
            group = generate_weyl_group(rs)
            for _ in range(15):
                coords = [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rs.ambient_dim)
                ]
                if series.startswith("A"):
                    mean = sum(coords, Fraction(0)) / len(coords)
                    coords = [c - mean for c in coords]
                lam = Weight(tuple(coords))
                for lattice in (SC, AD):
                    base = is_integral(lam, lattice, rs)
                    for s in group.generators:
                        img = Weight(mat_vec(s, lam.coords))
                        assert is_integral(img, lattice, rs) == base


class TestCustomLattice:
    def test_weight_lattice_as_custom(self, a1):
        lattice = custom_lattice([["1/2", "-1/2"]], a1)
        assert is_integral(w("1/2", "-1/2"), lattice, a1)
        assert not is_integral(w("1/4", "-1/4"), lattice, a1)

    def test_root_lattice_as_custom(self, a1):
        lattice = custom_lattice([[1, -1]], a1)
        assert not is_integral(w("1/2", "-1/2"), lattice, a1)
        assert is_integral(w(1, -1), lattice, a1)

    def test_rejects_lattice_missing_roots(self, a1):
        # 2*alpha does not contain alpha: violates root lattice <= lattice
        with pytest.raises(InputError):
            custom_lattice([[2, -2]], a1)

    def test_rejects_lattice_above_weight_lattice(self, a1):
        # alpha/4 pairs non-integrally with the coroot
        with pytest.raises(InputError):
            custom_lattice([["1/4", "-1/4"]], a1)

    def test_rejects_wrong_dimension(self, a1):
        with pytest.raises(InputError):
            custom_lattice([[1, -1, 0]], a1)

    def test_first_missing_root_is_named(self, a2):
        doubled = [(2 * a).coords for a in default_order(a2).simple]
        with pytest.raises(InputError) as err:
            custom_lattice(doubled, a2)
        assert str(err.value) == (
            f"root {a2.roots[0].to_strings()} is not a member of the custom lattice"
        )

    def test_one_hermite_basis_for_all_roots(self, monkeypatch):
        rs = build_root_system(parse_series("A3"))
        calls = []
        hermite = linalg.hermite_rows
        monkeypatch.setattr(
            linalg, "hermite_rows", lambda *a, **k: calls.append(a) or hermite(*a, **k)
        )
        lattice = custom_lattice([a.coords for a in default_order(rs).simple], rs)
        assert len(calls) == 1
        # the report's two integrality tests reuse the lattice's membership test
        report = analyze_orbit(rs, ["2", "1", "-1", "-2"], lattice)
        assert report.verdict.integral
        assert len(calls) == 1

    def test_sc_and_adjoint_reports_build_no_hermite_basis(self, monkeypatch):
        calls = []
        hermite = linalg.hermite_rows
        monkeypatch.setattr(
            linalg, "hermite_rows", lambda *a, **k: calls.append(a) or hermite(*a, **k)
        )
        # the block rule reads closed forms: no lattice basis on either kind
        for series, lam in (("A2", ["1", "0", "-1"]), ("A2", ["1", "0", "0"]),
                            ("D4xT1", ["1/2", "1/2", "1/2", "-1/2", "2"]),
                            ("B2xC2", ["1", "0", "1", "1"])):
            for lattice in (SC, AD):
                analyze_orbit(series, lam, lattice)
        assert calls == []

    def test_u2_mixes_the_torus_with_the_semisimple_part(self):
        # U(2) = (SU(2) x U(1)) / Z_2 on A1xT1: its characters are
        # (a/2, -a/2, a/2 + b) for integers a, b, so the sandwich check reads
        # the simple factor only and leaves the torus part free
        rs = build_root_system(parse_series("A1xT1"))
        u2 = custom_lattice([["1/2", "-1/2", "1/2"], ["-1/2", "1/2", "1/2"]], rs)
        assert is_integral(w("1/2", "-1/2", "1/2"), u2, rs)
        assert not is_integral(w("1/2", "-1/2", "1/2"), SC, rs)
        assert is_integral(w("1/2", "-1/2", 0), SC, rs)
        assert not is_integral(w("1/2", "-1/2", 0), u2, rs)

    def test_no_generators_is_rejected(self, a1):
        with pytest.raises(InputError, match="custom lattice needs at least one generator"):
            custom_lattice([], a1)

    def test_a_lattice_built_directly_reads_its_generators_as_exact_numbers(self, a1):
        # LatticeSpec(CUSTOM, ((0.5, -0.5),)) kept the floats, and
        # is_integral(w(1, -1), that, a1) answered True
        with pytest.raises(InputError, match="float is not an exact number"):
            LatticeSpec(CUSTOM, ((0.5, -0.5),))
        with pytest.raises(InputError, match="bool is not an exact number"):
            LatticeSpec(CUSTOM, ((True, -1),))
        with pytest.raises(InputError, match="bad lattice generator entry '1e5000'"):
            LatticeSpec(CUSTOM, (("1e5000", 0),))
        with pytest.raises(InputError, match="must be a list of rows"):
            LatticeSpec(CUSTOM, 5)
        lattice = LatticeSpec(CUSTOM, (("1/2", "-1/2"),))
        assert lattice.generators == ((Fraction(1, 2), Fraction(-1, 2)),)
        assert lattice == LatticeSpec(CUSTOM, ((Fraction(1, 2), Fraction(-1, 2)),))
        assert is_integral(w(1, -1), lattice, a1)
        assert not is_integral(w("1/4", "-1/4"), lattice, a1)

    def test_a_lattice_built_directly_refuses_rows_off_the_ambient_dimension(self, a1):
        # ((1, -1), (2,)) was accepted and its short row read as zero-padded
        with pytest.raises(InputError, match="lattice generator rows have unequal lengths"):
            LatticeSpec(CUSTOM, ((1, -1), (2,)))
        # a row too long for A1 reached is_integral, which raised a bare ValueError
        wide = LatticeSpec(CUSTOM, ((1, -1, 0),))
        with pytest.raises(InputError, match="lattice generator has 3 coordinates, expected 2"):
            is_integral(w(1, -1), wide, a1)

    def test_intermediate_lattice_a3(self):
        # index-2 sublattice of the A3 weight lattice containing the roots:
        # generated by the root lattice and 2*omega1
        rs = build_root_system(parse_series("A3"))
        order = default_order(rs)
        fw = fundamental_weights(order)
        gens = [a.coords for a in order.simple]
        gens.append((2 * fw[0]).coords)
        lattice = custom_lattice(gens, rs)
        assert is_integral(2 * fw[0], lattice, rs)
        assert not is_integral(fw[0], lattice, rs)


HALF_INTEGERS = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])
LATTICE_SERIES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4", "A1xT1", "B2xC2")


@lru_cache(maxsize=None)
def _rs(series):
    return build_root_system(parse_series(series))


@st.composite
def lattice_generators(draw):
    """Random integer and half-integer generators, often with the simple
    roots among them, so that both validation steps are reached."""
    rs = _rs(draw(st.sampled_from(LATTICE_SERIES)))
    entry = st.one_of(st.integers(-2, 2), HALF_INTEGERS)
    row = st.lists(entry, min_size=rs.ambient_dim, max_size=rs.ambient_dim)
    gens = draw(st.lists(row, min_size=1, max_size=3))
    if draw(st.booleans()):
        gens += [a.coords for a in default_order(rs).simple]
    return rs, draw(st.permutations(gens))


def _outcome(build, gens, rs):
    try:
        build(gens, rs)
    except InputError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(lattice_generators())
def test_custom_lattice_matches_all_coroots_reference(case):
    rs, gens = case
    assert _outcome(custom_lattice, gens, rs) == _outcome(ref.custom_lattice, gens, rs)


@st.composite
def root_sublattices(draw):
    """Generators inside the root lattice: the simple roots, each maybe
    scaled by 2 or 3 or dropped, plus a few integer combinations of roots.
    The lattice is often all of Q and often misses a root deep in rs.roots."""
    rs = _rs(draw(st.sampled_from(LATTICE_SERIES + ("B3xC2xD3xT1", "A4xD4", "C5"))))
    gens = [tuple(k * x for x in a.coords) for a in default_order(rs).simple
            if (k := draw(st.sampled_from((1, 1, 1, 2, 3, 0))))]
    for _ in range(draw(st.integers(0, 2))):
        picks = draw(st.lists(st.tuples(st.sampled_from(rs.roots), st.integers(-2, 2)),
                              min_size=1, max_size=3))
        gens.append(tuple(sum(k * a.coords[i] for a, k in picks)
                          for i in range(rs.ambient_dim)))
    if not gens:
        gens.append(rs.roots[-1].coords)
    return rs, draw(st.permutations(gens))


@settings(max_examples=200, deadline=None)
@given(root_sublattices())
def test_root_lattice_check_names_the_first_missing_root_as_the_reference(case):
    # custom_lattice tests the simple roots only, and scans rs.roots only
    # to name the missing one
    rs, gens = case
    assert _outcome(custom_lattice, gens, rs) == _outcome(ref.custom_lattice, gens, rs)


BLOCK_SERIES = (
    "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "C1", "C2", "C3", "C4", "D2", "D3", "D4",
    "T1", "T2", "A1xT1", "A2xT1", "B2xT2", "C3xT1", "D4xT1", "A1xA1xT1", "B2xD3",
    "A2xC2xT1", "D2xB2xT2", "A3xB4",
)
OFFSETS = (0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))


@st.composite
def block_weights(draw):
    """Each block gets integers plus one common offset, 0 or 1/2 most often
    (so spinor weights, all coordinates in Z + 1/2, are common), now and then
    with one coordinate nudged off it; an A block is projected to sum zero
    or not."""
    rs = _rs(draw(st.sampled_from(BLOCK_SERIES)))
    coords = []
    for letter, _, start, stop in rs.spec.blocks():
        shift = draw(st.sampled_from(OFFSETS))
        block = [draw(st.integers(-3, 3)) + shift for _ in range(start, stop)]
        if draw(st.integers(0, 4)) == 0:
            block[draw(st.integers(0, stop - start - 1))] += draw(st.sampled_from(OFFSETS[2:]))
        if letter == "A" and draw(st.booleans()):
            mean = Fraction(sum(block), len(block))
            block = [x - mean for x in block]
        coords += block
    return rs, Weight(tuple(coords))


@settings(max_examples=400, deadline=None)
@given(block_weights())
@example((_rs("D4xT1"), w("1/2", "1/2", "1/2", "-1/2", 3)))
@example((_rs("A2xT1"), w(2, 2, -1, -2)))
def test_block_rule_matches_the_coroot_and_root_span_tests(case):
    # sc: every coroot pairing is an integer; adjoint: the simple roots span
    # lam's semisimple part; both: every torus coordinate is an integer
    rs, lam = case
    torus = ref.torus_integral(lam, rs)
    every_coroot = all(ref.coroot_pairing(lam, a, rs).denominator == 1 for a in rs.roots)
    assert is_integral(lam, SC, rs) == (every_coroot and torus)
    k = rs.spec.torus_rank
    semisimple = lam.coords[:rs.ambient_dim - k] + (0,) * k
    simple = [a.coords for a in default_order(rs).simple]
    assert is_integral(lam, AD, rs) == (in_row_span(simple, semisimple) and torus)


class TestExtendability:
    def test_regular_vacuous(self, a1):
        lam = w("1/2", "-1/2")
        cert = extendability_certificate(lam, singular_roots(lam, a1))
        assert cert.vanishing_pairings == ()

    def test_a2_fundamental_records_wall(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        cert = extendability_certificate(omega1, singular_roots(omega1, a2))
        assert len(cert.vanishing_pairings) == 2
        assert all(v == 0 for _, v in cert.vanishing_pairings)
        alpha2 = a2_order.simple[1]
        recorded = {r.coords for r, _ in cert.vanishing_pairings}
        assert recorded == {alpha2.coords, (-alpha2).coords}

    def test_zero_records_everything(self, a2):
        zero = w(0, 0, 0)
        cert = extendability_certificate(zero, singular_roots(zero, a2))
        assert len(cert.vanishing_pairings) == 6


class TestOrbitToRep:
    def test_a1_negative_fundamental(self, a1):
        verdict = orbit_to_rep(w("-1/2", "1/2"), SC, a1)
        assert verdict.integral
        assert verdict.dominant_rep.coords == frac_vec(("1/2", "-1/2"))
        assert not verdict.is_dominant_input
        assert verdict.borel_weil == NONZERO_IRREDUCIBLE

    def test_a1_non_integral(self, a1):
        verdict = orbit_to_rep(w("1/6", "-1/6"), SC, a1)
        assert not verdict.integral
        assert verdict.borel_weil == ZERO_SECTION_SPACE

    def test_zero_orbit(self, a2):
        verdict = orbit_to_rep(w(0, 0, 0), SC, a2)
        assert verdict.integral
        assert verdict.dominant_rep.is_zero()
        assert verdict.borel_weil == NONZERO_IRREDUCIBLE

    def test_verdict_consistency(self, b2):
        group = generate_weyl_group(b2)
        rng = random.Random(37)
        for _ in range(30):
            lam = Weight(
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            )
            verdict = orbit_to_rep(lam, SC, b2)
            assert (verdict.borel_weil == NONZERO_IRREDUCIBLE) == verdict.integral
            assert verdict.dominant_rep.coords in {
                p.coords for p in weyl_orbit(lam, group).points
            }


def integral_weights_in_ball(rs, order, bound):
    """All weight-lattice points with squared norm <= bound, by box search."""
    fw = fundamental_weights(order)
    if not fw:
        return {(Fraction(0),) * rs.ambient_dim}
    # coefficient box big enough: |c_i| <= bound since (omega_i, omega_i) >= 1/2
    # for these realizations; use a generous margin
    radius = int(2 * bound) + 2
    points = set()
    for combo in product(range(-radius, radius + 1), repeat=len(fw)):
        coords = [Fraction(0)] * rs.ambient_dim
        for c, omega in zip(combo, fw):
            for i, x in enumerate(omega.coords):
                coords[i] += c * x
        lam = Weight(tuple(coords))
        if pairing(lam, lam, rs) <= bound:
            points.add(lam.coords)
    return points


@pytest.mark.parametrize("series", ["A1", "A2"])
def test_bounded_norm_orbit_rep_bijection(series):
    # the dominant representatives of integral orbits coincide with the
    # directly enumerated dominant integral weights, at bounded norm
    rs = build_root_system(parse_series(series))
    order = default_order(rs)
    bound = Fraction(8)
    lattice_points = integral_weights_in_ball(rs, order, bound)
    via_orbits = set()
    for coords in lattice_points:
        verdict = orbit_to_rep(Weight(coords), SC, rs)
        assert verdict.integral
        via_orbits.add(verdict.dominant_rep.coords)
    direct = {
        coords
        for coords in lattice_points
        if all(
            sum(x * a for x, a in zip(coords, alpha.coords)) >= 0
            for alpha in order.simple
        )
    }
    assert via_orbits == direct
