import random
from fractions import Fraction
from itertools import product

import pytest

from orbitkit import (
    InputError,
    LatticeSpec,
    Weight,
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
    weyl_orbit,
)
from orbitkit.linalg import mat_vec
from orbitkit.quantize import (
    ADJOINT,
    NONZERO_IRREDUCIBLE,
    SIMPLY_CONNECTED,
    ZERO_SECTION_SPACE,
)

from models import frac_vec

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
        rs = build_root_system(parse_series("A1xT1"))
        lam = w("1/2", "-1/2", "7/3")
        # no root constrains the torus direction on the weight lattice
        assert is_integral(lam, SC, rs)
        # but the root lattice cannot reach a nonzero torus coordinate
        assert not is_integral(lam, AD, rs)

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


class TestExtendability:
    def test_regular_vacuous(self, a1):
        cert = extendability_certificate(w("1/2", "-1/2"), a1)
        assert cert.vanishing_pairings == ()

    def test_a2_fundamental_records_wall(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        cert = extendability_certificate(omega1, a2)
        assert len(cert.vanishing_pairings) == 2
        assert all(v == 0 for _, v in cert.vanishing_pairings)
        alpha2 = a2_order.simple[1]
        recorded = {r.coords for r, _ in cert.vanishing_pairings}
        assert recorded == {alpha2.coords, (-alpha2).coords}

    def test_zero_records_everything(self, a2):
        cert = extendability_certificate(w(0, 0, 0), a2)
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
