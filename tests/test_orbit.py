import random
from fractions import Fraction

import pytest

from orbitkit import (
    InputError,
    Weight,
    build_root_system,
    parse_series,
    fundamental_weights,
    generate_weyl_group,
    admissible_positive_system,
    kks_matrix,
    lagrangian_check,
    orbit_dimension,
    pairing,
    parse_series,
    polarization,
    singular_roots,
    stabilizer_report,
    weyl_orbit,
)
from orbitkit.orbit import (
    KKS_KAPPA,
    Polarization,
    check_admissibility,
)

from models import frac_vec


def w(*coords):
    return Weight(frac_vec(coords))


def random_weight(rs, rng, sum_zero=False):
    coords = [
        Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        for _ in range(rs.ambient_dim)
    ]
    if sum_zero:
        mean = sum(coords, Fraction(0)) / len(coords)
        coords = [c - mean for c in coords]
    return Weight(tuple(coords))


class TestSingularRoots:
    def test_zero_weight_all_singular(self, a2):
        assert set(singular_roots(w(0, 0, 0), a2)) == set(a2.roots)

    def test_a2_fundamental(self, a2, a2_order):
        # (omega1, alpha2) = 0 and (omega1, alpha1) = 1 by direct dot product
        omega1 = fundamental_weights(a2_order)[0]
        alpha1, alpha2 = a2_order.simple
        assert pairing(omega1, alpha1, a2) == 1
        assert pairing(omega1, alpha2, a2) == 0
        sing = {r.coords for r in singular_roots(omega1, a2)}
        assert sing == {alpha2.coords, (-alpha2).coords}

    def test_a2_rho_regular(self, a2, a2_order):
        fw = fundamental_weights(a2_order)
        rho = fw[0] + fw[1]
        assert all(pairing(rho, a, a2) != 0 for a in a2.roots)
        assert singular_roots(rho, a2) == ()

    def test_closed_under_negation(self, b2):
        rng = random.Random(2)
        for _ in range(30):
            lam = random_weight(b2, rng)
            sing = {r.coords for r in singular_roots(lam, b2)}
            assert sing == {tuple(-c for c in s) for s in sing}

    def test_closed_under_addition(self, b2):
        rng = random.Random(4)
        for _ in range(30):
            lam = random_weight(b2, rng)
            sing = {r.coords for r in singular_roots(lam, b2)}
            for a in sing:
                for b in sing:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s in b2.index:
                        assert s in sing


class TestStabilizerReport:
    def test_a1_regular(self, a1):
        rep = stabilizer_report(w("1/2", "-1/2"), a1)
        assert rep.regular
        assert rep.dim_g_lambda == 1  # the torus itself
        assert rep.dim_g == 3
        assert rep.t1_equations == ()

    def test_a2_fundamental(self, a2, a2_order):
        # rank 2 plus the singular pair; su(3) oracle confirms 4 in test_oracle
        omega1 = fundamental_weights(a2_order)[0]
        rep = stabilizer_report(omega1, a2)
        assert not rep.regular
        assert rep.dim_g_lambda == 2 + 2
        assert len(rep.t1_equations) == 1

    def test_zero_weight(self, a2):
        rep = stabilizer_report(w(0, 0, 0), a2)
        assert rep.dim_g_lambda == rep.dim_g == 8

    def test_dimension_formula(self, a2, b2):
        rng = random.Random(6)
        for rs in (a2, b2):
            for _ in range(50):
                lam = random_weight(rs, rng)
                rep = stabilizer_report(lam, rs)
                assert rep.dim_g_lambda + orbit_dimension(lam, rs) == rs.dim_g


class TestOrbitDimension:
    def test_zero(self, a2):
        assert orbit_dimension(w(0, 0, 0), a2) == 0

    def test_a1_sphere(self, a1):
        # su(2) oracle confirms numeric rank 2 in test_oracle
        assert orbit_dimension(w("1/2", "-1/2"), a1) == 2

    def test_a2_projective_plane(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        assert orbit_dimension(omega1, a2) == 4

    def test_always_even(self, b2):
        rng = random.Random(8)
        for _ in range(40):
            assert orbit_dimension(random_weight(b2, rng), b2) % 2 == 0

    def test_weyl_invariant(self, a2):
        group = generate_weyl_group(a2)
        rng = random.Random(10)
        for _ in range(20):
            lam = random_weight(a2, rng, sum_zero=True)
            dims = {
                orbit_dimension(p, a2) for p in weyl_orbit(lam, group).points
            }
            assert len(dims) == 1


class TestAdmissibleSystem:
    def test_regular_weight(self, a2, a2_order):
        fw = fundamental_weights(a2_order)
        rho = fw[0] + fw[1]
        order, cert = admissible_positive_system(rho, a2)
        assert cert.holds()
        assert {r.coords for r in order.positive} == {
            r.coords for r in a2_order.positive
        }

    def test_a2_fundamental_chamber(self, a2, a2_order):
        # frozen from the exhaustive check over the three positive roots
        omega1 = fundamental_weights(a2_order)[0]
        order, cert = admissible_positive_system(omega1, a2)
        assert cert.holds()
        alpha1, alpha2 = a2_order.simple
        assert {r.coords for r in order.positive} == {
            alpha1.coords,
            alpha2.coords,
            (alpha1 + alpha2).coords,
        }
        sing_pos = [r for r in order.positive if pairing(omega1, r, a2) == 0]
        assert [r.coords for r in sing_pos] == [alpha2.coords]

    def test_zero_weight_vacuous(self, a2):
        zero = w(0, 0, 0)
        order, cert = admissible_positive_system(zero, a2)
        assert cert.holds()
        assert len(order.positive) == 3

    def test_certificate_is_about_the_singular_set_of_lambda(self, a2, monkeypatch):
        # the certificate holds for () and for every root too, so it is the
        # set it was checked against that shows whose certificate it is
        lam = w(1, 1, -2)
        checked = []

        def recording(lam, order, singular):
            checked.append({a.coords for a in singular})
            return check_admissibility(lam, order, singular)

        monkeypatch.setattr("orbitkit.orbit.check_admissibility", recording)
        order, cert = admissible_positive_system(lam, a2)
        s_lam = {frac_vec((1, -1, 0)), frac_vec((-1, 1, 0))}
        assert checked == [s_lam] == [{a.coords for a in singular_roots(lam, a2)}]
        assert cert.holds()
        assert len(s_lam & order.positive_set) == 1

    def test_lambda_dominant_for_chosen_chamber(self, b2):
        rng = random.Random(12)
        for _ in range(40):
            lam = random_weight(b2, rng)
            order, cert = admissible_positive_system(lam, b2)
            assert cert.dominant
            assert all(pairing(lam, a, b2) >= 0 for a in order.positive)

    def test_certificate_rejects_bad_chamber(self, a2, a2_order):
        # the default chamber is not admissible for a weight dominant only
        # in another chamber
        fw = fundamental_weights(a2_order)
        lam = -fw[0] - fw[1]
        cert = check_admissibility(lam, a2_order, singular_roots(lam, a2))
        assert not cert.dominant
        assert not cert.holds()


class TestPolarization:
    def test_a1_rank_one(self, a1):
        lam = w("1/2", "-1/2")
        order, _ = admissible_positive_system(lam, a1)
        pol = polarization(lam, order)
        assert [r.coords for r in pol.b_roots] == [frac_vec((1, -1))]

    def test_a2_regular_full_flag(self, a2, a2_order):
        fw = fundamental_weights(a2_order)
        rho = fw[0] + fw[1]
        order, _ = admissible_positive_system(rho, a2)
        pol = polarization(rho, order)
        assert len(pol.b_roots) == 3

    def test_a2_singular_removes_wall(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        order, _ = admissible_positive_system(omega1, a2)
        pol = polarization(omega1, order)
        alpha1, alpha2 = a2_order.simple
        assert {r.coords for r in pol.b_roots} == {
            alpha1.coords,
            (alpha1 + alpha2).coords,
        }

    def test_half_dimension_and_no_opposites(self, b2):
        rng = random.Random(14)
        for _ in range(40):
            lam = random_weight(b2, rng)
            order, _ = admissible_positive_system(lam, b2)
            pol = polarization(lam, order)
            coords = {r.coords for r in pol.b_roots}
            assert not any(tuple(-c for c in v) in coords for v in coords)
            assert 2 * len(coords) == orbit_dimension(lam, b2)

    def test_inadmissible_order_rejected(self, a2, a2_order):
        fw = fundamental_weights(a2_order)
        lam = -fw[0] - fw[1]
        with pytest.raises(InputError):
            polarization(lam, a2_order)


class TestKKSMatrix:
    def test_zero_weight_empty(self, a2):
        zero = w(0, 0, 0)
        order, _ = admissible_positive_system(zero, a2)
        kks = kks_matrix(zero, polarization(zero, order))
        assert kks.basis_labels == ()
        assert kks.dim == 0

    def test_a1_proportional_to_t(self, a1):
        values = {}
        for t in (Fraction(1), Fraction(3, 2), Fraction(5)):
            lam = Weight((t / 2, -t / 2))
            order, _ = admissible_positive_system(lam, a1)
            kks = kks_matrix(lam, polarization(lam, order))
            assert len(kks.basis_labels) == 1
            values[t] = kks.block_value(kks.basis_labels[0])
        base = values[Fraction(1)]
        assert base == KKS_KAPPA * 1  # (omega1, alpha) = 1
        for t, v in values.items():
            assert v == t * base

    def test_a2_fundamental_blocks_equal(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        order, _ = admissible_positive_system(omega1, a2)
        kks = kks_matrix(omega1, polarization(omega1, order))
        values = [kks.block_value(a) for a in kks.basis_labels]
        assert len(values) == 2
        # both pairings evaluate to 1; the su(3) oracle cross-checks this
        assert values[0] == values[1] == KKS_KAPPA

    def test_antisymmetric_block_structure(self, b2):
        rng = random.Random(16)
        for _ in range(25):
            lam = random_weight(b2, rng)
            order, _ = admissible_positive_system(lam, b2)
            kks = kks_matrix(lam, polarization(lam, order))
            n = kks.dim
            for i in range(n):
                for j in range(n):
                    assert kks.entries[i][j] == -kks.entries[j][i]
                    block_i, block_j = i // 2, j // 2
                    if block_i != block_j:
                        assert kks.entries[i][j] == 0

    def test_rank_equals_orbit_dimension(self, a2, b2):
        from orbitkit.linalg import mat, rank

        rng = random.Random(18)
        for rs in (a2, b2):
            for _ in range(25):
                lam = random_weight(rs, rng)
                order, _ = admissible_positive_system(lam, rs)
                kks = kks_matrix(lam, polarization(lam, order))
                exact_rank = rank(mat(kks.entries)) if kks.dim else 0
                assert exact_rank == kks.dim == orbit_dimension(lam, rs)

    def test_scaling_covariance(self, a2):
        rng = random.Random(20)
        for _ in range(10):
            lam = random_weight(a2, rng, sum_zero=True)
            order, _ = admissible_positive_system(lam, a2)
            kks = kks_matrix(lam, polarization(lam, order))
            for t in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
                lam_t = Weight(tuple(t * c for c in lam.coords))
                scaled = kks_matrix(lam_t, polarization(lam_t, order))
                assert scaled.basis_labels == kks.basis_labels
                assert scaled.entries == tuple(
                    tuple(t * x for x in row) for row in kks.entries
                )


class TestLongRootSeries:
    # hand-derived flag manifolds outside the A/B test systems

    def test_c3_partial_flag(self):
        # lambda = (1,1,0): singular set {+-(e1-e2), +-2e3}, stabilizer
        # U(2) x Sp(1) of dimension 4 + 3 inside sp(3) of dimension 21
        rs = build_root_system(parse_series("C3"))
        lam = w(1, 1, 0)
        rep = stabilizer_report(lam, rs)
        assert rep.dim_g == 21
        assert len(rep.singular) == 4
        assert rep.dim_g_lambda == 7
        assert orbit_dimension(lam, rs) == 14
        order, cert = admissible_positive_system(lam, rs)
        assert cert.holds()
        pol = polarization(lam, order)
        assert len(pol.b_roots) == 7

    def test_d3_unitary_quotient(self):
        # lambda = (1,1,1): singular set is the embedded A2 system, stabilizer
        # U(3) of dimension 9 inside so(6) of dimension 15
        rs = build_root_system(parse_series("D3"))
        lam = w(1, 1, 1)
        rep = stabilizer_report(lam, rs)
        assert rep.dim_g == 15
        assert len(rep.singular) == 6
        assert rep.dim_g_lambda == 9
        assert orbit_dimension(lam, rs) == 6
        order, _ = admissible_positive_system(lam, rs)
        kks = kks_matrix(lam, polarization(lam, order))
        assert kks.dim == 6


class TestLagrangianCheck:
    def test_valid_polarizations_pass(self, a2, b2):
        rng = random.Random(22)
        for rs in (a2, b2):
            for _ in range(25):
                lam = random_weight(rs, rng)
                order, _ = admissible_positive_system(lam, rs)
                pol = polarization(lam, order)
                kks = kks_matrix(lam, pol)
                ok, witness = lagrangian_check(pol, kks)
                assert ok and witness is None

    def test_adversarial_opposite_pair(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        order, _ = admissible_positive_system(omega1, a2)
        good = polarization(omega1, order)
        kks = kks_matrix(omega1, good)
        alpha = good.b_roots[0]
        bad = Polarization(
            order=order,
            b_roots=good.b_roots + (-alpha,),
            admissibility=good.admissibility,
        )
        ok, witness = lagrangian_check(bad, kks)
        assert not ok
        assert witness is not None
        a, b = witness
        assert a.coords == tuple(-c for c in b.coords)

    def test_a2_fundamental_explicit(self, a2, a2_order):
        omega1 = fundamental_weights(a2_order)[0]
        order, _ = admissible_positive_system(omega1, a2)
        pol = polarization(omega1, order)
        kks = kks_matrix(omega1, pol)
        assert lagrangian_check(pol, kks) == (True, None)
