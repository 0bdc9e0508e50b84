"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is calibrated at test time.
"""

import random
import time
from fractions import Fraction
from itertools import product

from orbitkit import (
    LatticeSpec,
    Weight,
    analyze_orbit,
    build_root_system,
    default_order,
    fundamental_weights,
    generate_weyl_group,
    admissible_positive_system,
    is_dominant,
    is_integral,
    kks_matrix,
    lagrangian_check,
    orbit_dimension,
    orbit_to_rep,
    pairing,
    parse_series,
    polarization,
    stabilizer_report,
    singular_roots,
    build_nerve,
    chern_class,
    coboundary,
    cohomology,
    make_cochain,
)
from orbitkit import oracle
from orbitkit.cech import RING_Z
from orbitkit.orbit import Polarization
from orbitkit.quantize import SIMPLY_CONNECTED, ADJOINT

from models import (
    even_hyperoctahedral_order,
    hyperoctahedral_order,
    symmetric_group_order,
)

SC = LatticeSpec(SIMPLY_CONNECTED)
AD = LatticeSpec(ADJOINT)


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def random_weight(rs, rng, sum_zero):
    coords = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(rs.ambient_dim)
    ]
    if sum_zero:
        mean = sum(coords, Fraction(0)) / len(coords)
        coords = [c - mean for c in coords]
    return Weight(tuple(coords))


SUITE_SEEDS = {"A1": 11, "A2": 22, "B2": 33}


def suite_weights(series, count, seed=None):
    rs = build_root_system(parse_series(series))
    rng = random.Random(SUITE_SEEDS[series] if seed is None else seed)
    return rs, [
        random_weight(rs, rng, sum_zero=series.startswith("A"))
        for _ in range(count)
    ]


def test_criterion_1_weyl_group_orders():
    expected = {
        "A2": symmetric_group_order(3),
        "A3": symmetric_group_order(4),
        "B2": hyperoctahedral_order(2),
        "B3": hyperoctahedral_order(3),
        "C3": hyperoctahedral_order(3),
        "D4": even_hyperoctahedral_order(4),
    }
    assert expected == {
        "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48, "D4": 192,
    }
    start = time.monotonic()
    orders = {}
    for series, want in expected.items():
        rs = build_root_system(parse_series(series))
        orders[series] = generate_weyl_group(rs).order
        assert orders[series] == want
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"orders {orders} match permutation models in {elapsed:.2f}s")


def test_criterion_2_root_decomposition_oracle_equivalence():
    worst = {}
    for n in (2, 3, 4):
        alg = oracle.special_unitary_basis(n)
        rs = build_root_system(parse_series(f"A{n-1}"))
        matches = oracle.match_roots(oracle.numeric_root_decomposition(alg), rs)
        assert len(matches) == len(rs.roots)
        worst[n] = max(res for _, _, res in matches)
        assert worst[n] < 1e-8
    report(
        2,
        "per-root residuals "
        + ", ".join(f"su({n}): {r:.2e}" for n, r in worst.items()),
    )


def test_criterion_3_stabilizer_dimension_formulas():
    algebras = {"A1": oracle.special_unitary_basis(2), "A2": oracle.special_unitary_basis(3)}
    checked = rank_checked = 0
    for series in ("A1", "A2", "B2"):
        rs, weights = suite_weights(series, 50)
        for lam in weights:
            rep = stabilizer_report(lam, rs)
            dim_orbit = orbit_dimension(lam, rs)
            assert rep.dim_g_lambda + dim_orbit == rs.dim_g
            checked += 1
            if series in algebras:
                assert oracle.stabilizer_rank(lam, algebras[series]) == dim_orbit
                rank_checked += 1
    report(
        3,
        f"dimension formula exact on {checked} weights; "
        f"numeric rank matched on {rank_checked}",
    )


def test_criterion_4_kks_validation():
    worst = 0.0
    for n in (2, 3):
        alg = oracle.special_unitary_basis(n)
        series = f"A{n-1}"
        rs, weights = suite_weights(series, 20, seed=40 + n)
        matches = oracle.match_roots(oracle.numeric_root_decomposition(alg), rs)
        for lam in weights:
            exact = analyze_orbit(rs, lam.coords, SC)
            rep = oracle.numeric_kks_check(exact, alg, matches, samples=0)
            worst = max(worst, rep.block_residual)
            assert rep.block_residual < 1e-9
    # exact scaling covariance for 10 rational t
    rs, weights = suite_weights("A2", 3, seed=4)
    ts = [Fraction(k, 7) for k in range(1, 11)]
    for lam in weights:
        order, _ = admissible_positive_system(lam, rs)
        base = kks_matrix(lam, polarization(lam, order))
        for t in ts:
            lam_t = Weight(tuple(t * c for c in lam.coords))
            scaled = kks_matrix(lam_t, polarization(lam_t, order))
            assert scaled.basis_labels == base.basis_labels
            assert scaled.entries == tuple(
                tuple(t * x for x in row) for row in base.entries
            )
    report(4, f"40 random weights, worst block residual {worst:.2e}; scaling exact")


def test_criterion_5_moment_map_equivariance():
    alg = oracle.special_unitary_basis(3)
    rs = build_root_system(parse_series("A2"))
    matches = oracle.match_roots(oracle.numeric_root_decomposition(alg), rs)
    rng = random.Random(5)
    worst = 0.0
    for k in range(10):
        lam = random_weight(rs, rng, sum_zero=True)
        exact = analyze_orbit(rs, lam.coords, SC)
        rep = oracle.numeric_kks_check(exact, alg, matches, samples=10, seed=k)
        worst = max(worst, rep.equivariance_residual)
        assert rep.equivariance_residual < 1e-6
    report(5, f"100 (X, Y, lambda) samples, worst residual {worst:.2e}")


def test_criterion_6_polarization_certificates():
    total = 0
    for series in ("A1", "A2", "B2"):
        rs, weights = suite_weights(series, 50)
        for lam in weights:
            order, cert = admissible_positive_system(lam, rs)
            assert cert.holds()
            pol = polarization(lam, order)
            b = {r.coords for r in pol.b_roots}
            sing = {r.coords for r in singular_roots(lam, rs)}
            # (ii) intersection with the conjugate is exactly the stabilizer part
            assert not (b & {tuple(-x for x in v) for v in b})
            # (iii) half-dimensionality
            assert 2 * len(b) == len(rs.roots) - len(sing)
            # (i) bracket closure of the label set
            labels = b | sing
            for x in labels:
                for y in labels:
                    s = tuple(p + q for p, q in zip(x, y))
                    if s in rs.index:
                        assert s in labels
            omega = kks_matrix(lam, pol)
            ok, witness = lagrangian_check(pol, omega)
            assert ok and witness is None
            total += 1
    # adversarial opposite-pair input
    rs = build_root_system(parse_series("A2"))
    lam = Weight((Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)))
    order, _ = admissible_positive_system(lam, rs)
    good = polarization(lam, order)
    bad = Polarization(
        order=order,
        b_roots=good.b_roots + (-good.b_roots[0],),
        admissibility=good.admissibility,
    )
    ok, witness = lagrangian_check(bad, kks_matrix(lam, good))
    assert not ok and witness is not None
    report(6, f"{total} polarizations certified; adversarial input refused with witness")


def test_criterion_7_cech_golden_values():
    triangle = build_nerve([(0, 1), (1, 2), (0, 2)])
    assert [
        (cohomology(triangle, k, RING_Z).free_rank, cohomology(triangle, k, RING_Z).torsion)
        for k in (0, 1)
    ] == [(1, ()), (1, ())]
    tetra = build_nerve([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert [
        (cohomology(tetra, k, RING_Z).free_rank, cohomology(tetra, k, RING_Z).torsion)
        for k in (0, 1, 2)
    ] == [(1, ()), (0, ()), (1, ())]

    rng = random.Random(77)
    for _ in range(100):
        simplices = []
        n_vertices = rng.randint(1, 6)
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(1, min(4, n_vertices))
            simplices.append(tuple(sorted(rng.sample(range(n_vertices), size))))
        nerve = build_nerve(simplices)
        degree = rng.randint(0, max(0, nerve.dimension))
        c = make_cochain(
            nerve,
            degree,
            {s: rng.randint(-9, 9) for s in nerve.of_dim(degree)},
        )
        dd = coboundary(coboundary(c, nerve), nerve)
        assert all(v == 0 for v in dd.values.values())

    face = make_cochain(tetra, 2, {(0, 1, 2): 1})
    cls = chern_class(tetra, face)
    assert cls.valid and cls.free_coords in ((1,), (-1,))
    for _ in range(20):
        b = make_cochain(
            tetra, 1, {s: rng.randint(-9, 9) for s in tetra.of_dim(1)}
        )
        db = coboundary(b, tetra)
        shifted = make_cochain(
            tetra, 2, {s: face.values[s] + db.values[s] for s in tetra.of_dim(2)}
        )
        moved = chern_class(tetra, shifted)
        assert moved.free_coords == cls.free_coords
        assert moved.torsion_coords == cls.torsion_coords
    report(7, "golden cohomology, 100 delta^2 checks, generator class stable under 20 shifts")


def test_criterion_8_orbit_method_surjectivity_bounded_norm():
    start = time.monotonic()
    bound = Fraction(12)
    for series in ("A1", "A2"):
        rs = build_root_system(parse_series(series))
        order = default_order(rs)
        fw = fundamental_weights(order)
        radius = int(2 * bound) + 2
        lattice_points = set()
        for combo in product(range(-radius, radius + 1), repeat=len(fw)):
            coords = [Fraction(0)] * rs.ambient_dim
            for c, omega in zip(combo, fw):
                for i, x in enumerate(omega.coords):
                    coords[i] += c * x
            lam = Weight(tuple(coords))
            if pairing(lam, lam, rs) <= bound:
                lattice_points.add(lam.coords)
        via_orbits = set()
        for coords in lattice_points:
            verdict = orbit_to_rep(Weight(coords), SC, rs)
            assert verdict.integral
            via_orbits.add(verdict.dominant_rep.coords)
        direct = {
            coords
            for coords in lattice_points
            if is_dominant(Weight(coords), order)
        }
        assert via_orbits == direct
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(8, f"dominant-representative sets equal for A1 and A2 in {elapsed:.2f}s")


def test_criterion_9_integrality_dichotomy():
    rs = build_root_system(parse_series("A1"))
    omega1 = Weight((Fraction(1, 2), Fraction(-1, 2)))
    half = Weight((Fraction(1, 4), Fraction(-1, 4)))
    assert is_integral(omega1, SC, rs) is True
    assert is_integral(omega1, AD, rs) is False
    assert is_integral(half, SC, rs) is False
    assert is_integral(half, AD, rs) is False
    report(9, "omega1 splits the lattices, omega1/2 is non-integral on both")
