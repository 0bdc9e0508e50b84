import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitkit import (
    LatticeSpec,
    Weight,
    analyze_orbit,
    build_root_system,
    fundamental_weights,
    orbit_dimension,
    parse_series,
)
from orbitkit import oracle, pipeline, rootsys
from orbitkit.quantize import SIMPLY_CONNECTED
from orbitkit.cli import main
from orbitkit.orbit import KKSMatrix
from orbitkit.errors import InputError


# each su(n) built and verified once: the construction check of su(5) alone
# takes about 1 s, and the near-wall property audits many lambdas per n
su = lru_cache(maxsize=None)(oracle.special_unitary_basis)


@lru_cache(maxsize=None)
def a_system_and_matches(n):
    """A_{n-1} and the numeric roots of su(n) matched onto it, once per n."""
    rs = build_root_system(parse_series(f"A{n - 1}"))
    return rs, oracle.match_roots(oracle.numeric_root_decomposition(su(n)), rs)


def kks_check(lam, alg, **kwargs):
    """numeric_kks_check of the exact report for lam against alg."""
    rs, matches = a_system_and_matches(alg.n)
    report = analyze_orbit(rs, lam.coords, LatticeSpec(SIMPLY_CONNECTED))
    return oracle.numeric_kks_check(report, alg, matches, **kwargs)


def random_sum_zero_weight(n, rng):
    coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    mean = sum(coords, Fraction(0)) / n
    return Weight(tuple(c - mean for c in coords))


class TestConstruction:
    @pytest.mark.parametrize("n,dim,cartan", [(2, 3, 1), (3, 8, 2), (4, 15, 3)])
    def test_dimensions(self, n, dim, cartan):
        alg = su(n)
        assert alg.dim == dim
        assert len(alg.cartan_indices) == cartan

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            su(1)
        with pytest.raises(InputError):
            su(6)

    def test_form_is_positive_on_basis(self):
        alg = su(3)
        for b in alg.basis:
            assert alg.form(b, b) > 0

    def test_ad_invariance_of_form(self):
        alg = su(3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            cx, cy, cz = rng.normal(size=(3, alg.dim))
            x = sum(c * b for c, b in zip(cx, alg.basis))
            y = sum(c * b for c, b in zip(cy, alg.basis))
            z = sum(c * b for c, b in zip(cz, alg.basis))
            lhs = alg.form(oracle._br(x, y), z) + alg.form(y, oracle._br(x, z))
            assert abs(lhs) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bracket_tensor_matches_the_per_pair_formulas(self, n):
        # brackets, ad and the KKS form against one bracket per basis pair;
        # entries are O(1), so 1e-14 is a few ulps of float64
        alg = su(n)
        h = 1j * np.diag(np.linspace(0.7, -0.7, n))
        v_lam = np.linspace(1.5, -1.5, n)
        ad, omega = oracle._ad_matrix(alg, h), oracle._kks_form(alg, v_lam)
        for i, x in enumerate(alg.basis):
            for j, y in enumerate(alg.basis):
                assert np.max(np.abs(alg.brackets[i, j] - oracle._br(x, y))) < 1e-14
                assert abs(ad[i, j] + np.trace(oracle._br(h, y) @ x) / 2) < 1e-14
                assert abs(omega[i, j] - oracle._eval_functional(v_lam, oracle._br(x, y))) < 1e-14


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda basis: (basis[0] + 1j * np.eye(3), *basis[1:]), "not trace-free"),
        (lambda basis: (basis[0] / 1j, *basis[1:]), "not anti-Hermitian"),
        (lambda basis: basis[:-1], "does not close"),  # the last Cartan matrix dropped
    ],
    ids=["trace", "hermitian", "closure"],
)
def test_construction_refuses_a_tampered_su3_basis(tamper, message):
    basis = tamper(su(3).basis)
    cartan = tuple([i for i in su(3).cartan_indices if i < len(basis)])
    with pytest.raises(oracle.OracleError, match=message):
        oracle._verify_construction(oracle.MatrixAlgebra(3, basis, cartan))


def test_construction_accepts_a_basis_that_is_not_orthonormal():
    # x_i + x_{i+1} + ... + x_7 spans su(3) too; its structure constants are
    # not antisymmetric in all three indices, so Jacobi read off them with
    # two indices swapped fails here, as it does not on the Gell-Mann basis
    shear = np.eye(8) + np.triu(np.ones((8, 8)), 1)
    basis = tuple(np.tensordot(shear, su(3).stacked, axes=1))
    oracle._verify_construction(oracle.MatrixAlgebra(3, basis, su(3).cartan_indices))


class TestRootDecomposition:
    def test_su2_pair(self):
        roots = oracle.numeric_root_decomposition(su(2))
        assert len(roots) == 2
        f0, f1 = roots[0].functional, roots[1].functional
        assert np.allclose(f0, -f1, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_and_matching(self, n):
        alg = su(n)
        roots = oracle.numeric_root_decomposition(alg)
        assert len(roots) == n * n - n
        rs = build_root_system(parse_series(f"A{n-1}"))
        matches = oracle.match_roots(roots, rs)
        assert len(matches) == len(rs.roots)
        assert max(res for _, _, res in matches) < oracle.SPECTRAL_TOL

    def test_su3_matches_a2_scaled(self):
        # the matched functionals literally equal the exact e_i - e_j vectors
        rs = build_root_system(parse_series("A2"))
        matches = oracle.match_roots(
            oracle.numeric_root_decomposition(su(3)), rs
        )
        for numeric, exact, _ in matches:
            target = np.array([float(c) for c in exact.coords])
            assert np.allclose(numeric.functional, target, atol=1e-8)

    def test_eigenvectors_unit_norm(self):
        for r in oracle.numeric_root_decomposition(su(3)):
            x = r.eigenvector
            assert abs(np.trace(x @ x.conj().T).real - 1.0) < 1e-10


class TestMatchRefusals:
    """match_roots refuses, with an OracleError, any decomposition that does
    not round onto the exact roots one to one."""

    @staticmethod
    def moved(root, functional):
        return oracle.NumericRoot(functional, root.eigenvector)

    def test_a_root_count_mismatch(self, a2):
        roots = oracle.numeric_root_decomposition(su(3))
        with pytest.raises(oracle.OracleError, match="root count mismatch: numeric 5 vs exact 6"):
            oracle.match_roots(roots[:-1], a2)

    @pytest.mark.parametrize("offset", [2 * oracle.SPECTRAL_TOL, 0.4, float("nan")])
    def test_a_functional_past_the_spectral_tolerance(self, a2, offset):
        roots = oracle.numeric_root_decomposition(su(3))
        f = roots[2].functional + offset * np.array([1.0, -1.0, 0.0])
        roots[2] = self.moved(roots[2], f)
        with pytest.raises(oracle.OracleError, match="from the nearest integer vector"):
            oracle.match_roots(roots, a2)

    @pytest.mark.parametrize("target", [
        # within the tolerance of roots[0]'s root, so two round onto it
        lambda roots: roots[0].functional + oracle.SPECTRAL_TOL / 10,
        lambda roots: np.array([2.0, -2.0, 0.0]),  # an integer vector, not a root
    ], ids=["taken twice", "not a root"])
    def test_a_functional_that_rounds_to_no_root_left(self, a2, target):
        roots = oracle.numeric_root_decomposition(su(3))
        roots[1] = self.moved(roots[1], target(roots))
        with pytest.raises(oracle.OracleError, match="matches no exact root left"):
            oracle.match_roots(roots, a2)


class TestRootPropertyAudit:
    @pytest.mark.parametrize("n", [2, 3])
    def test_audit_passes(self, n):
        report = oracle.root_property_audit(oracle.numeric_root_decomposition(su(n)))
        assert report.ok
        assert report.max_residual < 1e-9

    def test_su3_bracket_lands_in_sum_space(self):
        # [g^a1, g^a2] lands in g^(a1+a2): covered by the audit's pair scan
        report = oracle.root_property_audit(oracle.numeric_root_decomposition(su(3)))
        assert report.checks == 6 + 36

    def test_self_bracket_vanishes(self):
        roots = oracle.numeric_root_decomposition(su(3))
        for r in roots:
            br = oracle._br(r.eigenvector, r.eigenvector)
            assert np.max(np.abs(br)) < 1e-12


def kks_bound(lam, alg):
    """The KKS block tolerance at lam: KKS_TOL |lambda|."""
    return oracle.KKS_TOL * np.linalg.norm(oracle.lambda_vector(lam, alg))


class TestKKSCheck:
    def test_su2_fundamental(self, a1):
        lam = Weight((Fraction(1, 2), Fraction(-1, 2)))
        report = kks_check(lam, su(2), samples=20)
        assert report.block_residual < kks_bound(lam, su(2))

    def test_su3_fundamental(self, a2, a2_order):
        lam = fundamental_weights(a2_order)[0]
        report = kks_check(lam, su(3), samples=100, seed=1)
        assert report.block_residual < kks_bound(lam, su(3))
        assert report.equivariance_residual < oracle.FD_TOL

    def test_zero_weight(self, a2):
        lam = Weight((Fraction(0),) * 3)
        report = kks_check(lam, su(3), samples=25)
        assert report.block_residual == 0.0
        assert report.equivariance_residual < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_weights(self, n):
        rng = random.Random(100 + n)
        alg = su(n)
        for _ in range(20):
            lam = random_sum_zero_weight(n, rng)
            report = kks_check(lam, alg, samples=5, seed=0)
            assert report.block_residual <= kks_bound(lam, alg)

    @pytest.mark.parametrize("coords, tamper", [
        # the least block, 2 (lambda, alpha) = 5e-9, just past the rank
        # tolerance: flipped, it is 1e-8 off, against KKS_TOL |lambda| = 2.45e-9
        ((1, 1 - Fraction(25, 10**10), Fraction(25, 10**10) - 2), -1),
        ((3, 1, -4), -1),
        ((5, 2, -1, -6), Fraction(1000001, 1000000)),
        ((4, 3, 1, -2, -6), Fraction(1000001, 1000000)),
    ])
    def test_a_tampered_block_is_caught(self, coords, tamper):
        # an exact report with its least block flipped in sign, or scaled by
        # 1 + 10^-6, must fail the check
        lam = Weight(coords)
        rs, matches = a_system_and_matches(len(coords))
        oracle.require_resolvable(lam, rs)
        report = analyze_orbit(rs, lam.coords, LatticeSpec(SIMPLY_CONNECTED))
        blocks = list(report.kks.blocks)
        least = min(range(len(blocks)), key=lambda i: abs(blocks[i]))
        blocks[least] *= tamper
        tampered = SimpleNamespace(lam=report.lam, kks=KKSMatrix(report.kks.basis_labels,
                                                                 tuple(blocks)))
        with pytest.raises(oracle.OracleError, match="KKS block mismatch"):
            oracle.numeric_kks_check(tampered, su(len(coords)), matches, samples=1)

    def test_dimension_guard(self):
        with pytest.raises(InputError):
            oracle.lambda_vector(Weight((Fraction(1),)), su(2))

    def test_sum_zero_guard(self):
        with pytest.raises(InputError):
            oracle.lambda_vector(Weight((Fraction(1), Fraction(1))), su(2))


class TestStabilizerRank:
    def test_su2_regular(self, a1):
        lam = Weight((Fraction(1, 2), Fraction(-1, 2)))
        assert oracle.stabilizer_rank(lam, su(2)) == 2
        assert orbit_dimension(lam, a1) == 2

    def test_su3_singular(self, a2, a2_order):
        lam = fundamental_weights(a2_order)[0]
        assert oracle.stabilizer_rank(lam, su(3)) == orbit_dimension(lam, a2) == 4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_ranks_match_orbit_dimension(self, n):
        rs = build_root_system(parse_series(f"A{n-1}"))
        alg = su(n)
        rng = random.Random(200 + n)
        for _ in range(20):
            lam = random_sum_zero_weight(n, rng)
            assert oracle.stabilizer_rank(lam, alg) == orbit_dimension(lam, rs)


def test_equivariance_nontrivial_pairs_have_fd_error_profile(a2, a2_order):
    # sanity check of the finite-difference oracle itself: on a pair with a
    # nonzero bracket value the central-difference error is O(step^2), small
    # but nonzero, confirming the check is not vacuous
    alg = su(3)
    lam = fundamental_weights(a2_order)[0]
    v_lam = oracle.lambda_vector(lam, alg)
    residuals = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = alg.basis[i], alg.basis[j]
            exact = oracle._eval_functional(v_lam, oracle._br(x, y))
            if abs(exact) < 0.5:
                continue
            h = oracle.FD_STEP
            fd = (
                oracle._coadjoint_pullback(v_lam, x, y, h)
                - oracle._coadjoint_pullback(v_lam, x, y, -h)
            ) / (2 * h)
            residuals.append(abs(fd - exact))
    assert residuals
    assert all(1e-14 < r < oracle.FD_TOL for r in residuals)


def test_audit_flags_a_projected_lambda(capsys):
    assert main(["audit", "--n", "2", "--lambda", "1,1", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == ["0", "0"]
    assert payload["lambda_projected"] is True
    assert main(["audit", "--n", "2", "--lambda", "1,1"]) == 0
    assert "projected onto the sum-zero hyperplane" in capsys.readouterr().out
    assert main(["audit", "--n", "2", "--lambda", "1/2,-1/2", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda_projected"] is False


def test_audit_builds_each_exact_and_numeric_fact_once(capsys, monkeypatch):
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(oracle, "numeric_root_decomposition")
    count(oracle, "match_roots")
    count(rootsys, "build_root_system")
    # the pipeline's own binding, in case the audit ever hands it a series string
    count(pipeline, "build_root_system")
    for argv in (["--n", "3"], ["--n", "4", "--lambda", "1,0,-1,0"]):
        calls.clear()
        assert main(["audit", *argv, "--samples", "2", "--output", "json"]) == 0
        capsys.readouterr()
        assert calls == {
            "numeric_root_decomposition": 1,
            "match_roots": 1,
            "build_root_system": 1,
        }


@pytest.mark.parametrize("delta, refused", [
    (Fraction(1, 10**9), True),  # 10^-9 <= 10^-9 |lambda|, |lambda| about 2.45
    (Fraction(24, 10**10), True),
    (Fraction(25, 10**10), False),
    (Fraction(1, 10**8), False),
    (0, False),  # a singular lambda: the zero pairing is exact in doubles too
])
def test_a_lambda_is_resolvable_past_the_rank_tolerance(delta, refused):
    rs = build_root_system(parse_series("A2"))
    lam = Weight((1, 1 - delta, delta - 2))
    if refused:
        with pytest.raises(InputError, match="rank tolerance"):
            oracle.require_resolvable(lam, rs)
    else:
        oracle.require_resolvable(lam, rs)
    # the rule reads the ratio to |lambda|, so scaling lambda keeps the verdict
    scaled = Weight(tuple([10**12 * x for x in lam.coords]))
    if refused:
        with pytest.raises(InputError):
            oracle.require_resolvable(scaled, rs)
    else:
        oracle.require_resolvable(scaled, rs)


def decimal(x, k):
    """x, a multiple of 10^-k, as a decimal string with k places."""
    sign = "-" if x < 0 else ""
    whole, part = divmod(abs(int(x * 10**k)), 10**k)
    return f"{sign}{whole}.{part:0{k}d}"


@st.composite
def near_wall_lambdas(draw):
    """(n, --lambda value): integer coordinates, then one moved to relative
    distance about 10^-k from the wall of a root, k = 1..14, written as
    decimals or as exact fractions (a third of a power of ten)."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 14))
    coords = [Fraction(c) for c in draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))]
    i, j = draw(st.permutations(range(n)))[:2]
    as_decimal = draw(st.booleans())
    offset = Fraction(max(1, *map(abs, coords)), 10**k * (1 if as_decimal else 3))
    coords[j] = coords[i] + draw(st.sampled_from([1, -1])) * offset
    return n, ",".join([decimal(c, k) if as_decimal else str(c) for c in coords])


@settings(max_examples=120, deadline=None)
@given(near_wall_lambdas())
@example((3, "1,0.99999999,-1.99999999"))
@example((3, "1,0.999999999,-1.999999999"))  # 10^-9 <= RANK_TOL |lambda|: refused
@example((5, "3,-2,0,1.00000000000001,-2"))
@example((2, "7,20999999999999/3000000000000"))
def test_the_audit_passes_or_refuses_a_lambda_near_a_wall(case):
    # exit 5 would mean a disagreement with the exact report; refused (3) are
    # exactly the lambdas whose least pairing is within RANK_TOL |lambda|
    n, lam = case
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setattr(oracle, "special_unitary_basis", su)
        code = main(["audit", f"--n={n}", f"--lambda={lam}", "--samples=2", "--output=json"])
    assert code in (0, 3), err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue())
        assert payload["root_audit_ok"] is payload["stabilizer_rank_matches"] is True
    else:
        error = json.loads(err.getvalue())["error"]
        assert error["kind"] == "input" and "rank tolerance" in error["message"]
