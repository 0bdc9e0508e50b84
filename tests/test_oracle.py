import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

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
from orbitkit.errors import InputError


def su(n):
    return oracle.special_unitary_basis(n)


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


class TestKKSCheck:
    def test_su2_fundamental(self, a1):
        lam = Weight((Fraction(1, 2), Fraction(-1, 2)))
        report = kks_check(lam, su(2), samples=20)
        assert report.block_residual < oracle.KKS_REL_TOL

    def test_su3_fundamental(self, a2, a2_order):
        lam = fundamental_weights(a2_order)[0]
        report = kks_check(lam, su(3), samples=100, seed=1)
        assert report.block_residual < oracle.KKS_REL_TOL
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
            assert report.block_residual < oracle.KKS_REL_TOL

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
