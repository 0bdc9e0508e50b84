"""Floating-point su(n) models that independently re-derive the exact results.

The generalized Gell-Mann basis (made anti-Hermitian) realizes su(n) with the
invariant form -trace(XY).  Roots come out of a simultaneous eigenspace
decomposition of the adjoint action of the diagonal torus, the KKS blocks
from explicit bracket evaluations, and moment-map equivariance from central
finite differences of the coadjoint flow.

The oracle builds no exact object: the caller hands in one decomposition,
its match_roots against the exact root system and one pipeline OrbitReport.

Tolerances, separated by orders of magnitude from double-precision noise:
construction 1e-12, spectral matching 1e-8, root audit 1e-9, and KKS
blocks 1e-9, rank 1e-9 and finite differences 1e-6 (central, step 1e-5),
the last three relative to |lambda|: each is linear in lambda, so scaling
lambda scales them and leaves every verdict as it is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError, OracleError
from .frozen import frozen
from .rootsys import RootSystem, Weight, root_numerators

if TYPE_CHECKING:
    from .pipeline import OrbitReport

CONSTRUCTION_TOL = 1e-12
SPECTRAL_TOL = 1e-8
RANK_TOL = 1e-9
AUDIT_TOL = 1e-9
KKS_TOL = 1e-9  # <= 4 RANK_TOL, so a resolvable block with its sign flipped fails
FD_TOL = 1e-6
FD_STEP = 1e-5


@frozen
class MatrixAlgebra:
    n: int
    basis: tuple[np.ndarray, ...]
    cartan_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def form(self, x: np.ndarray, y: np.ndarray) -> float:
        """Invariant pairing -trace(xy); real on the compact algebra."""
        return float(np.real(-np.trace(x @ y)))


def _gellmann_hermitian(n: int) -> list[np.ndarray]:
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1
            m[k, j] = 1
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, n):
        diag = [1.0] * l + [-float(l)] + [0.0] * (n - l - 1)
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex))
    return mats


def special_unitary_basis(n: int) -> MatrixAlgebra:
    """Anti-Hermitian generalized Gell-Mann basis of su(n), invariants verified."""
    if not 2 <= n <= 5:
        raise InputError(f"su(n) oracle supports 2 <= n <= 5, got {n}")
    herm = _gellmann_hermitian(n)
    basis = tuple([1j * m for m in herm])
    cartan = tuple([
        i for i, m in enumerate(basis) if np.allclose(m, np.diag(np.diag(m)))
    ])
    alg = MatrixAlgebra(n, basis, cartan)
    _verify_construction(alg)
    return alg


def _verify_construction(alg: MatrixAlgebra) -> None:
    for m in alg.basis:
        if np.abs(np.trace(m)) > CONSTRUCTION_TOL:
            raise OracleError("basis matrix is not trace-free")
        if np.max(np.abs(m + m.conj().T)) > CONSTRUCTION_TOL:
            raise OracleError("basis matrix is not anti-Hermitian")
    gram = np.array([[alg.form(x, y) for y in alg.basis] for x in alg.basis])
    for i, x in enumerate(alg.basis):
        for j, y in enumerate(alg.basis):
            b = x @ y - y @ x
            coeffs = np.linalg.solve(gram, np.array([alg.form(b, z) for z in alg.basis]))
            recon = sum(c * z for c, z in zip(coeffs, alg.basis))
            if np.max(np.abs(b - recon)) > CONSTRUCTION_TOL:
                raise OracleError("bracket does not close within the basis span")
    dim = alg.dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                x, y, z = alg.basis[i], alg.basis[j], alg.basis[k]
                jac = (
                    _br(x, _br(y, z)) + _br(y, _br(z, x)) + _br(z, _br(x, y))
                )
                if np.max(np.abs(jac)) > CONSTRUCTION_TOL:
                    raise OracleError("Jacobi identity residual too large")


def _br(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


@frozen
class NumericRoot:
    functional: np.ndarray  # real vector, ambient coordinates of the torus
    eigenvector: np.ndarray  # n x n complex matrix, unit Frobenius norm


def _ad_matrix(alg: MatrixAlgebra, h: np.ndarray) -> np.ndarray:
    """ad(h) as an operator on complex coefficient vectors over the basis."""
    cols = []
    for b in alg.basis:
        br = _br(h, b)
        cols.append([-np.trace(br @ a) / 2.0 for a in alg.basis])
    return np.array(cols, dtype=complex).T


def _torus_element(alg: MatrixAlgebra, t: Sequence[float]) -> np.ndarray:
    return 1j * np.diag(np.asarray(t, dtype=float))


def numeric_root_decomposition(alg: MatrixAlgebra) -> list[NumericRoot]:
    """Joint eigenfunctionals of the adjoint torus action, with eigenvectors.

    Count must be n^2 - n and every nonzero eigenspace one-dimensional.
    """
    n = alg.n
    # generic sum-zero torus direction; powers of 3 keep all differences distinct
    t_gen = np.array([3.0**-j for j in range(n)])
    t_gen -= t_gen.mean()
    h_gen = _torus_element(alg, t_gen)
    ad_gen = _ad_matrix(alg, h_gen)
    eigvals, eigvecs = np.linalg.eig(ad_gen)

    nonzero = [i for i, v in enumerate(eigvals) if abs(v) > 1e-7]
    if len(nonzero) != n * n - n:
        raise OracleError(
            f"expected {n * n - n} nonzero adjoint eigenvalues, got {len(nonzero)}"
        )
    vals = [eigvals[i] for i in nonzero]
    for i, v in enumerate(vals):
        for w in vals[i + 1 :]:
            if abs(v - w) < 1e-7:
                raise OracleError("eigenvalue clustering ambiguity in root split")

    # evaluate each functional on the sum-zero torus basis e_m - e_{m+1}
    tau = []
    for m in range(n - 1):
        t = np.zeros(n)
        t[m], t[m + 1] = 1.0, -1.0
        tau.append(t)
    ad_tau = [_ad_matrix(alg, _torus_element(alg, t)) for t in tau]

    roots = []
    for i in nonzero:
        v = eigvecs[:, i]
        v = v / np.linalg.norm(v)
        # alpha(i diag(t)) = i * (vec_alpha . t); recover vec_alpha by solving
        imags = []
        for ad_t in ad_tau:
            mu = v.conj() @ (ad_t @ v)
            if abs(np.real(mu)) > SPECTRAL_TOL:
                raise OracleError("root eigenvalue has non-imaginary part")
            imags.append(float(np.imag(mu)))
        vec_alpha = _solve_sum_zero(np.array(tau), np.array(imags))
        x = sum(c * b for c, b in zip(v, alg.basis))
        x = x / np.sqrt(np.real(np.trace(x @ x.conj().T)))
        roots.append(NumericRoot(vec_alpha, x))
    return roots


def _solve_sum_zero(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares solve of vec . tau_m = values_m within the sum-zero plane."""
    n = tau.shape[1]
    rows = np.vstack([tau, np.ones((1, n))])
    rhs = np.append(values, 0.0)
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return sol


def match_roots(
    numeric: Sequence[NumericRoot], rs: RootSystem
) -> list[tuple[NumericRoot, Weight, float]]:
    """Each numeric functional rounded to the nearest integer vector, the
    exact roots being integer vectors at least 1 apart.  Raises unless each
    residual is within the spectral tolerance and each exact root is taken once."""
    exact = rs.roots
    if len(numeric) != len(exact):
        raise OracleError(
            f"root count mismatch: numeric {len(numeric)} vs exact {len(exact)}"
        )
    out, taken = [], set()
    for nr in numeric:
        nearest = np.rint(nr.functional)
        residual = float(np.linalg.norm(nr.functional - nearest))
        if not residual <= SPECTRAL_TOL:
            raise OracleError(
                f"numeric root {nr.functional} is {residual:.2e} from the nearest integer vector"
            )
        k = rs.index.get(tuple([int(c) for c in nearest]))
        if k is None or k in taken:
            raise OracleError(f"numeric root {nr.functional} matches no exact root left")
        taken.add(k)
        out.append((nr, exact[k], residual))
    return out


def _real_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real compact-form pair spanning g cap (root space + conjugate)."""
    a = x - x.conj().T
    b = 1j * (x + x.conj().T)
    return a, b


def _eval_functional(v_lam: np.ndarray, h: np.ndarray) -> float:
    """lambda(h) for h in the torus: h = i diag(t) evaluates to v_lam . t."""
    t = np.imag(np.diag(h))
    return float(v_lam @ t)


def lambda_vector(lam: Weight, alg: MatrixAlgebra) -> np.ndarray:
    if len(lam.coords) != alg.n:
        raise InputError(
            f"lambda has {len(lam.coords)} coordinates; su({alg.n}) needs {alg.n}"
        )
    if sum(lam.coords, Fraction(0)) != 0:
        raise InputError("lambda must lie in the sum-zero hyperplane for su(n)")
    return np.array([float(c) for c in lam.coords])


@frozen
class KKSCheckReport:
    block_residual: float
    equivariance_residual: float
    samples: int


def numeric_kks_check(
    report: OrbitReport,
    alg: MatrixAlgebra,
    matches: Sequence[tuple[NumericRoot, Weight, float]],
    samples: int = 20,
    seed: int = 0,
) -> KKSCheckReport:
    """(a) compare lambda([A_alpha, B_alpha]) against the report's exact KKS
    blocks, each root space read from matches (match_roots of alg against the
    report's root system); (b) verify moment-map equivariance by central
    finite differences."""
    v_lam = lambda_vector(report.lam, alg)
    scale = np.linalg.norm(v_lam)
    spaces = {ex.coords: nr.eigenvector for nr, ex, _ in matches}
    block_residual = 0.0
    for alpha, value in zip(report.kks.basis_labels, report.kks.blocks):
        a, b = _real_pair(spaces[alpha.coords])
        numeric = _eval_functional(v_lam, _br(a, b))
        expected = float(value)
        residual = abs(numeric - expected)
        block_residual = max(block_residual, residual)
        if residual > KKS_TOL * scale:
            raise OracleError(
                f"KKS block mismatch at root {alpha.to_strings()}: "
                f"numeric {numeric}, exact {expected}"
            )

    rng = np.random.default_rng(seed)
    equiv_residual = 0.0
    for _ in range(samples):
        i, j = (int(k) for k in rng.integers(0, alg.dim, size=2))
        x, y = alg.basis[i], alg.basis[j]
        exact = _eval_functional(v_lam, _br(x, y))
        plus, minus = (_coadjoint_pullback(v_lam, x, y, t) for t in (FD_STEP, -FD_STEP))
        fd = (plus - minus) / (2 * FD_STEP)
        residual = abs(fd - exact)
        equiv_residual = max(equiv_residual, residual)
        if residual > FD_TOL * scale:
            raise OracleError(f"equivariance residual {residual:.2e} at basis pair {(i, j)}")
    return KKSCheckReport(block_residual, equiv_residual, samples)


def _coadjoint_pullback(v_lam: np.ndarray, x: np.ndarray, y: np.ndarray, t: float) -> float:
    """<Ad*(exp(-t x)) lambda, y> = lambda(Ad(exp(t x)) y).  x is
    skew-Hermitian: exp(t x) = V diag(e^{i t w}) V^H for (w, V) = eigh(-i x),
    a unitary g with inverse g^H."""
    w, v = np.linalg.eigh(-1j * x)
    g = (v * np.exp(1j * t * w)) @ v.conj().T
    return _eval_functional(v_lam, g @ y @ g.conj().T)


def require_resolvable(lam: Weight, rs: RootSystem) -> None:
    """Refuse (InputError) a lambda that doubles cannot tell from a singular
    one: its least nonzero root pairing is at most RANK_TOL |lambda|, compared
    exactly on its integer numerators, in which both sides scale alike."""
    least = min([abs(p) for p in root_numerators(lam, rs) if p], default=0)
    if least and least**2 <= Fraction(RANK_TOL) ** 2 * sum([x * x for x in lam.integer_form[0]]):
        raise InputError(f"lambda has a nonzero root pairing within the rank tolerance "
                         f"{RANK_TOL} |lambda| of the numeric oracle")


def stabilizer_rank(lam: Weight, alg: MatrixAlgebra) -> int:
    """Numeric rank of X -> lambda([X, .]), which is the orbit dimension."""
    v_lam = lambda_vector(lam, alg)
    m = np.array([[_eval_functional(v_lam, _br(x, y)) for y in alg.basis] for x in alg.basis])
    return int(np.linalg.matrix_rank(m, tol=RANK_TOL * np.linalg.norm(v_lam)))


@frozen
class RootAuditReport:
    checks: int
    failures: tuple[str, ...]
    max_residual: float

    @property
    def ok(self) -> bool:
        return not self.failures


def root_property_audit(roots: Sequence[NumericRoot]) -> RootAuditReport:
    """Numeric audit of the root-space bracket relations on a
    numeric_root_decomposition.

    conj(root space) is the negated root's space; brackets land in the space
    of the summed functional when that is a root, in the torus when the
    functionals cancel, and vanish otherwise.
    """
    failures = []
    max_res = 0.0
    checks = 0

    def record(res: float, message: str):
        nonlocal max_res
        max_res = max(max_res, res)
        if res > AUDIT_TOL:
            failures.append(f"{message} (residual {res:.2e})")

    by_key = {tuple(np.round(r.functional, 6)): r for r in roots}

    for r in roots:
        checks += 1
        # conjugation with respect to the compact form sends the space to -alpha
        conj = -r.eigenvector.conj().T
        neg = by_key.get(tuple(np.round(-r.functional, 6)))
        if neg is None:
            failures.append(f"no negative counterpart for {r.functional}")
            continue
        record(_off_span_norm(conj, [neg.eigenvector]), "conjugate space mismatch")

    for r1 in roots:
        for r2 in roots:
            checks += 1
            br = _br(r1.eigenvector, r2.eigenvector)
            total = r1.functional + r2.functional
            target = by_key.get(tuple(np.round(total, 6)))
            if np.linalg.norm(total) < 1e-8:
                off_diag = br - np.diag(np.diag(br))
                record(
                    float(np.max(np.abs(off_diag))),
                    "bracket of opposite roots not in torus",
                )
            elif target is not None:
                record(
                    _off_span_norm(br, [target.eigenvector]),
                    "bracket missed target root space",
                )
            else:
                record(float(np.max(np.abs(br))), "bracket should vanish")
    return RootAuditReport(checks, tuple(failures), max_res)


def _off_span_norm(x: np.ndarray, span: list[np.ndarray]) -> float:
    """Frobenius norm of the component of x orthogonal to the given matrices."""
    rem = x.copy()
    for s in span:
        denom = np.trace(s @ s.conj().T)
        coeff = np.trace(rem @ s.conj().T) / denom
        rem = rem - coeff * s
    norm = float(np.linalg.norm(rem))
    scale = float(np.linalg.norm(x))
    return norm / scale if scale > 1e-12 else norm
