"""Floating-point su(n) models that independently re-derive the exact results.

The generalized Gell-Mann basis (made anti-Hermitian) realizes su(n) with the
invariant form -trace(XY).  The brackets of all basis pairs are formed once
per algebra (MatrixAlgebra.brackets): the construction checks, ad, the
stabilizer rank and the exact equivariance values read them.  Roots come out
of a simultaneous eigenspace decomposition of the adjoint action of the
diagonal torus, each functional read on the coordinate directions i e_m, the
KKS blocks from explicit bracket evaluations, and moment-map equivariance
from central finite differences of the coadjoint flow.

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
from functools import cached_property
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

    @cached_property
    def stacked(self) -> np.ndarray:
        """The basis as one (dim, n, n) array."""
        return np.array(self.basis)

    @cached_property
    def brackets(self) -> np.ndarray:
        """brackets[i, j] = [x_i, x_j], a (dim, dim, n, n) array."""
        products = self.stacked[:, None] @ self.stacked
        return products - products.swapaxes(0, 1)

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
    basis, brackets, dim = alg.stacked, alg.brackets, alg.dim
    if np.max(np.abs(np.trace(basis, axis1=1, axis2=2))) > CONSTRUCTION_TOL:
        raise OracleError("basis matrix is not trace-free")
    if np.max(np.abs(basis + basis.conj().swapaxes(1, 2))) > CONSTRUCTION_TOL:
        raise OracleError("basis matrix is not anti-Hermitian")
    gram = -np.real(np.einsum("ipq,jqp->ij", basis, basis))
    pairings = -np.real(np.einsum("ijpq,kqp->kij", brackets, basis))
    # consts[k, i, j]: the coefficient of x_k in [x_i, x_j]
    consts = np.linalg.solve(gram, pairings.reshape(dim, -1)).reshape(dim, dim, dim)
    closed = np.einsum("kij,kpq->ijpq", consts, basis)
    if np.max(np.abs(brackets - closed)) > CONSTRUCTION_TOL:
        raise OracleError("bracket does not close within the basis span")
    # jacobi[i, j, k, l]: the coefficient of x_l in [x_i, [x_j, x_k]], then
    # summed cyclically in place: each array is dim^4 doubles, 2.5 MiB at n = 5
    jacobi = np.einsum("mjk,lim->ijkl", consts, consts)
    jacobi += jacobi.transpose(1, 2, 0, 3) + jacobi.transpose(2, 0, 1, 3)
    if max(jacobi.max(), -jacobi.min()) > CONSTRUCTION_TOL:
        raise OracleError("Jacobi identity residual too large")


def _br(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


@frozen
class NumericRoot:
    functional: np.ndarray  # real vector, ambient coordinates of the torus
    eigenvector: np.ndarray  # n x n complex matrix, unit Frobenius norm


def _ad_matrix(alg: MatrixAlgebra, h: np.ndarray) -> np.ndarray:
    """ad(h) as an operator on complex coefficient vectors over the basis:
    entry (a, b) is -trace([h, x_b] x_a) / 2 = trace(h [x_a, x_b]) / 2."""
    return np.einsum("pq,abqp->ab", h, alg.brackets) / 2.0


def numeric_root_decomposition(alg: MatrixAlgebra) -> list[NumericRoot]:
    """Joint eigenfunctionals of the adjoint torus action, with eigenvectors.

    Count must be n^2 - n and every nonzero eigenspace one-dimensional.
    """
    n = alg.n
    # generic sum-zero torus direction; powers of 3 keep all differences distinct
    t_gen = np.array([3.0**-j for j in range(n)])
    t_gen -= t_gen.mean()
    h_gen = 1j * np.diag(t_gen)
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

    # alpha(i diag(t)) = i (vec_alpha . t), so vec_alpha[m] is read on i e_m,
    # whose ad preserves su(n) though i e_m is not in it
    ad_coords = [_ad_matrix(alg, 1j * np.diag(e)) for e in np.eye(n)]
    roots = []
    for i in nonzero:
        v = eigvecs[:, i]
        v = v / np.linalg.norm(v)
        mu = np.array([v.conj() @ (ad @ v) for ad in ad_coords])
        if np.max(np.abs(np.real(mu))) > SPECTRAL_TOL:
            raise OracleError("root eigenvalue has non-imaginary part")
        x = sum(c * b for c, b in zip(v, alg.basis))
        x = x / np.sqrt(np.real(np.trace(x @ x.conj().T)))
        roots.append(NumericRoot(np.imag(mu), x))
    return roots


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


def _kks_form(alg: MatrixAlgebra, v_lam: np.ndarray) -> np.ndarray:
    """omega_lambda(x_i, x_j) = lambda([x_i, x_j]) over all basis pairs."""
    return np.imag(np.diagonal(alg.brackets, axis1=2, axis2=3)) @ v_lam


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
    omega = _kks_form(alg, v_lam)
    equiv_residual = 0.0
    for _ in range(samples):
        i, j = (int(k) for k in rng.integers(0, alg.dim, size=2))
        x, y = alg.basis[i], alg.basis[j]
        plus, minus = (_coadjoint_pullback(v_lam, x, y, t) for t in (FD_STEP, -FD_STEP))
        fd = (plus - minus) / (2 * FD_STEP)
        residual = abs(fd - omega[i, j])
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
    omega = _kks_form(alg, v_lam)
    return int(np.linalg.matrix_rank(omega, tol=RANK_TOL * np.linalg.norm(v_lam)))


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
        record(_off_span_norm(conj, neg.eigenvector), "conjugate space mismatch")

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
                    _off_span_norm(br, target.eigenvector),
                    "bracket missed target root space",
                )
            else:
                record(float(np.max(np.abs(br))), "bracket should vanish")
    return RootAuditReport(checks, tuple(failures), max_res)


def _off_span_norm(x: np.ndarray, s: np.ndarray) -> float:
    """Frobenius norm of the component of x orthogonal to the matrix s."""
    coeff = np.trace(x @ s.conj().T) / np.trace(s @ s.conj().T)
    rem = x - coeff * s
    norm = float(np.linalg.norm(rem))
    scale = float(np.linalg.norm(x))
    return norm / scale if scale > 1e-12 else norm
