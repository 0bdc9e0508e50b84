"""Coadjoint-orbit analysis: singular roots, stabilizers, polarizations, KKS data.

All results live at the base point in root coordinates; orbit-wide statements
are covered by equivariance and spot-checked by the numeric oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, TheoremViolationError
from .frozen import frozen
from .rootsys import (
    RootOrder,
    RootSystem,
    Weight,
    is_dominant,
    root_numerators,
    root_sums,
    sign_split,
)

# Convention constant for the KKS blocks: with unit-Frobenius-norm root
# vectors and the real pair A ~ X - X^dagger, B ~ i(X + X^dagger), the value
# of lambda([A, B]) is exactly 2 * (lambda, alpha) in the fixed realization.
# Calibrated once against the su(2) matrix model (scripts/calibrate_kappa.py)
# and frozen; never refit per test.
KKS_KAPPA = Fraction(2)


@frozen
class StabilizerReport:
    lam: Weight
    singular: tuple[Weight, ...]
    regular: bool
    dim_g_lambda: int
    dim_g: int
    t1_equations: tuple[Weight, ...]
    closure_certified: bool


@frozen
class AdmissibilityCertificate:
    """Explicitly checked T1-admissibility of a chamber for the singular set."""

    condition_i: bool  # positives of the sub-system = intersection with positives
    condition_ii: bool  # adding a singular root never re-enters the sub-system
    dominant: bool  # the chamber closure contains lambda

    def holds(self) -> bool:
        return self.condition_i and self.condition_ii and self.dominant


@frozen
class Polarization:
    order: RootOrder
    b_roots: tuple[Weight, ...]
    admissibility: AdmissibilityCertificate


@frozen
class KKSMatrix:
    basis_labels: tuple[Weight, ...]  # one label per (A_alpha, B_alpha) pair
    blocks: tuple[Fraction, ...]  # omega(A_alpha, B_alpha), one per label

    @property
    def dim(self) -> int:
        return 2 * len(self.basis_labels)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense antisymmetric 2k x 2k form, built on demand."""
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, c in enumerate(self.blocks):
            rows[2 * i][2 * i + 1] = c
            rows[2 * i + 1][2 * i] = -c
        return tuple([tuple(row) for row in rows])

    def block_value(self, alpha: Weight) -> Fraction:
        return self.blocks[self.basis_labels.index(alpha)]


def singular_roots(lam: Weight, rs: RootSystem) -> tuple[Weight, ...]:
    """Roots orthogonal to lam; always closed under negation."""
    return tuple([a for a, p in zip(rs.roots, root_numerators(lam, rs)) if not p])


def _check_closed(subset: tuple[Weight, ...], rs: RootSystem, what: str) -> None:
    coords = {a.coords for a in subset}
    for a, b, s in root_sums(coords, coords, rs):
        if s not in coords:
            raise TheoremViolationError(
                f"{what} not closed under addition at {list(map(str, a))} + {list(map(str, b))}"
            )


def stabilizer_report(lam: Weight, rs: RootSystem) -> StabilizerReport:
    """Populate the stabilizer data of lam and certify the closedness of its
    singular set (a theorem; failure indicates an arithmetic bug)."""
    sing = singular_roots(lam, rs)
    if len(sing) != len(rs.roots):
        # when every root is singular, a root sum that is a root is singular
        _check_closed(sing, rs, "singular root set")
    rho, index = rs.rho_numerators, rs.index
    t1 = tuple([a for a in sing if rho[index[a.coords]] > 0])
    return StabilizerReport(
        lam=lam,
        singular=sing,
        regular=not sing,
        dim_g_lambda=rs.rank + len(sing),
        dim_g=rs.dim_g,
        t1_equations=t1,
        closure_certified=True,
    )


def orbit_dimension(lam: Weight, rs: RootSystem) -> int:
    """dim O_lambda = dim g - dim g_lambda = #roots - #singular roots."""
    return len(rs.roots) - len(singular_roots(lam, rs))


def check_admissibility(
    lam: Weight, order: RootOrder, singular: tuple[Weight, ...]
) -> AdmissibilityCertificate:
    """Exhaustively check T1-admissibility of order for singular, the
    singular set of lam."""
    rs = order.rs
    sing = {a.coords for a in singular}
    pos = order.positive_set
    pos_sing = {c for c in pos if c in sing}

    # (i) the intersection must be a positive system of the sub-root-system:
    # exactly one of each +/- pair, and additively closed inside it.
    cond_i = all((c in pos_sing) != (tuple([-x for x in c]) in pos_sing) for c in sing)
    cond_i = cond_i and not any(
        s in sing and s not in pos_sing for _, _, s in root_sums(pos_sing, pos_sing, rs)
    )

    # (ii) alpha in pos \ pos_sing, beta singular, alpha+beta a root
    #      => alpha+beta back in pos \ pos_sing; enumerated from the singular side
    cond_ii = not any(
        s not in pos or s in pos_sing for _, _, s in root_sums(sing, pos - pos_sing, rs)
    )
    dom = is_dominant(lam, order)
    return AdmissibilityCertificate(cond_i, cond_ii, dom)


def admissible_positive_system(
    lam: Weight, rs: RootSystem
) -> tuple[RootOrder, AdmissibilityCertificate]:
    """Positive system making lam dominant, with its explicit admissibility
    certificate for the singular set of lam, the roots whose scan entry for
    lam is zero; certificate failure is a theorem violation.  A root is
    positive when p or r is, p and r its scan entries for lam and rho: the
    chamber of lam + t rho for all small t > 0."""
    nums = root_numerators(lam, rs)
    scan = [p or r for p, r in zip(nums, rs.rho_numerators)]
    order = RootOrder(rs, *sign_split(rs, scan))
    sing = tuple([a for a, p in zip(rs.roots, nums) if not p])
    cert = check_admissibility(lam, order, sing)
    if not cert.holds():
        raise TheoremViolationError(
            f"admissibility certificate failed for lambda={lam.to_strings()}: {cert}"
        )
    return order, cert


def polarization(lam: Weight, order: RootOrder) -> Polarization:
    """Root labels spanning the invariant complex-structure subalgebra beyond
    the complexified stabilizer: the non-singular positive roots."""
    sing = singular_roots(lam, order.rs)
    cert = check_admissibility(lam, order, sing)
    if not cert.holds():
        raise InputError(
            "order is not admissible for lambda; use admissible_positive_system"
        )
    return _build_polarization(order, sing, cert)


def _build_polarization(
    order: RootOrder, singular: tuple[Weight, ...], cert: AdmissibilityCertificate
) -> Polarization:
    """Polarization of an order already certified admissible for singular;
    isotropy is left to lagrangian_check."""
    sing_set = {a.coords for a in singular}
    b_roots = tuple([a for a in order.positive if a.coords not in sing_set])
    if 2 * len(b_roots) != len(order.rs.roots) - len(singular):
        raise TheoremViolationError("polarization is not half-dimensional")
    # b_roots + singular is closed, unchecked: a sum of two positives is
    # positive, singular is closed (stabilizer_report checks it), and
    # condition (ii) sends b_roots + singular into b_roots
    return Polarization(order=order, b_roots=b_roots, admissibility=cert)


def kks_matrix(lam: Weight, pol: Polarization) -> KKSMatrix:
    """Exact KKS form at the base point on the real pairs (A_alpha, B_alpha),
    one antisymmetric 2x2 block per label of pol."""
    rs = pol.order.rs
    scan, index = root_numerators(lam, rs), rs.index
    # KKS_KAPPA (lam, alpha) = KKS_KAPPA p / D for p = (lam, alpha) D
    num, den = KKS_KAPPA.numerator, KKS_KAPPA.denominator * lam.integer_form[1]
    blocks = []
    for alpha in pol.b_roots:
        p = scan[index[alpha.coords]]
        if not p:
            raise TheoremViolationError(
                f"degenerate KKS block for non-singular root {alpha.to_strings()}"
            )
        blocks.append(Fraction(num * p, den))
    return KKSMatrix(pol.b_roots, tuple(blocks))


def lagrangian_check(
    pol: Polarization, omega: KKSMatrix
) -> tuple[bool, tuple[Weight, Weight] | None]:
    """Check that the polarization span is Lagrangian for omega.

    Exact and structural: the form pairs A_alpha with B_alpha only, so the
    span of the label directions is isotropic iff no opposite pair of labels
    occurs; half-dimensionality comes from the block count.  Returns
    (ok, witness_pair) with a witness on failure.
    """
    labels = {a.coords for a in pol.b_roots}
    for a in pol.b_roots:
        neg = tuple([-x for x in a.coords])
        if neg in labels:
            return False, (a, Weight(neg))
    if 2 * len(pol.b_roots) != omega.dim:
        return False, None
    # lambda kills every bracket label landing outside the Cartan directions,
    # and labels sum to zero only for opposite pairs, excluded above
    return True, None
