"""Integrality of orbit parameters and the highest-weight verdict.

The analytic condition "2-pi-i times lambda lifts to a character of the
torus" is replaced by exact membership in a character lattice; the lattice
normalization absorbs the 2-pi-i factor.  Which lattice applies depends on
the global form of the group, so it is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, TheoremViolationError
from .linalg import Vec, in_integer_row_span, mat, solve
from .rootsys import (
    AMBIENT,
    RootOrder,
    RootSystem,
    Weight,
    default_order,
    is_dominant,
    pairing,
)
from .orbit import singular_roots
from .weyl import dominant_representative

SIMPLY_CONNECTED = "simply_connected"
ADJOINT = "adjoint"
CUSTOM = "custom"

NONZERO_IRREDUCIBLE = "nonzero_irreducible"
ZERO_SECTION_SPACE = "zero_section_space"


@dataclass(frozen=True)
class LatticeSpec:
    """Character lattice selector.

    Custom lattices should be built through :func:`custom_lattice`, which
    validates the sandwich root lattice <= lattice <= weight lattice against
    a concrete root system.
    """

    kind: str
    generators: tuple[Vec, ...] = ()

    def __post_init__(self):
        if self.kind not in (SIMPLY_CONNECTED, ADJOINT, CUSTOM):
            raise InputError(f"unknown lattice kind {self.kind!r}")
        if self.kind == CUSTOM and not self.generators:
            raise InputError("custom lattice needs at least one generator")


def custom_lattice(generators: Sequence[Sequence], rs: RootSystem) -> LatticeSpec:
    """Validated custom lattice: must contain every root and pair integrally
    with every coroot (root lattice <= lattice <= weight lattice)."""
    gens = tuple(tuple(Fraction(x) for x in g) for g in generators)
    for g in gens:
        if len(g) != rs.ambient_dim:
            raise InputError(
                f"lattice generator has {len(g)} coordinates, expected {rs.ambient_dim}"
            )
    gmat = mat(gens)
    for alpha in rs.roots:
        if not in_integer_row_span(gmat, alpha.coords):
            raise InputError(
                f"root {alpha.to_strings()} is not a member of the custom lattice"
            )
    for g in gens:
        gw = Weight(g)
        for alpha in rs.roots:
            val = 2 * pairing(gw, alpha, rs) / pairing(alpha, alpha, rs)
            if val.denominator != 1:
                raise InputError(
                    f"generator {list(map(str, g))} pairs non-integrally with a coroot"
                )
    return LatticeSpec(CUSTOM, gens)


def is_integral(lam: Weight, lattice: LatticeSpec, rs: RootSystem) -> bool:
    """Exact lattice membership of lam, per the lattice kind."""
    if lam.basis != AMBIENT:
        raise InputError("integrality requires ambient coordinates")
    if len(lam.coords) != rs.ambient_dim:
        raise InputError("weight dimension mismatch")
    if lattice.kind == SIMPLY_CONNECTED:
        for alpha in rs.roots:
            val = 2 * pairing(lam, alpha, rs) / pairing(alpha, alpha, rs)
            if val.denominator != 1:
                return False
        return True
    if lattice.kind == ADJOINT:
        return _in_root_lattice(lam, rs)
    return in_integer_row_span(mat(lattice.generators), lam.coords)


def _in_root_lattice(lam: Weight, rs: RootSystem) -> bool:
    """Integer-combination-of-roots test via the simple roots, which are a
    basis of the root span."""
    simple = default_order(rs).simple
    if not simple:
        return lam.is_zero()
    cols = mat(
        [[s.coords[i] for s in simple] for i in range(rs.ambient_dim)]
    )
    sol = solve(cols, lam.coords)
    if sol is None:
        return False
    return all(c.denominator == 1 for c in sol)


@dataclass(frozen=True)
class ExtendabilityCertificate:
    """Audit that lam kills the semisimple directions of its stabilizer."""

    lam: Weight
    vanishing_pairings: tuple[tuple[Weight, Fraction], ...]


def extendability_certificate(lam: Weight, rs: RootSystem) -> ExtendabilityCertificate:
    """Record (lam, beta) = 0 for each singular beta.

    True by the definition of singular roots, so a failure aborts as an
    arithmetic bug; the value of the operation is the explicit audit trail.
    """
    records = []
    for beta in singular_roots(lam, rs):
        val = pairing(lam, beta, rs)
        if val != 0:
            raise TheoremViolationError(
                "singular root with nonzero pairing: arithmetic bug"
            )
        records.append((beta, val))
    return ExtendabilityCertificate(lam, tuple(records))


@dataclass(frozen=True)
class RepVerdict:
    lam: Weight
    integral: bool
    dominant_rep: Weight
    is_dominant_input: bool
    borel_weil: str
    straightening_word: tuple[int, ...]


def orbit_to_rep(
    lam: Weight,
    lattice: LatticeSpec,
    rs: RootSystem,
    order: Optional[RootOrder] = None,
) -> RepVerdict:
    """Map the orbit of lam to its highest-weight verdict.

    The section space is nonzero exactly when the orbit is integral; its
    highest weight is then the dominant orbit representative.
    """
    if order is None:
        order = default_order(rs)
    dom, word = dominant_representative(lam, order)
    integral = is_integral(lam, lattice, rs)
    # integrality is Weyl-invariant; re-verify on the representative
    if is_integral(dom, lattice, rs) != integral:
        raise TheoremViolationError("integrality not Weyl-invariant: arithmetic bug")
    return RepVerdict(
        lam=lam,
        integral=integral,
        dominant_rep=dom,
        is_dominant_input=is_dominant(lam, order),
        borel_weil=NONZERO_IRREDUCIBLE if integral else ZERO_SECTION_SPACE,
        straightening_word=word,
    )
