"""Integrality of orbit parameters and the highest-weight verdict.

The analytic condition "2-pi-i times lambda lifts to a character of the
torus" is replaced by exact membership in a character lattice; the lattice
normalization absorbs the 2-pi-i factor.  Which lattice applies depends on
the global form of the group, so it is a parameter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .errors import InputError, TheoremViolationError
from .frozen import frozen
from .linalg import Vec, _row_span_member, mat
from .rootsys import (
    RootSystem,
    Weight,
    coroot_value,
    default_order,
    numerator_scan,
    require_ambient,
)
# Not called here; perfbench/test_perfbench.py checks that the tracer wraps it.
from .orbit import singular_roots  # noqa: F401
from .weyl import dominant_representative

SIMPLY_CONNECTED = "simply_connected"
ADJOINT = "adjoint"
CUSTOM = "custom"

NONZERO_IRREDUCIBLE = "nonzero_irreducible"
ZERO_SECTION_SPACE = "zero_section_space"


@frozen
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

    @cached_property
    def member(self) -> Callable[[Vec], bool]:
        """Integer-span membership test, one row Hermite basis for all uses."""
        return _row_span_member(mat(self.generators))


def custom_lattice(generators: Sequence[Sequence], rs: RootSystem) -> LatticeSpec:
    """Validated custom lattice: must contain every root and pair integrally
    with every coroot (root lattice <= lattice <= weight lattice).  The simple
    coroots span the coroot lattice, so each generator is tested as a weight
    of the simply connected lattice."""
    gens = tuple([tuple([Fraction(x) for x in g]) for g in generators])
    for g in gens:
        if len(g) != rs.ambient_dim:
            raise InputError(
                f"lattice generator has {len(g)} coordinates, expected {rs.ambient_dim}"
            )
    lattice = LatticeSpec(CUSTOM, gens)
    # every root is an integer combination of the simple roots; the roots
    # are scanned only to name the first one missing
    if not all(lattice.member(a.coords) for a in default_order(rs).simple):
        alpha = next(a for a in rs.roots if not lattice.member(a.coords))
        raise InputError(
            f"root {alpha.to_strings()} is not a member of the custom lattice"
        )
    weight_lattice = LatticeSpec(SIMPLY_CONNECTED)
    for g in gens:
        if not is_integral(Weight(g), weight_lattice, rs):
            raise InputError(
                f"generator {list(map(str, g))} pairs non-integrally with a coroot"
            )
    return lattice


def is_integral(lam: Weight, lattice: LatticeSpec, rs: RootSystem) -> bool:
    """Exact lattice membership of lam, per the lattice kind.  The simple
    coroots span the coroot lattice and the simple roots the root lattice,
    so sc and adjoint are tested against the simple roots alone; adjoint
    through the root system's cached root-lattice test."""
    require_ambient(lam.coords, rs)
    if lattice.kind == SIMPLY_CONNECTED:
        # <lam, alpha^vee> = k / D with k an integer, lam = numerators / D
        nums, d = lam.integer_form
        supports = default_order(rs).simple_supports
        return all(
            coroot_value(p, s) % d == 0
            for p, s in zip(numerator_scan(nums, supports), supports)
        )
    if lattice.kind == ADJOINT:
        return rs.root_lattice_member(lam.coords)
    return lattice.member(lam.coords)


@frozen
class ExtendabilityCertificate:
    """Audit that lam kills the semisimple directions of its stabilizer."""

    lam: Weight
    vanishing_pairings: tuple[tuple[Weight, Fraction], ...]


def extendability_certificate(
    lam: Weight, singular: tuple[Weight, ...]
) -> ExtendabilityCertificate:
    """Record (lam, beta) = 0 for each beta of singular, the singular set of lam.

    singular_roots selected exactly the roots with this vanishing pairing, so
    the records restate that selection; the value of the operation is the
    explicit audit trail.
    """
    return ExtendabilityCertificate(lam, tuple([(beta, Fraction(0)) for beta in singular]))


@frozen
class RepVerdict:
    lam: Weight
    integral: bool
    dominant_rep: Weight
    is_dominant_input: bool
    borel_weil: str
    straightening_word: tuple[int, ...]


def orbit_to_rep(lam: Weight, lattice: LatticeSpec, rs: RootSystem) -> RepVerdict:
    """Map the orbit of lam to its highest-weight verdict.

    The section space is nonzero exactly when the orbit is integral; its
    highest weight is then the dominant orbit representative in the default
    chamber, so orbits of the same dominant weight report the same one.
    """
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
        # straightening reflects at a negative simple pairing, so the word is
        # empty exactly when lam is already dominant
        is_dominant_input=not word,
        borel_weil=NONZERO_IRREDUCIBLE if integral else ZERO_SECTION_SPACE,
        straightening_word=word,
    )
