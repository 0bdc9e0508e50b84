"""Integrality of orbit parameters and the highest-weight verdict.

The analytic condition "2-pi-i times lambda lifts to a character of the
torus" is replaced by exact membership in a character lattice; the lattice
normalization absorbs the 2-pi-i factor.  Which lattice applies depends on
the global form of the group, so it is a parameter.  The central torus counts:
``sc`` is P + Z^k and ``adjoint`` Q + Z^k on G x T^k (Broecker-tom Dieck, Ch. V).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import InputError, TheoremViolationError
from .frozen import frozen
from .linalg import Vec, _row_span_member, exact_vec
from .rootsys import RootSystem, Weight, default_order, require_ambient
# Not called here; perfbench/test_perfbench.py checks that the tracer wraps it.
from .orbit import singular_roots  # noqa: F401
from .weyl import dominant_representative

SIMPLY_CONNECTED = "simply_connected"
ADJOINT = "adjoint"
CUSTOM = "custom"

NONZERO_IRREDUCIBLE = "nonzero_irreducible"
ZERO_SECTION_SPACE = "zero_section_space"

_P_DENOMINATOR = {"A": 0, "B": 2, "C": 1, "D": 2, "T": 1}  # on P, x_0's denominator divides it


@frozen
class LatticeSpec:
    """Character lattice selector; its generators are read by linalg.exact.

    Custom lattices should be built through :func:`custom_lattice`, which
    validates the sandwich root lattice <= lattice <= weight lattice against
    a concrete root system.
    """

    kind: str
    generators: tuple[Vec, ...] = ()

    def __post_init__(self):
        if self.kind not in (SIMPLY_CONNECTED, ADJOINT, CUSTOM):
            raise InputError(f"unknown lattice kind {self.kind!r}")
        if not isinstance(self.generators, Iterable):
            raise InputError("custom lattice generators must be a list of rows")
        gens = tuple([tuple(exact_vec(row, "lattice generator entry")) for row in self.generators])
        if self.kind == CUSTOM and not gens:
            raise InputError("custom lattice needs at least one generator")
        if len({len(g) for g in gens}) > 1:
            raise InputError("lattice generator rows have unequal lengths")
        object.__setattr__(self, "generators", gens)

    @cached_property
    def member(self) -> Callable[[Vec], bool]:
        """Integer-span membership test, one row Hermite basis for all uses."""
        return _row_span_member(self.generators)


def custom_lattice(generators: Sequence[Sequence], rs: RootSystem) -> LatticeSpec:
    """Validated custom lattice: must contain every root and pair integrally
    with every coroot (root lattice <= lattice <= weight lattice).  Its torus
    part is free: U(2) = (SU(2) x U(1)) / Z_2 mixes the two parts on A1xT1."""
    lattice = LatticeSpec(CUSTOM, generators)
    require_ambient(lattice.generators[0], rs, "lattice generator")
    # every root is an integer combination of the simple roots; the roots
    # are scanned only to name the first one missing
    if not all(lattice.member(a.coords) for a in default_order(rs).simple):
        alpha = next(a for a in rs.roots if not lattice.member(a.coords))
        raise InputError(
            f"root {alpha.to_strings()} is not a member of the custom lattice"
        )
    factors = [b for b in rs.spec.blocks() if b[0] != "T"]
    for g in lattice.generators:
        if not _in_block_lattice(Weight(g), factors, False):
            raise InputError(
                f"generator {list(map(str, g))} pairs non-integrally with a coroot"
            )
    return lattice


def _in_block_lattice(lam: Weight, blocks, root_lattice: bool) -> bool:
    """Whether lam is in P, or Q if root_lattice, on each factor block and in
    Z^k on the torus.  On a block x (Bourbaki, Ch. VI, Plates I-IV), P is x_i -
    x_j in Z on A_n, Z^n on C_n, Z^n or (Z + 1/2)^n on B_n and D_n; Q is Z^n,
    with sum 0 on A_n and an even sum on C_n and D_n."""
    nums, d = lam.integer_form
    for letter, _, start, stop in blocks:
        x = nums[start:stop]  # x_i - x_0 is in Z on every lattice; x_0 and the sum decide
        k = 1 if root_lattice else _P_DENOMINATOR[letter]
        if any((v - x[0]) % d for v in x) or k * x[0] % d or root_lattice and (
                sum(x) if letter == "A" else letter in "CD" and sum(x) % (2 * d)):
            return False
    return True


def is_integral(lam: Weight, lattice: LatticeSpec, rs: RootSystem) -> bool:
    """Exact lattice membership of lam: sc and adjoint by the block rule, a
    custom lattice through its cached membership test."""
    require_ambient(lam.coords, rs)
    if lattice.kind == CUSTOM:
        require_ambient(lattice.generators[0], rs, "lattice generator")
        return lattice.member(lam.coords)
    return _in_block_lattice(lam, rs.spec.blocks(), lattice.kind == ADJOINT)


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
