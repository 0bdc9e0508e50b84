"""Reference root-sum checks: the pairwise loops `orbitkit` used before every
root-sum question went through `RootSystem.sums`, kept verbatim as the
oracle that the table-driven versions must agree with, and the old
all-coroots validation of a custom lattice.

Each is O(|S|^2 n) exact work over the ambient coordinates, so keep the
subsets given to them small on large root systems.
"""

from fractions import Fraction

from orbitkit.errors import InputError, TheoremViolationError
from orbitkit.quantize import CUSTOM, LatticeSpec
from orbitkit.rootsys import Weight


def check_closed(subset, rs, what):
    """Old `orbit._check_closed`."""
    coords = {a.coords for a in subset}
    for a in subset:
        for b in subset:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if s in rs.root_set and s not in coords:
                raise TheoremViolationError(
                    f"{what} not closed under addition at {a.to_strings()} + {b.to_strings()}"
                )


def admissibility_conditions(order, singular):
    """Conditions (i) and (ii) of old `orbit.check_admissibility`."""
    rs = order.rs
    sing = {a.coords for a in singular}
    pos = order.positive_set
    pos_sing = {c for c in pos if c in sing}

    # (i) the intersection must be a positive system of the sub-root-system:
    # exactly one of each +/- pair, and additively closed inside it.
    cond_i = all((c in pos_sing) != (tuple(-x for x in c) in pos_sing) for c in sing)
    if cond_i:
        for a in pos_sing:
            for b in pos_sing:
                s = tuple(x + y for x, y in zip(a, b))
                if s in sing and s not in pos_sing:
                    cond_i = False

    # (ii) alpha in pos \ pos_sing, beta singular, alpha+beta a root
    #      => alpha+beta back in pos \ pos_sing
    cond_ii = True
    for a in pos - pos_sing:
        for b in sing:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_set and not (s in pos and s not in pos_sing):
                cond_ii = False
    return cond_i, cond_ii


def simple_roots(pos):
    """Old decomposability search of `rootsys.positive_roots`, in the order
    of pos and before the textbook sort."""
    pos_set = {a.coords for a in pos}
    simple = []
    for alpha in pos:
        decomposable = any(
            tuple(x - y for x, y in zip(alpha.coords, beta.coords)) in pos_set
            for beta in pos
            if beta.coords != alpha.coords
        )
        if not decomposable:
            simple.append(alpha)
    return simple


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def custom_lattice(generators, rs):
    """Old `quantize.custom_lattice`, which paired every generator with all
    |Phi| coroots; here with a dense dot product in place of `pairing`."""
    gens = tuple(tuple(Fraction(x) for x in g) for g in generators)
    for g in gens:
        if len(g) != rs.ambient_dim:
            raise InputError(
                f"lattice generator has {len(g)} coordinates, expected {rs.ambient_dim}"
            )
    lattice = LatticeSpec(CUSTOM, gens)
    for alpha in rs.roots:
        if not lattice.member(alpha.coords):
            raise InputError(
                f"root {alpha.to_strings()} is not a member of the custom lattice"
            )
    for g in gens:
        gw = Weight(g)
        for alpha in rs.roots:
            val = 2 * _dot(gw.coords, alpha.coords) / _dot(alpha.coords, alpha.coords)
            if val.denominator != 1:
                raise InputError(
                    f"generator {list(map(str, g))} pairs non-integrally with a coroot"
                )
    return lattice
