"""Weyl group: closed-form counts, straightening, and the capped enumerator.

Reports use only :func:`weyl_order`, :func:`weyl_orbit_size` and
:func:`dominant_representative`, none of which costs time proportional to
|W|; the last straightens the integer form of a weight, its numerators over
one denominator, and builds no matrix.  :func:`generate_weyl_group`
enumerates the group generated by the exact reflection matrices of the
simple roots of the default positive system, up to a cap; it is the
reference the closed forms are tested against.  Each reflection matrix is
read off the root's support with ``rootsys.coroot_value``, in integers.
Element identity is exact matrix equality, which sidesteps any word
problem.  Torus coordinates are fixed by every element.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import factorial, prod

from .errors import CapExceededError, InputError
from .frozen import frozen
from .linalg import Mat, Vec, identity, mat_mul, mat_vec
from .rootsys import (
    RootOrder,
    RootSystem,
    SeriesSpec,
    Weight,
    coroot_value,
    default_order,
    numerator_scan,
    require_ambient,
)

DEFAULT_CAP = 10**6


def _factor_order(letter: str, n: int) -> int:
    """|W| of one simple factor, acting by (signed) permutations: (n+1)! for
    A_n, 2^n n! for B_n and C_n, 2^(n-1) n! for D_n (even sign changes)."""
    if letter == "A":
        return factorial(n + 1)
    signed = 2**n * factorial(n)
    return signed if letter in ("B", "C") else signed // 2


def weyl_order(spec: SeriesSpec) -> int:
    """|W| from the factor types; torus factors contribute 1."""
    return prod(_factor_order(letter, r) for letter, r in spec.factors)


def weyl_orbit_size(lam: Weight, spec: SeriesSpec) -> int:
    """|W.lam| = |W| / |W_lam|, with the stabilizer read off each factor block.

    W_lam is generated by the reflections in the roots singular for lam
    (Chevalley).  In this realization that is a symmetric group S_m on each
    class of m equal coordinates (A) or of m equal nonzero |coordinates|
    (B, C, D), times the Weyl group of the same type on the z zero
    coordinates of a B, C or D block.
    """
    require_ambient(lam.coords, spec)
    stabilizer = 1
    for letter, _, start, stop in spec.blocks():
        if letter == "T":
            continue
        block = lam.coords[start:stop]
        if letter == "A":
            classes = Counter(block)
        else:
            classes = Counter(abs(c) for c in block)
            zeros = classes.pop(0, 0)
            if zeros:
                stabilizer *= _factor_order(letter, zeros)
        stabilizer *= prod(factorial(m) for m in classes.values())
    return weyl_order(spec) // stabilizer


def reflection(alpha: Weight, rs: RootSystem) -> Mat:
    """Matrix of s_alpha : v -> v - <v, alpha^vee> alpha, in Fractions.  Its
    column a is e_a - <e_a, alpha^vee> alpha: e_a off the support of alpha."""
    if alpha.coords not in rs.index:
        raise InputError(f"{alpha.to_strings()} is not a root of this system")
    support = i, x, j, y = rs.supports[rs.index[alpha.coords]]
    n = rs.ambient_dim
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for a, v in ((i, x), (j, y)):  # a padded (i, x, i, 0) meets column i again as e_i
        c = coroot_value(v, support)
        rows[i][a] -= c * x
        rows[j][a] -= c * y
    return tuple([tuple(row) for row in rows])


@frozen
class WeylGroup:
    rs: RootSystem
    generators: tuple[Mat, ...]
    simple: tuple[Weight, ...]
    elements: tuple[Mat, ...]
    words: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[Mat]:
        return frozenset(self.elements)


@frozen
class WeylOrbit:
    base: Weight
    points: tuple[Weight, ...]
    stabilizer_order: int


def generate_weyl_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> WeylGroup:
    """Breadth-first closure of the simple reflections under multiplication.

    Deterministic: elements are finally ordered lexicographically by their
    matrix entries; the stored words are the shortest found, ties resolved
    by BFS order.
    """
    order = default_order(rs)
    gens = tuple([reflection(a, rs) for a in order.simple])
    ident = identity(rs.ambient_dim)
    found: dict[Mat, tuple[int, ...]] = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            gw = found[g]
            for i, s in enumerate(gens):
                h = mat_mul(g, s)
                if h not in found:
                    found[h] = gw + (i,)
                    nxt.append(h)
                    if len(found) > cap:
                        raise CapExceededError(
                            f"Weyl closure exceeded cap {cap}; "
                            "pass a larger cap for large ranks"
                        )
        frontier = nxt
    ordered = sorted(found)
    return WeylGroup(
        rs=rs,
        generators=gens,
        simple=order.simple,
        elements=tuple(ordered),
        words=tuple([found[g] for g in ordered]),
    )


def weyl_orbit(lam: Weight, group: WeylGroup) -> WeylOrbit:
    """Orbit closure of lam under the generators; O(|orbit| * #generators)."""
    start = lam.coords
    seen: set[Vec] = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for s in group.generators:
                u = mat_vec(s, v)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    points = tuple([Weight(v) for v in sorted(seen)])
    assert group.order % len(points) == 0
    return WeylOrbit(lam, points, group.order // len(points))


def dominant_representative(
    lam: Weight, order: RootOrder
) -> tuple[Weight, tuple[int, ...]]:
    """Unique dominant point of the orbit and a generator word reaching it.

    The word lists indices into order.simple, first-applied first; it is the
    straightening sequence (reflect at any negative simple pairing), so it
    is short in practice but carries no minimality guarantee.
    """
    require_ambient(lam.coords, order.rs)
    supports = order.simple_supports
    nums, d = lam.integer_form
    nums = list(nums)
    word: list[int] = []
    while True:
        # s_alpha maps numerators over D to numerators over D, since the
        # coroot of alpha has integer coordinates
        scan = numerator_scan(nums, supports)
        neg = next((k for k, p in enumerate(scan) if p < 0), None)
        if neg is None:
            break
        i, x, j, y = supports[neg]
        c = coroot_value(scan[neg], supports[neg])
        nums[i] -= c * x
        nums[j] -= c * y
        word.append(neg)
    if not word:
        return lam, ()
    return Weight(tuple([Fraction(n, d) for n in nums])), tuple(word)
