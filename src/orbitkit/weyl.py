"""Weyl group: closed-form counts and exact reflection matrices.

Reports use only :func:`weyl_order`, :func:`weyl_orbit_size` and
:func:`dominant_representative`, none of which costs time proportional to
|W|.  :func:`generate_weyl_group` enumerates the group generated by the
reflections through the simple roots of the default positive system, up to
a cap; it is the reference the closed forms are tested against.  Element
identity is exact matrix equality, which sidesteps any word problem.  Torus
coordinates are fixed by every element.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, prod

from .errors import CapExceededError, InputError
from .linalg import Mat, Vec, identity, mat_mul, mat_vec
from .rootsys import (
    RootOrder,
    RootSystem,
    SeriesSpec,
    Weight,
    default_order,
    is_dominant,
    pairing,
)

DEFAULT_CAP = 10**6
CAP_ENV_VAR = "ORBITKIT_WEYL_CAP"


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
    if len(lam.coords) != spec.ambient_dim:
        raise InputError(
            f"weight has {len(lam.coords)} coordinates, expected {spec.ambient_dim}"
        )
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
    """Matrix of s_alpha : v -> v - 2 (v,alpha)/(alpha,alpha) alpha."""
    if not rs.contains_root(alpha):
        raise InputError(f"{alpha.to_strings()} is not a root of this system")
    n = rs.ambient_dim
    aa = pairing(alpha, alpha, rs)
    images = []
    for i in range(n):
        basis = Weight(tuple(Fraction(1 if k == i else 0) for k in range(n)))
        c = 2 * pairing(basis, alpha, rs) / aa
        images.append(
            tuple(Fraction(1 if i == j else 0) - c * alpha.coords[j] for j in range(n))
        )
    # images[i] is the image of e_i, i.e. the i-th column of the matrix
    return tuple(tuple(images[j][i] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
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

    def act(self, g: Mat, w: Weight) -> Weight:
        return Weight(mat_vec(g, w.coords))


@dataclass(frozen=True)
class WeylOrbit:
    base: Weight
    points: tuple[Weight, ...]
    stabilizer_order: int


def resolve_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"bad {CAP_ENV_VAR} value {env!r}") from exc
    return DEFAULT_CAP


def generate_weyl_group(rs: RootSystem, cap: int | None = None) -> WeylGroup:
    """Breadth-first closure of the simple reflections under multiplication.

    Deterministic: elements are finally ordered lexicographically by their
    matrix entries; the stored words are the shortest found, ties resolved
    by BFS order.
    """
    cap = resolve_cap(cap)
    order = default_order(rs)
    gens = tuple(reflection(a, rs) for a in order.simple)
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
                            f"raise it via {CAP_ENV_VAR} for large ranks"
                        )
        frontier = nxt
    ordered = sorted(found)
    return WeylGroup(
        rs=rs,
        generators=gens,
        simple=order.simple,
        elements=tuple(ordered),
        words=tuple(found[g] for g in ordered),
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
    points = tuple(Weight(v) for v in sorted(seen))
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
    rs = order.rs
    reflections = [reflection(a, rs) for a in order.simple]
    current = lam
    word: list[int] = []
    while True:
        neg = next(
            (
                i
                for i, a in enumerate(order.simple)
                if pairing(current, a, rs) < 0
            ),
            None,
        )
        if neg is None:
            break
        current = Weight(mat_vec(reflections[neg], current.coords))
        word.append(neg)
    assert is_dominant(current, order)
    return current, tuple(word)
