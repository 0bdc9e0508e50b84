"""Finite-nerve Cech cohomology over the integers and the rationals.

The nerve of a cover is an abstract simplicial complex; cochains live on its
strictly increasing simplex tuples and the coboundary is the alternating
face sum.  Cohomology over both rings comes from the invariant factors of
the coboundary matrices: those of delta_0, and of delta_k when no k-simplex
has a third coface (delta_1 of a surface, the top delta of a
pseudomanifold), off a signed union-find (Harary 1953, Zaslavsky 1982), and
any other's from a sparse integer Smith normal form.  Integer 2-cocycle
classes (the Chern-class data of transition functions) pair with the
2-cycles that an elimination of delta_1 finds, put in Hermite normal form,
so their coordinates depend on the nerve and the class alone.

A single nerve is the input; refinements and the direct limit are out of
scope, so the cover is assumed to have contractible intersections.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice, repeat
from math import comb
from operator import lt
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CapExceededError, InputError
from .frozen import frozen
from .linalg import (
    MAX_RATIONAL_DIGITS, exact, hermite_rows, lattice_coordinates, parse_integer, parse_rational,
    smith_eliminate, unit_reduce,
)
# Not called here; perfbench/test_perfbench.py checks that the tracer wraps it.
from .linalg import rank as rational_rank  # noqa: F401

# the closure of the input lines may hold at most this many simplices; past it
# parsing refuses the nerve (exit 4 on the CLI).  The 256 x 256 torus has
# about 393k.
MAX_SIMPLICES = 10**6

RING_Z = "Z"
RING_Q = "Q"

Simplex = tuple[int, ...]


@frozen
class Nerve:
    simplices: tuple[tuple[Simplex, ...], ...]  # index = dimension

    @property
    def vertex_count(self) -> int:
        return len(self.simplices[0])

    @property
    def dimension(self) -> int:
        return len(self.simplices) - 1

    def of_dim(self, k: int) -> tuple[Simplex, ...]:
        return self.simplices[k] if 0 <= k <= self.dimension else ()

    @cached_property
    def _indices(self) -> dict[int, dict[Simplex, int]]:
        return {}

    def index_of(self, k: int) -> Mapping[Simplex, int]:
        """Read-only {k-simplex: position in of_dim(k)}, each level's map
        built on its first call."""
        if not 0 <= k <= self.dimension:
            return MappingProxyType({})
        indices = self._indices
        if k not in indices:
            indices[k] = {s: i for i, s in enumerate(self.simplices[k])}
        return MappingProxyType(indices[k])


@frozen
class Cochain:
    degree: int
    ring: str
    values: Mapping[Simplex, object]

    def __post_init__(self):
        """Values are read as linalg.exact reads them, to MAX_RATIONAL_DIGITS
        digits; on Z one that is not an integer is refused rather than
        truncated."""
        if self.ring not in (RING_Z, RING_Q):
            raise InputError(f"unknown ring {self.ring!r}")
        values = dict(self.values)
        # ints within the bound, as the parsers and coboundary give on Z, are
        # what exact would return: one type test and one bound for them all
        if not (
            self.ring == RING_Z
            and set(map(type, values.values())) <= {int}
            and max(map(abs, values.values()), default=0) < 10**MAX_RATIONAL_DIGITS
        ):
            for s, v in values.items():
                x = exact(v, f"cochain value on simplex {s}")
                if self.ring == RING_Z:
                    if x.denominator != 1:
                        raise InputError(f"value {v} on simplex {s} is not an integer")
                    x = x.numerator
                values[s] = x
        object.__setattr__(self, "values", MappingProxyType(values))

    def value(self, simplex: Sequence[int]):
        """Value on an arbitrary index tuple, with the alternating sign
        convention; repeated indices give zero."""
        s = tuple(simplex)
        if len(set(s)) != len(s):
            return _zero(self.ring)
        # the sorting permutation's sign is the parity of its inversions
        sign = (-1) ** sum(a > b for a, b in combinations(s, 2))
        return sign * self.values.get(tuple(sorted(s)), _zero(self.ring))


def _zero(ring: str):
    return 0 if ring == RING_Z else Fraction(0)


def _close(by_dim: dict[int, set[Simplex]]) -> Nerve:
    """Nerve of the validated simplices grouped by dimension, built from the
    vertices, the ids of the lines, up: level k gains the k-faces of each
    line above it, in chunks of as many lines as the bound leaves room for.
    CapExceededError, exactly when the nerve has more than MAX_SIMPLICES
    simplices, as soon as the levels built, the level being built or the
    k-faces of one line pass it with them."""
    too_many = f"the nerve has more than {MAX_SIMPLICES} simplices"
    levels = [by_dim.get(k, set()) for k in range(max(by_dim, default=0) + 1)]
    # sort the ids rather than build and sort one-tuples
    levels[0] = [*zip(sorted(set(chain.from_iterable(chain.from_iterable(levels)))))]
    total = 0
    for k, level in enumerate(levels):
        for j in range(k + 1, len(levels)) if k else ():
            faces, lines, left = comb(j + 1, k + 1), iter(levels[j]), len(levels[j])
            while left:
                if total + max(len(level), faces) > MAX_SIMPLICES:
                    raise CapExceededError(too_many)
                n = min(left, max(1, (MAX_SIMPLICES - total - len(level)) // faces))
                chunk = map(combinations, islice(lines, n), repeat(k + 1))
                level.update(chain.from_iterable(chunk))
                left -= n
        total += len(level)
        if total > MAX_SIMPLICES:
            raise CapExceededError(too_many)
    return Nerve((tuple(levels[0]), *[tuple(sorted(level)) for level in levels[1:]]))


def build_nerve(simplices: Iterable[Sequence[int]]) -> Nerve:
    """Downward closure of the given simplices with canonical ordering."""
    by_dim: dict[int, set[Simplex]] = {}
    for raw in simplices:
        s = tuple(raw)
        if not s:
            raise InputError("empty simplex")
        if any(not isinstance(v, int) or v < 0 for v in s):
            raise InputError(f"simplex {s} must consist of non-negative integers")
        if not all(map(lt, s, s[1:])):
            raise InputError(f"simplex {s} is not strictly increasing")
        by_dim.setdefault(len(s) - 1, set()).add(s)
    return _close(by_dim)


def parse_nerve_lines(lines: Iterable[str]) -> Nerve:
    """Nerve file format: one simplex per line as space-separated increasing
    integers; '#' starts a comment."""
    by_dim: dict[int, set[Simplex]] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            s = tuple([int(x) for x in body.split()])
        except ValueError as exc:
            raise InputError(f"nerve file line {lineno}: {exc}") from exc
        if s[0] < 0 or not all(map(lt, s, s[1:])):
            raise InputError(
                f"nerve file line {lineno}: expected strictly increasing "
                f"non-negative integers, got {body!r}"
            )
        by_dim.setdefault(len(s) - 1, set()).add(s)
    if not by_dim:
        raise InputError("nerve file contains no simplices")
    return _close(by_dim)


def parse_cochain_lines(
    lines: Iterable[str], nerve: Nerve, degree: int, ring: str = RING_Z
) -> Cochain:
    """Cochain file format: one '<simplex tuple> <value>' per line; simplices
    not listed default to zero, and the values of repeated lines add up."""
    if ring not in (RING_Z, RING_Q):
        raise InputError(f"unknown ring {ring!r}")
    known = nerve.index_of(degree)
    values: dict[Simplex, object] = dict.fromkeys(known, _zero(ring))
    parse = parse_integer if ring == RING_Z else parse_rational
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) < 2:
            raise InputError(f"cochain file line {lineno}: need simplex and value")
        try:
            s = tuple([int(x) for x in parts[:-1]])
            val = parse(parts[-1])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cochain file line {lineno}: {exc}") from exc
        if len(s) != degree + 1:
            raise InputError(
                f"cochain file line {lineno}: simplex {s} has wrong degree "
                f"(expected {degree})"
            )
        if s not in known:
            raise InputError(
                f"cochain file line {lineno}: simplex {s} is not in the nerve"
            )
        values[s] += val
    return Cochain(degree, ring, values)


def make_cochain(
    nerve: Nerve, degree: int, values: Mapping[Simplex, object], ring: str = RING_Z
) -> Cochain:
    """Cochain defined on exactly the degree-k simplices; omitted ones are 0.

    Values are read by linalg.exact, which refuses floats, bools and
    numbers past MAX_RATIONAL_DIGITS digits on both rings; on Z a value that
    is not an integer is refused rather than truncated.
    """
    if ring not in (RING_Z, RING_Q):
        raise InputError(f"unknown ring {ring!r}")
    known = nerve.index_of(degree)
    out: dict[Simplex, object] = dict.fromkeys(known, _zero(ring))
    for s, v in values.items():
        key = tuple(s)
        if key not in known:
            raise InputError(f"simplex {key} is not a {degree}-simplex of the nerve")
        out[key] = v
    return Cochain(degree, ring, out)


def coboundary(c: Cochain, nerve: Nerve) -> Cochain:
    """Alternating face sum; lands on the (k+1)-simplices.

    Each value is a row of coboundary_matrix(nerve, k) applied to c, so the
    face signs are decided there.  Beyond the nerve dimension the result is
    the empty cochain of the next degree, and applying the operator twice
    always yields zero.
    """
    k, zero = c.degree, _zero(c.ring)
    column = [c.values.get(s, zero) for s in nerve.of_dim(k)]
    values = {
        s: sum((x * column[j] for j, x in row.items()), zero)
        for s, row in zip(nerve.of_dim(k + 1), coboundary_matrix(nerve, k))
    }
    return Cochain(k + 1, c.ring, values)


def coboundary_matrix(nerve: Nerve, k: int) -> list[dict[int, int]]:
    """Sparse integer matrix of delta_k: one row per (k+1)-simplex, holding
    {index of a k-face: ±1}; the columns are the k-simplices in order.  A
    vertex has an empty row of delta_-1; past the dimension no row, at any k."""
    simplices = nerve.of_dim(k + 1)
    if not simplices:
        return []
    cols = nerve.index_of(k)
    # combinations(s, k + 1) lists the faces omitting s[k+1], ..., s[0]
    signs = [-1 if omit % 2 else 1 for omit in range(k + 1, -1, -1)] if k >= 0 else []
    return [
        {cols[f]: sign for f, sign in zip(combinations(s, k + 1), signs)}
        for s in simplices
    ]


def _invariant_factors(nerve: Nerve, k: int) -> list[int]:
    """Invariant factors of delta_k, ones first.  delta_0 is the incidence
    matrix of the nerve's graph; delta_k is the transpose of that of a
    signed graph whenever no k-simplex has a third coface.  Both are read
    off _signed_factors; any other delta_k comes from its unit pivots and
    the Smith normal form of what they leave."""
    if k == 0:
        at = {v: i for i, (v,) in enumerate(nerve.of_dim(0))}
        return _signed_factors(len(at), ((at[a], at[b], 0) for a, b in nerve.of_dim(1)), ())
    cofaces = nerve.of_dim(k + 1)
    if not cofaces:
        return []
    pairs = _coface_pairs(cofaces, k)
    if pairs is not None:
        return _signed_factors(len(cofaces), *pairs)
    units, residue, width = unit_reduce(coboundary_matrix(nerve, k), len(nerve.of_dim(k)))
    return [1] * units + smith_eliminate(residue, width)[0]


def _coface_pairs(cofaces: Sequence[Simplex], k: int) -> Optional[tuple[list, list]]:
    """The signed graph of delta_k on the positions of the (k+1)-simplices:
    each k-face with two cofaces is an edge (i, j, parity), parity 1 when
    the face has the same sign in both, and each with one a half-edge at
    its coface.  (edges, half-edges), or None at the first third coface."""
    # the faces omit s[k+1], ..., s[0]; a face maps to 2 * node + (1 if its
    # sign is -1), then to -1 once its second coface is seen
    bits = [omit % 2 for omit in range(k + 1, -1, -1)]
    first: dict[Simplex, int] = {}
    edges = []
    for i, s in enumerate(cofaces):
        for f, bit in zip(combinations(s, k + 1), bits):
            code = 2 * i + bit
            seen = first.setdefault(f, code)
            if seen != code:
                if seen < 0:
                    return None
                first[f] = -1
                edges.append((seen >> 1, i, 1 ^ (seen ^ code) & 1))
    return edges, [code >> 1 for code in first.values() if code >= 0]


def _signed_factors(
    nodes: int, edges: Iterable[tuple[int, int, int]], halves: Iterable[int]
) -> list[int]:
    """Invariant factors of the incidence matrix of a signed graph (Harary,
    *Michigan Math. J.* 2, 1953; Zaslavsky, *Discrete Appl. Math.* 4, 1982):
    a component of c nodes gives c - 1 ones, then a 1 if it has a
    half-edge, else a 2 if a cycle in it has odd parity.  A union-find with
    path halving (Tarjan, *J. ACM* 22, 1975) keeps each node's parity
    against its parent."""
    parent, parity = list(range(nodes)), [0] * nodes

    def find(x: int) -> tuple[int, int]:
        p = 0
        while (up := parent[x]) != x:
            parity[x] ^= parity[up]
            parent[x] = x_next = parent[up]
            p ^= parity[x]
            x = x_next
        return x, p

    joins, odd = 0, []
    for i, j, w in edges:
        (ri, pi), (rj, pj) = find(i), find(j)
        if ri != rj:
            parent[ri], parity[ri] = rj, pi ^ pj ^ w
            joins += 1
        elif pi ^ pj != w:
            odd.append(ri)
    halved = {find(x)[0] for x in halves}
    return [1] * (joins + len(halved)) + [2] * len({find(x)[0] for x in odd} - halved)


@frozen
class CohomologyGroup:
    degree: int
    free_rank: int
    torsion: tuple[int, ...]

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def cohomology(nerve: Nerve, k: int, ring: str = RING_Z) -> CohomologyGroup:
    """H^k of the nerve from the invariant factors of delta_k and delta_{k-1}.

    Those of delta_0, and of delta_k when no k-simplex has a third coface
    (on a surface every level), are read off a signed union-find with no
    index map; any other comes from unit_reduce and one sparse elimination
    of its residue, neither of which builds a transform, and only the
    levels eliminated get an index map.  From k at the dimension up
    delta_k has no rows and no factors.  A rank is the number of invariant
    factors, over Q as over Z; the ring only decides whether the torsion
    factors of delta_{k-1} are kept.
    """
    if k < 0:
        raise InputError("cohomology degree must be >= 0")
    if ring not in (RING_Z, RING_Q):
        raise InputError(f"unknown ring {ring!r}")
    factors_k = _invariant_factors(nerve, k)
    factors_km1 = _invariant_factors(nerve, k - 1) if k else []
    free = len(nerve.of_dim(k)) - len(factors_k) - len(factors_km1)
    torsion = tuple([d for d in factors_km1 if d > 1]) if ring == RING_Z else ()
    return CohomologyGroup(k, free, torsion)


@frozen
class ChernClass:
    valid: bool
    witness: Optional[Simplex]
    free_coords: tuple[int, ...]
    torsion_coords: tuple[tuple[int, int], ...]  # (value mod d, d)

    def is_trivial(self) -> bool:
        return (
            self.valid
            and all(x == 0 for x in self.free_coords)
            and all(v == 0 for v, _ in self.torsion_coords)
        )


def chern_class(nerve: Nerve, a: Cochain) -> ChernClass:
    """Class of an integer 2-cocycle, a function of the nerve and the class.

    Validity means the cocycle condition (vanishing coboundary); on failure
    the witness is the first 3-simplex, in sorted order, on which the
    coboundary is nonzero.  Cochains differing by a coboundary of an
    integer 1-cochain receive identical coordinates.

    The free part of H^2 is Hom(H_2, Z) (universal coefficients; Hatcher,
    *Algebraic Topology*, §3.1), and free_coords gives the class there, one
    number per free generator.  The 2-cycles Z_2 are read off unit_reduce
    of delta_1 with the identity carried, and the elimination of its
    residue; their row Hermite normal form h, on the 2-simplices in sorted
    order, is a basis that depends on the nerve alone, and w_i = <a, h_i>.
    With no 3-simplices H_2 = Z_2 and free_coords is w: on a torus, the
    pairing of a with the fundamental cycle that is +1 on the first sorted
    triangle.  Otherwise w vanishes on the boundaries B_2, and free_coords
    are its coordinates in the Hermite basis of that annihilator.

    torsion_coords are <a, y_i> mod d_i for the residue's Smith rows y_i
    with invariant factor d_i > 1.  With one torsion summand and free rank
    0 (RP^2, the Klein bottle) that is the class itself; otherwise it
    depends on the splitting the elimination picks, which is the same on
    every run for one nerve.
    """
    if a.degree != 2 or a.ring != RING_Z:
        raise InputError("chern_class expects an integer 2-cochain")
    if not a.values.keys() <= nerve.index_of(2).keys():
        stray = next(s for s in a.values if s not in nerve.index_of(2))
        raise InputError(f"simplex {stray} is not a 2-simplex of the nerve")
    get = a.values.get
    for s in nerve.of_dim(3):
        # the faces of s in lexicographic order omit s[3], s[2], s[1], s[0]
        w, x, y, z = (get(f, 0) for f in combinations(s, 3))
        if x + z != w + y:
            return ChernClass(False, s, (), ())
    value = [get(s, 0) for s in nerve.of_dim(2)]
    _, residue, width, carried, zeros = unit_reduce(
        coboundary_matrix(nerve, 1), len(nerve.of_dim(1)), [{i: 1} for i in range(len(value))]
    )
    factors, y, _ = smith_eliminate(residue, width, carried)
    cycles = hermite_rows(zeros + y[len(factors):])
    w = [_pair(value, h) for h in cycles]
    if nerve.of_dim(3):
        bounds = list(map(lattice_coordinates(cycles), coboundary_matrix(nerve, 2)))
        rank, _, v = smith_eliminate(bounds, len(cycles), columns=True)
        ann = hermite_rows(v[len(rank):])
        coords = lattice_coordinates(ann)({i: x for i, x in enumerate(w) if x})
        w = [coords.get(i, 0) for i in range(len(ann))]
    torsion = tuple([(_pair(value, yi) % f, f) for yi, f in zip(y, factors) if f > 1])
    return ChernClass(True, None, tuple(w), torsion)


def _pair(value: list[int], row: Mapping[int, int]) -> int:
    return sum([value[i] * x for i, x in row.items()])

