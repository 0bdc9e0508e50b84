"""Exact root data for the compact classical series A, B, C, D and torus factors.

A fixed Euclidean realization is used throughout:

* ``A_n``: roots ``e_i - e_j`` inside the sum-zero hyperplane of an
  (n+1)-dimensional block,
* ``B_n``: ``±e_i`` and ``±e_i ± e_j``,
* ``C_n``: ``±2 e_i`` and ``±e_i ± e_j``,
* ``D_n``: ``±e_i ± e_j``,

with the pairing given by the ambient dot product; torus factors contribute
trailing coordinates and no roots.  Roots are tuples of plain ints, each with
at most two nonzero coordinates; weights may hold ints or Fractions, which
compare, hash and print alike; ``linalg.exact`` reads any other number.  All
arithmetic is exact, and every value is immutable after construction.

Weights meet roots in integers.  Each :class:`Weight` caches its integer
form: numerators over D, the lcm of its coordinate denominators.  Each
:class:`RootSystem` caches its support list: the at most two nonzero
(index, value) pairs of each root, flattened to (i, x, j, y).  Every coroot
2 alpha / (alpha, alpha) has integer coordinates here: it is alpha, 2 alpha
or alpha / 2 for (alpha, alpha) = 2, 1 or 4 (Bourbaki, Lie Groups and Lie
Algebras, Ch. VI, Planches I-IV).  So <w, alpha^vee> D is an integer, and a
reflection maps numerators over D to numerators over the same D.

:func:`numerator_scan` is the one kernel: it returns (w, alpha) D for each
root of a support list.  :func:`root_numerators` runs it over all of the
roots, and every report fact read off pairings with lambda (singular set,
admissible order, KKS blocks) reads such a scan; dominance and
straightening scan the simple roots.  :func:`sign_split` reads a
positive system off a scan: rho's (``RootSystem.rho_numerators``), a seed's,
or ``p or r`` per root for lambda's entry p and rho's r; its simple roots are
the positive alpha with <2 rho, alpha^vee> = 2, read off one more scan.
:func:`coroot_value` is the only division by (alpha, alpha): the Cartan
matrix and ``weyl.reflection`` read it too.  ``RootSystem.supports`` and
``RootSystem.index`` are the only per-root tables read off coordinates.
:func:`root_sums` is the only root addition: it pairs just the subsets that a
check reads, the singular set, its positive part, and the other positive
roots.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from math import lcm
from typing import Collection, Iterable, Iterator, Sequence

from .errors import CapExceededError, InputError
from .frozen import frozen
from .linalg import Vec, exact, exact_vec, mat, solve, vec

# build_root_system refuses larger systems (exit 4 on the CLI); A31, B22,
# C22 and D22 are the largest single factors within it
MAX_ROOTS = 1000

_SERIES_LETTERS = ("A", "B", "C", "D")
_FACTOR_RE = re.compile(r"^([ABCDT])(\d+)$")


@frozen
class SeriesSpec:
    """Product of classical simple factors plus a central torus."""

    factors: tuple[tuple[str, int], ...]
    torus_rank: int = 0

    def __post_init__(self):
        for letter, rank_ in self.factors:
            if letter not in _SERIES_LETTERS:
                raise InputError(f"unknown series letter {letter!r}; expected A/B/C/D")
            if rank_ < 1:
                raise InputError(f"{letter}-factor rank must be >= 1, got {rank_}")
            if letter == "D" and rank_ < 2:
                raise InputError(f"D-factor rank must be >= 2, got D{rank_}")
        if self.torus_rank < 0:
            raise InputError(f"torus rank must be >= 0, got {self.torus_rank}")

    @property
    def ambient_dim(self) -> int:
        return sum(_factor_dim(l, r) for l, r in self.factors) + self.torus_rank

    @property
    def root_count(self) -> int:
        """|Phi|, counted without building a root: n(n+1) for A_n, 2n^2 for
        B_n and C_n, 2n(n-1) for D_n."""
        return sum(_factor_root_count(l, r) for l, r in self.factors)

    @property
    def rank(self) -> int:
        """Dimension of the maximal torus (Cartan rank plus central torus)."""
        return sum(r for _, r in self.factors) + self.torus_rank

    def blocks(self) -> list[tuple[str, int, int, int]]:
        """(letter, rank, start, stop) coordinate slices, torus last as ('T', ...)."""
        out = []
        pos = 0
        for letter, r in self.factors:
            d = _factor_dim(letter, r)
            out.append((letter, r, pos, pos + d))
            pos += d
        if self.torus_rank:
            out.append(("T", self.torus_rank, pos, pos + self.torus_rank))
        return out

    def __str__(self) -> str:
        parts = [f"{l}{r}" for l, r in self.factors]
        if self.torus_rank:
            parts.append(f"T{self.torus_rank}")
        return "x".join(parts) if parts else "T0"


def _factor_dim(letter: str, rank_: int) -> int:
    return rank_ + 1 if letter == "A" else rank_


def _factor_root_count(letter: str, n: int) -> int:
    if letter == "A":
        return n * (n + 1)
    return 2 * n * n if letter in ("B", "C") else 2 * n * (n - 1)


def parse_series(text: str) -> SeriesSpec:
    """Parse the factor grammar, e.g. ``"A2xB3xT1"``.

    Torus tokens may appear anywhere but their coordinates are grouped at
    the end of the ambient vector, after all simple-factor blocks.
    """
    factors: list[tuple[str, int]] = []
    torus = 0
    for token in text.strip().split("x"):
        m = _FACTOR_RE.match(token.strip())
        if not m:
            raise InputError(f"cannot parse series factor {token!r}")
        letter, r = m.group(1), int(m.group(2))
        if letter == "T":
            torus += r
        else:
            factors.append((letter, r))
    return SeriesSpec(tuple(factors), torus)


@frozen(uncompared=("projected",))
class Weight:
    """Exact functional on the Cartan subalgebra, as a coordinate vector."""

    coords: Vec
    projected: bool = False

    def __post_init__(self):
        coords = tuple([c if type(c) in (int, Fraction) else exact(c, "weight coordinate")
                        for c in self.coords])
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "Weight") -> "Weight":
        self._check_arith(other)
        return Weight(tuple([a + b for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_arith(other)
        return Weight(tuple([a - b for a, b in zip(self.coords, other.coords)]))

    def __neg__(self) -> "Weight":
        return Weight(tuple([-a for a in self.coords]))

    def __rmul__(self, c) -> "Weight":
        c = exact(c, "weight scalar")
        return Weight(tuple([c * a for a in self.coords]))

    def _check_arith(self, other: "Weight"):
        if len(self.coords) != len(other.coords):
            raise InputError("weight dimension mismatch")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(numerators, D): coordinate i is numerators[i] / D, where D is the
        lcm of the coordinate denominators."""
        d = lcm(*[c.denominator for c in self.coords])
        return tuple([c.numerator * (d // c.denominator) for c in self.coords]), d

    @cached_property
    def strings(self) -> tuple[str, ...]:
        """The coordinates as "p/q" strings, formatted once per weight."""
        return tuple([str(c) for c in self.coords])

    def to_strings(self) -> list[str]:
        return list(self.strings)


def weight_from_strings(items: Sequence[str]) -> Weight:
    """Build a Weight from "p/q" strings, the JSON wire format of a report."""
    return Weight(tuple(exact_vec(items, "weight coordinate")))


@frozen
class RootSystem:
    """Full root list of a SeriesSpec in the fixed Euclidean realization."""

    spec: SeriesSpec
    roots: tuple[Weight, ...]

    @cached_property
    def codes(self) -> tuple[dict[Vec, tuple[int, tuple[int, int]]], dict[int, Vec]]:
        """({root: (code, keys)}, {code: root}) for root_sums: a root's code is
        the base-16 number with its coordinates as digits, its keys are the
        coordinates it touches, -1 standing in for a second one."""
        code = {a.coords: ((x << 4 * i) + (y << 4 * j), (i, j) if y else (i, -1))
                for a, (i, x, j, y) in zip(self.roots, self.supports)}
        return code, {c: a for a, (c, _) in code.items()}

    @cached_property
    def supports(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, x, j, y) per root, in roots order: the root is x e_i + y e_j.
        A root with one nonzero coordinate is padded as (i, x, i, 0)."""
        out = []
        for a in self.roots:
            (i, x), *rest = [(i, x) for i, x in enumerate(a.coords) if x]
            out.append((i, x, *(rest[0] if rest else (i, 0))))
        return tuple(out)

    @cached_property
    def index(self) -> dict[Vec, int]:
        """Position of each root, by coordinates, in roots (and supports)."""
        return {a.coords: k for k, a in enumerate(self.roots)}

    @cached_property
    def rho_numerators(self) -> tuple[int, ...]:
        """root_numerators of rho, default_chamber_seed, one scan per root
        system."""
        return tuple(root_numerators(default_chamber_seed(self), self))

    @cached_property
    def _default_split(self) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
        # no RootOrder here: its back-reference would make every root
        # system a reference cycle, freed only by the cycle collector
        return sign_split(self, self.rho_numerators)

    @cached_property
    def ambient_dim(self) -> int:
        return self.spec.ambient_dim

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def dim_g(self) -> int:
        """Real dimension of the compact Lie algebra: rank + number of roots."""
        return self.rank + len(self.roots)


@frozen
class RootOrder:
    """A choice of positive system, with its simple (indecomposable) roots."""

    rs: RootSystem
    positive: tuple[Weight, ...]
    simple: tuple[Weight, ...]

    @cached_property
    def positive_set(self) -> frozenset[Vec]:
        return frozenset(r.coords for r in self.positive)

    @cached_property
    def simple_supports(self) -> tuple[tuple[int, int, int, int], ...]:
        """RootSystem.supports of the simple roots, in the order of simple."""
        supports, index = self.rs.supports, self.rs.index
        return tuple([supports[index[a.coords]] for a in self.simple])


def build_root_system(spec: SeriesSpec) -> RootSystem:
    """Construct the full root list for spec; torus factors contribute none.

    Raises CapExceededError, before building any root, when spec has more
    than MAX_ROOTS roots.
    """
    if spec.root_count > MAX_ROOTS:
        raise CapExceededError(
            f"{spec} has {spec.root_count} roots, above the bound of {MAX_ROOTS}"
        )
    n = spec.ambient_dim
    roots: set[tuple[int, ...]] = set()

    def add(*entries: tuple[int, int]) -> None:
        v = [0] * n
        for i, x in entries:
            v[i] = x
        roots.add(tuple(v))

    for letter, r, start, stop in spec.blocks():
        idx = range(start, stop)
        if letter == "A":
            for i, j in permutations(idx, 2):
                add((i, 1), (j, -1))
        elif letter in ("B", "C", "D"):
            for i, j in combinations(idx, 2):
                for si, sj in product((1, -1), repeat=2):
                    add((i, si), (j, sj))
            if letter != "D":
                k = 1 if letter == "B" else 2
                for i in idx:
                    add((i, k))
                    add((i, -k))
    ordered = tuple([Weight(v) for v in sorted(roots)])
    return RootSystem(spec, ordered)


def root_sums(left: Collection[Vec], right: Iterable[Vec], rs: RootSystem) -> Iterator[tuple]:
    """(a, b, a + b) for the roots a in left and b in right whose sum is a
    root, each pair once: the one place that knows root addition.  A sum of
    two roots has coordinates in [-4, 4], so it adds as RootSystem.codes.  It
    needs a shared coordinate, or two single-coordinate roots (B_n: e_i +
    e_j), so a meets only the roots of right bucketed under its keys."""
    if not left:
        return
    code, by_code = rs.codes
    near = defaultdict(list)
    for b in right:
        cb, kb = code[b]
        for k in kb:
            near[k].append((b, cb, kb))
    for a in left:
        ca, (i, j) = code[a]
        for b, cb, _ in near[i]:
            if s := by_code.get(ca + cb):
                yield a, b, s
        for b, cb, kb in near[j]:  # b touching i too was met above: C_n's e_i - e_j, e_i + e_j
            if i not in kb and (s := by_code.get(ca + cb)):
                yield a, b, s


def numerator_scan(nums: Sequence[int], supports) -> list[int]:
    """(w, alpha) D for each (i, x, j, y) in supports, where w is nums / D:
    two integer products per root."""
    return [nums[i] * x + nums[j] * y for i, x, j, y in supports]


def coroot_value(p: int, support: tuple[int, int, int, int]) -> int:
    """<w, alpha^vee> D = 2 (w, alpha) D / (alpha, alpha) from p = (w, alpha) D;
    exact, since every coroot has integer coordinates."""
    _, x, _, y = support
    return 2 * p // (x * x + y * y)


def root_numerators(w: Weight, rs: RootSystem) -> list[int]:
    """(w, alpha) D for every root alpha of rs, in rs.roots order, where D is
    w's integer-form denominator."""
    require_ambient(w.coords, rs)
    return numerator_scan(w.integer_form[0], rs.supports)


def pairing(xi: Weight, eta: Weight, rs: RootSystem) -> Fraction:
    """Exact pairing of two ambient weights: the ambient dot product of their
    numerators, a product only where eta is nonzero, over the product of
    their denominators."""
    require_ambient(xi.coords, rs)
    require_ambient(eta.coords, rs)
    (nx, dx), (ne, de) = xi.integer_form, eta.integer_form
    return Fraction(sum(nx[i] * e for i, e in enumerate(ne) if e), dx * de)


def require_ambient(
    coords: Sequence, space: RootSystem | SeriesSpec, what: str = "weight"
) -> None:
    """The one weight-dimension rule: a weight, or a lattice generator, on
    space has one coordinate per ambient dimension."""
    if len(coords) != space.ambient_dim:
        raise InputError(f"{what} has {len(coords)} coordinates, expected {space.ambient_dim}")


def ambient_weight(coords: Iterable, rs: RootSystem) -> Weight:
    """Ingest ambient coordinates, projecting A-blocks onto their sum-zero
    hyperplane when needed; the projection is flagged on the result."""
    c = exact_vec(coords, "lambda coordinate")
    require_ambient(c, rs)
    projected = False
    for letter, _, start, stop in rs.spec.blocks():
        if letter == "A" and (total := sum(c[start:stop], Fraction(0))):
            mean = total / (stop - start)
            for i in range(start, stop):
                c[i] -= mean
            projected = True
    return Weight(tuple(c), projected)


def default_chamber_seed(rs: RootSystem) -> Weight:
    """rho, half the sum of the positive roots it picks, on every factor
    block: at the k-th coordinate (from 0) of a block of the given size,
    size - k less (size + 1)/2 on A, 1/2 on B, 0 on C and 1 on D (Bourbaki,
    Ch. VI, Plates I-IV); zero on torus coordinates.  Strictly decreasing in
    each block, and positive but for D's last coordinate, so regular."""
    c = [Fraction(0)] * rs.ambient_dim
    for letter, _, start, stop in rs.spec.blocks():
        if letter == "T":
            continue
        size = stop - start
        shift = {"A": Fraction(size + 1, 2), "B": Fraction(1, 2), "C": 0, "D": 1}[letter]
        for k, i in enumerate(range(start, stop)):
            c[i] = Fraction(size - k) - shift
    return Weight(tuple(c))


def positive_roots(rs: RootSystem, chamber_seed: Weight) -> RootOrder:
    """Split the roots by the sign of their pairing with a regular seed."""
    scan = root_numerators(chamber_seed, rs)
    if 0 in scan:
        raise InputError(
            f"chamber seed lies on the wall of root {rs.roots[scan.index(0)].to_strings()}"
        )
    return RootOrder(rs, *sign_split(rs, scan))


def sign_split(rs: RootSystem, scan: Sequence[int]) -> tuple[tuple[Weight, ...], ...]:
    """(positive, simple) of the chamber where each root has its scan entry's
    sign; every scan entry is nonzero."""
    roots, supports = rs.roots, rs.supports
    pos = [k for k, p in enumerate(scan) if p > 0]
    pos_supports = [supports[k] for k in pos]
    two_rho = [0] * rs.ambient_dim
    for i, x, j, y in pos_supports:
        two_rho[i] += x
        two_rho[j] += y
    # a positive root is simple iff <rho, alpha^vee> = 1, the height of
    # alpha^vee (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, 1.10)
    simple = [k for k, p, s in zip(pos, numerator_scan(two_rho, pos_supports), pos_supports)
              if coroot_value(p, s) == 2]
    # textbook enumeration: alpha_1 = e1 - e2 first, ties broken lexicographically
    simple.sort(key=lambda k: (supports[k][0], roots[k].coords))
    return tuple([roots[k] for k in pos]), tuple([roots[k] for k in simple])


def default_order(rs: RootSystem) -> RootOrder:
    """Positive system of default_chamber_seed, computed once per root system."""
    return RootOrder(rs, *rs._default_split)


def is_dominant(lam: Weight, order: RootOrder) -> bool:
    """True iff lam pairs non-negatively with every positive (simple) root."""
    require_ambient(lam.coords, order.rs)
    return all(p >= 0 for p in numerator_scan(lam.integer_form[0], order.simple_supports))


def fundamental_weights(order: RootOrder) -> list[Weight]:
    """Fundamental weights dual to the simple coroots, inside the root span.

    For A-blocks the root span is the sum-zero hyperplane, so these are the
    familiar hyperplane representatives (A1: (1/2, -1/2), ...).
    """
    supports = order.simple_supports
    k = len(supports)
    # omega_i = sum_j c_j alpha_j with <omega_i, alpha_m^vee> = delta_im:
    # row m of the Cartan matrix holds the integers <alpha_j, alpha_m^vee>
    scans = [numerator_scan(a.coords, supports) for a in order.simple]
    cartan = mat([[coroot_value(scan[m], s) for scan in scans] for m, s in enumerate(supports)])
    out = []
    for i in range(k):
        coeffs = solve(cartan, vec([1 if m == i else 0 for m in range(k)]))
        assert coeffs is not None  # Cartan matrix of a valid order is invertible
        coords = [Fraction(0)] * order.rs.ambient_dim
        for cj, (a, x, b, y) in zip(coeffs, supports):
            coords[a] += cj * x
            coords[b] += cj * y
        out.append(Weight(tuple(coords)))
    return out


def weight_from_fundamental(coeffs: Sequence, order: RootOrder) -> Weight:
    """Convert fundamental-basis coefficients to an ambient Weight."""
    fw = fundamental_weights(order)
    if len(coeffs) != len(fw):
        raise InputError(
            f"expected {len(fw)} fundamental coefficients, got {len(coeffs)}"
        )
    zero = Weight(tuple([Fraction(0)] * order.rs.ambient_dim))
    return sum([exact(c, "fundamental coefficient") * w for c, w in zip(coeffs, fw)], zero)
