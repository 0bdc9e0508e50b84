"""Exact root data for the compact classical series A, B, C, D and torus factors.

A fixed Euclidean realization is used throughout:

* ``A_n``: roots ``e_i - e_j`` inside the sum-zero hyperplane of an
  (n+1)-dimensional block,
* ``B_n``: ``±e_i`` and ``±e_i ± e_j``,
* ``C_n``: ``±2 e_i`` and ``±e_i ± e_j``,
* ``D_n``: ``±e_i ± e_j``,

with the pairing given by the ambient dot product; torus factors contribute
trailing coordinates and no roots.  All arithmetic is exact rational, and
every value is immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapExceededError, InputError
from .linalg import Mat, Vec, dot, identity, mat, solve, vec

# build_root_system refuses larger systems (exit 4 on the CLI); A31, B22,
# C22 and D22 are the largest single factors within it
MAX_ROOTS = 1000

AMBIENT = "ambient"
FUNDAMENTAL = "fundamental"

_SERIES_LETTERS = ("A", "B", "C", "D")
_FACTOR_RE = re.compile(r"^([ABCDT])(\d+)$")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Weight:
    """Exact functional on the Cartan subalgebra, as a coordinate vector."""

    coords: Vec
    basis: str = AMBIENT
    projected: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.basis not in (AMBIENT, FUNDAMENTAL):
            raise InputError(f"unknown weight basis {self.basis!r}")
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __add__(self, other: "Weight") -> "Weight":
        self._check_arith(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_arith(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords), self.basis)

    def __rmul__(self, c) -> "Weight":
        return Weight(tuple(Fraction(c) * a for a in self.coords), self.basis)

    def _check_arith(self, other: "Weight"):
        if self.basis != AMBIENT or other.basis != AMBIENT:
            raise InputError("weight arithmetic requires ambient coordinates")
        if len(self.coords) != len(other.coords):
            raise InputError("weight dimension mismatch")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coords]


def weight_from_strings(items: Sequence[str], basis: str = AMBIENT) -> Weight:
    """Build a Weight from "p/q" strings (the JSON wire format)."""
    try:
        coords = tuple(Fraction(s) for s in items)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational in weight: {exc}") from exc
    return Weight(coords, basis)


@dataclass(frozen=True)
class RootSystem:
    """Full root list of a SeriesSpec in the fixed Euclidean realization."""

    spec: SeriesSpec
    roots: tuple[Weight, ...]
    pairing_matrix: Mat

    @cached_property
    def root_set(self) -> frozenset[Vec]:
        return frozenset(r.coords for r in self.roots)

    @cached_property
    def _identity_pairing(self) -> bool:
        return all(
            (c == 1 if i == j else c == 0)
            for i, row in enumerate(self.pairing_matrix)
            for j, c in enumerate(row)
        )

    @property
    def ambient_dim(self) -> int:
        return self.spec.ambient_dim

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def dim_g(self) -> int:
        """Real dimension of the compact Lie algebra: rank + number of roots."""
        return self.rank + len(self.roots)

    def contains_root(self, w: Weight) -> bool:
        return w.coords in self.root_set


@dataclass(frozen=True)
class RootOrder:
    """A choice of positive system, with its simple (indecomposable) roots."""

    rs: RootSystem
    chamber_seed: Weight
    positive: tuple[Weight, ...]
    simple: tuple[Weight, ...]

    @cached_property
    def positive_set(self) -> frozenset[Vec]:
        return frozenset(r.coords for r in self.positive)


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
    roots: set[Vec] = set()

    def unit(i: int) -> list[Fraction]:
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        return v

    for letter, r, start, stop in spec.blocks():
        idx = range(start, stop)
        if letter == "A":
            for i in idx:
                for j in idx:
                    if i != j:
                        v = [Fraction(0)] * n
                        v[i], v[j] = Fraction(1), Fraction(-1)
                        roots.add(tuple(v))
        elif letter in ("B", "C", "D"):
            for i in idx:
                for j in idx:
                    if i < j:
                        for si in (1, -1):
                            for sj in (1, -1):
                                v = [Fraction(0)] * n
                                v[i], v[j] = Fraction(si), Fraction(sj)
                                roots.add(tuple(v))
            if letter == "B":
                for i in idx:
                    for s in (1, -1):
                        v = unit(i)
                        roots.add(tuple(Fraction(s) * c for c in v))
            elif letter == "C":
                for i in idx:
                    for s in (2, -2):
                        v = unit(i)
                        roots.add(tuple(Fraction(s) * c for c in v))
    ordered = tuple(Weight(v) for v in sorted(roots))
    return RootSystem(spec, ordered, identity(n))


def pairing(xi: Weight, eta: Weight, rs: RootSystem) -> Fraction:
    """Exact symmetric bilinear pairing of two ambient weights."""
    _require_ambient(xi, rs)
    _require_ambient(eta, rs)
    if rs._identity_pairing:
        return dot(xi.coords, eta.coords)
    return dot(xi.coords, tuple(dot(row, eta.coords) for row in rs.pairing_matrix))


def norm_sq(w: Weight, rs: RootSystem) -> Fraction:
    return pairing(w, w, rs)


def _require_ambient(w: Weight, rs: RootSystem):
    if w.basis != AMBIENT:
        raise InputError("operation requires ambient coordinates")
    if len(w.coords) != rs.ambient_dim:
        raise InputError(
            f"weight has {len(w.coords)} coordinates, expected {rs.ambient_dim}"
        )


def ambient_weight(coords: Iterable, rs: RootSystem) -> Weight:
    """Ingest ambient coordinates, projecting A-blocks onto their sum-zero
    hyperplane when needed; the projection is flagged on the result."""
    c = list(vec(coords))
    if len(c) != rs.ambient_dim:
        raise InputError(
            f"weight has {len(c)} coordinates, expected {rs.ambient_dim}"
        )
    projected = False
    for letter, _, start, stop in rs.spec.blocks():
        if letter != "A":
            continue
        block = c[start:stop]
        total = sum(block, Fraction(0))
        if total != 0:
            mean = total / (stop - start)
            for i in range(start, stop):
                c[i] -= mean
            projected = True
    return Weight(tuple(c), AMBIENT, projected)


def default_chamber_seed(rs: RootSystem) -> Weight:
    """Canonical regular vector: strictly decreasing within each factor block
    (centered for A-blocks), zero on torus coordinates."""
    c = [Fraction(0)] * rs.ambient_dim
    for letter, _, start, stop in rs.spec.blocks():
        if letter == "T":
            continue
        size = stop - start
        for k, i in enumerate(range(start, stop)):
            c[i] = Fraction(size - k)  # strictly positive: B/C roots hit +-e_i
        if letter == "A":
            mean = Fraction(size + 1, 2)
            for i in range(start, stop):
                c[i] -= mean
    return Weight(tuple(c))


def positive_roots(rs: RootSystem, chamber_seed: Weight) -> RootOrder:
    """Split the roots by the sign of their pairing with a regular seed."""
    _require_ambient(chamber_seed, rs)
    pos = []
    for alpha in rs.roots:
        p = pairing(chamber_seed, alpha, rs)
        if p == 0:
            raise InputError(
                f"chamber seed lies on the wall of root {alpha.to_strings()}"
            )
        if p > 0:
            pos.append(alpha)
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
    # textbook enumeration: alpha_1 = e1 - e2 first, ties broken lexicographically
    simple.sort(key=lambda a: (_first_support(a), a.coords))
    return RootOrder(rs, chamber_seed, tuple(pos), tuple(simple))


def _first_support(a: Weight) -> int:
    return next(i for i, c in enumerate(a.coords) if c != 0)


def default_order(rs: RootSystem) -> RootOrder:
    return positive_roots(rs, default_chamber_seed(rs))


def is_dominant(lam: Weight, order: RootOrder) -> bool:
    """True iff lam pairs non-negatively with every positive (simple) root."""
    _require_ambient(lam, order.rs)
    return all(pairing(lam, alpha, order.rs) >= 0 for alpha in order.simple)


def simple_root_coefficients(order: RootOrder, root: Weight) -> Vec:
    """Exact coefficients of a root over the simple roots (solved, not guessed)."""
    cols = mat([[s.coords[i] for s in order.simple] for i in range(order.rs.ambient_dim)])
    sol = solve(cols, root.coords)
    if sol is None:
        raise InputError("root does not lie in the span of the simple roots")
    return sol


def fundamental_weights(order: RootOrder) -> list[Weight]:
    """Fundamental weights dual to the simple coroots, inside the root span.

    For A-blocks the root span is the sum-zero hyperplane, so these are the
    familiar hyperplane representatives (A1: (1/2, -1/2), ...).
    """
    rs = order.rs
    simple = order.simple
    k = len(simple)
    out = []
    for i in range(k):
        # omega_i = sum_j c_j alpha_j with 2(omega_i, alpha_m)/(alpha_m,alpha_m) = delta_im
        a = mat(
            [
                [
                    2 * pairing(simple[j], simple[m], rs) / pairing(simple[m], simple[m], rs)
                    for j in range(k)
                ]
                for m in range(k)
            ]
        )
        b = vec([1 if m == i else 0 for m in range(k)])
        coeffs = solve(a, b)
        assert coeffs is not None  # Cartan matrix of a valid order is invertible
        coords = [Fraction(0)] * rs.ambient_dim
        for cj, alpha in zip(coeffs, simple):
            for t, x in enumerate(alpha.coords):
                coords[t] += cj * x
        out.append(Weight(tuple(coords)))
    return out


def weight_from_fundamental(coeffs: Sequence, order: RootOrder) -> Weight:
    """Convert fundamental-basis coefficients to an ambient Weight."""
    fw = fundamental_weights(order)
    if len(coeffs) != len(fw):
        raise InputError(
            f"expected {len(fw)} fundamental coefficients, got {len(coeffs)}"
        )
    coords = [Fraction(0)] * order.rs.ambient_dim
    for c, w in zip(coeffs, fw):
        c = Fraction(c)
        for i, x in enumerate(w.coords):
            coords[i] += c * x
    return Weight(tuple(coords))
