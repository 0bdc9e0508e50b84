"""Exact helpers that only the tests use, moved out of `orbitkit` verbatim:
`linalg.det`, `linalg.kernel_basis` and `rootsys.simple_root_coefficients`;
the Fraction RREF `linalg._rref` and the `linalg.solve` built on it, as the
independent oracles for the rank and solve that now read `smith_eliminate`;
the face-sum `cech.coboundary`, as the oracle for `coboundary_matrix`;
and, as oracles for the one-pass readers of `cech`, the readers they
replaced: `cech.build_nerve`, `cech.parse_nerve_lines`,
`cech.parse_cochain_lines` and `cech.make_cochain`.  Besides those,
`cohomology` reads H^k off dense matrices, the oracle for
`cech.cohomology` on small nerves.
"""

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from orbitkit.cech import RING_Q, RING_Z, Cochain, CohomologyGroup, Nerve, Simplex, _zero
from orbitkit.errors import InputError
from orbitkit.linalg import Mat, Vec, mat, solve
from orbitkit.rootsys import RootOrder, Weight

from snf_reference import smith_normal_form


def _rref(a: Mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rref_solve(a: Mat, b: Vec) -> Optional[Vec]:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    When the solution space has positive dimension the free variables are
    set to zero, which keeps the result deterministic.
    """
    m = len(a)
    if m == 0:
        return () if all(x == 0 for x in b) else None
    n = len(a[0])
    aug = mat([list(row) + [bi] for row, bi in zip(a, b)])
    rows, pivots = _rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


def kernel_basis(a: Mat) -> list[Vec]:
    """Basis of the rational null space of A (column-vector convention)."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    rows, pivots = _rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def det(a: Mat) -> Fraction:
    rows = [list(r) for r in a]
    n = len(rows)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def simple_root_coefficients(order: RootOrder, root: Weight) -> Vec:
    """Exact coefficients of a root over the simple roots (solved, not guessed)."""
    cols = mat([[s.coords[i] for s in order.simple] for i in range(order.rs.ambient_dim)])
    sol = solve(cols, root.coords)
    if sol is None:
        raise InputError("root does not lie in the span of the simple roots")
    return sol


def build_nerve(simplices: Iterable[Sequence[int]]) -> Nerve:
    """Downward closure of the given simplices with canonical ordering."""
    by_dim: dict[int, set[Simplex]] = {}
    for raw in simplices:
        s = tuple(raw)
        if not s:
            raise InputError("empty simplex")
        if any(not isinstance(v, int) or v < 0 for v in s):
            raise InputError(f"simplex {s} must consist of non-negative integers")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise InputError(f"simplex {s} is not strictly increasing")
        by_dim.setdefault(len(s) - 1, set()).add(s)
    if not by_dim:
        return Nerve(((),))
    top = max(by_dim)
    # close downward: every face of a listed simplex is listed
    for k in range(top, 0, -1):
        for s in tuple(by_dim.get(k, ())):
            for omit in range(len(s)):
                face = s[:omit] + s[omit + 1 :]
                by_dim.setdefault(k - 1, set()).add(face)
    levels = tuple(tuple(sorted(by_dim.get(k, ()))) for k in range(top + 1))
    return Nerve(levels)


def parse_nerve_lines(lines: Iterable[str]) -> Nerve:
    """Nerve file format: one simplex per line as space-separated increasing
    integers; '#' starts a comment."""
    simplices = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            s = tuple(int(t) for t in body.split())
        except ValueError as exc:
            raise InputError(f"nerve file line {lineno}: {exc}") from exc
        if any(a >= b for a, b in zip(s, s[1:])) or any(v < 0 for v in s):
            raise InputError(
                f"nerve file line {lineno}: expected strictly increasing "
                f"non-negative integers, got {body!r}"
            )
        simplices.append(s)
    if not simplices:
        raise InputError("nerve file contains no simplices")
    return build_nerve(simplices)


def parse_cochain_lines(
    lines: Iterable[str], nerve: Nerve, degree: int, ring: str = RING_Z
) -> Cochain:
    """Cochain file format: one '<simplex tuple> <value>' per line; simplices
    not listed default to zero."""
    values: dict[Simplex, object] = {}
    known = set(nerve.of_dim(degree))
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) < 2:
            raise InputError(f"cochain file line {lineno}: need simplex and value")
        try:
            s = tuple(int(t) for t in parts[:-1])
            val = int(parts[-1]) if ring == RING_Z else Fraction(parts[-1])
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
        values[s] = values.get(s, _zero(ring)) + val
    return make_cochain(nerve, degree, values, ring)


def make_cochain(
    nerve: Nerve, degree: int, values: Mapping[Simplex, object], ring: str = RING_Z
) -> Cochain:
    """Cochain defined on exactly the degree-k simplices; omitted ones are 0.

    Values are exact: a float is refused on both rings, and on Z a value
    that is not an integer is refused rather than truncated.
    """
    if ring not in (RING_Z, RING_Q):
        raise InputError(f"unknown ring {ring!r}")
    known = set(nerve.of_dim(degree))
    out: dict[Simplex, object] = {s: _zero(ring) for s in known}
    for s, v in values.items():
        key = tuple(s)
        if key not in known:
            raise InputError(f"simplex {key} is not a {degree}-simplex of the nerve")
        if isinstance(v, float):
            raise InputError(f"value {v!r} on simplex {key} is a float; give an int or Fraction")
        try:
            x = Fraction(v)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"value {v!r} on simplex {key}: {exc}") from exc
        if ring == RING_Z:
            if x.denominator != 1:
                raise InputError(f"value {v} on simplex {key} is not an integer")
            x = int(x)
        out[key] = x
    return Cochain(degree, ring, MappingProxyType(out))


def coboundary(c: Cochain, nerve: Nerve) -> Cochain:
    """Alternating face sum; lands on the (k+1)-simplices.

    Beyond the nerve dimension the result is the empty cochain of the next
    degree, and applying the operator twice always yields zero.
    """
    k = c.degree
    values: dict[Simplex, object] = {}
    for s in nerve.of_dim(k + 1):
        total = _zero(c.ring)
        for omit in range(len(s)):
            face = s[:omit] + s[omit + 1 :]
            term = c.values.get(face, _zero(c.ring))
            total = total + term if omit % 2 == 0 else total - term
        values[s] = total
    return Cochain(k + 1, c.ring, MappingProxyType(values))


def cohomology(nerve: Nerve, k: int, ring: str = RING_Z) -> CohomologyGroup:
    """H^k from the invariant factors of delta_k and delta_{k-1}, each the
    diagonal of the dense Smith normal form (tests/snf_reference.py) of a
    matrix whose column j is the face-sum coboundary of the indicator of the
    j-th simplex.  Dense, so keep the nerves small."""

    def factors(degree: int) -> list[int]:
        if degree < 0:
            return []
        columns = [coboundary(make_cochain(nerve, degree, {s: 1}), nerve).values
                   for s in nerve.of_dim(degree)]
        d = smith_normal_form([[c[t] for c in columns] for t in nerve.of_dim(degree + 1)])[0]
        return [row[i] for i, row in enumerate(d) if i < len(row) and row[i]]

    factors_k, factors_km1 = factors(k), factors(k - 1)
    free = len(nerve.of_dim(k)) - len(factors_k) - len(factors_km1)
    torsion = tuple(d for d in factors_km1 if d > 1) if ring == RING_Z else ()
    return CohomologyGroup(k, free, torsion)
