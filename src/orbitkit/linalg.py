"""Exact linear algebra over the rationals and the integers.

Everything here works on tuples of exact rationals (vectors) and tuples of
such tuples (row-major matrices); a ``Vec`` entry is a ``fractions.Fraction``
or a plain ``int``, as in the integer roots of ``rootsys``.  No floating
point.  The Smith normal form carries its unimodular transforms because the
Cech module needs the left transform to read off cohomology coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
        for row in a
    )


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


def rank(a: Mat) -> int:
    if not a:
        return 0
    return len(_rref(a)[1])


def solve(a: Mat, b: Vec) -> Optional[Vec]:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    When the solution space has positive dimension the free variables are
    set to zero, which keeps the result deterministic.
    """
    m = len(a)
    if m == 0:
        return zeros(0) if all(x == 0 for x in b) else None
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


# -- integer Smith normal form ------------------------------------------------

IntMat = list[list[int]]


def _first_minimal(
    d: IntMat, t: int, n: int, zero: list[bool]
) -> Optional[tuple[int, int]]:
    """Position of the first entry of least nonzero magnitude, in row-major
    order, of the trailing block d[t:][t:n]; None when that block is zero.

    The scan ends at the first ±1: no later entry is strictly smaller.  A
    trailing row is zero left of column t, so a row found zero from t on is
    flagged in zero[] and skipped by later scans; elimination never makes a
    zero row nonzero.
    """
    best = None
    least = 0
    for i in range(t, len(d)):
        if zero[i]:
            continue
        row = d[i]
        if not any(row[t:n]):
            zero[i] = True
            continue
        for j in range(t, n):
            e = row[j]
            if e and (best is None or abs(e) < least):
                if e == 1 or e == -1:
                    return i, j
                best, least = (i, j), abs(e)
    return best


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transforms: returns (d, u, v) with u·a·v = d.

    u and v are unimodular; d is diagonal with non-negative entries and
    d[i][i] divides d[i+1][i+1].

    The transforms are fixed by the pivot rule, which is part of the
    contract: ``cech.chern_class`` reads its coordinates through u, so a
    different pivot sequence changes its output.  Step t pivots on the first
    entry of least nonzero magnitude, in row-major order, of the trailing
    block d[t:][t:], swaps it to (t, t) and makes it positive, then reduces
    row t and column t by floor division.  Nonzero remainders restart step
    t.  A pivot of 1 divides everything, so step t ends there; a larger
    pivot that fails to divide some trailing entry has the first such row
    added to row t, and step t restarts.
    """
    d = [[int(x) for x in row] for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    zero = [False] * m

    t = 0
    while True:
        best = _first_minimal(d, t, n, zero)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            u[t], u[bi] = u[bi], u[t]
            zero[t], zero[bi] = zero[bi], zero[t]
        if bj != t:
            # rows above t are zero in both columns
            for row in d[t:] + v:
                row[t], row[bj] = row[bj], row[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        p = d[t][t]

        # Each update below reads only row t or column t, which it never
        # writes, so their nonzero entries are collected once per pivot.
        dirty = False
        d_t, u_t = d[t], u[t]
        d_src = [(j, d_t[j]) for j in range(t, n) if d_t[j]]
        u_src = [(j, x) for j, x in enumerate(u_t) if x]
        for i in range(t + 1, m):
            if d[i][t]:
                q = d[i][t] // p
                d_i, u_i = d[i], u[i]
                for j, y in d_src:
                    d_i[j] -= q * y
                for j, y in u_src:
                    u_i[j] -= q * y
                if d_i[t]:
                    dirty = True
        src = [row for row in d[t:] + v if row[t]]
        for j in range(t + 1, n):
            if d[t][j]:
                q = d[t][j] // p
                for row in src:
                    row[j] -= q * row[t]
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new smaller pivot candidates
        if p == 1:
            t += 1  # a unit divides the whole trailing block
            continue

        # pivot must divide the whole trailing block for the invariant chain
        offender = next(
            (i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 : n])), None
        )
        if offender is not None:
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1

    return d, u, v


def _smith_diagonal(d: IntMat) -> list[int]:
    """Nonzero diagonal entries of a Smith normal form d, in order; their
    number is the rank of the matrix, over Q as over Z."""
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0]


def invariant_factors(a: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, in order."""
    return _smith_diagonal(smith_normal_form(a)[0])


def in_integer_row_span(gens: Mat, target: Vec) -> bool:
    """Whether target lies in the set of integer combinations of gens' rows.

    gens may have rational entries; everything is scaled to integers first.
    """
    return _row_span_member(gens)(target)


def _row_span_member(gens: Mat) -> Callable[[Vec], bool]:
    """Membership test for the integer row span of gens, for any number of
    targets from one Smith normal form."""
    if not gens:
        return lambda target: all(x == 0 for x in target)
    width = len(gens[0])
    scale = math.lcm(*(x.denominator for row in gens for x in row))
    d, _, v = smith_normal_form([[int(x * scale) for x in row] for row in gens])
    r = min(len(d), width)
    diag = [d[j][j] if j < r else 0 for j in range(width)]

    def member(target: Vec) -> bool:
        if len(target) != width:
            raise ValueError("dimension mismatch between generators and target")
        # scaled by scale, x·A = b  <=>  z·D = b·V with z integral
        b = [x * scale for x in target]
        if any(x.denominator != 1 for x in b):
            return False
        for j, dj in enumerate(diag):
            bv = sum(int(b[i]) * v[i][j] for i in range(width))
            if (bv % dj if dj else bv) != 0:
                return False
        return True

    return member
