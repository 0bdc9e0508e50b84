"""Exact linear algebra over the rationals and the integers.

Everything here works on tuples of ``fractions.Fraction`` (vectors) and
tuples of such tuples (row-major matrices).  No floating point.  The Smith
normal form carries its unimodular transforms because the Cech module needs
the left transform to read off cohomology coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transforms: returns (d, u, v) with u·a·v = d.

    u and v are unimodular; d is diagonal with non-negative entries and
    d[i][i] divides d[i+1][i+1].
    """
    d = [[int(x) for x in row] for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        # locate a minimal-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if d[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, m):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders became new smaller pivot candidates

        # pivot must divide the whole trailing block for the invariant chain
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
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
    if not gens:
        return all(x == 0 for x in target)
    if len(target) != len(gens[0]):
        raise ValueError("dimension mismatch between generators and target")
    denoms = [x.denominator for row in gens for x in row]
    scale_ = math.lcm(*denoms, *(x.denominator for x in target))
    a = [[int(x * scale_) for x in row] for row in gens]
    b = [int(x * scale_) for x in target]
    d, _, v = smith_normal_form(a)
    # x·A = b  <=>  z·D = b·V with z integral
    bv = [sum(b[i] * v[i][j] for i in range(len(b))) for j in range(len(v[0]))]
    r = min(len(d), len(d[0]) if d else 0)
    for j in range(len(bv)):
        dj = d[j][j] if j < r else 0
        if dj == 0:
            if bv[j] != 0:
                return False
        elif bv[j] % dj != 0:
            return False
    return True

