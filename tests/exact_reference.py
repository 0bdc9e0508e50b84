"""Exact helpers that only the tests use, moved out of `orbitkit` verbatim:
`linalg.det`, `linalg.kernel_basis` and `rootsys.simple_root_coefficients`.
"""

from fractions import Fraction

from orbitkit.errors import InputError
from orbitkit.linalg import Mat, Vec, _rref, mat, solve
from orbitkit.rootsys import RootOrder, Weight


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
