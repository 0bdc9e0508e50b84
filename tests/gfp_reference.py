"""Rank over GF(p) by plain Gaussian elimination: an oracle for the
invariant factors of `linalg.smith_eliminate` that shares no code with it.

Over GF(p) a unimodular transform stays invertible, so a matrix and its
Smith form have the same rank there: rank_p(a) = #{d_i : p does not divide
d_i} for the invariant factors d_i of a.
"""

from typing import Mapping, Sequence


def rank_mod_p(rows: Sequence[Mapping[int, int]], p: int) -> int:
    """Rank over GF(p), p prime, of the integer matrix whose row i holds the
    entries rows[i] as {column: value}.  Each row is reduced by the stored
    pivot rows at its leading column until it is zero or leads at a new
    column, where it becomes a pivot row scaled to lead with 1."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: x % p for j, x in row.items() if x % p}
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in r.items()}
                break
            f = r[c]
            for j, x in pivots[c].items():
                z = (r.get(j, 0) - f * x) % p
                if z:
                    r[j] = z
                else:
                    r.pop(j, None)
    return len(pivots)
