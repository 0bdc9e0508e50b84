"""Reference Smith normal form: the dense routine `orbitkit.linalg` used
before its unit-pivot rewrite, kept verbatim as the oracle that the library
routine must match bit for bit, transforms included.

It rescans the whole trailing block for every pivot, so it is slow on
coboundary matrices; keep the inputs given to it small.  `in_row_span`
reads integer row-span membership off its transform v, the test that
`linalg.in_integer_row_span` ran before it moved to a Hermite basis.
"""

import math
from fractions import Fraction
from typing import Sequence

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


def in_row_span(gens: Sequence[Sequence], target: Sequence) -> bool:
    """Whether target is an integer combination of the rows of gens, both
    rational.  With every entry times one common denominator, x·a = b and
    u·a·v = d give z·d = b·v for z = x·u⁻¹, integral iff x is: b must be
    integral, and each entry of b·v divisible by its diagonal entry of d,
    or zero past the rank."""
    scale = math.lcm(*[Fraction(x).denominator for row in gens for x in row])
    b = [Fraction(x) * scale for x in target]
    if any(x.denominator != 1 for x in b):
        return False
    if not gens:
        return not any(b)
    d, _, v = smith_normal_form([[int(Fraction(x) * scale) for x in row] for row in gens])
    for j in range(len(b)):
        bv = sum(int(b[i]) * v[i][j] for i in range(len(b)))
        dj = d[j][j] if j < len(d) else 0
        if (bv % dj if dj else bv) != 0:
            return False
    return True
