"""Exact linear algebra over the rationals and the integers.

Everything here works on tuples of exact rationals (vectors) and tuples of
such tuples (row-major matrices); a ``Vec`` entry is a ``fractions.Fraction``
or a plain ``int``, as in the integer roots of ``rootsys``.  No floating
point.  There is one elimination kernel, :func:`smith_eliminate`, the
integer Smith normal form on rows stored as {column: value}.  It returns the
invariant factors and builds a transform only on request: the Cech module
has it carry a block through the row operations to read off the 2-cycles
and torsion rows.  Rational rank and solve read it too, after scaling each
row to integers: over Q the rank is the number of invariant factors, and
u·a·v = d gives a particular solution.  :func:`unit_reduce` is its
unit-only front end: it takes the ±1 pivots in a fill-reducing order,
carrying a block too when asked, and leaves the rest to
:func:`smith_eliminate`.  Both update rows through one kernel,
:func:`_add_indexed`, which keeps their column→rows index exact.
:func:`hermite_rows` puts a lattice basis in the one form that does not
depend on the elimination that found it, and :func:`lattice_coordinates`
reads a vector's coordinates in that basis, or finds it off the lattice:
integer row-span membership is the two together.  :func:`exact` reads
every number that enters the package, to MAX_RATIONAL_DIGITS digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import InputError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

MAX_RATIONAL_DIGITS = 100


def shorten(text: str) -> str:
    """text as an error message quotes it: cut to 20 characters past 24."""
    return text if len(text) <= 24 else text[:20] + "..."


def _refuse_digits(text: str, digits: int) -> None:
    if digits > MAX_RATIONAL_DIGITS:
        raise ValueError(f"{shorten(text)!r} has more than {MAX_RATIONAL_DIGITS} digits")


def parse_rational(token: str) -> Fraction:
    """Fraction of a decimal or "p/q" token, refused (ValueError) before it
    is built if its digits, plus a decimal exponent, pass MAX_RATIONAL_DIGITS:
    "1e999999999" costs nothing, and every report can print what it derives."""
    text = token.strip()
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.replace("_", "").lstrip("+-").lstrip("0")
    digits = sum(map(str.isdecimal, mantissa))
    if exponent.isdecimal():
        digits += int(exponent) if len(exponent) < 10 else MAX_RATIONAL_DIGITS + 1
    _refuse_digits(text, digits)
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {shorten(text)!r}") from None


def parse_integer(token: str) -> int:
    """int of a token, refused (ValueError) past MAX_RATIONAL_DIGITS digits as
    parse_rational refuses, so that sums of such values stay printable."""
    if len(token) > MAX_RATIONAL_DIGITS:  # digits are counted only when they can pass
        _refuse_digits(token, sum(map(str.isdecimal, token)))
    return int(token)


def exact(value, what: str) -> Fraction:
    """value as a Fraction: a str by parse_rational, a float or a bool
    refused, anything else by Fraction, to MAX_RATIONAL_DIGITS digits.  A
    refusal is an InputError "bad {what} {value, shortened!r}: {reason}"."""
    try:
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, (float, bool)):
            raise TypeError(f"{type(value).__name__} is not an exact number")
        x = Fraction(value)
        if max(abs(x.numerator), x.denominator) >= 10**MAX_RATIONAL_DIGITS:
            raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits")
        return x
    except (TypeError, ValueError, ArithmeticError) as exc:
        try:
            shown = shorten(value if isinstance(value, str) else repr(value))
        except ValueError:  # CPython writes no int of more than 4300 digits
            shown = f"<long {type(value).__name__}>"
        raise InputError(f"bad {what} {shown!r}: {exc}") from exc


def exact_vec(values, what: str) -> list[Fraction]:
    """exact of each entry of values, refused unless values is iterable."""
    if not isinstance(values, Iterable):
        raise InputError(f"bad {what} list: {type(values).__name__} is not iterable")
    return [exact(x, what) for x in values]


def vec(values: Iterable) -> Vec:
    return tuple([Fraction(v) for v in values])


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple([vec(r) for r in rows])


def identity(n: int) -> Mat:
    return tuple([
        tuple([Fraction(1 if i == j else 0) for j in range(n)]) for i in range(n)
    ])


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple([dot(row, v) for row in a])


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return tuple([
        tuple([sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt])
        for row in a
    ])


# -- integer Smith normal form ------------------------------------------------

IntMat = list[list[int]]
SparseRow = dict[int, int]


def add_into(dst: SparseRow, src: Mapping[int, int], c: int) -> None:
    """dst += c * src on sparse rows, c nonzero."""
    for j, x in src.items():
        z = dst.get(j, 0) + c * x
        if z:
            dst[j] = z
        else:
            del dst[j]


def _add_indexed(
    dst: SparseRow, i: int, src: Mapping[int, int], c: int, rows_in: list[set[int]]
) -> None:
    """dst += c * src for dst the row i of a matrix, keeping its column
    index exact: rows_in[j] holds the rows with an entry in column j."""
    for j, x in src.items():
        z = dst.get(j)
        if z is None:
            dst[j] = c * x
            rows_in[j].add(i)
        elif z + c * x:
            dst[j] = z + c * x
        else:
            del dst[j]
            rows_in[j].remove(i)


def _column_index(rows: Iterable[Mapping[int, int]], width: int) -> list[set[int]]:
    """rows_in[j]: the rows with an entry in column j."""
    rows_in: list[set[int]] = [set() for _ in range(width)]
    for i, row in enumerate(rows):
        for j in row:
            rows_in[j].add(i)
    return rows_in


def smith_eliminate(
    rows: Sequence[Mapping[int, int]],
    width: int,
    carry: Optional[Sequence[Mapping[int, int]]] = None,
    columns: bool = False,
) -> tuple[list[int], Optional[list[SparseRow]], Optional[list[SparseRow]]]:
    """Smith normal form u·a·v = d of a sparse integer matrix: the one
    integer elimination kernel of the package.

    a has width columns, and rows[i] holds the nonzero entries of its row i
    as {column: value}.  Returns (factors, y, v):

    * factors: the nonzero diagonal entries of d, in order; each is
      positive and divides the next, and their number is the rank of a.
    * y = u·carry, when carry is given: a block of len(rows) sparse rows that
      every row operation is replayed on.  The identity block gives u; a
      single column b gives u·b without ever forming u.
    * v, when columns is set: its columns, v[j] = {row: value}.

    The diagonal does not depend on the pivot order: d₁⋯d_k is the gcd of
    the k×k minors of a (Newman, *Integral Matrices*, Ch. II).  The pivot
    rule below binds only y and v.  It is part of the contract where those
    reach an output: the torsion rows of the residue that
    ``cech.chern_class`` reads, :func:`solve` and :func:`smith_normal_form`;
    the free part of a Chern class goes through :func:`hermite_rows` and
    depends on no pivot order.  Step t pivots on the
    first entry of least nonzero magnitude, in row-major order, of the
    trailing block d[t:][t:]; the search stops at the first entry equal to
    the last pivot (1 at first), since it divides every entry.  The pivot is
    swapped to (t, t) and made positive, then row t and column t are reduced
    by floor division, a unit pivot as any other.  Nonzero remainders restart
    step t; a unit leaves none.  A pivot that fails to divide some trailing
    entry (never the last pivot again) has the first such row added to row
    t, and step t restarts.

    The work follows the nonzero entries: rows and columns keep their
    identities while swaps move their positions, and a column→rows index
    finds the entries of column t.
    """
    m = len(rows)
    d = [{j: x for j, x in row.items() if x} for row in rows]
    y = None if carry is None else [dict(row) for row in carry]
    v = [{j: 1} for j in range(width)] if columns else None
    at = list(range(m))  # position -> row
    colat = list(range(width))  # position -> column
    colpos = list(range(width))  # column -> position
    rows_in = _column_index(d, width)
    skip = list(range(m + 1))  # union-find links past positions of zero rows

    def nonzero_rows(pos: int):
        """Positions from pos on that hold a nonzero row, in order.  A zero
        row stays zero, and in place until step t reaches it, so each one
        found is skipped for good."""
        while True:
            while skip[pos] != pos:
                skip[pos] = skip[skip[pos]]
                pos = skip[pos]
            if pos == m:
                return
            if d[at[pos]]:
                yield pos
            else:
                skip[pos] = pos + 1
            pos += 1

    def add_row(dst: int, src: int, c: int) -> None:
        _add_indexed(d[dst], dst, d[src], c, rows_in)
        if y is not None:
            add_into(y[dst], y[src], c)

    t = 0
    last = 1  # the last pivot, which divides every trailing entry
    while True:
        skip[t] = t  # the pivot row may move onto a zero row's position
        best = None
        for pos in nonzero_rows(t):
            row = d[at[pos]]
            least = min(map(abs, row.values()))
            if best is None or least < best[0]:
                j = min(colpos[j] for j, x in row.items() if abs(x) == least)
                best = (least, pos, j)
                if least == last:
                    break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            at[t], at[bi] = at[bi], at[t]
        if bj != t:
            ci, cj = colat[t], colat[bj]
            colat[t], colat[bj] = cj, ci
            colpos[cj], colpos[ci] = t, bj
        r, c = at[t], colat[t]
        row = d[r]
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
            if y is not None:
                y[r] = {j: -x for j, x in y[r].items()}
        p = row[c]

        for i in [i for i in rows_in[c] if i != r]:
            add_row(i, r, -(d[i][c] // p))
        # column t now holds row t and the rows left with a remainder; the
        # column operations, recorded in v, leave row t its remainders
        quotients = {j: x // p for j, x in row.items() if j != c}
        for i in rows_in[c]:
            _add_indexed(d[i], i, quotients, -d[i][c], rows_in)
        if v is not None:
            for j, q in quotients.items():
                add_into(v[j], v[c], -q)
        if len(rows_in[c]) > 1 or len(row) > 1:
            continue  # remainders became new smaller pivot candidates

        # pivot must divide the whole trailing block for the invariant chain
        if p > last:
            rest = (at[i] for i in nonzero_rows(t + 1))
            offender = next((i for i in rest if any(x % p for x in d[i].values())), None)
            if offender is not None:
                add_row(r, offender, 1)
                continue
        last = p
        t += 1

    factors = [d[at[i]][colat[i]] for i in range(t)]
    if y is not None:
        y = [y[r] for r in at]
    if v is not None:
        v = [v[j] for j in colat]
    return factors, y, v


def unit_reduce(rows: list[SparseRow], width: int, carry: Optional[list[SparseRow]] = None):
    """Eliminate ±1 pivots only, ahead of :func:`smith_eliminate`: the
    unit-pivots-first scheme of Dumas, Saunders and Villard (J. Symbolic
    Comput. 2001) in the fill-reducing order of Markowitz (1957).

    Rows are taken shortest first, and in each row the unit column that the
    fewest rows hold.  Its other rows are cleared by the pivot row, then the
    pivot's row and column are dropped: a ±1 splits off as a direct summand.
    Returns (units, residue, residue_width), where the residue holds the
    nonzero rows left, on the columns that still hold an entry, renumbered
    in order.  The invariant factors of the matrix are [1] * units followed
    by those of the residue.  The rows are reduced in place, so a caller
    passes rows it does not read again; a stored zero is carried as an
    entry, never taken as a pivot.

    carry, a block of len(rows) sparse rows, has every row operation
    replayed on it in place, and two lists follow the three results: the
    carried rows of the residue rows, in their order, and those of the
    rows that became zero without being a pivot.  With carry the identity,
    each carried row times the matrix is the row as reduced, so the zero
    rows' carried rows lie in its left kernel.  A pivot's carried row is
    set to None once its column is cleared, as nothing reads it again.
    """
    rows_in = _column_index(rows, width)
    # waiting[n] stacks the rows queued at length n = queued[i], row 0 on
    # top at the start.  A row that shrank is queued again at once; one that
    # grew, when it comes up at its old length; one that held no unit, when
    # it changes.
    queued = list(map(len, rows))
    waiting: list[list[int]] = [[] for _ in range(width + 1)]
    for i in reversed(range(len(rows))):
        waiting[queued[i]].append(i)
    units = n = 0
    while n <= width:
        if not waiting[n]:
            n += 1
            continue
        r = waiting[n].pop()
        row = rows[r]
        if n != queued[r] or not row:
            continue
        if len(row) > n:
            queued[r] = len(row)
            waiting[queued[r]].append(r)
            continue
        c = None
        for j, x in row.items():
            if (x == 1 or x == -1) and (c is None or len(rows_in[j]) < least):
                c, least = j, len(rows_in[j])
        if c is None:
            queued[r] = width + 1
            continue
        units += 1
        rows[r] = None  # a pivot row, told apart from the rows that become {}
        p = row.pop(c)
        for j in row:
            rows_in[j].remove(r)
        col = rows_in[c]
        col.remove(r)
        if carry is not None:
            for i in col:
                if rows[i][c]:  # a stored zero needs no carried update
                    add_into(carry[i], carry[r], -rows[i][c] * p)
            carry[r] = None
        for i in col:
            other = rows[i]
            _add_indexed(other, i, row, -other.pop(c) * p, rows_in)
            if other and len(other) < queued[i]:
                queued[i] = len(other)
                waiting[queued[i]].append(i)
                n = min(n, queued[i])
        col.clear()
    kept = {j: t for t, j in enumerate([j for j in range(width) if rows_in[j]])}
    residue = [{kept[j]: x for j, x in row.items()} for row in rows if row]
    if carry is None:
        return units, residue, len(kept)
    return (units, residue, len(kept), [carry[i] for i, row in enumerate(rows) if row],
            [carry[i] for i, row in enumerate(rows) if row == {}])


def hermite_rows(rows: Iterable[Mapping[int, int]]) -> list[SparseRow]:
    """Row Hermite normal form of the lattice that the sparse integer rows
    span: its nonzero rows in echelon order, each with a positive leading
    entry, its pivot, and every entry above a pivot in [0, pivot).  It is
    unique for the lattice (Cohen, *A Course in Computational Algebraic
    Number Theory*, §2.4.2), so it does not depend on how the rows came."""
    rest = [dict(row) for row in rows if row]
    waiting: dict[int, list[int]] = {}  # leading column -> rows, a bucket queue
    for i, row in enumerate(rest):
        waiting.setdefault(min(row), []).append(i)
    out: list[SparseRow] = []
    holders: dict[int, list[SparseRow]] = {}  # column -> rows of out that may hold it
    for j in range(1 + max([max(row) for row in rest], default=-1)):
        col = waiting.pop(j, None)
        if col is None:
            continue
        while len(col) > 1:  # Euclid on column j; a row it clears waits for its next column
            p = rest[min(col, key=lambda i: abs(rest[i][j]))]
            for i in col:
                if rest[i] is not p:
                    add_into(rest[i], p, -(rest[i][j] // p[j]))
                    if j not in rest[i] and rest[i]:
                        waiting.setdefault(min(rest[i]), []).append(i)
            col = [i for i in col if j in rest[i]]
        p = rest[col[0]]
        if p[j] < 0:
            for k in p:
                p[k] = -p[k]
        changed = [p]
        for row in holders.pop(j, []):
            if q := row.get(j, 0) // p[j]:
                add_into(row, p, -q)
                changed.append(row)
        for row in changed:
            for k in p:
                holders.setdefault(k, []).append(row)
        out.append(p)
    return out


def lattice_coordinates(basis: list[SparseRow]) -> Callable[[SparseRow], Optional[SparseRow]]:
    """Coordinates in a row Hermite basis (:func:`hermite_rows`): a function
    that gives {i: c_i} with vector = sum of c_i * basis[i], for a vector
    held by its nonzero entries, or None when it is off the lattice.  Each
    leading entry left is cleared by the basis row whose pivot it is."""
    row_at = {min(row): (i, row) for i, row in enumerate(basis)}

    def coordinates(vector: Mapping[int, int]) -> Optional[SparseRow]:
        rest, coords = dict(vector), {}
        while rest:
            j = min(rest)
            if j not in row_at:
                return None
            i, row = row_at[j]
            q, r = divmod(rest[j], row[j])
            if r:
                return None
            coords[i] = q
            add_into(rest, row, -q)
        return coords

    return coordinates


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transforms: returns (d, u, v) with u·a·v = d.

    u and v are unimodular; d is diagonal with non-negative entries and
    d[i][i] divides d[i+1][i+1].  The dense entry point to
    :func:`smith_eliminate`, whose pivot rule fixes u and v.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    factors, u, v = smith_eliminate(
        [{j: int(x) for j, x in enumerate(row) if x} for row in a],
        n,
        carry=[{i: 1} for i in range(m)],
        columns=True,
    )
    d = [[0] * n for _ in range(m)]
    for i, x in enumerate(factors):
        d[i][i] = x
    return (
        d,
        [[row.get(j, 0) for j in range(m)] for row in u],
        [[col.get(i, 0) for col in v] for i in range(n)],
    )


def _integer_rows(a: Mat) -> list[SparseRow]:
    """Rows of a, each times the lcm of its denominators, as sparse rows."""
    scales = [math.lcm(*[x.denominator for x in row]) for row in a]
    return [{j: int(x * c) for j, x in enumerate(row) if x} for row, c in zip(a, scales)]


def rank(a: Mat) -> int:
    """Rank over Q: the number of invariant factors of the scaled rows."""
    if not a:
        return 0
    return len(smith_eliminate(_integer_rows(a), len(a[0]))[0])


def solve(a: Mat, b: Vec) -> Optional[Vec]:
    """One exact solution x of A x = b, or None if the system is inconsistent.

    Each row of [A | b] is scaled to integers, and u·A·v = d turns the
    system into d z = u·b with x = v z.  When the solution space has positive
    dimension the free variables are zero in that Smith basis (z_i = 0 past
    the rank), which keeps the result deterministic.
    """
    if len(b) != len(a):
        raise ValueError(f"dimension mismatch: {len(a)} rows vs {len(b)} right-hand entries")
    if not a:
        return ()
    n = len(a[0])
    rows = _integer_rows(tuple([tuple(row) + (bi,) for row, bi in zip(a, b)]))
    carry = [{0: row.pop(n)} if n in row else {} for row in rows]
    factors, ub, v = smith_eliminate(rows, n, carry, columns=True)
    if any(ub[len(factors):]):
        return None
    x = [Fraction(0)] * n
    for d, row, col in zip(factors, ub, v):
        z = Fraction(row.get(0, 0), d)
        for i, vi in col.items():
            x[i] += vi * z
    return tuple(x)


def in_integer_row_span(gens: Mat, target: Vec) -> bool:
    """Whether target lies in the set of integer combinations of gens' rows.

    gens may have rational entries; everything is scaled to integers first.
    """
    return _row_span_member(gens)(target)


def _row_span_member(gens: Mat) -> Callable[[Vec], bool]:
    """Membership test for the integer row span of gens, for any number of
    targets from one row Hermite basis."""
    scale = math.lcm(*[x.denominator for row in gens for x in row])
    rows = [{j: int(x * scale) for j, x in enumerate(row) if x} for row in gens]
    coordinates = lattice_coordinates(hermite_rows(rows))

    def member(target: Vec) -> bool:
        if gens and len(target) != len(gens[0]):
            raise ValueError("dimension mismatch between generators and target")
        b = [x * scale for x in target]
        if any(x.denominator != 1 for x in b):
            return False
        return coordinates({j: int(x) for j, x in enumerate(b) if x}) is not None

    return member
