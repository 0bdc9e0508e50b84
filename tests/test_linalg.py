from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitkit.linalg import (
    MAX_RATIONAL_DIGITS,
    hermite_rows,
    in_integer_row_span,
    lattice_coordinates,
    mat,
    mat_vec,
    parse_rational,
    rank,
    solve,
    vec,
)
from snf_reference import in_row_span, smith_normal_form as snf_reference

from exact_reference import _rref, kernel_basis, rref_solve

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def matrices(draw, max_size=4):
    m = draw(st.integers(min_value=1, max_value=max_size))
    n = draw(st.integers(min_value=1, max_value=max_size))
    rows = [[draw(fractions) for _ in range(n)] for _ in range(m)]
    return mat(rows)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve_finds_exact_solutions(a, data):
    n = len(a[0])
    x = vec([data.draw(fractions) for _ in range(n)])
    b = mat_vec(a, x)
    sol = solve(a, b)
    assert sol is not None
    assert mat_vec(a, sol) == b


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(a):
    for v in kernel_basis(a):
        assert all(x == 0 for x in mat_vec(a, v))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity(a):
    assert rank(a) + len(kernel_basis(a)) == len(a[0])


@st.composite
def systems(draw):
    """A 1-5 x 1-5 rational matrix whose rows past the first k are rational
    combinations of those k (so it is often rank-deficient, and all zero for
    k = 0), and a right-hand side that is either in its column span or drawn
    at random."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=m))
    base = [[draw(fractions) for _ in range(n)] for _ in range(k)]
    rows = list(base)
    while len(rows) < m:
        coeffs = [draw(fractions) for _ in base]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, base)), Fraction(0)) for j in range(n)])
    a = mat(draw(st.permutations(rows)))
    if draw(st.booleans()):
        return a, mat_vec(a, vec([draw(fractions) for _ in range(n)]))
    return a, vec([draw(fractions) for _ in range(m)])


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rank_and_solve_agree_with_the_rref_reference(system):
    a, b = system
    n = len(a[0])
    pivots = _rref(a)[1]
    assert rank(a) == len(pivots)
    consistent = n not in _rref(mat([list(row) + [bi] for row, bi in zip(a, b)]))[1]
    x = solve(a, b)
    assert (x is not None) == consistent
    if x is not None:
        assert len(x) == n and all(type(v) is Fraction for v in x)
        assert mat_vec(a, x) == b
        if len(pivots) == n:  # the solution is unique
            assert x == rref_solve(a, b)


def test_solve_detects_inconsistency():
    a = mat([[1, 0], [1, 0]])
    assert solve(a, vec([1, 2])) is None


@pytest.mark.parametrize("a, b", [([[1], [2]], [1]), ([[1]], [1, 2]), ([], [1])])
def test_solve_refuses_a_right_hand_side_of_another_length(a, b):
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve(mat(a), vec(b))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3),
)
def test_integer_combinations_are_members(rows, coeffs):
    gens = mat(rows)
    k = min(len(rows), len(coeffs))
    target = [
        sum(coeffs[i] * rows[i][j] for i in range(k)) for j in range(3)
    ]
    assert in_integer_row_span(gens, vec(target))


def test_non_members_are_rejected():
    gens = mat([[2, 0], [0, 2]])
    assert not in_integer_row_span(gens, vec([1, 0]))
    assert in_integer_row_span(gens, vec([4, -2]))
    # rational targets off the integer lattice
    assert not in_integer_row_span(gens, vec([Fraction(1, 2), 0]))


def test_rational_generators():
    gens = mat([[Fraction(1, 2), Fraction(-1, 2)]])
    assert in_integer_row_span(gens, vec([Fraction(3, 2), Fraction(-3, 2)]))
    assert not in_integer_row_span(gens, vec([Fraction(1, 4), Fraction(-1, 4)]))
    assert not in_integer_row_span(gens, vec([1, 0]))


def test_zero_width_generators():
    # the empty vector is the zero vector, an integer combination of any rows
    assert in_integer_row_span(((),), ())
    assert in_integer_row_span(((), ()), ())


@st.composite
def spans_and_targets(draw):
    """Rational generators up to 4x4, possibly none, of width 0, with zero
    rows or with a row that is a combination of others, and a target that is
    a combination of them plus, often, a small step off it."""
    n = draw(st.integers(min_value=0, max_value=4))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    coeff = st.integers(-3, 3)
    if rows and draw(st.booleans()):  # rank-deficient; a zero row when every c is 0
        cs = draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[j] for c, row in zip(cs, rows)) for j in range(n)])
    cs = draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
    target = [sum(c * row[j] for c, row in zip(cs, rows)) for j in range(n)]
    if n and draw(st.booleans()):
        step = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), 1, 2)))
        target[draw(st.integers(0, n - 1))] += step
    return rows, target


@settings(max_examples=300, deadline=None)
@given(spans_and_targets())
def test_row_span_membership_matches_the_smith_reference(case):
    rows, target = case
    assert in_integer_row_span(mat(rows), vec(target)) == in_row_span(rows, target)


@pytest.mark.parametrize(
    "token,value",
    [
        ("9" * 100, Fraction("9" * 100)),
        ("1e99", Fraction(10) ** 99),
        ("-1/" + "7" * 98, Fraction(-1, int("7" * 98))),
        ("1.5E-3", Fraction(3, 2000)),
        (" 2/3 ", Fraction(2, 3)),
        ("1e0000000000002", Fraction(100)),
    ],
)
def test_parse_rational_within_the_digit_bound(token, value):
    assert MAX_RATIONAL_DIGITS == 100
    assert parse_rational(token) == value


@pytest.mark.parametrize(
    "token",
    ["9" * 101, "1e100", "1/" + "7" * 100, "1e-100", "1.5e99", "1e1_000", "1e12345678901"],
)
def test_parse_rational_past_the_digit_bound(token):
    with pytest.raises(ValueError, match="more than 100 digits"):
        parse_rational(token)


@pytest.mark.parametrize("token", ["abc", "1/x", "1e", ""])
def test_parse_rational_refuses_what_fraction_refuses(token):
    with pytest.raises(ValueError):
        parse_rational(token)


# -- row Hermite normal form ------------------------------------------------------

@st.composite
def lattices_and_mixes(draw):
    """Integer rows up to 5x6 and a unimodular 5x5 product of elementary row
    operations, which changes the rows but not the lattice they span."""
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)]
    mix = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(0, 8)) if m > 1 else 0):
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 3)))
        mix[i] = [x + c * y for x, y in zip(mix[i], mix[j])]
    return rows, mix


def as_sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def spans(basis, rows):
    """Whether every row is an integer combination of the basis rows, by the
    Smith reference, which shares no code with hermite_rows."""
    return all(in_row_span(basis, row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(lattices_and_mixes())
def test_hermite_rows_depend_on_the_lattice_alone(case):
    rows, mix = case
    n = len(rows[0]) if rows else 1
    h = hermite_rows(as_sparse(rows))
    mixed = [[sum(c * row[j] for c, row in zip(mrow, rows)) for j in range(n)] for mrow in mix]
    assert hermite_rows(as_sparse(mixed)) == h
    # echelon, positive pivots, entries above a pivot reduced into [0, pivot)
    pivots = [min(row) for row in h]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(h, pivots)):
        assert row[p] > 0 and 0 not in row.values()
        assert all(0 <= other.get(p, 0) < row[p] for other in h[:i])
    # the same lattice: each side spans the other, and h has its rank
    dense_h = [[row.get(j, 0) for j in range(n)] for row in h]
    assert spans(dense_h, rows) and spans(rows, dense_h)
    d, _, _ = snf_reference(rows)
    assert len(h) == sum(1 for i, drow in enumerate(d) if i < n and drow[i])


def test_hermite_rows_of_a_small_lattice():
    assert hermite_rows([{0: -4, 1: 6}, {0: 6, 1: 2}, {}]) == [{0: 2, 1: 8}, {1: 22}]
    assert hermite_rows([{2: -1}, {0: 3, 2: 5}]) == [{0: 3}, {2: 1}]
    assert hermite_rows([]) == []


@settings(max_examples=200, deadline=None)
@given(lattices_and_mixes(), st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_lattice_coordinates_rebuild_a_combination(case, cs):
    rows, _ = case
    n = len(rows[0]) if rows else 1
    h = hermite_rows(as_sparse(rows))
    vector = [sum(c * row[j] for c, row in zip(cs, rows)) for j in range(n)]
    coords = lattice_coordinates(h)(as_sparse([vector])[0])
    assert [sum(c * h[i].get(j, 0) for i, c in coords.items()) for j in range(n)] == vector


def test_lattice_coordinates_off_the_lattice():
    coordinates = lattice_coordinates(hermite_rows([{0: 2, 1: 8}, {1: 22}]))
    assert coordinates({0: 4, 1: 38}) == {0: 2, 1: 1}
    assert coordinates({0: 1}) is None  # the pivot 2 does not divide 1
    assert coordinates({2: 1}) is None  # no pivot in column 2
    assert coordinates({}) == {}
