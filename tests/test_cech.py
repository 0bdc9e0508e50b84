import itertools
import random
import time
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitkit import (
    CapExceededError,
    InputError,
    build_nerve,
    chern_class,
    coboundary,
    cohomology,
    make_cochain,
)
from orbitkit.cech import (
    RING_Q,
    RING_Z,
    Cochain,
    coboundary_matrix,
    parse_cochain_lines,
    parse_nerve_lines,
)
from orbitkit import cech, linalg
from orbitkit.linalg import hermite_rows, mat, smith_eliminate, smith_normal_form, unit_reduce

from exact_reference import _rref, det, rref_solve
from exact_reference import cohomology as reference_cohomology
from gfp_reference import rank_mod_p
from snf_reference import smith_normal_form as snf_reference

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
TETRA_BOUNDARY = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
SOLID_TETRA = TETRA_BOUNDARY + [(0, 1, 2, 3)]
# minimal 6-vertex triangulation of the real projective plane
PROJECTIVE_PLANE = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
]


# -- strategies ---------------------------------------------------------------

@st.composite
def nerves(draw):
    n_vertices = draw(st.integers(min_value=1, max_value=6))
    n_simplices = draw(st.integers(min_value=1, max_value=8))
    simplices = []
    for _ in range(n_simplices):
        size = draw(st.integers(min_value=1, max_value=min(4, n_vertices)))
        verts = draw(
            st.sets(
                st.integers(min_value=0, max_value=n_vertices - 1),
                min_size=size,
                max_size=size,
            )
        )
        simplices.append(tuple(sorted(verts)))
    return build_nerve(simplices)


@st.composite
def nerve_with_cochain(draw, degree):
    nerve = draw(nerves())
    values = {
        s: draw(st.integers(min_value=-9, max_value=9))
        for s in nerve.of_dim(degree)
    }
    return nerve, make_cochain(nerve, degree, values)


def grid_triangles(n, klein=False):
    """Triangulated n x n torus, vertex (i, j) -> i*n + j; a Klein bottle
    when the wrap in the second direction reflects the first coordinate."""

    def v(i, j):
        if j == n:
            i, j = (n - 1 - i if klein else i), 0
        return (i % n) * n + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]
    return tris


def dense(rows, width):
    """A sparse coboundary matrix as a dense list of rows."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def sparse(rows):
    """Dense rows as {column: value}; the elimination drops the zeros."""
    return [dict(enumerate(row)) for row in rows]


def sphere_facets(d):
    """Facets of the boundary of the (d+1)-simplex, a d-sphere."""
    return list(itertools.combinations(range(d + 2), d + 1))


# -- nerve construction -------------------------------------------------------

class TestBuildNerve:
    def test_triangle_boundary(self):
        nerve = build_nerve(TRIANGLE)
        assert nerve.vertex_count == 3
        assert len(nerve.of_dim(0)) == 3
        assert len(nerve.of_dim(1)) == 3
        assert len(nerve.of_dim(2)) == 0

    def test_vertex_count_counts_vertices_not_ids(self):
        big = 10**18
        lines = [f"{big} {big + 1}", f"{big + 1} {big + 7}", f"{big + 7} {big + 10**6}"]
        nerve = parse_nerve_lines(lines)
        assert nerve.vertex_count == 4 == len(nerve.of_dim(0))
        assert nerve == build_nerve([tuple(map(int, line.split())) for line in lines])

    def test_tetrahedron_boundary(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        assert len(nerve.of_dim(0)) == 4
        assert len(nerve.of_dim(1)) == 6
        assert len(nerve.of_dim(2)) == 4
        assert len(nerve.of_dim(3)) == 0

    def test_solid_tetrahedron(self):
        nerve = build_nerve(SOLID_TETRA)
        assert len(nerve.of_dim(3)) == 1

    def test_downward_closure_from_top_simplex_only(self):
        nerve = build_nerve([(0, 1, 2, 3)])
        assert len(nerve.of_dim(2)) == 4
        assert len(nerve.of_dim(1)) == 6
        assert len(nerve.of_dim(0)) == 4

    def test_rejects_unsorted(self):
        with pytest.raises(InputError):
            build_nerve([(1, 0)])

    def test_rejects_repeats(self):
        with pytest.raises(InputError):
            build_nerve([(0, 0)])

    def test_deterministic_ordering(self):
        nerve = build_nerve([(0, 2), (0, 1), (1, 2)])
        assert nerve.of_dim(1) == ((0, 1), (0, 2), (1, 2))

    def test_parse_lines_with_comments(self):
        text = "# a triangle\n0 1\n1 2  # last edge follows\n0 2\n\n"
        nerve = parse_nerve_lines(text.splitlines())
        assert len(nerve.of_dim(1)) == 3

    def test_parse_lines_reports_line_number(self):
        with pytest.raises(InputError) as err:
            parse_nerve_lines(["0 1", "2 x"])
        assert "line 2" in str(err.value)


# -- size bound ---------------------------------------------------------------

def closure_size(simplices):
    return len({f for s in simplices for k in range(1, len(s) + 1)
                for f in itertools.combinations(s, k)})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=9).map(sorted), min_size=1,
             max_size=6),
    st.integers(0, 700),
)
def test_the_simplex_bound_refuses_exactly_the_nerves_past_it(simplices, limit):
    full = build_nerve(simplices)
    assert sum(map(len, full.simplices)) == closure_size(simplices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cech, "MAX_SIMPLICES", limit)
        if closure_size(simplices) > limit:
            with pytest.raises(CapExceededError, match=f"more than {limit} simplices"):
                build_nerve(simplices)
        else:
            assert build_nerve(simplices) == full


def relabelled_torus_triangles(n):
    perm = random.Random(n).sample(range(n * n), n * n)
    return [tuple(sorted(perm[x] for x in s)) for s in grid_triangles(n)]


@pytest.mark.parametrize("n", [4, 7])
def test_a_torus_at_the_simplex_bound_is_built(n, monkeypatch):
    triangles = relabelled_torus_triangles(n)
    full = build_nerve(triangles)
    size = sum(map(len, full.simplices))
    assert size == 6 * n * n  # n^2 vertices, 3n^2 edges, 2n^2 triangles
    # 7 faces per triangle pass the second cap, but the closure fits both
    for cap in (size, 7 * len(triangles) - 1):
        monkeypatch.setattr(cech, "MAX_SIMPLICES", cap)
        assert build_nerve(triangles) == full


def test_a_solid_tetrahedron_listing_its_faces_at_the_simplex_bound_is_built(monkeypatch):
    # each level holds, before it is closed, every face the lines above add
    simplices = [s for k in range(1, 5) for s in itertools.combinations(range(4), k)]
    full = build_nerve(simplices)
    monkeypatch.setattr(cech, "MAX_SIMPLICES", 15)
    assert build_nerve(simplices) == full


@pytest.mark.parametrize("n", [4, 7])
def test_a_torus_one_past_the_simplex_bound_is_refused(n, monkeypatch):
    monkeypatch.setattr(cech, "MAX_SIMPLICES", 6 * n * n - 1)
    with pytest.raises(CapExceededError) as err:
        build_nerve(relabelled_torus_triangles(n))
    assert str(err.value) == f"the nerve has more than {6 * n * n - 1} simplices"


@pytest.mark.parametrize("n", [20, 30, 40])
def test_a_line_of_n_vertices_is_refused_before_its_faces_are_built(n):
    # its closure has 2^n - 1 faces; a 30-vertex line ran out of memory
    with pytest.raises(CapExceededError, match=f"more than {cech.MAX_SIMPLICES}"):
        parse_nerve_lines([" ".join(map(str, range(n)))])


# -- coboundary ---------------------------------------------------------------

class TestCoboundary:
    def test_constant_on_connected_nerve(self):
        nerve = build_nerve(TRIANGLE)
        c = make_cochain(nerve, 0, {s: 5 for s in nerve.of_dim(0)})
        d = coboundary(c, nerve)
        assert all(v == 0 for v in d.values.values())

    def test_vertex_indicator_on_triangle(self):
        nerve = build_nerve(TRIANGLE)
        c = make_cochain(nerve, 0, {(0,): 1})
        d = coboundary(c, nerve)
        # (delta c)_{jk} = c_k - c_j
        assert d.values[(0, 1)] == -1
        assert d.values[(0, 2)] == -1
        assert d.values[(1, 2)] == 0
        dd = coboundary(d, nerve)
        assert dd.values == {}

    def test_random_one_cochain_on_solid_tetra(self):
        nerve = build_nerve(SOLID_TETRA)
        rng = random.Random(0)
        c = make_cochain(
            nerve, 1, {s: rng.randint(-9, 9) for s in nerve.of_dim(1)}
        )
        dd = coboundary(coboundary(c, nerve), nerve)
        assert all(v == 0 for v in dd.values.values())

    def test_values_are_read_only(self):
        nerve = build_nerve(TRIANGLE)
        for c in (make_cochain(nerve, 0, {(0,): 1}),
                  coboundary(make_cochain(nerve, 0, {(0,): 1}), nerve)):
            s = next(iter(c.values))
            with pytest.raises(TypeError):
                c.values[s] = 5

    def test_degree_beyond_dimension_is_empty(self):
        nerve = build_nerve(TRIANGLE)
        c = make_cochain(nerve, 1, {})
        d = coboundary(c, nerve)
        assert d.degree == 2
        assert d.values == {}

    def test_integer_ring_refuses_non_integers(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        for value in (Fraction(1, 2), Fraction(5, 2), "7/3"):
            with pytest.raises(InputError, match="not an integer"):
                make_cochain(nerve, 2, {(0, 1, 2): value})
        # an integer given as a Fraction is still an integer
        c = make_cochain(nerve, 2, {(0, 1, 2): Fraction(4, 2)})
        assert c.values[(0, 1, 2)] == 2 and type(c.values[(0, 1, 2)]) is int

    @pytest.mark.parametrize("ring", [RING_Z, RING_Q])
    @pytest.mark.parametrize("value", [2.7, 2.0])
    def test_floats_are_refused_on_both_rings(self, ring, value):
        nerve = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError, match="float"):
            make_cochain(nerve, 2, {(0, 1, 2): value}, ring)

    @pytest.mark.parametrize("ring", [RING_Z, RING_Q])
    @pytest.mark.parametrize(
        "value, reason",
        [
            # a cochain canonical_json could not write
            ("2e5000", "more than 100 digits"),
            (10**100, "more than 100 digits"),
            (True, "bool is not an exact number"),  # was read as 1
        ],
    )
    def test_values_are_read_as_every_number_is(self, ring, value, reason):
        nerve = build_nerve(PROJECTIVE_PLANE)
        with pytest.raises(InputError, match=reason):
            make_cochain(nerve, 2, {(0, 1, 4): value}, ring)
        assert make_cochain(nerve, 2, {(0, 1, 4): 10**100 - 1}, ring).values[(0, 1, 4)] == 10**100 - 1

    def test_rational_ring_keeps_fractions(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        c = make_cochain(nerve, 2, {(0, 1, 2): Fraction(1, 2), (0, 1, 3): "-3/4"}, RING_Q)
        assert c.values[(0, 1, 2)] == Fraction(1, 2)
        assert c.values[(0, 1, 3)] == Fraction(-3, 4)

    def test_unreadable_value_is_an_input_error(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError):
            make_cochain(nerve, 2, {(0, 1, 2): "two"})

    def test_a_decimal_on_z_is_named_as_given(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError, match=r"^value 1\.5 on simplex \(0, 1, 2\) is not an integer$"):
            make_cochain(nerve, 2, {(0, 1, 2): "1.5"})

    @pytest.mark.parametrize("values", [{(0, 1, 2): "two"}, {(0, 1, 7): 1}])
    def test_an_unknown_ring_is_named_before_any_value_or_key(self, values):
        nerve = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError, match="unknown ring 'R'"):
            make_cochain(nerve, 2, values, "R")

    def test_alternating_evaluation(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        c = make_cochain(nerve, 2, {(0, 1, 2): 7})
        assert c.value((0, 1, 2)) == 7
        assert c.value((1, 0, 2)) == -7
        assert c.value((2, 0, 1)) == 7
        assert c.value((0, 0, 1)) == 0

    def test_degree_two_alternating_sum_expansion(self):
        # (delta a)_{jklm} = a_klm - a_jlm + a_jkm - a_jkl on the solid simplex
        nerve = build_nerve(SOLID_TETRA)
        rng = random.Random(1)
        vals = {s: rng.randint(-9, 9) for s in nerve.of_dim(2)}
        a = make_cochain(nerve, 2, vals)
        d = coboundary(a, nerve)
        j, k, l, m = 0, 1, 2, 3
        expected = (
            vals[(k, l, m)] - vals[(j, l, m)] + vals[(j, k, m)] - vals[(j, k, l)]
        )
        assert d.values[(j, k, l, m)] == expected


@settings(max_examples=120, deadline=None)
@given(nerve_with_cochain(degree=1))
def test_delta_squared_vanishes_on_random_complexes(data):
    nerve, c = data
    dd = coboundary(coboundary(c, nerve), nerve)
    assert all(v == 0 for v in dd.values.values())


@settings(max_examples=60, deadline=None)
@given(nerve_with_cochain(degree=0))
def test_delta_squared_degree_zero(data):
    nerve, c = data
    dd = coboundary(coboundary(c, nerve), nerve)
    assert all(v == 0 for v in dd.values.values())


# -- cohomology ---------------------------------------------------------------

class TestCohomology:
    def test_single_point(self):
        nerve = build_nerve([(0,)])
        assert cohomology(nerve, 0, RING_Z).free_rank == 1
        for k in (1, 2, 3):
            g = cohomology(nerve, k, RING_Z)
            assert g.free_rank == 0 and g.torsion == ()

    def test_triangle_circle(self):
        nerve = build_nerve(TRIANGLE)
        h0 = cohomology(nerve, 0, RING_Z)
        h1 = cohomology(nerve, 1, RING_Z)
        assert (h0.free_rank, h0.torsion) == (1, ())
        assert (h1.free_rank, h1.torsion) == (1, ())

    def test_tetrahedron_boundary_sphere(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        ranks = [cohomology(nerve, k, RING_Z).free_rank for k in range(3)]
        assert ranks == [1, 0, 1]
        assert all(cohomology(nerve, k, RING_Z).torsion == () for k in range(3))

    def test_solid_tetrahedron_contractible(self):
        nerve = build_nerve(SOLID_TETRA)
        ranks = [cohomology(nerve, k, RING_Z).free_rank for k in range(4)]
        assert ranks == [1, 0, 0, 0]

    def test_two_components(self):
        nerve = build_nerve([(0, 1), (2, 3)])
        assert cohomology(nerve, 0, RING_Z).free_rank == 2

    def test_projective_plane_torsion(self):
        nerve = build_nerve(PROJECTIVE_PLANE)
        assert [len(nerve.of_dim(k)) for k in range(3)] == [6, 15, 10]
        assert cohomology(nerve, 0, RING_Z).describe() == "Z"
        assert cohomology(nerve, 1, RING_Z).describe() == "0"
        h2 = cohomology(nerve, 2, RING_Z)
        assert (h2.free_rank, h2.torsion) == (0, (2,))
        # over the rationals the torsion is invisible
        assert cohomology(nerve, 2, RING_Q).free_rank == 0

    def test_rational_ring_matches_free_rank(self):
        for simplices in (TRIANGLE, TETRA_BOUNDARY, SOLID_TETRA, PROJECTIVE_PLANE):
            nerve = build_nerve(simplices)
            for k in range(4):
                z = cohomology(nerve, k, RING_Z)
                q = cohomology(nerve, k, RING_Q)
                assert q.free_rank == z.free_rank
                assert q.torsion == ()

    def test_describe(self):
        nerve = build_nerve(TRIANGLE)
        assert cohomology(nerve, 1, RING_Z).describe() == "Z"


class TestGoldenCohomology:
    """H^0..H^2 of closed surfaces and spheres at sizes past the toy cases."""

    def _groups(self, simplices, ring, degrees):
        nerve = build_nerve(simplices)
        return [cohomology(nerve, k, ring).describe() for k in degrees]

    @pytest.mark.parametrize(
        "simplices, ring, expected",
        [
            (grid_triangles(8), RING_Z, ["Z", "Z + Z", "Z"]),
            (grid_triangles(8, klein=True), RING_Z, ["Z", "Z", "Z/2"]),
            (grid_triangles(8, klein=True), RING_Q, ["Z", "Z", "0"]),
        ],
        ids=["torus", "klein-z", "klein-q"],
    )
    def test_surface_grid(self, simplices, ring, expected):
        assert self._groups(simplices, ring, range(3)) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sphere(self, d):
        expected = ["Z" if k in (0, d) else "0" for k in range(d + 2)]
        for ring in (RING_Z, RING_Q):
            assert self._groups(sphere_facets(d), ring, range(d + 2)) == expected


def test_coboundary_matrix_past_the_dimension_is_empty_for_any_k():
    nerve = build_nerve(PROJECTIVE_PLANE)
    k = 10**21  # a sign list of this length would not fit in memory
    assert coboundary_matrix(nerve, 2) == coboundary_matrix(nerve, k) == []
    assert cohomology(nerve, k, RING_Z).describe() == "0"
    assert dict(coboundary(make_cochain(nerve, k, {}), nerve).values) == {}


def test_a_degree_minus_one_cochain_maps_to_zero_on_every_vertex():
    nerve = build_nerve(TRIANGLE)
    assert coboundary_matrix(nerve, -1) == [{}, {}, {}]
    for ring, zero in ((RING_Z, 0), (RING_Q, Fraction(0))):
        delta = coboundary(make_cochain(nerve, -1, {}, ring), nerve)
        assert delta.degree == 0
        assert dict(delta.values) == {(0,): zero, (1,): zero, (2,): zero}
        assert all(type(x) is type(zero) for x in delta.values.values())


@settings(max_examples=100, deadline=None)
@given(nerves())
def test_invariant_factor_count_is_the_rational_rank(nerve):
    for k in range(nerve.dimension + 1):
        m, width = coboundary_matrix(nerve, k), len(nerve.of_dim(k))
        assert len(smith_eliminate(m, width)[0]) == len(_rref(mat(dense(m, width)))[1])


# the alternating sum telescopes for any ranks, so this cannot catch a wrong one
@settings(max_examples=100, deadline=None)
@given(nerves())
def test_euler_characteristic_consistency(nerve):
    by_rank = sum(
        (-1) ** k * cohomology(nerve, k, RING_Q).free_rank
        for k in range(nerve.dimension + 1)
    )
    by_count = sum(
        (-1) ** k * len(nerve.of_dim(k)) for k in range(nerve.dimension + 1)
    )
    assert by_rank == by_count


# -- smith normal form --------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-15, max_value=15), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_normal_form_properties(rows):
    d, u, v = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    # u a v = d
    ua = [[sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    assert uav == d
    # diagonal, non-negative, divisibility chain
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0 and b != 0:
            assert b % a == 0
        if a == 0:
            assert b == 0
    # unimodular transforms
    assert abs(det(mat(u))) == 1
    assert abs(det(mat(v))) == 1


@st.composite
def unit_heavy_matrices(draw):
    """Integer matrices up to 7x7 whose entries are mostly 0 and ±1, the
    entries of a coboundary matrix, with some larger ones mixed in."""
    m = draw(st.integers(min_value=0, max_value=7))
    n = draw(st.integers(min_value=0, max_value=7))
    entry = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-12, 12))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(unit_heavy_matrices())
@example([])
@example([[]])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4], [4, 2]])
def test_smith_normal_form_matches_reference(rows):
    assert smith_normal_form(rows) == snf_reference(rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from((0, 0, 2, -2, 4, 6, -6, 12, 3)), min_size=5, max_size=5),
                max_size=6))
@example([[2, 0, 0], [0, 2, 0], [0, 0, 4], [4, 6, 2]])
def test_smith_normal_form_matches_reference_when_pivots_repeat(rows):
    """Torsion-rich matrices, whose invariant factors repeat a non-unit: the
    pivot search stops at the last pivot's magnitude, and a pivot equal to
    it skips the divisibility pass, with the same (d, u, v)."""
    assert smith_normal_form(rows) == snf_reference(rows)


def test_h2_of_many_projective_planes_takes_time_linear_in_the_copies():
    """3000 disjoint copies of RP^2: every pivot of the residue is a 2, which
    the pivot search takes at once, with no rescan of the residue per pivot."""
    copies = 3000
    nerve = build_nerve([tuple(v + 6 * c for v in s) for c in range(copies) for s in PROJECTIVE_PLANE])
    start = time.perf_counter()
    group = cohomology(nerve, 2)
    elapsed = time.perf_counter() - start
    assert (group.free_rank, group.torsion) == (0, (2,) * copies)
    assert elapsed < 2.0


# -- unit pivots first ----------------------------------------------------------

def unit_reduced_factors(rows, width):
    """Invariant factors through unit_reduce, on a copy of the rows, and the
    elimination of its residue."""
    units, residue, rest = unit_reduce([dict(row) for row in rows], width)
    assert all(0 <= j < rest for row in residue for j in row)
    return [1] * units + smith_eliminate(residue, rest)[0]


@pytest.mark.parametrize(
    "rows, width, reduced",
    [
        # no unit: the matrix is the residue
        ([{0: 2, 1: 4}, {0: 6, 1: 8}], 2, (0, [{0: 2, 1: 4}, {0: 6, 1: 8}], 2)),
        # zero rows, the pivot's column and the column that cancels are
        # dropped, and the one left is renumbered
        ([{}, {0: 2, 1: 1, 2: 4}, {}, {0: 6, 1: 3, 2: 2}], 3, (1, [{0: -10}], 1)),
        ([{}, {0: 3}, {}], 2, (0, [{0: 3}], 1)),
        # row 0 holds no unit when it comes up, and is taken again once it
        # gains one at its old length
        ([{0: 2, 1: 3}, {0: 1, 1: 1, 2: 1}, {2: 2, 3: 3}], 4, (2, [{0: 2, 1: 3}], 2)),
        ([{}, {}], 0, (0, [], 0)),  # width 0
        ([], 3, (0, [], 0)),  # no rows
        # two rows of one length: row 0 is pivoted first and clears row 1,
        # which would leave {0: -2} the other way round
        ([{0: 1, 1: 2}, {0: 1, 1: 4}], 2, (1, [{0: 2}], 1)),
    ],
)
def test_unit_reduce_on_edge_cases(rows, width, reduced):
    assert unit_reduced_factors(rows, width) == smith_eliminate(rows, width)[0]
    assert unit_reduce(rows, width) == reduced


def carried_unit_reduce(rows, width):
    """unit_reduce of a copy of the rows with the identity carried."""
    identity = [{i: 1} for i in range(len(rows))]
    return unit_reduce([dict(row) for row in rows], width, identity)


def times(carried, rows, width):
    """The sparse row carried times the matrix, as a dense row."""
    out = [0] * width
    for i, c in carried.items():
        for j, x in rows[i].items():
            out[j] += c * x
    return out


@settings(max_examples=300, deadline=None)
@given(unit_heavy_matrices())
@example([[0, 0], [1, 1], [1, 1], [2, 2]])  # a zero row from the start and one made
@example([[2, 4], [4, 2]])  # no unit: the carried rows are the identity
@example([])
def test_carried_rows_times_the_matrix_are_the_reduced_rows(dense_rows):
    width = len(dense_rows[0]) if dense_rows else 0
    rows = [{j: x for j, x in enumerate(row) if x} for row in dense_rows]
    units, residue, rest, carried, zeros = carried_unit_reduce(rows, width)
    # without carry the results are the same, and cohomology reads those
    assert unit_reduce([dict(row) for row in rows], width) == (units, residue, rest)
    assert len(carried) == len(residue) and units + len(residue) + len(zeros) == len(rows)
    products = [times(c, rows, width) for c in carried]
    kept = [j for j in range(width) if any(p[j] for p in products)]
    assert rest == len(kept)
    assert residue == [{t: p[j] for t, j in enumerate(kept) if p[j]} for p in products]
    for z in zeros:
        assert times(z, rows, width) == [0] * width
    # the zero rows and the residue's left kernel give the whole left kernel
    rank = len(smith_eliminate(rows, width)[0])
    assert len(zeros) + len(residue) - len(smith_eliminate(residue, rest)[0]) == len(rows) - rank


def test_a_carry_passes_over_a_stored_zero():
    # a stored zero in the pivot's column clears with coefficient 0
    assert unit_reduce([{0: 1}, {0: 0, 1: 2}], 2, [{0: 1}, {1: 1}]) == (
        1, [{0: 2}], 1, [{1: 1}], []
    )


@st.composite
def matrices_with_stored_zeros(draw):
    """unit_heavy_matrices() as sparse rows that store some of their zeros,
    with their width."""
    dense_rows = draw(unit_heavy_matrices())
    rows = [{j: x for j, x in enumerate(row) if x or draw(st.booleans())} for row in dense_rows]
    return rows, len(dense_rows[0]) if dense_rows else 0


@settings(max_examples=300, deadline=None)
@given(matrices_with_stored_zeros())
@example(([{0: 1}, {0: 0, 1: 2}], 2))
@example(([{0: 0, 1: 1}, {0: 0}, {0: 1, 1: 1}, {1: 0}], 2))
def test_a_carry_over_stored_zeros_keeps_the_results(case):
    rows, width = case
    units, residue, rest, carried, zeros = carried_unit_reduce(rows, width)
    assert unit_reduce([dict(row) for row in rows], width) == (units, residue, rest)
    for z in zeros:
        assert times(z, rows, width) == [0] * width


def relabelled_grid(n, klein, perm):
    return build_nerve(
        [tuple(sorted(perm[x] for x in s)) for s in grid_triangles(n, klein)]
    )


@st.composite
def relabelled_grids(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    return relabelled_grid(n, draw(st.booleans()), draw(st.permutations(range(n * n))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(nerves(), relabelled_grids()), st.sampled_from((0, 1, 2)))
def test_coboundary_smith_normal_form_matches_reference(nerve, k):
    a = dense(coboundary_matrix(nerve, k), len(nerve.of_dim(k)))
    assert smith_normal_form(a) == snf_reference(a)


@pytest.mark.parametrize("klein", [False, True])
@pytest.mark.parametrize("n", range(3, 9))
def test_grid_coboundary_smith_normal_form_matches_reference(n, klein):
    nerve = relabelled_grid(n, klein, random.Random(n).sample(range(n * n), n * n))
    for k in (0, 1, 2):
        a = dense(coboundary_matrix(nerve, k), len(nerve.of_dim(k)))
        assert smith_normal_form(a) == snf_reference(a)


# -- sparse elimination with a carried column -------------------------------

def reference_carry(a, column):
    """Invariant factors and u·column from the reference (d, u, v) of a."""
    d, u, _ = snf_reference(a)
    factors = [row[i] for i, row in enumerate(d) if i < len(row) and row[i]]
    return factors, [sum(x * c for x, c in zip(row, column)) for row in u]


def carry_column(rows, width, column):
    factors, y, v = smith_eliminate(rows, width, [{0: c} if c else {} for c in column])
    assert v is None
    return factors, [row.get(0, 0) for row in y]


@st.composite
def matrices_with_column(draw):
    """Integer matrices up to 12x12 with entries in {0, ±1, ±2, ±3, 4, 6}, so
    that non-unit pivots and the offender-row add occur, and a column to
    carry through the row operations."""
    m = draw(st.integers(min_value=0, max_value=12))
    n = draw(st.integers(min_value=0, max_value=12))
    entry = st.sampled_from((0, 1, -1, 2, -2, 3, -3, 4, 6))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    return rows, [draw(st.integers(min_value=-9, max_value=9)) for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(matrices_with_column())
@example(([[2, 0], [0, 3]], [1, 1]))  # pivot 2 misses 3: one offender add
@example(([[4, 6], [6, 4]], [1, -2]))
@example(([], []))
@example(([[], []], [5, 0]))
def test_carried_column_matches_reference(case):
    rows, column = case
    width = len(rows[0]) if rows else 0
    assert carry_column(sparse(rows), width, column) == reference_carry(rows, column)


@st.composite
def grid_cochains(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    nerve = relabelled_grid(n, draw(st.booleans()), draw(st.permutations(range(n * n))))
    values = [draw(st.integers(min_value=-3, max_value=3)) for _ in nerve.of_dim(2)]
    return nerve, values


@settings(max_examples=30, deadline=None)
@given(grid_cochains())
def test_grid_cochain_carried_through_coboundary_matches_reference(case):
    nerve, values = case
    rows, width = coboundary_matrix(nerve, 1), len(nerve.of_dim(1))
    assert all(len(row) == 3 for row in rows)
    assert carry_column(rows, width, values) == reference_carry(dense(rows, width), values)


def test_cohomology_and_chern_class_take_no_dense_smith_normal_form(monkeypatch):
    def refuse(a):
        raise AssertionError("dense Smith normal form on the Cech path")

    for module in (linalg, cech):
        monkeypatch.setattr(module, "smith_normal_form", refuse, raising=False)
    nerve = build_nerve(PROJECTIVE_PLANE)
    assert [cohomology(nerve, k, RING_Z).describe() for k in range(3)] == ["Z", "0", "Z/2"]
    assert chern_class(nerve, make_cochain(nerve, 2, {(0, 1, 4): 1})).torsion_coords == ((1, 2),)
    torus = relabelled_grid(6, False, random.Random(6).sample(range(36), 36))
    face = torus.of_dim(2)[0]
    assert chern_class(torus, make_cochain(torus, 2, {face: 3})).free_coords in ((3,), (-3,))


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        theirs = sympy_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        ours = smith_eliminate(sparse(rows), n)[0]
        assert ours == [int(x) for x in theirs if x != 0], rows


# -- ranks over GF(p) -----------------------------------------------------------

PRIMES = (2, 3, 5, 2**61 - 1)


def cube_tetrahedra(c):
    """Freudenthal triangulation of a c x c x c block of cubes: one
    tetrahedron per cube and order of the three unit steps."""
    tets = []
    for corner in itertools.product(range(c), repeat=3):
        for steps in itertools.permutations(range(3)):
            p = list(corner)
            verts = [tuple(p)]
            for axis in steps:
                p[axis] += 1
                verts.append(tuple(p))
            tets.append(tuple(sorted((x * (c + 1) + y) * (c + 1) + z for x, y, z in verts)))
    return tets


@st.composite
def row_scaled_matrices(draw):
    """Unit-heavy matrices with some rows scaled, so that unit pivots and
    torsion meet in one matrix."""
    rows = draw(unit_heavy_matrices())
    scales = draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=len(rows), max_size=len(rows)))
    return [[x * c for x in row] for row, c in zip(rows, scales)]


torsion_matrices = st.one_of(
    unit_heavy_matrices(),
    row_scaled_matrices(),
    # products of small matrices have larger invariant factors
    st.tuples(unit_heavy_matrices(), st.integers(0, 7)).map(
        lambda case: [[x * (case[1] + 1) for x in row] for row in case[0]]
    ),
)


def assert_ranks_mod_p(rows, width):
    """rank_p(a) = #{d_i : p does not divide d_i} for each of PRIMES, on the
    invariant factors of the ruled elimination, which unit_reduce followed by
    the elimination of its residue must reproduce; returns the factors."""
    factors = smith_eliminate(rows, width)[0]
    for p in PRIMES:
        assert rank_mod_p(rows, p) == sum(1 for d in factors if d % p), (p, factors)
    assert unit_reduced_factors(rows, width) == factors
    return factors


@settings(max_examples=300, deadline=None)
@given(torsion_matrices)
@example([[2, 4], [6, 8]])  # no unit at all
@example([[0, 0, 0], [1, -1, 3], [0, 0, 0], [2, 2, 4]])  # zero rows
@example([[], [], []])  # width 0
@example([])  # no rows
def test_ranks_mod_p_match_the_invariant_factors(rows):
    # sparse() stores the zeros, which unit_reduce carries as entries
    assert_ranks_mod_p(sparse(rows), len(rows[0]) if rows else 0)


def test_ranks_mod_p_match_on_random_products():
    rng = random.Random(5)
    for _ in range(200):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        assert_ranks_mod_p(sparse(rows), n)


GF_P_NERVES = {
    **{f"torus{n}": grid_triangles(n) for n in (3, 5, 8)},
    **{f"klein{n}": grid_triangles(n, klein=True) for n in (3, 5, 8)},
    "rp2": PROJECTIVE_PLANE,
    "cube2": cube_tetrahedra(2),
    "cube3": cube_tetrahedra(3),
}


@pytest.mark.parametrize("name", list(GF_P_NERVES))
def test_coboundary_ranks_mod_p_match_the_invariant_factors(name):
    nerve = build_nerve(GF_P_NERVES[name])
    torsion = []
    for k in range(nerve.dimension):
        rows, width = coboundary_matrix(nerve, k), len(nerve.of_dim(k))
        factors = assert_ranks_mod_p(rows, width)
        # the factors that cohomology reads, through unit_reduce
        assert cech._invariant_factors(nerve, k) == factors
        units, residue, rest = unit_reduce(coboundary_matrix(nerve, k), width)
        left = [d for d in smith_eliminate(residue, rest)[0] if d > 1]
        # every unit pivot was taken: each residue row carries a torsion factor
        assert len(residue) == len(left)
        torsion += left
    # the Klein bottle and RP^2 have H^2 = Z/2, so p = 2 drops a rank there;
    # no unit pivot can leave a 2, so it comes out of the residue
    assert torsion == ([2] if name.startswith(("klein", "rp2")) else [])


# -- delta_0 off a union-find --------------------------------------------------

# small ids, spread-out ids and ids around 2^63: a union-find sized by the
# largest id + 1 could not be built
vertex_ids = st.one_of(
    st.integers(0, 9), st.integers(0, 10**6), st.integers(2**63 - 6, 2**63 + 6)
)


@st.composite
def graphs(draw):
    """A random graph on a random set of ids, often with isolated vertices
    and several components, and now and then a triangle filled in."""
    ids = sorted(draw(st.sets(vertex_ids, min_size=1, max_size=10)))
    pairs = list(itertools.combinations(ids, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    triples = list(itertools.combinations(ids, 3))
    triangles = draw(st.lists(st.sampled_from(triples), max_size=2)) if triples else []
    return build_nerve([(v,) for v in ids] + edges + triangles)


@settings(max_examples=300, deadline=None)
@given(graphs())
@example(build_nerve([(0,)]))
@example(build_nerve([(3,), (7,), (2**63 - 1, 2**63), (2**63, 2**63 + 1)]))
@example(build_nerve([(0, 1), (1, 2), (0, 2), (5, 9), (9, 2**63)]))
def test_the_union_find_factors_of_delta0_are_its_smith_factors(nerve):
    rows, width = coboundary_matrix(nerve, 0), len(nerve.of_dim(0))
    assert cech._invariant_factors(nerve, 0) == unit_reduced_factors(rows, width)
    for k in (0, 1):
        for ring in (RING_Z, RING_Q):
            assert cohomology(nerve, k, ring) == reference_cohomology(nerve, k, ring)


def test_cohomology_indexes_only_the_levels_it_eliminates():
    # every level of a surface is thin: no index map is built
    nerve = build_nerve(grid_triangles(4))
    assert [cohomology(nerve, k).describe() for k in range(3)] == ["Z", "Z + Z", "Z"]
    assert nerve._indices == {}
    # on a cube grid each edge lies in up to six triangles, so delta_1 is
    # eliminated; each triangle lies in at most two tetrahedra
    cube = build_nerve(cube_tetrahedra(2))
    assert [cohomology(cube, k).describe() for k in range(4)] == ["Z", "0", "0", "0"]
    assert set(cube._indices) == {1}
    # each level's map is {simplex: position in the sorted level}
    for k, level in enumerate(cube.simplices):
        assert cube.index_of(k) == {s: i for i, s in enumerate(level)}


def test_no_elimination_past_the_dimension(monkeypatch):
    widths = []

    def counted(rows, width, *carry):
        widths.append(width)
        return unit_reduce(rows, width, *carry)

    monkeypatch.setattr(cech, "unit_reduce", counted)
    nerve = build_nerve(grid_triangles(4))
    assert [cohomology(nerve, k).describe() for k in (1, 2, 3, 10**21)] == ["Z + Z", "Z", "0", "0"]
    assert widths == []  # delta_1 of a surface is thin; delta_2 and above have no rows
    # the solid 5-simplex: a triangle lies in three tetrahedra and an edge
    # in four triangles, a tetrahedron in two 4-simplices
    solid = build_nerve([range(6)])
    assert [cohomology(solid, k).describe() for k in (2, 3, 5, 6, 10**21)] == ["0"] * 5
    # delta_2 and delta_1 for H^2, delta_2 for H^3, nothing past it
    assert widths == [len(solid.of_dim(2)), len(solid.of_dim(1)), len(solid.of_dim(2))]


# -- delta_k off a signed union-find ------------------------------------------

def relabelled(simplices, perm):
    return [tuple(sorted(perm[x] for x in s)) for s in simplices]


@st.composite
def pieces(draw):
    """The top simplices of a relabelled piece, now and then with some
    dropped so that it has a boundary: a torus, Klein bottle or projective
    plane, a d-sphere (the boundary of the (d+1)-simplex), a cube grid, or
    a fin, three triangles on one edge."""
    kind = draw(st.sampled_from(("torus", "klein", "rp2", "sphere", "cube", "fin")))
    if kind in ("torus", "klein"):
        top = grid_triangles(draw(st.integers(3, 5)), kind == "klein")
    elif kind == "rp2":
        top = PROJECTIVE_PLANE
    elif kind == "sphere":
        top = sphere_facets(draw(st.integers(1, 4)))
    else:
        top = cube_tetrahedra(1) if kind == "cube" else [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    if draw(st.booleans()):
        drop = draw(st.sets(st.integers(0, len(top) - 1), max_size=len(top) // 3))
        top = [s for i, s in enumerate(top) if i not in drop]
    count = 1 + max(itertools.chain.from_iterable(top))
    return relabelled(top, draw(st.permutations(range(count))))


@st.composite
def unions(draw):
    """A disjoint union of one to three pieces."""
    top, offset = [], 0
    for piece in draw(st.lists(pieces(), min_size=1, max_size=3)):
        top += [tuple(v + offset for v in s) for s in piece]
        offset += 1 + max(itertools.chain.from_iterable(piece))
    return build_nerve(top)


def has_a_third_coface(nerve, k):
    """Whether some k-simplex lies in three (k+1)-simplices, counted afresh."""
    counts = Counter(f for s in nerve.of_dim(k + 1) for f in itertools.combinations(s, k + 1))
    return any(n > 2 for n in counts.values())


@settings(max_examples=150, deadline=None)
@given(unions())
@example(build_nerve(grid_triangles(3, klein=True) + [(0, 1, 9)]))  # a fin on the Klein bottle
@example(build_nerve(cube_tetrahedra(2)))
@example(build_nerve(sphere_facets(3) + [(5, 6, 7, 8)]))  # a 3-sphere beside a solid tetrahedron
def test_the_signed_union_find_factors_are_the_smith_factors(nerve):
    for k in range(nerve.dimension + 1):
        calls = []

        def counted(rows, width, *carry):
            calls.append(k)
            return unit_reduce(rows, width, *carry)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cech, "unit_reduce", counted)
            factors = cech._invariant_factors(nerve, k)
        rows = coboundary_matrix(nerve, k)
        assert factors == unit_reduced_factors(rows, len(nerve.of_dim(k))), k
        # the elimination runs exactly when some k-simplex has a third coface
        assert bool(calls) == (k > 0 and has_a_third_coface(nerve, k)), k


@st.composite
def signed_graphs(draw):
    """Edges (i, j, parity) in any order, loops too, and half-edges."""
    nodes = draw(st.integers(0, 8))
    node = st.integers(0, nodes - 1) if nodes else st.nothing()
    edges = draw(st.lists(st.tuples(node, node, st.integers(0, 1)), max_size=12 if nodes else 0))
    return nodes, edges, draw(st.lists(node, max_size=3 if nodes else 0))


@settings(max_examples=300, deadline=None)
@given(signed_graphs())
@example((3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], []))  # an odd triangle: a 2
@example((3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], [1]))
@example((4, [(0, 1, 0), (2, 3, 1), (1, 3, 1), (0, 2, 1)], []))  # linked at non-roots
def test_signed_factors_on_any_signed_graph(graph):
    nodes, edges, halves = graph
    # same sign on both ends for parity 1; a loop of parity 1 is twice its node
    rows = [({i: 2} if w else {}) if i == j else {i: 1, j: 2 * w - 1} for i, j, w in edges]
    rows += [{i: -1} for i in halves]
    assert cech._signed_factors(nodes, edges, halves) == unit_reduced_factors(rows, nodes)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_the_signed_factors_of_surfaces_are_textbook(n):
    # a closed surface's top factors: 2n^2 - 1 ones, then a 2 when it is
    # not orientable; H^2 = Z or Z/2
    for klein, last in ((False, []), (True, [2])):
        nerve = build_nerve(grid_triangles(n, klein))
        assert cech._invariant_factors(nerve, 1) == [1] * (2 * n * n - 1) + last
    rp2 = build_nerve(PROJECTIVE_PLANE)
    assert cech._invariant_factors(rp2, 1) == [1] * 9 + [2]


# -- chern class --------------------------------------------------------------

class TestCochainBuiltDirectly:
    """A Cochain built without make_cochain reads its values as make_cochain
    does; chern_class truncated 1.5, 3/2 and True to a valid class."""

    @pytest.mark.parametrize(
        "value, reason",
        [
            (1.5, "float is not an exact number"),
            (Fraction(3, 2), r"value 3/2 on simplex \(0, 1, 2\) is not an integer"),
            (True, "bool is not an exact number"),
            ("1.5", "not an integer"),  # was a bare ValueError
        ],
    )
    def test_chern_class_never_sees_a_value_it_would_truncate(self, value, reason):
        sphere = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError, match=reason):
            chern_class(sphere, Cochain(2, RING_Z, {(0, 1, 2): value}))

    @pytest.mark.parametrize("value", [2, Fraction(4, 2), "2"])
    def test_an_integer_in_any_exact_form_is_read_as_an_int(self, value):
        sphere = build_nerve(TETRA_BOUNDARY)
        c = Cochain(2, RING_Z, {(0, 1, 2): value})
        assert type(c.values[(0, 1, 2)]) is int
        assert chern_class(sphere, c).free_coords == (2,)

    def test_rational_values_are_read_exactly(self):
        c = Cochain(2, RING_Q, {(0, 1, 2): "-3/4", (0, 1, 3): 2, (0, 2, 3): Fraction(1, 3)})
        assert dict(c.values) == {(0, 1, 2): Fraction(-3, 4), (0, 1, 3): 2, (0, 2, 3): Fraction(1, 3)}
        with pytest.raises(InputError, match="float is not an exact number"):
            Cochain(2, RING_Q, {(0, 1, 2): 0.5})

    def test_unknown_ring_is_refused(self):
        with pytest.raises(InputError, match="unknown ring 'R'"):
            Cochain(2, "R", {})

    @pytest.mark.parametrize("ring", [RING_Z, RING_Q])
    def test_an_int_past_the_digit_bound_is_refused(self, ring):
        # every value, an int too, is read to MAX_RATIONAL_DIGITS digits
        with pytest.raises(InputError, match="more than 100 digits"):
            Cochain(1, ring, {(0, 1): 10**150})
        assert Cochain(1, ring, {(0, 1): 10**100 - 1}).values[(0, 1)] == 10**100 - 1

    def test_repeated_lines_adding_up_past_the_digit_bound_are_refused(self):
        sphere = build_nerve(TETRA_BOUNDARY)
        line = f"0 1 2 {9 * 10**99}"
        with pytest.raises(InputError, match="more than 100 digits"):
            parse_cochain_lines([line, line], sphere, 2)

    def test_chern_class_refuses_a_simplex_off_the_nerve(self):
        # a key outside the nerve was silently ignored
        sphere = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError, match=r"simplex \(0, 1, 4\) is not a 2-simplex"):
            chern_class(sphere, Cochain(2, RING_Z, {(0, 1, 2): 1, (0, 1, 4): 1}))


class TestChernClass:
    def test_zero_cocycle_trivial(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        cls = chern_class(nerve, make_cochain(nerve, 2, {}))
        assert cls.valid and cls.is_trivial()

    def test_single_face_generates_h2(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        for face in nerve.of_dim(2):
            cls = chern_class(nerve, make_cochain(nerve, 2, {face: 1}))
            assert cls.valid
            assert cls.torsion_coords == ()
            assert len(cls.free_coords) == 1
            assert cls.free_coords[0] in (-1, 1)

    def test_homomorphism(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        rng = random.Random(5)
        for _ in range(15):
            a_vals = {s: rng.randint(-5, 5) for s in nerve.of_dim(2)}
            b_vals = {s: rng.randint(-5, 5) for s in nerve.of_dim(2)}
            sum_vals = {s: a_vals[s] + b_vals[s] for s in a_vals}
            ca = chern_class(nerve, make_cochain(nerve, 2, a_vals))
            cb = chern_class(nerve, make_cochain(nerve, 2, b_vals))
            cs = chern_class(nerve, make_cochain(nerve, 2, sum_vals))
            assert cs.free_coords == tuple(
                x + y for x, y in zip(ca.free_coords, cb.free_coords)
            )

    def test_coboundary_invariance(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        rng = random.Random(7)
        base_vals = {s: rng.randint(-5, 5) for s in nerve.of_dim(2)}
        base = chern_class(nerve, make_cochain(nerve, 2, base_vals))
        for _ in range(20):
            b = make_cochain(
                nerve, 1, {s: rng.randint(-7, 7) for s in nerve.of_dim(1)}
            )
            db = coboundary(b, nerve)
            shifted_vals = {s: base_vals[s] + db.values[s] for s in base_vals}
            shifted = chern_class(nerve, make_cochain(nerve, 2, shifted_vals))
            assert shifted.free_coords == base.free_coords
            assert shifted.torsion_coords == base.torsion_coords

    def test_coboundary_of_one_cochain_is_trivial_class(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        rng = random.Random(9)
        for _ in range(10):
            b = make_cochain(
                nerve, 1, {s: rng.randint(-7, 7) for s in nerve.of_dim(1)}
            )
            db = coboundary(b, nerve)
            cls = chern_class(nerve, make_cochain(nerve, 2, dict(db.values)))
            assert cls.valid and cls.is_trivial()

    def test_torsion_class_on_projective_plane(self):
        # H^2 = Z/2: a single face is the nontrivial class, twice it is trivial
        nerve = build_nerve(PROJECTIVE_PLANE)
        one = chern_class(nerve, make_cochain(nerve, 2, {(0, 1, 4): 1}))
        assert one.valid
        assert one.free_coords == ()
        assert one.torsion_coords == ((1, 2),)
        two = chern_class(nerve, make_cochain(nerve, 2, {(0, 1, 4): 2}))
        assert two.valid and two.is_trivial()

    def test_half_integer_cochain_is_refused_not_truncated(self):
        # 5/2 times a face used to be read as 2 times it, a valid class
        nerve = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError):
            chern_class(nerve, make_cochain(nerve, 2, {(0, 1, 2): Fraction(5, 2)}))

    def test_invalid_cocycle_gets_witness(self):
        nerve = build_nerve(SOLID_TETRA)
        # a single-face indicator is not closed once a 3-simplex exists
        cls = chern_class(nerve, make_cochain(nerve, 2, {(0, 1, 2): 1}))
        assert not cls.valid
        assert cls.witness == (0, 1, 2, 3)

    def test_rejects_wrong_degree(self):
        nerve = build_nerve(TETRA_BOUNDARY)
        with pytest.raises(InputError):
            chern_class(nerve, make_cochain(nerve, 1, {}))


def coherent_orientation(triangles):
    """+1 or -1 per triangle of an orientable closed surface, found by walking
    across shared edges so that the two triangles on an edge induce opposite
    orientations on it; +1 on the first triangle in sorted order."""

    def boundary(t, sign):
        a, b, c = t
        return {(b, c): sign, (a, c): -sign, (a, b): sign}

    on_edge = defaultdict(list)
    for t in triangles:
        for e in itertools.combinations(t, 2):
            on_edge[e].append(t)
    first = min(triangles)
    eps, todo = {first: 1}, [first]
    while todo:
        t = todo.pop()
        for e, sign in boundary(t, eps[t]).items():
            for other in on_edge[e]:
                if other not in eps:
                    eps[other] = -sign * boundary(other, 1)[e]
                    todo.append(other)
    total = defaultdict(int)
    for t, sign in eps.items():
        for e, x in boundary(t, sign).items():
            total[e] += x
    assert len(eps) == len(triangles) and not any(total.values())
    return eps


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(n * n)))), st.data())
def test_torus_class_is_the_pairing_with_the_fundamental_cycle(case, data):
    n, perm = case
    nerve = relabelled_grid(n, False, perm)
    values = {s: data.draw(st.integers(-3, 3)) for s in nerve.of_dim(2)}
    eps = coherent_orientation(nerve.of_dim(2))
    cls = chern_class(nerve, make_cochain(nerve, 2, values))
    assert cls.valid and cls.torsion_coords == ()
    assert cls.free_coords == (sum(eps[s] * x for s, x in values.items()),)


def shifted_face(nerve, rng, m):
    """delta(b) for a random integer 1-cochain b, plus m on one face."""
    b = make_cochain(nerve, 1, {e: rng.randint(-3, 3) for e in nerve.of_dim(1)})
    values = dict(coboundary(b, nerve).values)
    values[rng.choice(nerve.of_dim(2))] += m
    return make_cochain(nerve, 2, values)


@pytest.mark.parametrize("n", range(3, 9))
def test_klein_and_projective_plane_classes_are_the_face_multiple_mod_2(n):
    rng = random.Random(n)
    klein = relabelled_grid(n, True, rng.sample(range(n * n), n * n))
    perm = rng.sample(range(6), 6)
    rp2 = build_nerve([tuple(sorted(perm[v] for v in s)) for s in PROJECTIVE_PLANE])
    for nerve in (klein, rp2):
        for m in (0, 1, -1, 2, 3, -4):
            cls = chern_class(nerve, shifted_face(nerve, rng, m))
            assert (cls.free_coords, cls.torsion_coords) == ((), ((m % 2, 2),))


@st.composite
def nerve_with_cocycles(draw):
    """A random nerve of dimension up to 3, two integer 2-cocycles on it --
    integer combinations of a basis of ker delta_2 -- and a 1-cochain."""
    nerve = draw(nerves())
    width = len(nerve.of_dim(2))
    rank, _, v = smith_eliminate(coboundary_matrix(nerve, 2), width, columns=True)

    def cocycle():
        values = [0] * width
        for col in v[len(rank):]:
            c = draw(st.integers(-3, 3))
            for i, x in col.items():
                values[i] += c * x
        return make_cochain(nerve, 2, dict(zip(nerve.of_dim(2), values)))

    b = {e: draw(st.integers(-5, 5)) for e in nerve.of_dim(1)}
    return nerve, cocycle(), cocycle(), make_cochain(nerve, 1, b)


def plus(nerve, *cochains):
    return make_cochain(nerve, 2, {
        s: sum(c.values.get(s, 0) for c in cochains) for s in nerve.of_dim(2)
    })


@settings(max_examples=150, deadline=None)
@given(nerve_with_cocycles())
def test_the_class_has_one_free_coordinate_per_free_generator(case):
    nerve, a, a2, b = case
    cls = chern_class(nerve, a)
    assert cls.valid
    assert len(cls.free_coords) == cohomology(nerve, 2).free_rank
    # a function of the class alone
    assert chern_class(nerve, plus(nerve, a, coboundary(b, nerve))) == cls
    # and additive in its free part
    both = chern_class(nerve, plus(nerve, a, a2))
    assert both.free_coords == tuple(
        [x + y for x, y in zip(cls.free_coords, chern_class(nerve, a2).free_coords)])


def reference_free_coords(nerve, a):
    """The free part through the dense reference Smith normal form of all of
    delta_1, in the same canonical bases: the Hermite basis h of the
    2-cycles, and with 3-simplices the Hermite basis of the w that vanish
    on every boundary."""
    rows = dense(coboundary_matrix(nerve, 1), len(nerve.of_dim(1)))
    d, u, _ = snf_reference(rows)
    rank = sum(1 for i, row in enumerate(d) if i < len(row) and row[i])
    cycles = hermite_rows([{j: x for j, x in enumerate(row) if x} for row in u[rank:]])
    w = [sum(a.values[s] * h.get(i, 0) for i, s in enumerate(nerve.of_dim(2)))
         for h in cycles]
    if not nerve.of_dim(3) or not cycles:
        return tuple(w)
    cols = mat([[h.get(i, 0) for h in cycles] for i in range(len(nerve.of_dim(2)))])
    bounds = [
        rref_solve(cols, [row.get(i, 0) for i in range(len(nerve.of_dim(2)))])
        for row in coboundary_matrix(nerve, 2)
    ]
    d, _, v = snf_reference([[int(x) for x in row] for row in bounds])
    rank = sum(1 for i, row in enumerate(d) if i < len(row) and row[i])
    kernel = [{i: v[i][j] for i in range(len(cycles)) if v[i][j]}
              for j in range(rank, len(cycles))]
    ann = hermite_rows(kernel)
    if not ann:
        return ()
    coords = rref_solve(mat([[k.get(i, 0) for k in ann] for i in range(len(cycles))]), w)
    return tuple([int(x) for x in coords])


@settings(max_examples=150, deadline=None)
@given(st.one_of(nerve_with_cocycles().map(lambda case: case[:2]),
                 grid_cochains().map(lambda case: (
                     case[0], make_cochain(case[0], 2, dict(zip(case[0].of_dim(2), case[1])))))))
def test_the_class_matches_the_ruled_reference(case):
    nerve, a = case
    assert chern_class(nerve, a).free_coords == reference_free_coords(nerve, a)


@pytest.mark.parametrize("c", [2, 3])
def test_a_coboundary_on_the_cube_grid_has_no_free_coordinate(c):
    rng = random.Random(c)
    perm = rng.sample(range((c + 1) ** 3), (c + 1) ** 3)
    nerve = build_nerve([tuple(sorted(perm[v] for v in s)) for s in cube_tetrahedra(c)])
    b = make_cochain(nerve, 1, {e: rng.randint(-3, 3) for e in nerve.of_dim(1)})
    cls = chern_class(nerve, make_cochain(nerve, 2, dict(coboundary(b, nerve).values)))
    assert cls.valid and cls.is_trivial()
    assert (cls.free_coords, cls.torsion_coords) == ((), ())


def test_a_hollow_cube_grid_class_pairs_with_the_cavity_sphere():
    """The 3x3x3 cube grid without its middle cube has H^2 = Z, generated by
    the dual of the cavity's boundary sphere S, so the one free coordinate
    is <a, S> up to a sign fixed once for the nerve."""
    side = 4
    middle = {(x * side + y) * side + z for x, y, z in itertools.product((1, 2), repeat=3)}
    rng = random.Random(3)
    perm = rng.sample(range(side**3), side**3)
    removed = [t for t in cube_tetrahedra(3) if set(t) <= middle]
    nerve = build_nerve([
        tuple(sorted(perm[v] for v in t)) for t in cube_tetrahedra(3) if t not in removed
    ])
    assert cohomology(nerve, 2).describe() == "Z"
    faces = [f for t in removed for f in itertools.combinations(t, 3)]
    sphere = sorted(tuple(sorted(perm[v] for v in f)) for f in faces if faces.count(f) == 1)
    eps = coherent_orientation(sphere)
    width = len(nerve.of_dim(2))
    rank, _, v = smith_eliminate(coboundary_matrix(nerve, 2), width, columns=True)
    signs = set()
    for _ in range(6):
        values = [0] * width
        for col in v[len(rank):]:
            c = rng.randint(-2, 2)
            for i, x in col.items():
                values[i] += c * x
        a = make_cochain(nerve, 2, dict(zip(nerve.of_dim(2), values)))
        (free,) = chern_class(nerve, a).free_coords
        pairing = sum(eps[s] * a.values[s] for s in sphere)
        assert abs(free) == abs(pairing)
        if pairing:
            signs.add(free // pairing)
    assert len(signs) == 1


def test_parse_cochain_lines():
    nerve = build_nerve(TETRA_BOUNDARY)
    text = "# one face\n0 1 2 3\n0 1 3 -2\n"
    c = parse_cochain_lines(text.splitlines(), nerve, degree=2)
    assert c.values[(0, 1, 2)] == 3
    assert c.values[(0, 1, 3)] == -2
    assert c.values[(0, 2, 3)] == 0


def test_parse_cochain_rejects_bad_simplex():
    nerve = build_nerve(TETRA_BOUNDARY)
    with pytest.raises(InputError) as err:
        parse_cochain_lines(["0 5 9 1"], nerve, degree=2)
    assert "line 1" in str(err.value)


def test_euler_characteristic_golden_values():
    # chi(S^1) = 0, chi(S^2) = 2: hand-checkable via simplex counts 3-3, 4-6+4
    assert len(build_nerve(TRIANGLE).of_dim(0)) - len(build_nerve(TRIANGLE).of_dim(1)) == 0
    nerve = build_nerve(TETRA_BOUNDARY)
    assert len(nerve.of_dim(0)) - len(nerve.of_dim(1)) + len(nerve.of_dim(2)) == 2
