"""The one-pass Cech readers against the readers they replaced.

`exact_reference` keeps the old `build_nerve`, `parse_nerve_lines`,
`parse_cochain_lines` and `make_cochain` verbatim.  Random complexes of
dimension 0-3 are written as files with shuffled lines, comments, blank
lines, repeated lines, and faces listed beside their cofaces.  The readers
must return the same nerve and cochain as the old ones, refuse a malformed
line with the same InputError (and so the same line number), and add up
repeated cochain lines as before.  The cocycle check of `chern_class` must
name the same witness as the sorted full coboundary it replaced.
"""

import itertools
import pickle
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

import exact_reference as ref
from orbitkit.cech import (
    RING_Q,
    RING_Z,
    build_nerve,
    chern_class,
    coboundary,
    coboundary_matrix,
    make_cochain,
    parse_cochain_lines,
    parse_nerve_lines,
)
from orbitkit.errors import InputError

BAD_NERVE_LINES = ("2 1", "1 1", "-1", "0 -2", "0 x", "1.5", "3 2 # unsorted")


@st.composite
def complexes(draw):
    """Top simplices of dimension 0-3 on at most 7 vertices, plus some of
    their faces, as they would be listed in a nerve file."""
    n = draw(st.integers(min_value=1, max_value=7))
    sizes = st.integers(min_value=1, max_value=min(4, n))
    tops = [
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
        for k in draw(st.lists(sizes, min_size=1, max_size=8))
    ]
    faces = [
        draw(st.sampled_from(list(itertools.combinations(s, len(s) - 1))))
        for s in tops
        if len(s) > 1 and draw(st.booleans())
    ]
    return tops + faces


@st.composite
def file_lines(draw, records: list[str]):
    """The records, some repeated, shuffled among comments and blank lines,
    some with a trailing comment or extra blanks."""
    lines = list(records)
    lines += [r for r in records if draw(st.integers(0, 3)) == 0]
    noise = st.sampled_from(("", "   ", "# comment", "  # indented comment", "\t"))
    lines += draw(st.lists(noise, max_size=4))
    lines = list(draw(st.permutations(lines)))
    decorate = st.sampled_from(("{}", "  {}  ", "{}  # note", "{}\t"))
    return [draw(decorate).format(line) for line in lines]


def outcome(fn, *args):
    """A reader's result, or the message of its InputError."""
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def typed(cochain):
    """Cochain with each value paired with its type: 1 == Fraction(1)."""
    if isinstance(cochain, str):
        return cochain
    values = {s: (type(x), x) for s, x in cochain.values.items()}
    return cochain.degree, cochain.ring, values


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nerve_readers_match_the_reference(data):
    simplices = data.draw(complexes())
    nerve = build_nerve(simplices)
    assert nerve == ref.build_nerve(simplices)
    lines = data.draw(file_lines([" ".join(map(str, s)) for s in simplices]))
    assert parse_nerve_lines(lines) == ref.parse_nerve_lines(lines) == nerve


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_malformed_nerve_line_is_refused_like_the_reference(data):
    simplices = data.draw(complexes())
    lines = data.draw(file_lines([" ".join(map(str, s)) for s in simplices]))
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, data.draw(st.sampled_from(BAD_NERVE_LINES)))
    got = outcome(parse_nerve_lines, lines)
    assert isinstance(got, str)
    assert got == outcome(ref.parse_nerve_lines, lines)


@pytest.mark.parametrize(
    "simplices",
    [[()], [(0, -1)], [(1, 0)], [(0, 0)], [(0, 1.0)], [(0, "1")], [(0, 1), (2,), (3, 3)]],
)
def test_build_nerve_refuses_like_the_reference(simplices):
    got = outcome(build_nerve, simplices)
    assert isinstance(got, str)
    assert got == outcome(ref.build_nerve, simplices)


def test_an_empty_nerve_file_is_refused_like_the_reference():
    lines = ["# nothing", "", "   "]
    assert outcome(parse_nerve_lines, lines) == outcome(ref.parse_nerve_lines, lines)
    assert build_nerve([]) == ref.build_nerve([])


@st.composite
def cochain_files(draw, nerve, degree, ring):
    """Lines of a cochain file on the degree-simplices of nerve, with
    simplices listed more than once."""
    simplices = nerve.of_dim(degree)
    if ring == RING_Z:
        value = st.integers(-9, 9).map(str)
    else:
        value = st.tuples(st.integers(-9, 9), st.integers(1, 6)).map("{0[0]}/{0[1]}".format)
    records = [
        " ".join(map(str, s)) + " " + draw(value)
        for s in draw(st.lists(st.sampled_from(simplices), max_size=12))
    ] if simplices else []
    return draw(file_lines(records))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cochain_readers_match_the_reference(data):
    nerve = build_nerve(data.draw(complexes()))
    degree = data.draw(st.integers(0, nerve.dimension))
    ring = data.draw(st.sampled_from((RING_Z, RING_Q)))
    lines = data.draw(cochain_files(nerve, degree, ring))
    got = parse_cochain_lines(lines, nerve, degree, ring)
    assert typed(got) == typed(ref.parse_cochain_lines(lines, nerve, degree, ring))
    values = {s: x for s, x in got.values.items() if x}
    assert typed(make_cochain(nerve, degree, values, ring)) == typed(
        ref.make_cochain(nerve, degree, values, ring)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_malformed_cochain_line_is_refused_like_the_reference(data):
    nerve = build_nerve(data.draw(complexes()))
    degree = data.draw(st.integers(0, nerve.dimension))
    ring = data.draw(st.sampled_from((RING_Z, RING_Q)))
    lines = data.draw(cochain_files(nerve, degree, ring))
    some = nerve.of_dim(degree)[0]
    bad = data.draw(st.sampled_from((
        "7",  # no value
        " ".join(map(str, some)) + " x",
        " ".join(map(str, some)) + " 1/0",
        " ".join(map(str, some)) + " 1.5",
        " ".join(map(str, some + (some[-1] + 1,))) + " 1",  # wrong degree
        " ".join(str(v + 7) for v in some) + " 1",  # not in the nerve
        "a " * (degree + 1) + "1",
    )))
    lines.insert(data.draw(st.integers(0, len(lines))), bad)
    args = (lines, nerve, degree, ring)
    assert outcome(parse_cochain_lines, *args) == outcome(ref.parse_cochain_lines, *args)


def test_an_unknown_ring_is_refused_before_any_line_is_read():
    def lines():
        raise AssertionError("a cochain line was read")
        yield

    nerve = build_nerve([(0, 1, 2)])
    with pytest.raises(InputError, match="unknown ring 'R'"):
        parse_cochain_lines(lines(), nerve, 2, "R")


def test_repeated_cochain_lines_add_up():
    nerve = build_nerve([(0, 1, 2, 3)])
    lines = ["0 1 2 4", "1 2 3 -1", "0 1 2 -1  # again", "", "0 1 2 5", "1 2 3 -1"]
    got = parse_cochain_lines(lines, nerve, 2)
    assert got == ref.parse_cochain_lines(lines, nerve, 2)
    assert got.values[(0, 1, 2)] == 8 and got.values[(1, 2, 3)] == -2
    assert all(type(x) is int for x in got.values.values())


def test_index_of_is_a_read_only_view():
    nerve = build_nerve([(0, 1, 2)])
    index = nerve.index_of(1)
    assert isinstance(index, MappingProxyType)
    assert dict(index) == {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    with pytest.raises(TypeError):
        index[(0, 1)] = 5
    assert nerve.index_of(1) == index
    assert dict(nerve.index_of(3)) == dict(nerve.index_of(-1)) == {}
    # the cached maps travel with the nerve
    assert pickle.loads(pickle.dumps(nerve)).index_of(2) == {(0, 1, 2): 0}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coboundary_matrix_applies_the_alternating_face_sum(data):
    nerve = build_nerve(data.draw(complexes()))
    k = data.draw(st.integers(0, nerve.dimension))
    values = {s: data.draw(st.integers(-5, 5)) for s in nerve.of_dim(k)}
    column = [values[s] for s in nerve.of_dim(k)]
    rows = coboundary_matrix(nerve, k)
    assert len(rows) == len(nerve.of_dim(k + 1))
    expected = ref.coboundary(make_cochain(nerve, k, values), nerve).values
    for s, row in zip(nerve.of_dim(k + 1), rows):
        assert sum(x * column[j] for j, x in row.items()) == expected[s]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chern_witness_is_the_first_sorted_nonzero_coboundary(data):
    n = data.draw(st.integers(4, 7))
    tets = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=4, max_size=4).map(lambda s: tuple(sorted(s))),
        min_size=1, max_size=6,
    ))
    nerve = build_nerve(tets)
    faces = nerve.of_dim(2)
    values = data.draw(st.dictionaries(st.sampled_from(faces), st.integers(-3, 3), max_size=6))
    a = make_cochain(nerve, 2, values)
    delta = coboundary(a, nerve)
    expected = next((s for s, v in sorted(delta.values.items()) if v != 0), None)
    got = chern_class(nerve, a)
    assert got.witness == expected
    assert got.valid == (expected is None)


def test_a_rational_cochain_value_past_the_digit_bound_is_refused():
    nerve = build_nerve([(0, 1, 2)])
    with pytest.raises(InputError, match="line 2: '1e5000' has more than 100 digits"):
        parse_cochain_lines(["0 1 2 1/2", "0 1 2 1e5000"], nerve, 2, RING_Q)


def test_an_integer_cochain_value_past_the_digit_bound_is_refused():
    nerve = build_nerve([(0, 1, 2)])
    at_bound = "-" + "9" * 100
    assert parse_cochain_lines([f"0 1 2 {at_bound}"], nerve, 2).values[(0, 1, 2)] == int(at_bound)
    with pytest.raises(InputError, match=r"line 2: '1{20}\.\.\.' has more than 100 digits"):
        parse_cochain_lines(["0 1 2 1", "0 1 2 " + "1" * 101], nerve, 2)
