"""`orbitkit.frozen` against `dataclass(frozen=True)`, the decorator it
stands in for: the same construction, equality, hash and repr, and the same
refusal to assign."""

import pickle
from dataclasses import dataclass, field
from functools import cached_property

import pytest
from hypothesis import given, strategies as st

from orbitkit.frozen import frozen


@frozen
class Pair:
    a: int
    b: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))

    @cached_property
    def total(self) -> int:
        return self.a + sum(self.b)


@dataclass(frozen=True)
class PairDC:
    a: int
    b: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(self.b))


@frozen(uncompared=("tag",))
class Tagged:
    x: int
    tag: bool = False


@dataclass(frozen=True)
class TaggedDC:
    x: int
    tag: bool = field(default=False, compare=False)


ints = st.integers(-10**20, 10**20)


@given(ints, st.lists(ints, max_size=4), st.booleans())
def test_matches_the_dataclass(a, b, by_keyword):
    args, kwargs = ((), {"a": a, "b": b}) if by_keyword else ((a, b), {})
    got, want = Pair(*args, **kwargs), PairDC(*args, **kwargs)
    assert (got.a, got.b) == (want.a, want.b)
    assert hash(got) == hash(want)
    assert repr(got) == repr(want).replace("PairDC", "Pair", 1)
    assert got == Pair(a, tuple(b)) and got != Pair(a + 1, b)
    assert got != want  # another class, as between two dataclasses
    assert got.total == a + sum(b)
    assert pickle.loads(pickle.dumps(got)) == got


@given(ints, st.booleans(), st.booleans())
def test_an_uncompared_field_is_left_out_of_eq_and_hash(x, t, u):
    assert Tagged(x, t) == Tagged(x, tag=u)
    assert hash(Tagged(x, t)) == hash(TaggedDC(x, t))
    assert Tagged(x).tag is False
    assert repr(Tagged(x, t)) == repr(TaggedDC(x, t)).replace("TaggedDC", "Tagged", 1)


def test_defaults_and_post_init():
    assert Pair(1).b == ()
    assert Pair(1, [2, 3]).b == (2, 3)


def test_assignment_and_deletion_are_refused():
    p = Pair(1, (2,))
    with pytest.raises(AttributeError, match="cannot assign to field 'a'"):
        p.a = 2
    with pytest.raises(AttributeError, match="cannot assign to field 'c'"):
        p.c = 2
    with pytest.raises(AttributeError, match="cannot delete field 'b'"):
        del p.b
    assert (p.a, p.b) == (1, (2,))


@pytest.mark.parametrize("args, kwargs", [
    ((1, (), 3), {}),
    ((1,), {"a": 2}),
    ((1,), {"c": 2}),
    ((), {"a": 1, "c": 2}),
    ((), {"b": ()}),
])
def test_bad_arguments_are_a_type_error(args, kwargs):
    with pytest.raises(TypeError, match="Pair"):
        Pair(*args, **kwargs)
