"""Hostile coordinates at the orbit library's entry points: whatever
coordinates `analyze_orbit`, `custom_lattice` and `is_integral` are given,
each returns a result or raises an `OrbitkitError`, never a bare
`ValueError`, `ZeroDivisionError`, `OverflowError` or `TypeError`.

Malformed strings, zero denominators, `None`, floats that are not finite,
non-numbers and wrong lengths are drawn beside valid rationals, some of them
with 99-digit numerators or denominators.  Library entry points do not bound
the digits of a token, so no token here writes a huge decimal exponent.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from orbitkit import (
    LatticeSpec,
    OrbitkitError,
    Weight,
    analyze_orbit,
    build_root_system,
    custom_lattice,
    is_integral,
    parse_series,
)
from orbitkit.quantize import ADJOINT, SIMPLY_CONNECTED

SC = LatticeSpec(SIMPLY_CONNECTED)
AD = LatticeSpec(ADJOINT)
SERIES = ("A1", "A2xT1", "B2", "C2xT1", "D3", "T2")
BIG = 10**99
RATIONALS = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 3), BIG,
             Fraction(1, BIG + 1), Fraction(BIG, 3))
TOKENS = RATIONALS + (
    "1/2", "-3", " 4 ", "1e5", "1_0", "١", "abc", "", " ", "1/0", "0/0", "nan", "inf",
    "½", "0x10", None, 1.5, float("nan"), float("inf"), b"1", [], (1,),
)
# whole-argument stand-ins for a list of coordinates or of generator rows
NOT_LISTS = (None, 5, "abc", "", b"12")


@lru_cache(maxsize=None)
def system(series):
    return build_root_system(parse_series(series))


def rows(entries, rs):
    """A row of entries one shorter than, as long as, or one longer than the
    ambient dimension, most often as long."""
    n = rs.ambient_dim
    return st.sampled_from((n, n, n, n - 1, n + 1)).flatmap(
        lambda k: st.lists(entries, min_size=max(k, 0), max_size=max(k, 0))
    )


@st.composite
def cases(draw):
    rs = system(draw(st.sampled_from(SERIES)))
    coords = draw(rows(st.sampled_from(TOKENS), rs) | st.sampled_from(NOT_LISTS))
    gens = draw(st.lists(rows(st.sampled_from(TOKENS) | st.sampled_from(RATIONALS), rs),
                         max_size=3) | st.sampled_from(NOT_LISTS + ([None], [[None]])))
    lam = Weight(tuple(draw(rows(st.sampled_from(RATIONALS), rs))))
    return rs, coords, gens, lam


def typed(call, *args):
    """call's result, or None when it raises an OrbitkitError; any other
    exception propagates and fails the test."""
    try:
        return call(*args)
    except OrbitkitError:
        return None


@settings(max_examples=300, deadline=None)
@given(cases())
@example((system("A1"), ["abc", "0"], [["abc", "0"]], Weight((0, 0))))
@example((system("A1"), ["1/0", "0"], [["1/0", "0"]], Weight((0,))))
@example((system("A1"), [None, 0], [[None, 0]], Weight((0, 0, 0))))
@example((system("A2xT1"), [float("inf"), 0, 0, 0], None, Weight((1, -1, 0, BIG))))
def test_orbit_entry_points_return_or_raise_a_typed_error(case):
    rs, coords, gens, lam = case
    lattices = [SC, AD]
    if (custom := typed(custom_lattice, gens, rs)) is not None:
        lattices.append(custom)
    for lattice in lattices:
        typed(analyze_orbit, rs, coords, lattice)
        typed(analyze_orbit, str(rs.spec), coords, lattice)
        typed(is_integral, lam, lattice, rs)
