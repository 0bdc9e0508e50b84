"""Hostile coordinates at the orbit library's entry points: whatever
coordinates `analyze_orbit`, `custom_lattice`, `is_integral`,
`weight_from_strings`, `weight_from_fundamental` and `Weight` are given,
each returns a result or raises an `OrbitkitError`, never a bare
`ValueError`, `ZeroDivisionError`, `OverflowError` or `TypeError`, and every
report built can be written by `cli.canonical_json`.

Malformed strings, zero denominators, `None`, floats, bools, non-numbers and
wrong lengths are drawn beside valid rationals, some of them with 99-digit
numerators or denominators.  Every number enters through `linalg.exact`,
which bounds a token's digits, a decimal exponent included, and a number's
numerator and denominator to 100, so tokens such as "1e99999999999" and
numbers such as 10**100 are drawn too: each is refused before it is built.
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
    default_order,
    is_integral,
    parse_series,
    weight_from_fundamental,
    weight_from_strings,
)
from orbitkit.cli import canonical_json
from orbitkit.quantize import ADJOINT, SIMPLY_CONNECTED

SC = LatticeSpec(SIMPLY_CONNECTED)
AD = LatticeSpec(ADJOINT)
SERIES = ("A1", "A2xT1", "B2", "C2xT1", "D3", "T2")
BIG = 10**99
RATIONALS = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 3), BIG,
             Fraction(1, BIG + 1), Fraction(BIG, 3))
# past the 100-digit bound, or inexact: refused wherever they are read
LONG = ("1e5000", "1e99999999999", "1e100", 10**100, -10**100, Fraction(1, 10**100))
INEXACT = (1.5, 0.0, -2.0, float("nan"), float("inf"), True, False)
TOKENS = RATIONALS + LONG + INEXACT + (
    "1/2", "-3", " 4 ", "1e5", "1e99", "1_0", "١", "abc", "", " ", "1/0", "0/0", "nan", "inf",
    "½", "0x10", None, b"1", [], (1,),
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
    k = len(default_order(rs).simple)
    coeffs = draw(st.lists(st.sampled_from(TOKENS), min_size=k, max_size=k))
    return rs, coords, gens, lam, coeffs


def typed(call, *args):
    """call's result, or None when it raises an OrbitkitError; any other
    exception propagates and fails the test."""
    try:
        return call(*args)
    except OrbitkitError:
        return None


@settings(max_examples=300, deadline=None)
@given(cases())
# the first example built a report that could not be written: a 5001-digit
# coordinate, which json output refuses past CPython's 4300-digit limit
@example((system("A1"), ["1e5000", "0"], [["1e5000", "0"]], Weight((0, 0)), [10**100]))
@example((system("A1"), ["abc", "0"], [["abc", "0"]], Weight((0, 0)), ["abc"]))
@example((system("A1"), ["1/0", "0"], [["1/0", "0"]], Weight((0,)), ["1/0"]))
@example((system("A1"), [None, 0], [[None, 0]], Weight((0, 0, 0)), [None]))
@example((system("A1"), [0.5, -0.5], [[True, -1]], Weight((0, 0)), [0.5]))
@example((system("A2xT1"), [float("inf"), 0, 0, 0], None, Weight((1, -1, 0, BIG)), [1, 1]))
@example((system("B2"), ["1e99999999999", 0], [[Fraction(1, 10**100), 0]], Weight((0, 0)),
          ["1e99999999999", False]))
def test_orbit_entry_points_return_or_raise_a_typed_error(case):
    rs, coords, gens, lam, coeffs = case
    lattices = [SC, AD]
    if (custom := typed(custom_lattice, gens, rs)) is not None:
        lattices.append(custom)
    weights = [lam, typed(weight_from_strings, coords),
               typed(weight_from_fundamental, coeffs, default_order(rs))]
    if isinstance(coords, list):
        weights.append(typed(Weight, tuple(coords)))
    for lattice in lattices:
        for series in (rs, str(rs.spec)):
            if (report := typed(analyze_orbit, series, coords, lattice)) is not None:
                canonical_json(report.to_json_dict())
        for weight in weights:
            if weight is not None:
                typed(is_integral, weight, lattice, rs)
