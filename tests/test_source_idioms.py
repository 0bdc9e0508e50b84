"""A source rule for `src/orbitkit` that keeps a long run of reports small.

CPython builds a tuple from an iterator of unknown length (a generator,
`map`, `zip` or `filter`) at a guessed length and then resizes it, so the
tuple is never taken from the per-length tuple free list, yet it joins that
list when freed.  Over a survey of reports each length's list fills to its
cap of 2000 tuples, dead memory the process keeps (about 1.3 MiB after 45 000
orbit-survey reports).  So tuples and star-arguments are built from lists.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitkit"
UNSIZED = (ast.GeneratorExp,)
UNSIZED_CALLS = {"map", "zip", "filter"}


def _unsized(node: ast.AST) -> bool:
    if isinstance(node, UNSIZED):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in UNSIZED_CALLS
    )


def resized_tuples(source: str) -> list[int]:
    """Lines that build a tuple, or star-arguments, from an unsized iterator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args:
            if _unsized(node.args[0]):
                lines.append(node.lineno)
        # a call's star-arguments become a tuple too; a display's do not
        lines += [a.lineno for a in node.args if isinstance(a, ast.Starred) and _unsized(a.value)]
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_tuples_are_built_from_lists(path):
    assert resized_tuples(path.read_text()) == []


def test_the_rule_sees_each_form():
    source = (
        "a = tuple(x for x in y)\n"
        "b = tuple(map(int, y))\n"
        "c = lcm(*(x for x in y))\n"
        "d = tuple([x for x in y]) + tuple(zip(*rows))\n"
        "e = lcm(*[x for x in y]) + tuple([*zip(*rows)])\n"
    )
    assert resized_tuples(source) == [1, 2, 3, 4]
