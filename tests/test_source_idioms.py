"""Source rules for `src/orbitkit`.

Tuples from lists, which keeps a long run of reports small.  CPython builds
a tuple from an iterator of unknown length (a generator, `map`, `zip` or
`filter`) at a guessed length and then resizes it, so the tuple is never
taken from the per-length tuple free list, yet it joins that list when
freed.  Over a survey of reports each length's list fills to its cap of 2000
tuples, dead memory the process keeps (about 1.3 MiB after 45 000
orbit-survey reports).  So tuples and star-arguments are built from lists.

Exact arithmetic outside the numeric oracle.  Every module but `oracle.py`
computes in ints and Fractions, so none of them writes a float literal,
calls `float`, imports numpy or scipy, or uses a `math` name other than the
integer functions lcm, comb, factorial and prod.

numpy alone in the oracle.  No module, `oracle.py` included, imports scipy:
exp of a skew-Hermitian matrix comes from one `numpy.linalg.eigh`, and the
numeric roots are matched by rounding, so scipy is a test dependency only.

One sparse row update in `linalg`.  dst += c*src on a {column: value} row,
keeping the column index rows_in[j] exact, is the private kernel
`_add_indexed`; only it and the index builder `_column_index` add to a
`rows_in` set, so no elimination writes the update out again.

argparse's public surface only.  A private argparse name (`_SubParsersAction`,
`_name_parser_map`, ...) may change shape in any Python release, so no module
imports or reads one; the CLI defers its subcommand parsers through
`add_subparsers(parser_class=...)`.
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


NUMERIC_PACKAGES = {"numpy", "scipy"}
EXACT_MATH = {"lcm", "comb", "factorial", "prod"}


def inexact_lines(source: str) -> list[int]:
    """Lines with a float literal, a float() call, a numpy or scipy import,
    or a math name outside EXACT_MATH."""
    tree = ast.parse(source)
    math_aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "math"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in NUMERIC_PACKAGES for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            if top in NUMERIC_PACKAGES or (
                node.module == "math" and any(a.name not in EXACT_MATH for a in node.names)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in math_aliases and node.attr not in EXACT_MATH:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "oracle.py"), ids=lambda p: p.name
)
def test_arithmetic_outside_the_oracle_is_exact(path):
    assert inexact_lines(path.read_text()) == []


def test_the_exactness_rule_sees_each_form():
    source = (
        "a = 0.5\n"
        "b = float(x)\n"
        "import numpy as np\n"
        "from scipy.linalg import expm\n"
        "from math import lcm, sqrt\n"
        "import math as m\n"
        "c = m.lcm(2, 3) + m.floor(x)\n"
        "from numpy import linalg\n"
        "d = 5 + lcm(2, 4) + x.float + floaty(1) + int(1e0 if x else 2)\n"
        "import mathx, fractions\n"
    )
    assert inexact_lines(source) == [1, 2, 3, 4, 5, 7, 8, 9]


def scipy_imports(source: str) -> list[int]:
    """Lines that import scipy or a scipy submodule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert scipy_imports(path.read_text()) == []


def test_the_scipy_rule_sees_each_form():
    source = (
        "import scipy\n"
        "from scipy.linalg import expm\n"
        "import numpy as np, scipy.optimize as opt\n"
        "from . import scipy\n"
        "from .scipy import x\n"
        "import scipyx, numpy.scipy\n"
    )
    assert scipy_imports(source) == [1, 2, 3]


INDEX_KEEPERS = {"_add_indexed", "_column_index"}


def index_adders(source: str) -> list[str]:
    """Functions that call rows_in[...].add(...), nested ones by their
    outermost name."""
    names = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and isinstance(node.func.value, ast.Subscript)
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id == "rows_in"
            ):
                names.append(top.name)
    return sorted(set(names))


def test_one_sparse_row_update_keeps_the_column_index():
    """In linalg, only the sparse row kernel and the index builder add to a
    column index, so the update is written once."""
    assert set(index_adders((SRC / "linalg.py").read_text())) <= INDEX_KEEPERS


def test_the_index_rule_sees_nested_updates():
    source = (
        "def smith(rows_in):\n"
        "    def add_row(i, j):\n"
        "        rows_in[j].add(i)\n"
        "def _add_indexed(rows_in):\n"
        "    rows_in[0].add(1)\n"
        "def other(holders):\n"
        "    holders[0].add(1)\n"
    )
    assert index_adders(source) == ["_add_indexed", "smith"]


def private_argparse_names(source: str) -> list[int]:
    """Lines that name a private attribute of argparse or import one from it."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "argparse"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases and node.attr.startswith("_"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "argparse" \
                and any(a.name.startswith("_") for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_argparse_names(path):
    assert private_argparse_names(path.read_text()) == []


def test_the_argparse_rule_sees_each_form():
    source = (
        "import argparse\n"
        "class A(argparse._SubParsersAction): pass\n"
        "from argparse import _ChoicesPseudoAction, ArgumentParser\n"
        "import argparse as ap\n"
        "x = ap._name_parser_map + argparse.ArgumentParser + parser._actions\n"
        "y = argparse.ArgumentError + self._prog_prefix\n"
    )
    assert private_argparse_names(source) == [2, 3, 5]
