import argparse

import pytest

from cli_reference import ARGVS, COLUMNS, RUN, build_parser as reference_parser, outcome
from orbitkit.cli import build_parser


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv)[:60] or "(none)")
def test_deferred_parser_matches_the_eager_reference(argv, columns):
    assert outcome(build_parser, argv, columns) == outcome(reference_parser, argv, columns)


def commands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_an_orbit_parse_leaves_the_other_commands_unbuilt():
    parser = build_parser()
    assert parser.parse_args(RUN).series == "A1"
    for name in ("cech", "audit"):
        assert commands(parser)[name].format_usage() == f"usage: orbitkit {name} [-h]\n"
    assert "--series" in commands(parser)["orbit"].format_usage()


def test_a_command_fills_its_parser_once():
    parser = build_parser()
    for _ in range(2):
        assert vars(parser.parse_args(["cech", "h", "--nerve", "n", "--k", "2"]))["k"] == 2
    cech = commands(parser)["cech"]
    assert commands(cech)["chern"].format_usage() == "usage: orbitkit cech chern [-h]\n"
    assert len(commands(cech)["h"]._actions) == 5  # -h and its four options
