import argparse

import pytest
from hypothesis import example, given, settings, strategies as st

from cli_reference import ARGVS, COLUMNS, RUN, build_parser as reference_parser, outcome
from orbitkit.cli import build_parser


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv)[:60] or "(none)")
def test_deferred_parser_matches_the_eager_reference(argv, columns):
    assert outcome(build_parser, argv, columns) == outcome(reference_parser, argv, columns)


# command names, every option of every command with some abbreviations
# (ambiguous ones included), and a few values
TOKENS = (
    "orbit", "cech", "audit", "h", "chern", "-h", "--help", "--", "--bogus",
    "--series", "--ser", "--lambda", "--lam", "--l", "--lattice", "--lat", "--output", "--out",
    "--nerve", "--ne", "--k", "--ring", "--r", "--cocycle", "--co",
    "--n", "--samples", "--sam", "--seed", "--se", "--s",
    "", "-1", "x", "λ=½", "x" * 300, "A1", "1/2,-1/2", "json", "z", "3",
)
# a drawn argv starts on one of these command paths, so that the tokens after
# it reach each subcommand's parser often
PATHS = ([], ["orbit"], ["cech"], ["cech", "h"], ["cech", "chern"], ["audit"])


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda path, rest: (path + rest)[:8],
                 st.sampled_from(PATHS), st.lists(st.sampled_from(TOKENS), max_size=8)))
@example(["cech", "-h", "h"])
@example(["cech", "chern", "h"])
@example(["orbit", "-h", "--bogus"])
@example(["orbit", "orbit"])
@example(["cech", "h", "--", "--nerve", "x"])
@example(["audit", "--seed", "-1", "--n", "-1"])
def test_any_argv_matches_the_eager_reference(argv):
    assert outcome(build_parser, argv, 80) == outcome(reference_parser, argv, 80)


@pytest.fixture
def built(monkeypatch):
    """The prog of every ArgumentParser constructed, in order."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return progs


@pytest.mark.parametrize("argv, progs", [
    (RUN, ["orbitkit", "orbitkit orbit"]),
    (["cech", "h", "--nerve", "n", "--k", "2"], ["orbitkit", "orbitkit cech", "orbitkit cech h"]),
    (["cech", "chern", "--nerve", "n", "--cocycle", "c"],
     ["orbitkit", "orbitkit cech", "orbitkit cech chern"]),
    (["audit"], ["orbitkit", "orbitkit audit"]),
    (["-h"], ["orbitkit"]),
    (["bogus"], ["orbitkit"]),
])
def test_a_call_constructs_only_the_parsers_on_its_path(argv, progs, built, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pass
    assert built == progs


def test_a_second_parse_constructs_nothing(built):
    parser = build_parser()
    for _ in range(2):
        assert vars(parser.parse_args(["cech", "h", "--nerve", "n", "--k", "2"]))["k"] == 2
    assert built == ["orbitkit", "orbitkit cech", "orbitkit cech h"]
    # the chern parser was not built with its sibling: a parse of it builds it alone
    parser.parse_args(["cech", "chern", "--nerve", "n", "--cocycle", "c"])
    assert built == ["orbitkit", "orbitkit cech", "orbitkit cech h", "orbitkit cech chern"]
