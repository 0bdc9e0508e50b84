"""The package and the CLI import lazily: `import orbitkit` loads no
submodule, each exported name resolves from its home module on first use,
and each CLI command loads only its own stack.

The cold-start tests each run a fresh interpreter, because this process
has long since imported every module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitkit

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
ORBIT_STACK = {"rootsys", "weyl", "orbit", "quantize", "pipeline"}

# the export list as it stood when every name was imported eagerly
ALL = [
    "CapExceededError", "InputError", "OrbitkitError", "TheoremViolationError",
    "RootOrder", "RootSystem", "SeriesSpec", "Weight", "ambient_weight",
    "build_root_system", "default_order", "fundamental_weights", "is_dominant",
    "pairing", "parse_series", "positive_roots", "weight_from_fundamental",
    "weight_from_strings",
    "WeylGroup", "WeylOrbit", "dominant_representative", "generate_weyl_group",
    "reflection", "weyl_orbit", "weyl_orbit_size", "weyl_order",
    "KKSMatrix", "Polarization", "StabilizerReport", "admissible_positive_system",
    "kks_matrix", "lagrangian_check", "orbit_dimension", "polarization",
    "singular_roots", "stabilizer_report",
    "LatticeSpec", "RepVerdict", "custom_lattice", "extendability_certificate",
    "is_integral", "orbit_to_rep",
    "Cochain", "CohomologyGroup", "Nerve", "build_nerve", "chern_class",
    "coboundary", "cohomology", "make_cochain",
    "OrbitReport", "analyze_orbit",
    "__version__",
]


def last_line_after(code: str, expr: str) -> str:
    """The value of expr, printed by a fresh interpreter after running code."""
    probe = f"import sys\n{code}\nprint({expr})\n"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """orbitkit submodules a fresh interpreter has loaded after running code."""
    names = last_line_after(code, "sorted(m for m in sys.modules if m.startswith('orbitkit.'))")
    return {name.split(".", 1)[1] for name in ast.literal_eval(names)}


def quiet_cli(*argv: str) -> str:
    """Code for one quiet, successful `cli.main` call."""
    return (
        "import contextlib, io, orbitkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert orbitkit.cli.main({list(argv)!r}) == 0\n"
    )


def cli_loads(*argv: str) -> set[str]:
    """Submodules loaded by one quiet, successful `cli.main` call."""
    return loaded_after(quiet_cli(*argv))


def test_a_bare_import_loads_no_submodule():
    assert loaded_after("import orbitkit") == set()


def test_cech_h_loads_no_orbit_stack():
    loaded = cli_loads("cech", "h", "--nerve", str(EXAMPLES / "rp2.nerve"), "--k", "2")
    assert "cech" in loaded
    assert loaded.isdisjoint(ORBIT_STACK | {"oracle"})


def test_cech_chern_loads_no_orbit_stack():
    loaded = cli_loads(
        "cech", "chern", "--nerve", str(EXAMPLES / "rp2.nerve"),
        "--cocycle", str(EXAMPLES / "rp2_face.cochain"),
    )
    assert "cech" in loaded
    assert loaded.isdisjoint(ORBIT_STACK | {"oracle"})


def test_orbit_loads_neither_cech_nor_oracle():
    loaded = cli_loads("orbit", "--series", "A2", "--lambda", "1,0,-1", "--output", "json")
    assert ORBIT_STACK <= loaded
    assert loaded.isdisjoint({"cech", "oracle"})


def test_no_command_imports_dataclasses():
    # value classes are @frozen: dataclasses, which loads inspect, ast and
    # dis, took about 1 MiB of resident memory per process
    for argv in (
        ("orbit", "--series", "B2xT1", "--lambda", "1,1/2,3", "--output", "json"),
        ("cech", "h", "--nerve", str(EXAMPLES / "rp2.nerve"), "--k", "2"),
        ("cech", "chern", "--nerve", str(EXAMPLES / "rp2.nerve"),
         "--cocycle", str(EXAMPLES / "rp2_face.cochain")),
    ):
        assert last_line_after(quiet_cli(*argv), "'dataclasses' in sys.modules") == "False"


def test_all_keeps_its_names_and_order():
    assert orbitkit.__all__ == ALL


def test_every_export_is_the_object_of_its_defining_module():
    for name in ALL[:-1]:
        value = getattr(orbitkit, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("orbitkit.")
        assert getattr(home, name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from orbitkit import *", namespace)
    assert set(ALL) <= set(namespace)
    assert namespace["analyze_orbit"] is importlib.import_module("orbitkit.pipeline").analyze_orbit
    assert namespace["__version__"] == "0.1.0"


def test_dir_lists_every_export():
    assert set(ALL) <= set(dir(orbitkit))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(orbitkit, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        orbitkit.no_such_name


def test_the_audit_runs_without_scipy():
    # a None entry in sys.modules fails every import of scipy or of a submodule
    code = ("sys.modules['scipy'] = None\n"
            "from orbitkit.cli import main\n"
            "code = main(['audit', '--n', '3', '--samples', '2'])")
    assert last_line_after(code, "code") == "0"
