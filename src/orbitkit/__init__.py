"""orbitkit: exact coadjoint-orbit analysis for compact classical groups.

The exact engine (root systems, Weyl groups, stabilizers, polarizations, KKS
blocks, lattice integrality, finite-nerve Cech cohomology) never touches
floating point; the su(n) matrix oracle in :mod:`orbitkit.oracle`
independently validates it numerically.

Importing the package loads no submodule: each exported name is imported
from its home module on first use (PEP 562), so a Cech computation never
pays for the orbit stack and an orbit report never pays for the Cech one.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports, in the order of __all__
_EXPORTS = {
    "errors": (
        "CapExceededError", "InputError", "OrbitkitError", "TheoremViolationError",
    ),
    "rootsys": (
        "RootOrder", "RootSystem", "SeriesSpec", "Weight", "ambient_weight",
        "build_root_system", "default_order", "fundamental_weights", "is_dominant",
        "pairing", "parse_series", "positive_roots", "weight_from_fundamental",
        "weight_from_strings",
    ),
    "weyl": (
        "WeylGroup", "WeylOrbit", "dominant_representative", "generate_weyl_group",
        "reflection", "weyl_orbit", "weyl_orbit_size", "weyl_order",
    ),
    "orbit": (
        "KKSMatrix", "Polarization", "StabilizerReport", "admissible_positive_system",
        "kks_matrix", "lagrangian_check", "orbit_dimension", "polarization",
        "singular_roots", "stabilizer_report",
    ),
    "quantize": (
        "LatticeSpec", "RepVerdict", "custom_lattice", "extendability_certificate",
        "is_integral", "orbit_to_rep",
    ),
    "cech": (
        "Cochain", "CohomologyGroup", "Nerve", "build_nerve", "chern_class",
        "coboundary", "cohomology", "make_cochain",
    ),
    "pipeline": ("OrbitReport", "analyze_orbit"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
