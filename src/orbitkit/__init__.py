"""orbitkit: exact coadjoint-orbit analysis for compact classical groups.

The exact engine (root systems, Weyl groups, stabilizers, polarizations, KKS
blocks, lattice integrality, finite-nerve Cech cohomology) never touches
floating point; the su(n) matrix oracle in :mod:`orbitkit.oracle`
independently validates it numerically.
"""

from .errors import (
    CapExceededError,
    InputError,
    OrbitkitError,
    TheoremViolationError,
)
from .rootsys import (
    RootOrder,
    RootSystem,
    SeriesSpec,
    Weight,
    ambient_weight,
    build_root_system,
    default_order,
    fundamental_weights,
    is_dominant,
    pairing,
    parse_series,
    positive_roots,
    weight_from_fundamental,
    weight_from_strings,
)
from .weyl import (
    WeylGroup,
    WeylOrbit,
    dominant_representative,
    generate_weyl_group,
    reflection,
    weyl_orbit,
    weyl_orbit_size,
    weyl_order,
)
from .orbit import (
    KKSMatrix,
    Polarization,
    StabilizerReport,
    admissible_positive_system,
    kks_matrix,
    lagrangian_check,
    orbit_dimension,
    polarization,
    singular_roots,
    stabilizer_report,
)
from .quantize import (
    LatticeSpec,
    RepVerdict,
    custom_lattice,
    extendability_certificate,
    is_integral,
    orbit_to_rep,
)
from .cech import (
    Cochain,
    CohomologyGroup,
    Nerve,
    build_nerve,
    chern_class,
    coboundary,
    cohomology,
    make_cochain,
)
from .pipeline import OrbitReport, analyze_orbit

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "InputError",
    "OrbitkitError",
    "TheoremViolationError",
    "RootOrder",
    "RootSystem",
    "SeriesSpec",
    "Weight",
    "ambient_weight",
    "build_root_system",
    "default_order",
    "fundamental_weights",
    "is_dominant",
    "pairing",
    "parse_series",
    "positive_roots",
    "weight_from_fundamental",
    "weight_from_strings",
    "WeylGroup",
    "WeylOrbit",
    "dominant_representative",
    "generate_weyl_group",
    "reflection",
    "weyl_orbit",
    "weyl_orbit_size",
    "weyl_order",
    "KKSMatrix",
    "Polarization",
    "StabilizerReport",
    "admissible_positive_system",
    "kks_matrix",
    "lagrangian_check",
    "orbit_dimension",
    "polarization",
    "singular_roots",
    "stabilizer_report",
    "LatticeSpec",
    "RepVerdict",
    "custom_lattice",
    "extendability_certificate",
    "is_integral",
    "orbit_to_rep",
    "Cochain",
    "CohomologyGroup",
    "Nerve",
    "build_nerve",
    "chern_class",
    "coboundary",
    "cohomology",
    "make_cochain",
    "OrbitReport",
    "analyze_orbit",
    "__version__",
]
