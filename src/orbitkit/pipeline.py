"""End-to-end orbit analysis: stabilizer, admissible chamber, polarization,
KKS blocks, integrality, and the highest-weight verdict, as one report."""

from __future__ import annotations

from typing import Sequence

from . import orbit as orbit_mod
from . import quantize
from .errors import TheoremViolationError
from .frozen import frozen
from .rootsys import (
    RootSystem,
    SeriesSpec,
    Weight,
    ambient_weight,
    build_root_system,
    parse_series,
)
from .weyl import weyl_orbit_size, weyl_order

# Not called here.  The name stays bound in this module because
# perfbench/test_perfbench.py looks it up to check that the tracer also wraps
# functions imported under another module's name.
from .weyl import generate_weyl_group  # noqa: F401


@frozen
class OrbitReport:
    series: SeriesSpec
    lam: Weight
    stabilizer: orbit_mod.StabilizerReport
    polarization: orbit_mod.Polarization
    kks: orbit_mod.KKSMatrix
    lagrangian: bool
    verdict: quantize.RepVerdict
    extendability: quantize.ExtendabilityCertificate
    weyl_order: int
    weyl_orbit_size: int

    @property
    def dim_orbit(self) -> int:
        return self.stabilizer.dim_g - self.stabilizer.dim_g_lambda

    def to_json_dict(self) -> dict:
        adm = self.polarization.admissibility
        return {
            "series": str(self.series),
            "lambda": self.lam.to_strings(),
            "lambda_projected": self.lam.projected,
            "weyl_order": self.weyl_order,
            "weyl_orbit_size": self.weyl_orbit_size,
            "singular_roots": [r.to_strings() for r in self.stabilizer.singular],
            "regular": self.stabilizer.regular,
            "dim_orbit": self.dim_orbit,
            "dim_stabilizer": self.stabilizer.dim_g_lambda,
            "dim_g": self.stabilizer.dim_g,
            "positive_system": [r.to_strings() for r in self.polarization.order.positive],
            "simple_roots": [r.to_strings() for r in self.polarization.order.simple],
            "b_roots": [r.to_strings() for r in self.polarization.b_roots],
            "kks_blocks": [
                {"root": a.to_strings(), "value": str(c)}
                for a, c in zip(self.kks.basis_labels, self.kks.blocks)
            ],
            "verdict": {
                "integral": self.verdict.integral,
                "dominant_rep": self.verdict.dominant_rep.to_strings(),
                "is_dominant_input": self.verdict.is_dominant_input,
                "borel_weil": self.verdict.borel_weil,
                "straightening_word": list(self.verdict.straightening_word),
            },
            "certificates": {
                "singular_set_closed": self.stabilizer.closure_certified,
                "admissible_condition_i": adm.condition_i,
                "admissible_condition_ii": adm.condition_ii,
                "chamber_contains_lambda": adm.dominant,
                "lagrangian": self.lagrangian,
                "extendability_pairings": [
                    {"root": r.to_strings(), "pairing": str(v)}
                    for r, v in self.extendability.vanishing_pairings
                ],
                "t1_equations": [r.to_strings() for r in self.stabilizer.t1_equations],
            },
        }


def analyze_orbit(
    series: str | RootSystem,
    lam_coords: Sequence,
    lattice: quantize.LatticeSpec,
) -> OrbitReport:
    """Full report for lam_coords on a series string such as "A2xT1" or on a
    root system already built.  The singular set and the admissible order are
    computed once and every later stage reads them."""
    rs = build_root_system(parse_series(series)) if isinstance(series, str) else series
    lam = ambient_weight(lam_coords, rs)
    stab = orbit_mod.stabilizer_report(lam, rs)
    order, cert = orbit_mod.admissible_positive_system(lam, rs)
    pol = orbit_mod._build_polarization(order, stab.singular, cert)
    kks = orbit_mod.kks_matrix(lam, pol)
    lagr, witness = orbit_mod.lagrangian_check(pol, kks)
    if not lagr:
        raise TheoremViolationError(
            f"polarization failed the isotropy check, witness {witness}"
        )
    verdict = quantize.orbit_to_rep(lam, lattice, rs)
    ext = quantize.extendability_certificate(lam, stab.singular)
    spec = rs.spec
    return OrbitReport(
        series=spec,
        lam=lam,
        stabilizer=stab,
        polarization=pol,
        kks=kks,
        lagrangian=lagr,
        verdict=verdict,
        extendability=ext,
        weyl_order=weyl_order(spec),
        weyl_orbit_size=weyl_orbit_size(lam, spec),
    )
