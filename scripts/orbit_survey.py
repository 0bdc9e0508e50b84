#!/usr/bin/env python3
"""Survey integral coadjoint orbits at bounded norm.

For each weight-lattice point with squared norm below the bound, run the full
orbit-to-representation pipeline and tabulate the dominant representatives.
The resulting set must coincide with the directly enumerated dominant
integral weights: every irreducible shows up exactly once, realized by the
orbit of its highest weight.

Usage: python3 scripts/orbit_survey.py [--series A2] [--bound 12]
"""

import argparse
from fractions import Fraction
from itertools import product

from orbitkit import (
    LatticeSpec,
    Weight,
    build_root_system,
    default_order,
    fundamental_weights,
    is_dominant,
    orbit_dimension,
    orbit_to_rep,
    pairing,
    parse_series,
)
from orbitkit.quantize import SIMPLY_CONNECTED


def weight_lattice_ball(rs, order, bound):
    fw = fundamental_weights(order)
    if not fw:
        return [Weight((Fraction(0),) * rs.ambient_dim)]
    radius = int(2 * bound) + 2
    points = []
    for combo in product(range(-radius, radius + 1), repeat=len(fw)):
        coords = [Fraction(0)] * rs.ambient_dim
        for c, omega in zip(combo, fw):
            for i, x in enumerate(omega.coords):
                coords[i] += c * x
        lam = Weight(tuple(coords))
        if pairing(lam, lam, rs) <= bound:
            points.append(lam)
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--series", default="A2")
    parser.add_argument("--bound", type=Fraction, default=Fraction(12))
    args = parser.parse_args()

    rs = build_root_system(parse_series(args.series))
    order = default_order(rs)
    lattice = LatticeSpec(SIMPLY_CONNECTED)

    ball = weight_lattice_ball(rs, order, args.bound)
    print(
        f"{args.series}: {len(ball)} weight-lattice points with "
        f"|lambda|^2 <= {args.bound}"
    )

    reps = {}
    for lam in ball:
        verdict = orbit_to_rep(lam, lattice, rs)
        assert verdict.integral, "weight-lattice points must be integral"
        reps.setdefault(verdict.dominant_rep.coords, []).append(lam)

    direct = sorted(
        lam.coords for lam in ball if is_dominant(lam, order)
    )
    assert set(reps) == set(direct), "orbit survey disagrees with enumeration"

    print(f"{len(reps)} distinct dominant representatives (= irreducibles):")
    header = f"{'highest weight':<28} {'orbit dim':>9} {'orbit size in ball':>19}"
    print(header)
    print("-" * len(header))
    for coords in direct:
        lam = Weight(coords)
        label = "(" + ", ".join(str(c) for c in coords) + ")"
        print(
            f"{label:<28} {orbit_dimension(lam, rs):>9} "
            f"{len(reps[coords]):>19}"
        )
    print("survey complete: every dominant integral weight arose exactly once")


if __name__ == "__main__":
    main()
