"""Command-line surface: orbit reports, Cech computations, oracle audits.

Exit codes: 0 ok, 2 usage, 3 input parse, 4 cap exceeded (a series with
more than rootsys.MAX_ROOTS roots), 5 internal theorem violation.
Rationals are serialized as "p/q" strings in lowest terms, never floats,
and JSON output is canonical (sorted keys), so identical inputs are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import cech as cech_mod
from . import quantize
from .errors import CapExceededError, InputError, TheoremViolationError
from .orbit import orbit_dimension
from .pipeline import analyze_orbit
from .rootsys import (
    SeriesSpec,
    ambient_weight,
    build_root_system,
    default_order,
    fundamental_weights,
    parse_series,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_THEOREM = 5


@dataclass
class CliConfig:
    subcommand: str
    series: Optional[str] = None
    lam: Optional[str] = None
    lattice: str = "sc"
    output: str = "text"
    nerve: Optional[str] = None
    cocycle: Optional[str] = None
    k: Optional[int] = None
    ring: str = "z"
    n: int = 3
    samples: int = 20
    seed: int = 0


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_lambda(text: str) -> list[Fraction]:
    try:
        return [Fraction(t.strip()) for t in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad lambda coordinates {text!r}: {exc}") from exc


def _resolve_lattice(flag: str, rs) -> quantize.LatticeSpec:
    if flag == "sc":
        return quantize.LatticeSpec(quantize.SIMPLY_CONNECTED)
    if flag == "adjoint":
        return quantize.LatticeSpec(quantize.ADJOINT)
    if flag.startswith("custom:"):
        path = Path(flag.split(":", 1)[1])
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise InputError(f"cannot read lattice file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"lattice file {path} is not valid JSON: {exc}") from exc
        gens = data.get("generators") if isinstance(data, dict) else data
        if not isinstance(gens, list):
            raise InputError("lattice file must hold a list of generator rows")
        rows = []
        for row in gens:
            try:
                rows.append([Fraction(x) for x in row])
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise InputError(f"bad lattice generator {row!r}: {exc}") from exc
        return quantize.custom_lattice(rows, rs)
    raise InputError(f"unknown lattice flag {flag!r}; use sc, adjoint or custom:FILE")


def cmd_orbit(cfg: CliConfig) -> int:
    spec = parse_series(cfg.series)
    rs = build_root_system(spec)
    lattice = _resolve_lattice(cfg.lattice, rs)
    report = analyze_orbit(spec, _parse_lambda(cfg.lam), lattice)
    payload = report.to_json_dict()
    payload["lattice"] = cfg.lattice
    if cfg.output == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        _print_orbit_text(payload)
    return EXIT_OK


def _print_orbit_text(p: dict) -> None:
    out = sys.stdout
    out.write(f"orbit report for {p['series']}, lambda = ({', '.join(p['lambda'])})\n")
    if p["lambda_projected"]:
        out.write("  note: lambda was projected onto the sum-zero hyperplane\n")
    kind = "regular" if p["regular"] else "singular"
    out.write(f"  type: {kind}\n")
    out.write(
        f"  dim orbit = {p['dim_orbit']}, dim stabilizer = {p['dim_stabilizer']}"
        f" (dim g = {p['dim_g']})\n"
    )
    out.write(
        f"  weyl group order {p['weyl_order']}, orbit meets t* in "
        f"{p['weyl_orbit_size']} points\n"
    )
    out.write(f"  singular roots: {_roots_inline(p['singular_roots'])}\n")
    out.write(f"  positive system: {_roots_inline(p['positive_system'])}\n")
    out.write(f"  polarization roots: {_roots_inline(p['b_roots'])}\n")
    blocks = ", ".join(
        f"({', '.join(b['root'])}) -> {b['value']}" for b in p["kks_blocks"]
    )
    out.write(f"  kks blocks: {blocks if blocks else '(empty)'}\n")
    v = p["verdict"]
    out.write(
        f"  integral on {p['lattice']}: {v['integral']}; "
        f"borel-weil: {v['borel_weil']}\n"
    )
    out.write(f"  dominant representative: ({', '.join(v['dominant_rep'])})\n")
    certs = p["certificates"]
    flags = [
        name
        for name in (
            "singular_set_closed",
            "admissible_condition_i",
            "admissible_condition_ii",
            "chamber_contains_lambda",
            "lagrangian",
        )
        if certs[name]
    ]
    out.write(f"  certificates passing: {', '.join(flags)}\n")


def _roots_inline(roots: list[list[str]]) -> str:
    if not roots:
        return "(none)"
    return "; ".join("(" + ", ".join(r) + ")" for r in roots)


def cmd_cech(cfg: CliConfig) -> int:
    nerve = cech_mod.parse_nerve_lines(Path(cfg.nerve).read_text().splitlines())
    if cfg.subcommand == "cech-h":
        ring = cech_mod.RING_Z if cfg.ring == "z" else cech_mod.RING_Q
        group = cech_mod.cohomology(nerve, cfg.k, ring)
        payload = {
            "degree": group.degree,
            "ring": cfg.ring,
            "free_rank": group.free_rank,
            "torsion": list(group.torsion),
            "description": group.describe(),
        }
        if cfg.output == "json":
            sys.stdout.write(canonical_json(payload))
        else:
            sys.stdout.write(f"H^{cfg.k} = {group.describe()}\n")
        return EXIT_OK
    cocycle = cech_mod.parse_cochain_lines(
        Path(cfg.cocycle).read_text().splitlines(), nerve, degree=2
    )
    cls = cech_mod.chern_class(nerve, cocycle)
    payload = {
        "valid": cls.valid,
        "witness": list(cls.witness) if cls.witness else None,
        "free_coords": list(cls.free_coords),
        "torsion_coords": [[v, d] for v, d in cls.torsion_coords],
        "trivial": cls.is_trivial(),
    }
    if cfg.output == "json":
        sys.stdout.write(canonical_json(payload))
    elif not cls.valid:
        sys.stdout.write(
            f"not a cocycle: coboundary is nonzero on {cls.witness}\n"
        )
    else:
        parts = [str(x) for x in cls.free_coords]
        parts += [f"{v} (mod {d})" for v, d in cls.torsion_coords]
        desc = ", ".join(parts) if parts else "0"
        sys.stdout.write(f"chern class coordinates: {desc}\n")
    if not cls.valid:
        return EXIT_PARSE
    return EXIT_OK


def cmd_audit(cfg: CliConfig) -> int:
    # imported lazily: numpy/scipy are only needed for the oracle surface
    from . import oracle

    n = cfg.n
    alg = oracle.special_unitary_basis(n)
    rs = build_root_system(SeriesSpec((("A", n - 1),)))
    matches = oracle.match_roots(oracle.numeric_root_decomposition(alg), rs)
    max_match = max(res for _, _, res in matches)
    audit = oracle.root_property_audit(alg)
    if cfg.lam:
        lam = ambient_weight(_parse_lambda(cfg.lam), rs)
    else:
        lam = fundamental_weights(default_order(rs))[0]
    kks = oracle.numeric_kks_check(lam, alg, samples=cfg.samples, seed=cfg.seed)
    rank_ok = oracle.stabilizer_rank(lam, alg) == orbit_dimension(lam, rs)
    payload = {
        "algebra": f"su({n})",
        "basis_dim": alg.dim,
        "cartan_dim": len(alg.cartan_indices),
        "root_match_max_residual": max_match,
        "root_audit_ok": audit.ok,
        "root_audit_checks": audit.checks,
        "root_audit_max_residual": audit.max_residual,
        "lambda": lam.to_strings(),
        "kks_block_residual": kks.block_residual,
        "equivariance_residual": kks.equivariance_residual,
        "equivariance_samples": kks.samples,
        "stabilizer_rank_matches": rank_ok,
    }
    if cfg.output == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        sys.stdout.write(f"audit of su({n}) against the exact engine\n")
        sys.stdout.write(
            f"  roots matched, max residual {max_match:.3e}\n"
            f"  root-space bracket audit: "
            f"{'ok' if audit.ok else 'FAILED'} ({audit.checks} checks, "
            f"max residual {audit.max_residual:.3e})\n"
            f"  lambda = ({', '.join(lam.to_strings())})\n"
            f"  kks block residual {kks.block_residual:.3e}\n"
            f"  equivariance residual {kks.equivariance_residual:.3e} "
            f"over {kks.samples} samples\n"
            f"  stabilizer rank matches orbit dimension: {rank_ok}\n"
        )
    return EXIT_OK if audit.ok and rank_ok else EXIT_THEOREM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Exact coadjoint-orbit analysis and finite-nerve Cech cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="analyze one coadjoint orbit")
    p_orbit.add_argument("--series", required=True, help='factor string, e.g. "A2xT1"')
    p_orbit.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help="comma-separated rational ambient coordinates, e.g. 1/2,-1/2",
    )
    p_orbit.add_argument(
        "--lattice",
        default="sc",
        help="character lattice: sc, adjoint, or custom:FILE (JSON generators)",
    )
    p_orbit.add_argument("--output", choices=("text", "json"), default="text")

    p_cech = sub.add_parser("cech", help="finite-nerve Cech cohomology")
    cech_sub = p_cech.add_subparsers(dest="cech_command", required=True)
    p_h = cech_sub.add_parser("h", help="cohomology group of a nerve")
    p_h.add_argument("--nerve", required=True, help="nerve file, one simplex per line")
    p_h.add_argument("--k", type=int, required=True, help="degree")
    p_h.add_argument("--ring", choices=("z", "q"), default="z")
    p_h.add_argument("--output", choices=("text", "json"), default="text")
    p_chern = cech_sub.add_parser("chern", help="class of an integer 2-cocycle")
    p_chern.add_argument("--nerve", required=True)
    p_chern.add_argument("--cocycle", required=True, help="2-cochain file")
    p_chern.add_argument("--output", choices=("text", "json"), default="text")

    p_audit = sub.add_parser("audit", help="numeric su(n) oracle cross-checks")
    p_audit.add_argument("--n", type=int, default=3, help="su(n) size, 2..5")
    p_audit.add_argument("--lambda", dest="lam", default=None)
    p_audit.add_argument("--samples", type=_positive_int, default=20)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    if args.command == "orbit":
        return CliConfig(
            subcommand="orbit",
            series=args.series,
            lam=args.lam,
            lattice=args.lattice,
            output=args.output,
        )
    if args.command == "cech":
        return CliConfig(
            subcommand=f"cech-{args.cech_command}",
            nerve=args.nerve,
            cocycle=getattr(args, "cocycle", None),
            k=getattr(args, "k", None),
            ring=getattr(args, "ring", "z"),
            output=args.output,
        )
    return CliConfig(
        subcommand="audit",
        n=args.n,
        lam=args.lam,
        samples=args.samples,
        seed=args.seed,
        output=args.output,
    )


def _emit_error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(
        canonical_json({"error": {"kind": kind, "message": message, "exit_code": code}})
    )
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    try:
        if cfg.subcommand == "orbit":
            return cmd_orbit(cfg)
        if cfg.subcommand.startswith("cech"):
            return cmd_cech(cfg)
        return cmd_audit(cfg)
    except InputError as exc:
        return _emit_error("input", str(exc), EXIT_PARSE)
    except CapExceededError as exc:
        return _emit_error("cap_exceeded", str(exc), EXIT_CAP)
    except TheoremViolationError as exc:
        return _emit_error("theorem_violation", str(exc), EXIT_THEOREM)
    except OSError as exc:
        return _emit_error("io", str(exc), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
