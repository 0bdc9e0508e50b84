"""Command-line surface: orbit reports, Cech computations, oracle audits.

Exit codes: 0 ok, 2 usage, 3 input parse (also an audit's lambda with a
nonzero root pairing within RANK_TOL |lambda|, before any numeric check), 4
cap exceeded (a series with more than rootsys.MAX_ROOTS roots, a nerve with
more than cech.MAX_SIMPLICES simplices), 5 internal theorem violation, or an
audit that fails (kind "oracle" when a numeric check raises).
Rationals are serialized as "p/q" strings in lowest terms, never floats,
and JSON output is canonical (sorted keys), so identical inputs are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import Decimal
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Optional, Sequence

from .errors import CapExceededError, InputError, OracleError, TheoremViolationError
from .linalg import shorten

# each command imports its own stack, so that a Cech command never loads the
# orbit modules and an orbit report never loads the Cech one

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_THEOREM = 5

PROJECTED_NOTE = "  note: lambda was projected onto the sum-zero hyperplane\n"


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\\n", byte for byte, for
    a tree of dicts with str keys, lists, tuples and JSON leaves.  With an
    indent, json.dumps never uses its C encoder; this writer quotes each
    string in C and joins a list of strings, such as a root, in one call."""
    return _json(obj, "\n") + "\n"


def _json(obj, nl: str) -> str:
    """obj as json.dumps writes it where nl is the newline and indent before it."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        inner = nl + "  "
        items = [_quote(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        inner = nl + "  "
        try:
            body = ("," + inner).join(map(_quote, obj))
        except TypeError:  # an item that is not a string
            body = ("," + inner).join([_json(x, inner) for x in obj])
        return "[" + inner + body + nl + "]" if obj else "[]"
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    return int.__repr__(obj) if isinstance(obj, int) else json.dumps(obj)


# audit --samples bounds; the audit's time is linear in the count, and the
# upper bound keeps it to seconds
MIN_AUDIT_SAMPLES = 1
MAX_AUDIT_SAMPLES = 10_000


def _bounded_int(text: str, low: int, high: Optional[int] = None) -> int:
    """An integer argument in [low, high]; outside it, a usage error naming the bound."""
    try:
        value = int(text)
    except ValueError:
        # int() refuses more than 4300 digits; Decimal reads such an integer
        # exactly and compares it exactly with the bounds
        if re.fullmatch(r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*", text) is None:
            raise argparse.ArgumentTypeError(f"expected an integer, got {shorten(text)!r}") from None
        value = Decimal(text)
    if value < low or (high is not None and value > high):
        bound = f"at least {low}" if value < low else f"at most {high}"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {shorten(text)}")
    return int(value)


def _sample_count(text: str) -> int:
    return _bounded_int(text, MIN_AUDIT_SAMPLES, MAX_AUDIT_SAMPLES)


def _seed(text: str) -> int:
    # numpy's default_rng takes any integer >= 0
    return _bounded_int(text, 0)


def _read_text(path: Path) -> str:
    """Text of an input file; bytes that are not UTF-8 are an input error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _resolve_lattice(flag: str, rs):
    from . import quantize

    if flag == "sc":
        return quantize.LatticeSpec(quantize.SIMPLY_CONNECTED)
    if flag == "adjoint":
        return quantize.LatticeSpec(quantize.ADJOINT)
    if flag.startswith("custom:"):
        path = Path(flag.split(":", 1)[1])
        try:
            text = _read_text(path)
        except OSError as exc:
            raise InputError(f"cannot read lattice file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except ValueError as exc:  # also an integer too long to convert
            raise InputError(f"lattice file {path} is not valid JSON: {exc}") from exc
        gens = data.get("generators") if isinstance(data, dict) else data
        if not isinstance(gens, list):
            raise InputError("lattice file must hold a list of generator rows")
        for row in gens:
            if not isinstance(row, list):
                raise InputError(f"bad lattice generator {shorten(repr(row))}: not a list")
        return quantize.custom_lattice(gens, rs)
    raise InputError(f"unknown lattice flag {flag!r}; use sc, adjoint or custom:FILE")


def cmd_orbit(args: argparse.Namespace) -> int:
    from .pipeline import analyze_orbit
    from .rootsys import build_root_system, parse_series

    rs = build_root_system(parse_series(args.series))
    lattice = _resolve_lattice(args.lattice, rs)
    report = analyze_orbit(rs, args.lam.split(","), lattice)
    payload = report.to_json_dict()
    payload["lattice"] = args.lattice
    if args.output == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        _print_orbit_text(payload)
    return EXIT_OK


def _print_orbit_text(p: dict) -> None:
    out = sys.stdout
    out.write(f"orbit report for {p['series']}, lambda = ({', '.join(p['lambda'])})\n")
    if p["lambda_projected"]:
        out.write(PROJECTED_NOTE)
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


def cmd_cech(args: argparse.Namespace) -> int:
    from . import cech as cech_mod

    nerve = cech_mod.parse_nerve_lines(_read_text(Path(args.nerve)).splitlines())
    if args.cech_command == "h":
        ring = cech_mod.RING_Z if args.ring == "z" else cech_mod.RING_Q
        group = cech_mod.cohomology(nerve, args.k, ring)
        payload = {
            "degree": group.degree,
            "ring": args.ring,
            "free_rank": group.free_rank,
            "torsion": list(group.torsion),
            "description": group.describe(),
        }
        if args.output == "json":
            sys.stdout.write(canonical_json(payload))
        else:
            sys.stdout.write(f"H^{args.k} = {group.describe()}\n")
        return EXIT_OK
    cocycle = cech_mod.parse_cochain_lines(
        _read_text(Path(args.cocycle)).splitlines(), nerve, degree=2
    )
    cls = cech_mod.chern_class(nerve, cocycle)
    payload = {
        "valid": cls.valid,
        "witness": list(cls.witness) if cls.witness else None,
        "free_coords": list(cls.free_coords),
        "torsion_coords": [[v, d] for v, d in cls.torsion_coords],
        "trivial": cls.is_trivial(),
    }
    if args.output == "json":
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


def cmd_audit(args: argparse.Namespace) -> int:
    # imported lazily: numpy is only needed for the oracle surface
    from . import oracle
    from .pipeline import analyze_orbit
    from .rootsys import SeriesSpec, build_root_system, default_order, fundamental_weights

    n = args.n
    alg = oracle.special_unitary_basis(n)
    rs = build_root_system(SeriesSpec((("A", n - 1),)))
    if args.lam:
        coords = args.lam.split(",")
    else:
        coords = fundamental_weights(default_order(rs))[0].coords
    report = analyze_orbit(rs, coords, _resolve_lattice("sc", rs))
    lam = report.lam
    oracle.require_resolvable(lam, rs)
    roots = oracle.numeric_root_decomposition(alg)
    matches = oracle.match_roots(roots, rs)
    max_match = max(res for _, _, res in matches)
    audit = oracle.root_property_audit(roots)
    kks = oracle.numeric_kks_check(report, alg, matches, samples=args.samples, seed=args.seed)
    rank_ok = oracle.stabilizer_rank(lam, alg) == report.dim_orbit
    payload = {
        "algebra": f"su({n})",
        "basis_dim": alg.dim,
        "cartan_dim": len(alg.cartan_indices),
        "root_match_max_residual": max_match,
        "root_audit_ok": audit.ok,
        "root_audit_checks": audit.checks,
        "root_audit_max_residual": audit.max_residual,
        "lambda": lam.to_strings(),
        "lambda_projected": lam.projected,
        "kks_block_residual": kks.block_residual,
        "equivariance_residual": kks.equivariance_residual,
        "equivariance_samples": kks.samples,
        "stabilizer_rank_matches": rank_ok,
    }
    if args.output == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        sys.stdout.write(f"audit of su({n}) against the exact engine\n")
        sys.stdout.write(
            f"  roots matched, max residual {max_match:.3e}\n"
            f"  root-space bracket audit: "
            f"{'ok' if audit.ok else 'FAILED'} ({audit.checks} checks, "
            f"max residual {audit.max_residual:.3e})\n"
            f"  lambda = ({', '.join(lam.to_strings())})\n"
        )
        if lam.projected:
            sys.stdout.write(PROJECTED_NOTE)
        sys.stdout.write(
            f"  kks block residual {kks.block_residual:.3e}\n"
            f"  equivariance residual {kks.equivariance_residual:.3e} "
            f"over {kks.samples} samples\n"
            f"  stabilizer rank matches orbit dimension: {rank_ok}\n"
        )
    return EXIT_OK if audit.ok and rank_ok else EXIT_THEOREM


class _Deferred:
    """A subcommand's parser as add_parser makes it: fill plus add_parser's
    keywords (prog, and any a newer Python adds).  Its first parse builds the
    ArgumentParser from those keywords and fills it by fill(parser), so that
    a call builds the parsers of its own command alone."""

    def __init__(self, fill, **kwargs):
        self._fill, self._kwargs, self._parser = fill, kwargs, None

    def parse_known_args(self, args, namespace):
        if self._parser is None:
            self._parser = argparse.ArgumentParser(**self._kwargs)
            self._fill(self._parser)
        return self._parser.parse_known_args(args, namespace)


def _fill_orbit(p_orbit: argparse.ArgumentParser) -> None:
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


def _fill_cech(p_cech: argparse.ArgumentParser) -> None:
    cech_sub = p_cech.add_subparsers(dest="cech_command", required=True, parser_class=_Deferred)
    cech_sub.add_parser("h", help="cohomology group of a nerve", fill=_fill_h)
    cech_sub.add_parser("chern", help="class of an integer 2-cocycle", fill=_fill_chern)


def _fill_h(p_h: argparse.ArgumentParser) -> None:
    p_h.add_argument("--nerve", required=True, help="nerve file, one simplex per line")
    p_h.add_argument("--k", type=int, required=True, help="degree")
    p_h.add_argument("--ring", choices=("z", "q"), default="z")
    p_h.add_argument("--output", choices=("text", "json"), default="text")


def _fill_chern(p_chern: argparse.ArgumentParser) -> None:
    p_chern.add_argument("--nerve", required=True)
    p_chern.add_argument("--cocycle", required=True, help="2-cochain file")
    p_chern.add_argument("--output", choices=("text", "json"), default="text")


def _fill_audit(p_audit: argparse.ArgumentParser) -> None:
    p_audit.add_argument("--n", type=int, default=3, help="su(n) size, 2..5")
    p_audit.add_argument("--lambda", dest="lam", default=None)
    p_audit.add_argument("--samples", type=_sample_count, default=20)
    p_audit.add_argument("--seed", type=_seed, default=0)
    p_audit.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Exact coadjoint-orbit analysis and finite-nerve Cech cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Deferred)
    sub.add_parser("orbit", help="analyze one coadjoint orbit", fill=_fill_orbit)
    sub.add_parser("cech", help="finite-nerve Cech cohomology", fill=_fill_cech)
    sub.add_parser("audit", help="numeric su(n) oracle cross-checks", fill=_fill_audit)
    return parser


def _emit_error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(
        canonical_json({"error": {"kind": kind, "message": message, "exit_code": code}})
    )
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "orbit":
            return cmd_orbit(args)
        if args.command == "cech":
            return cmd_cech(args)
        return cmd_audit(args)
    except InputError as exc:
        return _emit_error("input", str(exc), EXIT_PARSE)
    except CapExceededError as exc:
        return _emit_error("cap_exceeded", str(exc), EXIT_CAP)
    except TheoremViolationError as exc:
        return _emit_error("theorem_violation", str(exc), EXIT_THEOREM)
    except OracleError as exc:
        return _emit_error("oracle", str(exc), EXIT_THEOREM)
    except OSError as exc:
        return _emit_error("io", str(exc), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
