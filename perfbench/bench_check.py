"""Output checker for the orbitkit benchmark.

Every expectation here is derived from the generated case alone -- closed
forms, coordinate counting and known cohomology -- and never from orbitkit,
so a wrong answer cannot check itself.  Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.

Central-torus integrality is an open convention in orbitkit: on a series
with a central torus, when lambda has a nonzero torus coordinate and its
semisimple part is integral, the ``sc``/``adjoint`` verdict is not judged.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import factorial

from bench_gen import series_blocks

# ---------------------------------------------------------------- orbits


def weyl_order(letter: str, rank: int) -> int:
    if letter == "A":
        return factorial(rank + 1)
    if letter in "BC":
        return 2**rank * factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return 1


def _multinomial(counts) -> int:
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def orbit_size(letter: str, block: list[Fraction]) -> int:
    """Distinct coordinate arrangements (signed ones for B, C and D)."""
    if letter == "T":
        return 1
    if letter == "A":
        return _multinomial(Counter(block).values())
    mags = Counter(abs(x) for x in block)
    zeros = mags.pop(Fraction(0), 0)
    signed = _multinomial(list(mags.values()) + [zeros]) * 2 ** (len(block) - zeros)
    if letter == "D" and zeros == 0:
        return signed // 2
    return signed


def root_count(letter: str, rank: int) -> int:
    return {"A": rank * (rank + 1), "B": 2 * rank * rank, "C": 2 * rank * rank,
            "D": 2 * rank * (rank - 1)}.get(letter, 0)


def singular_count(letter: str, block: list[Fraction]) -> int:
    if letter == "T":
        return 0
    if letter == "A":
        return sum(m * (m - 1) for m in Counter(block).values())
    count = 0
    for i in range(len(block)):
        for j in range(i + 1, len(block)):
            a, b = block[i], block[j]
            if a == 0 and b == 0:
                count += 4
            elif abs(a) == abs(b):
                count += 2
    if letter in "BC":
        count += 2 * sum(1 for x in block if x == 0)
    return count


def is_dominant_block(letter: str, block: list[Fraction]) -> bool:
    """Dominance for the default chamber: coordinates non-increasing, the
    last one >= 0 for B and C, and lambda_{n-1} >= |lambda_n| for D."""
    if letter == "T":
        return True
    head = block[:-1] if letter == "D" else block
    if any(head[i] < head[i + 1] for i in range(len(head) - 1)):
        return False
    if letter in "BC":
        return block[-1] >= 0
    if letter == "D":
        return block[-2] >= abs(block[-1])
    return True


def same_orbit_block(letter: str, a: list[Fraction], b: list[Fraction]) -> bool:
    if letter == "T":
        return a == b
    if letter == "A":
        return Counter(a) == Counter(b)
    if Counter(abs(x) for x in a) != Counter(abs(x) for x in b):
        return False
    if letter == "D" and all(x != 0 for x in a):
        return sum(x < 0 for x in a) % 2 == sum(x < 0 for x in b) % 2
    return True


def _integral(x: Fraction) -> bool:
    return x.denominator == 1


def in_weight_lattice(letter: str, block: list[Fraction]) -> bool:
    if letter == "T":
        return all(_integral(x) for x in block)
    if letter == "A":
        return all(_integral(x - block[0]) for x in block)
    if letter == "C":
        return all(_integral(x) for x in block)
    # B and D: all integral or all half-integral
    return all(_integral(2 * x) and _integral(x - block[0]) for x in block)


def in_root_lattice(letter: str, block: list[Fraction]) -> bool:
    if not all(_integral(x) for x in block):
        return False
    if letter in "CD":
        return sum(block) % 2 == 0
    return True


def expected_lambda(series: str, lam: list[str]) -> tuple[list[Fraction], bool]:
    """Input coordinates with each A-block projected onto sum zero."""
    coords = [Fraction(x) for x in lam]
    projected = False
    for letter, _, start, stop in series_blocks(series):
        if letter == "A":
            total = sum(coords[start:stop], Fraction(0))
            if total != 0:
                projected = True
                mean = total / (stop - start)
                coords[start:stop] = [x - mean for x in coords[start:stop]]
    return coords, projected


def expected_integral(case: dict, lam: list[Fraction]):
    """True/False, or None where the torus convention decides."""
    blocks = series_blocks(case["series"])
    semis = [(l, lam[a:b]) for l, _, a, b in blocks if l != "T"]
    torus = [x for l, _, a, b in blocks if l == "T" for x in lam[a:b]]
    lattice = case["lattice"]
    if lattice == "custom":
        # generated custom lattice: weight lattice plus Z^k on the torus
        return all(in_weight_lattice(l, blk) for l, blk in semis) and all(
            _integral(x) for x in torus
        )
    test = in_weight_lattice if lattice == "sc" else in_root_lattice
    semi_ok = all(test(l, blk) for l, blk in semis)
    if semi_ok and any(x != 0 for x in torus):
        return None
    return semi_ok


def check_orbit_report(case: dict, payload: dict) -> list[str]:
    problems = []

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name}: got {got!r}, expected {want!r}")

    series = case["series"]
    blocks = series_blocks(series)
    lam, projected = expected_lambda(series, case["lam"])
    expect("series", payload.get("series"), series)
    expect("lambda", payload.get("lambda"), [str(x) for x in lam])
    expect("lambda_projected", payload.get("lambda_projected"), projected)

    w_order = 1
    o_size = 1
    n_roots = 0
    n_sing = 0
    rank = 0
    for letter, r, a, b in blocks:
        blk = lam[a:b]
        w_order *= weyl_order(letter, r)
        o_size *= orbit_size(letter, blk)
        n_roots += root_count(letter, r)
        n_sing += singular_count(letter, blk)
        rank += r
    expect("weyl_order", payload.get("weyl_order"), w_order)
    expect("weyl_orbit_size", payload.get("weyl_orbit_size"), o_size)
    expect("#singular_roots", len(payload.get("singular_roots", ())), n_sing)
    expect("regular", payload.get("regular"), n_sing == 0)
    expect("dim_g", payload.get("dim_g"), rank + n_roots)
    expect("dim_stabilizer", payload.get("dim_stabilizer"), rank + n_sing)
    expect("dim_orbit", payload.get("dim_orbit"), n_roots - n_sing)
    expect("2*#b_roots", 2 * len(payload.get("b_roots", ())), n_roots - n_sing)
    expect("2*#kks_blocks", 2 * len(payload.get("kks_blocks", ())), n_roots - n_sing)
    expect("#positive_system", len(payload.get("positive_system", ())), n_roots // 2)

    verdict = payload.get("verdict", {})
    dom = [Fraction(x) for x in verdict.get("dominant_rep", ())]
    if len(dom) != len(lam):
        problems.append(f"dominant_rep has {len(dom)} coordinates, expected {len(lam)}")
    else:
        for letter, _, a, b in blocks:
            if not is_dominant_block(letter, dom[a:b]):
                problems.append(f"dominant_rep block {letter} {dom[a:b]} is not dominant")
            if not same_orbit_block(letter, lam[a:b], dom[a:b]):
                problems.append(f"dominant_rep block {letter} {dom[a:b]} is not in the orbit")
    lam_dominant = all(is_dominant_block(l, lam[a:b]) for l, _, a, b in blocks)
    expect("is_dominant_input", verdict.get("is_dominant_input"), lam_dominant)
    integral = expected_integral(case, lam)
    if integral is not None:
        expect("integral", verdict.get("integral"), integral)
    want_bw = "nonzero_irreducible" if verdict.get("integral") else "zero_section_space"
    expect("borel_weil", verdict.get("borel_weil"), want_bw)

    certs = payload.get("certificates", {})
    for name in ("singular_set_closed", "admissible_condition_i",
                 "admissible_condition_ii", "chamber_contains_lambda", "lagrangian"):
        expect(f"certificates.{name}", certs.get(name), True)
    pairings = certs.get("extendability_pairings", [])
    expect("#extendability_pairings", len(pairings), n_sing)
    if any(p.get("pairing") != "0" for p in pairings):
        problems.append("an extendability pairing is nonzero")
    return problems


def check_orbit_cli(case: dict, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = check_orbit_report(case, payload)
    if payload.get("lattice") != _lattice_flag(case):
        problems.append(f"lattice: got {payload.get('lattice')!r}")
    return problems


def _lattice_flag(case: dict) -> str:
    if case["lattice"] == "custom":
        return "custom:" + case["lattice_file"]
    return case["lattice"]


# ---------------------------------------------------------------- cech


def expected_cohomology(case: dict) -> tuple[int, list[int]]:
    space, k, ring = case["space"], case["k"], case["ring"]
    if space == "sphere":
        d = case["size"]
        free = 1 if k in (0, d) else 0
        return free, []
    if space == "torus":
        return {0: 1, 1: 2, 2: 1}.get(k, 0), []
    # Klein bottle: Z, Z, Z/2 over Z; ranks 1, 1, 0 over Q
    free = {0: 1, 1: 1}.get(k, 0)
    torsion = [2] if k == 2 and ring == "z" else []
    return free, torsion


def check_cech_h(case: dict, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    free, torsion = expected_cohomology(case)
    got = (payload.get("degree"), payload.get("ring"), payload.get("free_rank"), payload.get("torsion"))
    want = (case["k"], case["ring"], free, torsion)
    return [] if got == want else [f"H^{case['k']} of {case['space']}{case['size']}: got {got}, expected {want}"]


def _delta_on(values: dict, simplex: tuple[int, ...]) -> int:
    return sum(
        (-1) ** omit * values.get(simplex[:omit] + simplex[omit + 1:], 0)
        for omit in range(len(simplex))
    )


def check_chern(case: dict, code: int, stdout: str) -> list[str]:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"exit {code}, stdout is not JSON: {exc}"]
    m = case["m"]
    if case["space"] == "cube":
        problems = [] if code == 3 else [f"exit code {code}, expected 3"]
        witness = payload.get("witness")
        values = {tuple(s): v for s, v in case["values"]}
        if payload.get("valid") is not False:
            problems.append("a non-cocycle was reported valid")
        if not isinstance(witness, list) or len(witness) != 4:
            problems.append(f"witness {witness!r} is not a 3-simplex")
        elif _delta_on(values, tuple(witness)) == 0:
            problems.append(f"the coboundary vanishes on witness {witness}")
        return problems
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if case["space"] == "torus":
        ok = (
            payload.get("valid") is True
            and len(payload.get("free_coords", ())) == 1
            and abs(payload["free_coords"][0]) == abs(m)
            and payload.get("torsion_coords") == []
            and payload.get("trivial") == (m == 0)
        )
    else:
        ok = (
            payload.get("valid") is True
            and payload.get("free_coords") == []
            and payload.get("torsion_coords") == [[m % 2, 2]]
            and payload.get("trivial") == (m % 2 == 0)
        )
    return [] if ok else [f"class of {case['space']}{case['size']} with m={m}: got {payload}"]
