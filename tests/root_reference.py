"""Reference root checks, kept verbatim as the oracles that `orbitkit` must
agree with:

* the pairwise root-sum loops used before every root-sum question went
  through one enumerator (now `rootsys.root_sums`, which `root_sums` here
  restates pair by pair), and the old all-coroots validation of a custom
  lattice; each is O(|S|^2 n) exact work over the ambient coordinates, so
  keep the subsets given to them small on large root systems;
* the `Fraction`-sum pairing kernels used before weights met roots in
  integers (`pairing`, `coroot_pairing`, `reflect`), and the callers that
  read them: the singular set, the admissible chamber seed, the positive
  system's sign split, dominance, the KKS blocks, straightening and `sc`
  integrality, which `torus_integral` completes with the central torus.
"""

from fractions import Fraction

from orbitkit.errors import InputError, TheoremViolationError
from orbitkit.quantize import CUSTOM, LatticeSpec
from orbitkit.rootsys import Weight, default_chamber_seed


def _require_ambient(w, rs):
    if len(w.coords) != rs.ambient_dim:
        raise InputError(
            f"weight has {len(w.coords)} coordinates, expected {rs.ambient_dim}"
        )


def pairing(xi, eta, rs):
    """Old `rootsys.pairing`."""
    n = rs.ambient_dim
    if len(xi.coords) != n or len(eta.coords) != n:
        _require_ambient(eta if len(xi.coords) == n else xi, rs)
    return sum((a * b for a, b in zip(xi.coords, eta.coords) if b and a), Fraction(0))


def coroot_pairing(w, alpha, rs):
    """Old `rootsys.coroot_pairing`."""
    return 2 * pairing(w, alpha, rs) / pairing(alpha, alpha, rs)


def reflect(w, alpha, rs):
    """Old `rootsys.reflect`."""
    c = coroot_pairing(w, alpha, rs)
    coords = list(w.coords)
    for i, x in enumerate(alpha.coords):
        if x:
            coords[i] -= c * x
    return Weight(tuple(coords))


def singular_roots(lam, rs):
    """Old `orbit.singular_roots`."""
    return tuple(a for a in rs.roots if pairing(lam, a, rs) == 0)


def admissible_chamber_seed(lam, rs):
    """Old `orbit.admissible_chamber_seed`."""
    rho = default_chamber_seed(rs)
    bound = None
    for a in rs.roots:
        la = pairing(lam, a, rs)
        if la == 0:
            continue
        ra = pairing(rho, a, rs)
        if ra == 0:
            continue
        candidate = abs(la) / abs(ra)
        if bound is None or candidate < bound:
            bound = candidate
    t = Fraction(1) if bound is None else bound / 2
    return Weight(tuple(x + t * r for x, r in zip(lam.coords, rho.coords)))


def positive_split(rs, chamber_seed):
    """The sign split of old `rootsys.positive_roots`: the positive roots, in
    roots order."""
    _require_ambient(chamber_seed, rs)
    pos = []
    for alpha in rs.roots:
        p = pairing(chamber_seed, alpha, rs)
        if p == 0:
            raise InputError(
                f"chamber seed lies on the wall of root {alpha.to_strings()}"
            )
        if p > 0:
            pos.append(alpha)
    return pos


def is_dominant(lam, order):
    """Old `rootsys.is_dominant`."""
    _require_ambient(lam, order.rs)
    return all(pairing(lam, alpha, order.rs) >= 0 for alpha in order.simple)


def kks_blocks(lam, b_roots, rs, kappa=Fraction(2)):
    """The block values of old `orbit.kks_matrix`."""
    blocks = []
    for alpha in b_roots:
        c = kappa * pairing(lam, alpha, rs)
        if c == 0:
            raise TheoremViolationError(
                f"degenerate KKS block for non-singular root {alpha.to_strings()}"
            )
        blocks.append(c)
    return tuple(blocks)


def dominant_representative(lam, order):
    """Old `weyl.dominant_representative`."""
    rs = order.rs
    current = lam
    word = []
    while True:
        neg = next(
            (
                i
                for i, a in enumerate(order.simple)
                if pairing(current, a, rs) < 0
            ),
            None,
        )
        if neg is None:
            return current, tuple(word)
        current = reflect(current, order.simple[neg], rs)
        word.append(neg)


def is_integral_sc(lam, order):
    """The `sc` branch of old `quantize.is_integral`, on order's simple roots."""
    return all(
        coroot_pairing(lam, alpha, order.rs).denominator == 1
        for alpha in order.simple
    )


def torus_integral(lam, rs):
    """Every central-torus coordinate of lam (the trailing torus_rank ones)
    is an integer: the Z^k summand of both P + Z^k and Q + Z^k, which the
    old `sc` and `adjoint` branches did not read."""
    k = rs.spec.torus_rank
    return all(Fraction(x).denominator == 1 for x in lam.coords[len(lam.coords) - k:])


def root_sums(left, right, rs):
    """Every (a, b, a + b) with a in left, b in right and a + b a root, found
    by adding each pair of coordinate tuples; sorted."""
    return sorted(
        (a, b, s)
        for a in left
        for b in right
        if (s := tuple(x + y for x, y in zip(a, b))) in rs.index
    )


def check_closed(subset, rs, what):
    """Old `orbit._check_closed`."""
    coords = {a.coords for a in subset}
    for a in subset:
        for b in subset:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if s in rs.index and s not in coords:
                raise TheoremViolationError(
                    f"{what} not closed under addition at {a.to_strings()} + {b.to_strings()}"
                )


def admissibility_conditions(order, singular):
    """Conditions (i) and (ii) of old `orbit.check_admissibility`."""
    rs = order.rs
    sing = {a.coords for a in singular}
    pos = order.positive_set
    pos_sing = {c for c in pos if c in sing}

    # (i) the intersection must be a positive system of the sub-root-system:
    # exactly one of each +/- pair, and additively closed inside it.
    cond_i = all((c in pos_sing) != (tuple(-x for x in c) in pos_sing) for c in sing)
    if cond_i:
        for a in pos_sing:
            for b in pos_sing:
                s = tuple(x + y for x, y in zip(a, b))
                if s in sing and s not in pos_sing:
                    cond_i = False

    # (ii) alpha in pos \ pos_sing, beta singular, alpha+beta a root
    #      => alpha+beta back in pos \ pos_sing
    cond_ii = True
    for a in pos - pos_sing:
        for b in sing:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.index and not (s in pos and s not in pos_sing):
                cond_ii = False
    return cond_i, cond_ii


def simple_roots(pos):
    """Old decomposability search of `rootsys.positive_roots`, in the order
    of pos and before the textbook sort."""
    pos_set = {a.coords for a in pos}
    simple = []
    for alpha in pos:
        decomposable = any(
            tuple(x - y for x, y in zip(alpha.coords, beta.coords)) in pos_set
            for beta in pos
            if beta.coords != alpha.coords
        )
        if not decomposable:
            simple.append(alpha)
    return simple


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def custom_lattice(generators, rs):
    """Old `quantize.custom_lattice`, which paired every generator with all
    |Phi| coroots; here with a dense dot product in place of `pairing`."""
    gens = tuple(tuple(Fraction(x) for x in g) for g in generators)
    for g in gens:
        if len(g) != rs.ambient_dim:
            raise InputError(
                f"lattice generator has {len(g)} coordinates, expected {rs.ambient_dim}"
            )
    lattice = LatticeSpec(CUSTOM, gens)
    for alpha in rs.roots:
        if not lattice.member(alpha.coords):
            raise InputError(
                f"root {alpha.to_strings()} is not a member of the custom lattice"
            )
    for g in gens:
        gw = Weight(g)
        for alpha in rs.roots:
            val = 2 * _dot(gw.coords, alpha.coords) / _dot(alpha.coords, alpha.coords)
            if val.denominator != 1:
                raise InputError(
                    f"generator {list(map(str, g))} pairs non-integrally with a coroot"
                )
    return lattice
