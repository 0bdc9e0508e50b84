"""Reference root-sum checks: the pairwise loops `orbitkit` used before every
root-sum question went through `RootSystem.sums`, kept verbatim as the
oracle that the table-driven versions must agree with.

Each is O(|S|^2 n) exact work over the ambient coordinates, so keep the
subsets given to them small on large root systems.
"""

from orbitkit.errors import TheoremViolationError


def check_closed(subset, rs, what):
    """Old `orbit._check_closed`."""
    coords = {a.coords for a in subset}
    for a in subset:
        for b in subset:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            if s in rs.root_set and s not in coords:
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
            if s in rs.root_set and not (s in pos and s not in pos_sing):
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
