"""Independent oracle models used to derive expected test values.

Nothing here touches the package's reflection-group code path: group orders
come from explicit enumeration of (signed) permutations, and orbit/dominance
facts from exhaustive search over those models.
"""

from fractions import Fraction
from itertools import permutations, product


def symmetric_group_order(n: int) -> int:
    """|S_n| by direct enumeration (Weyl group of the A-series, rank n-1)."""
    return sum(1 for _ in permutations(range(n)))


def hyperoctahedral_order(n: int) -> int:
    """|signed permutations of n letters| by enumeration (B/C series)."""
    return sum(1 for _ in product(permutations(range(n)), product((1, -1), repeat=n)))


def even_hyperoctahedral_order(n: int) -> int:
    """Signed permutations with an even number of sign flips (D series)."""
    count = 0
    for _, signs in product(permutations(range(n)), product((1, -1), repeat=n)):
        if signs.count(-1) % 2 == 0:
            count += 1
    return count


def signed_permutation_images(coords, series: str):
    """All images of an exact vector under the permutation model of one factor.

    A acts by permuting coordinates, B/C by signed permutation, D by
    even-signed permutation.
    """
    n = len(coords)
    images = set()
    if series == "A":
        for p in permutations(range(n)):
            images.add(tuple(coords[p[i]] for i in range(n)))
        return images
    for p in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if series == "D" and signs.count(-1) % 2 != 0:
                continue
            images.add(tuple(signs[i] * coords[p[i]] for i in range(n)))
    return images


def brute_dominant_points(orbit_points, simple_roots):
    """Orbit points pairing non-negatively with every simple root (dot product)."""
    out = []
    for v in orbit_points:
        if all(
            sum(x * y for x, y in zip(v, s)) >= 0 for s in simple_roots
        ):
            out.append(v)
    return out


def frac_vec(items):
    return tuple(Fraction(x) for x in items)


def signed_permutations(n: int, series: str):
    """(p, signs, det) for each element of the permutation model of one
    factor, acting as in signed_permutation_images: (w v)_i = signs[i] *
    v[p[i]], of determinant det = sign(p) * prod(signs)."""
    if series == "A":
        sign_choices = [(1,) * n]
    else:
        sign_choices = [s for s in product((1, -1), repeat=n)
                        if series != "D" or s.count(-1) % 2 == 0]
    for p in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        for signs in sign_choices:
            yield p, signs, (-1) ** (inversions + signs.count(-1))
