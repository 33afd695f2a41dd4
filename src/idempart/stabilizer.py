"""Stabilizer structure of an idempotent, factored by fiber size.

The fiber-size type vector of an idempotent is the sparse tuple
((k, g(k)), ...) of sizes k with g(k) > 0, ascending in k.  The g(k)
image points whose fibers have k points are the members of the class of
fiber size k.  A stabilizing permutation must permute them and carry
fibers onto fibers, so per class it is captured by a permutation of the
members (the outer part) and, for each member, a permutation of its
fiber minus its root, read in ascending order.  Those form the wreath
product S_{k-1} wr S_m, m = g(k), a group of order ((k-1)!)^m * m!.
Its order and layout depend only on the shape (k, m), one entry of the
type vector, so gu_order takes that pair.  An element is the
permutation of the k*m points [1..k*m] that it induces on the block
idempotent of m fibers of size k: member i (from 0) owns the points
i*k+1 .. i*k+k, its root first, so the product, inverse and identity
are those of the symmetric group.  gamma_hom maps a permutation
stabilizing f to its element, as a Permutation, of the class group of
one fiber size of f.  Multiplying the group orders over the type vector
recovers the stabilizer size; formula.stabilizer_order_formula computes
it independently from the same vector, and verify checks on every shape
up to its cap that independent generators generate a group of order
gu_order inside the stabilizer of the block idempotent.
"""

from __future__ import annotations

import math

from .symmetric import Permutation, _conjugated
from .transformations import Idempotent

__all__ = [
    "gamma_hom",
    "gu_order",
]


def gu_order(k: int, m: int) -> int:
    """Order ((k-1)!)^m * m! of the class group of m fibers of size k."""
    return math.factorial(k - 1) ** m * math.factorial(m)


def gamma_hom(sigma: Permutation, f: Idempotent, k: int) -> Permutation:
    """Image of a stabilizing permutation in the class group of fiber size k.

    The members are the image points of f whose fibers have k points,
    ascending; f must have at least one.  The member at index i and the
    point at position j of its fiber minus its root (ascending, from 1)
    go to the member sigma(u) and the position of sigma's image in that
    fiber, in the layout of the module docstring.
    """
    if sigma.n != f.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {f.n}")
    if _conjugated(f.values, sigma) != f.values:
        raise ValueError("permutation does not stabilize the idempotent")
    members = [x for x in f.image if len(f.fibers[x]) == k]
    if not members:
        raise ValueError(f"no fiber of {f.values} has {k} points")
    # the place of each point of the class's fibers: a member's index
    # among the members from 0, any other point's index among its
    # fiber's non-root points from 1; sigma carries both kinds to their
    # own kind
    place = {u: i for i, u in enumerate(members)}
    rests = [[y for y in f.fibers[u] if y != u] for u in members]
    for rest in rests:
        place.update((y, j) for j, y in enumerate(rest, start=1))
    forward = []
    for u, rest in zip(members, rests):
        root = place[sigma(u)] * k + 1
        forward.append(root)
        forward.extend([root + place[sigma(y)] for y in rest])
    return Permutation(forward)
