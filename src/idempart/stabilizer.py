"""Stabilizer structure of an idempotent, factored by fiber size.

The fiber-size type vector of an idempotent is the sparse tuple
((k, g(k)), ...) of sizes k with g(k) > 0, ascending in k.  The g(k)
image points whose fibers have k points are the members of the class of
fiber size k.  A stabilizing permutation must permute them and carry
fibers onto fibers, so per class it is captured by a permutation of the
members (the outer part) and, for each member, a permutation of its
fiber minus its root, read in ascending order.  Those form the wreath
product S_{k-1} wr S_m, m = g(k), a group of order ((k-1)!)^m * m!.
Its order, elements and layout depend only on the shape (k, m), one
entry of the type vector, so gu_order and gu_enumerate take that pair.
An element is the permutation of the k*m points [1..k*m] that it
induces on the block idempotent of m fibers of size k: member i (from
0) owns the points i*k+1 .. i*k+k, its root first, so the product,
inverse and identity are those of the symmetric group.  gu_enumerate
yields each element as its forward table, a plain tuple, and gamma_hom
maps a permutation stabilizing f to its element, as a Permutation, of
the class group of one fiber size of f.  Multiplying the group orders
over the type vector recovers the stabilizer size;
formula.stabilizer_order_formula computes it independently from the
same vector.  gu_enumerate lists a class group only up to order
GU_ENUM_LIMIT, the one cap on class groups, and verify checks that
every shape it lists is a group of the right order.  It builds each
forward table in one piece, from the block lists of all members but
the last, each built once, and the last member's blocks, generated as
they are needed.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

from .symmetric import Permutation, _conjugated
from .transformations import Idempotent

__all__ = [
    "gamma_hom",
    "gu_enumerate",
    "gu_order",
]

# largest class-group order that gu_enumerate lists
GU_ENUM_LIMIT = 10_000


def gu_order(k: int, m: int) -> int:
    """Order ((k-1)!)^m * m! of the class group of m fibers of size k."""
    return math.factorial(k - 1) ** m * math.factorial(m)


def gu_enumerate(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """Every element of the class group of m fibers of size k exactly once.

    Each element is the forward table, a tuple of [1..k*m], of its
    permutation, laid out as in the module docstring; Permutation(table)
    gives the group element.  Outer parts run in lexicographic order,
    and for each the tuples of member blocks in lexicographic order.
    """
    order = gu_order(k, m)
    if order > GU_ENUM_LIMIT:
        raise ValueError(f"class group of order {order} exceeds {GU_ENUM_LIMIT}")

    @functools.cache
    def blocks(target: int) -> list[tuple[int, ...]]:
        # the (k-1)! images, in lexicographic order, of a member's block
        # when the member goes to target: its root to the target's root
        # and the rest onto the rest of the target's block
        root = target * k + 1
        rest = range(root + 1, root + k)
        return [(root, *images) for images in itertools.permutations(rest)]

    for outer in itertools.permutations(range(m)):
        # the blocks of every member but the last are walked as one
        # product of held lists, each built once per target (at most 48
        # tuples in all, at k = 5, |U| = 2); the last member's are
        # generated as they are needed, so k = 8, |U| = 1 holds none of
        # its 5,040.  The pools are passed from a list: star-arguments
        # from a map are built in a longer tuple and then shrunk, and
        # CPython would keep up to 2,000 of those in a free list
        *front, last = outer
        root = last * k + 1
        for head in itertools.product(*[blocks(t) for t in front]):
            prefix = sum(head, ())
            for rest in itertools.permutations(range(root + 1, root + k)):
                yield (*prefix, root, *rest)


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
