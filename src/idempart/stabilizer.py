"""Stabilizer structure of an idempotent, factored by fiber size.

Image points whose fibers share a size k form a class U.  A stabilizing
permutation must permute U and carry fibers onto fibers, so per class it
is captured by a permutation of U (the outer part) and, for each member,
a permutation of its fiber minus its root, read in ascending order.
Those form the wreath product S_{k-1} wr S_|U|, a group of order
((k-1)!)^|U| * |U|!.  An element is the Permutation of the k*|U| points
[1..k*|U|] that it induces on the block idempotent of |U| fibers of size
k: member i (from 0) owns the points i*k+1 .. i*k+k, its root first, so
the product, inverse and identity are those of the symmetric group.
Multiplying the group orders over all classes recovers the stabilizer
size, which depends only on the fiber-size type vector, the sparse
tuple ((k, g(k)), ...) of sizes k with g(k) > 0, ascending in k.
formula.stabilizer_order_formula computes it from that vector alone.
gu_enumerate lists a class group only up to order GU_ENUM_LIMIT, the one
cap on class groups, and verify checks that every shape it lists is a
group of the right order.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .symmetric import Permutation, _conjugated
from .transformations import Idempotent

__all__ = [
    "FiberClass",
    "eta_classes",
    "gamma_hom",
    "gu_enumerate",
    "gu_order",
]

# largest class-group order that gu_enumerate lists
GU_ENUM_LIMIT = 10_000


class FiberClass(NamedTuple):
    """Image points of one common fiber size.

    members is the sorted tuple U of image points whose fibers have
    fiber_size elements.
    """

    fiber_size: int
    members: tuple[int, ...]


def eta_classes(f: Idempotent) -> list[FiberClass]:
    """Partition im(f) by fiber size, classes ordered by fiber size."""
    by_size: dict[int, list[int]] = {}
    for x in f.image:
        by_size.setdefault(len(f.fibers[x]), []).append(x)
    # members ascend, as the image is iterated sorted
    return [FiberClass(k, tuple(by_size[k])) for k in sorted(by_size)]


def gu_order(cls: FiberClass) -> int:
    """Group order ((k-1)!)^|U| * |U|!."""
    k = cls.fiber_size
    m = len(cls.members)
    return math.factorial(k - 1) ** m * math.factorial(m)


def gu_enumerate(cls: FiberClass) -> Iterator[Permutation]:
    """Every element of the class group exactly once, deterministically.

    Each element is a permutation of [k*|U|] laid out as in the module
    docstring.  Outer parts run in lexicographic order, and for each the
    tuples of member blocks in lexicographic order.
    """
    order = gu_order(cls)
    if order > GU_ENUM_LIMIT:
        raise ValueError(f"class group of order {order} exceeds {GU_ENUM_LIMIT}")
    k = cls.fiber_size

    def images(targets: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # the images of the points of the members sent to targets, block
        # after block: a root goes to its target's root, and the rest of
        # the block onto the rest of the target's block, in one of
        # (k-1)! orders, which are generated again for each prefix
        # rather than held
        if not targets:
            yield ()
            return
        root = targets[0] * k + 1
        for rest in itertools.permutations(range(root + 1, root + k)):
            head = (root, *rest)
            for tail in images(targets[1:]):
                yield head + tail

    for outer in itertools.permutations(range(len(cls.members))):
        for forward in images(outer):
            yield Permutation(forward)


def gamma_hom(sigma: Permutation, f: Idempotent, cls: FiberClass) -> Permutation:
    """Image of a stabilizing permutation in the class group.

    The member at index i and the point at position j of its fiber minus
    its root (ascending, from 1) go to the member sigma(u) and the
    position of sigma's image in that fiber, in the layout of the module
    docstring.  cls must be one of eta_classes(f): its members are every
    image point of f with a fiber of fiber_size elements, and there is
    at least one.
    """
    if sigma.n != f.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {f.n}")
    if _conjugated(f.values, sigma) != f.values:
        raise ValueError("permutation does not stabilize the idempotent")
    members = cls.members
    k = cls.fiber_size
    if not members or members != tuple(x for x in f.image if len(f.fibers[x]) == k):
        raise ValueError(f"{cls} is not a fiber-size class of {f.values}")
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
