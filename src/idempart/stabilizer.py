"""Stabilizer structure of an idempotent, factored by fiber size.

Image points whose fibers share a size k form a class U.  A stabilizing
permutation must permute U and carry fibers onto fibers, so per class it
is captured by a pair: a U-indexed tuple of permutations of a reference
fiber (the representative's fiber minus its root, all blocks expressed
through fixed order-preserving bijections) twisted by a permutation of
U itself.  Those pairs form a group of order ((k-1)!)^|U| * |U|!, and
multiplying the orders over all classes recovers the stabilizer size,
which depends only on the fiber-size type vector, the sparse tuple
((k, g(k)), ...) of sizes k with g(k) > 0, ascending in k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .combinatorics import factorial
from .symmetric import Permutation, _conjugated, enumerate_permutations
from .transformations import Idempotent

__all__ = [
    "FiberClass",
    "GUElement",
    "eta_classes",
    "gamma_hom",
    "gu_enumerate",
    "gu_identity",
    "gu_inverse",
    "gu_multiply",
    "gu_order",
    "stabilizer_order_formula",
]

GU_ENUM_LIMIT = 100_000


@dataclass(frozen=True)
class FiberClass:
    """Image points of one common fiber size.

    members is the sorted tuple U of image points whose fibers have
    fiber_size elements; reference is the representative's fiber minus
    the representative itself (sorted), the common domain on which all
    block permutations act through order-preserving relabelings.
    """

    fiber_size: int
    members: tuple[int, ...]
    reference: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]


def eta_classes(f: Idempotent) -> list[FiberClass]:
    """Partition im(f) by fiber size, classes ordered by fiber size."""
    by_size: dict[int, list[int]] = {}
    for x in f.image:
        by_size.setdefault(len(f.fibers[x]), []).append(x)
    classes = []
    for k in sorted(by_size):
        members = tuple(by_size[k])  # ascending, image is iterated sorted
        root = members[0]
        reference = tuple(y for y in f.fibers[root] if y != root)
        classes.append(FiberClass(k, members, reference))
    return classes


@dataclass(frozen=True)
class GUElement:
    """One element of the class group: per-member blocks plus a twist.

    blocks[i] permutes positions 1..k-1 of the reference fiber and is
    attached to members[i]; outer permutes positions 1..|U| of the
    member list.  For fiber size 1 every block is the empty permutation.
    """

    fiber_class: FiberClass
    blocks: tuple[Permutation, ...]
    outer: Permutation

    def __post_init__(self) -> None:
        m = len(self.fiber_class.members)
        k = self.fiber_class.fiber_size
        if len(self.blocks) != m:
            raise ValueError(f"need {m} blocks, got {len(self.blocks)}")
        if any(b.n != k - 1 for b in self.blocks):
            raise ValueError(f"blocks must permute {k - 1} positions")
        if self.outer.n != m:
            raise ValueError(f"outer must permute {m} positions")

    def block_of(self, u: int) -> Permutation:
        """Block attached to the image point u."""
        return self.blocks[self.fiber_class.members.index(u)]


def _element(
    cls: FiberClass, blocks: tuple[Permutation, ...], outer: Permutation
) -> GUElement:
    # GUElement without __post_init__'s shape checks, for products and
    # inverses: those have |U| blocks on k-1 points by construction
    z = object.__new__(GUElement)
    object.__setattr__(z, "fiber_class", cls)
    object.__setattr__(z, "blocks", blocks)
    object.__setattr__(z, "outer", outer)
    return z


def gu_order(cls: FiberClass) -> int:
    """Group order ((k-1)!)^|U| * |U|!."""
    k = cls.fiber_size
    m = len(cls.members)
    return factorial(k - 1) ** m * factorial(m)


def gu_identity(cls: FiberClass) -> GUElement:
    """Identity element: all blocks trivial, outer trivial."""
    m = len(cls.members)
    e_block = Permutation.identity(cls.fiber_size - 1)
    return GUElement(cls, (e_block,) * m, Permutation.identity(m))


def gu_multiply(z1: GUElement, z2: GUElement) -> GUElement:
    """Product: blocks are twisted by the right factor's outer part.

    The block at position i of the product is z1's block at position
    outer2(i) composed after z2's block at i; the outer parts compose
    directly.
    """
    cls = z1.fiber_class
    if cls is not z2.fiber_class and cls != z2.fiber_class:
        raise ValueError("elements belong to different classes")
    blocks1 = z1.blocks
    blocks = tuple(
        [blocks1[j - 1] * b2 for j, b2 in zip(z2.outer.forward, z2.blocks)]
    )
    return _element(cls, blocks, z1.outer * z2.outer)


def gu_inverse(z: GUElement) -> GUElement:
    """Inverse: invert the outer part, pull back and invert each block."""
    outer_inv = z.outer.inverse()
    blocks = z.blocks
    inverted = tuple([blocks[j - 1].inverse() for j in outer_inv.forward])
    return _element(z.fiber_class, inverted, outer_inv)


def gu_enumerate(cls: FiberClass) -> Iterator[GUElement]:
    """Every element of the class group exactly once, deterministically."""
    order = gu_order(cls)
    if order > GU_ENUM_LIMIT:
        raise ValueError(f"class group of order {order} exceeds {GU_ENUM_LIMIT}")
    m = len(cls.members)
    base = list(enumerate_permutations(cls.fiber_size - 1))
    for outer in enumerate_permutations(m):
        for blocks in itertools.product(base, repeat=m):
            yield GUElement(cls, blocks, outer)


def _check_class_of(f: Idempotent, cls: FiberClass) -> None:
    k = cls.fiber_size
    for u in cls.members:
        if len(f.fibers.get(u, ())) != k:
            raise ValueError(f"{cls} is not a fiber-size class of {f.values}")
    root = cls.representative
    if cls.reference != tuple(y for y in f.fibers[root] if y != root):
        raise ValueError(f"{cls} is not a fiber-size class of {f.values}")


def gamma_hom(sigma: Permutation, f: Idempotent, cls: FiberClass) -> GUElement:
    """Image of a stabilizing permutation in the class group.

    The outer part is sigma restricted to the class members; the block
    attached to u tracks sigma from the fiber of u to the fiber of
    sigma(u), read through the order-preserving reference bijections.
    """
    if sigma.n != f.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {f.n}")
    if _conjugated(f.values, sigma) != f.values:
        raise ValueError("permutation does not stabilize the idempotent")
    _check_class_of(f, cls)
    members = cls.members
    pos = {u: i for i, u in enumerate(members, start=1)}
    outer = Permutation(pos[sigma(u)] for u in members)
    blocks = []
    for u in members:
        src = [y for y in f.fibers[u] if y != u]
        dst_root = sigma(u)
        dst = [y for y in f.fibers[dst_root] if y != dst_root]
        dst_pos = {y: j for j, y in enumerate(dst, start=1)}
        blocks.append(Permutation(dst_pos[sigma(y)] for y in src))
    return GUElement(cls, tuple(blocks), outer)


def stabilizer_order_formula(g: tuple[tuple[int, int], ...]) -> int:
    """Stabilizer size from the sparse type vector ((k, g(k)), ...).

    The product is prod (k-1)!^g(k) * g(k)! over the sizes k in g.
    """
    total = 1
    for k, gk in g:
        total *= factorial(k - 1) ** gk * factorial(gk)
    return total
