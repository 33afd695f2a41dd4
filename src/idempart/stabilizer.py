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
formula.stabilizer_order_formula computes it from that vector alone.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

from .combinatorics import factorial
from .symmetric import Permutation, _conjugated
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
]

GU_ENUM_LIMIT = 100_000


class FiberClass(NamedTuple):
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


def _is_bijection(table: tuple[int, ...], n: int) -> bool:
    return sorted(table) == list(range(1, n + 1))


class GUElement:
    """One element of the class group: per-member blocks plus a twist.

    blocks[i] is the forward table of a bijection of positions 1..k-1
    of the reference fiber (blocks[i][j-1] is the image of j) and is
    attached to members[i]; outer is the forward table of a bijection
    of positions 1..|U| of the member list.  For fiber size 1 every
    block is the empty table.  Two elements are equal when their
    classes and tables are.
    """

    __slots__ = ("fiber_class", "blocks", "outer")

    def __init__(
        self,
        fiber_class: FiberClass,
        blocks: Iterable[Iterable[int]],
        outer: Iterable[int],
    ) -> None:
        m = len(fiber_class.members)
        k = fiber_class.fiber_size
        blocks = tuple(tuple(b) for b in blocks)
        outer = tuple(outer)
        if len(blocks) != m:
            raise ValueError(f"need {m} blocks, got {len(blocks)}")
        if not all(_is_bijection(b, k - 1) for b in blocks):
            raise ValueError(f"blocks must be bijections of 1..{k - 1}")
        if not _is_bijection(outer, m):
            raise ValueError(f"outer must be a bijection of 1..{m}")
        self.fiber_class = fiber_class
        self.blocks = blocks
        self.outer = outer

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GUElement):
            return NotImplemented
        return (
            self.outer == other.outer
            and self.blocks == other.blocks
            and self.fiber_class == other.fiber_class
        )

    def __hash__(self) -> int:
        return hash((self.blocks, self.outer))

    def __repr__(self) -> str:
        return f"GUElement({self.fiber_class!r}, {self.blocks!r}, {self.outer!r})"

    def block_of(self, u: int) -> tuple[int, ...]:
        """Block attached to the image point u."""
        return self.blocks[self.fiber_class.members.index(u)]


def _element(
    cls: FiberClass, blocks: tuple[tuple[int, ...], ...], outer: tuple[int, ...]
) -> GUElement:
    # GUElement without the constructor's table checks, for products,
    # inverses and enumeration: those have |U| bijections of 1..k-1 and
    # a bijection of 1..|U| by construction
    z = object.__new__(GUElement)
    z.fiber_class = cls
    z.blocks = blocks
    z.outer = outer
    return z


def _inverse_table(table: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(table)
    for x, v in enumerate(table, start=1):
        inverse[v - 1] = x
    return tuple(inverse)


def gu_order(cls: FiberClass) -> int:
    """Group order ((k-1)!)^|U| * |U|!."""
    k = cls.fiber_size
    m = len(cls.members)
    return factorial(k - 1) ** m * factorial(m)


def gu_identity(cls: FiberClass) -> GUElement:
    """Identity element: all blocks trivial, outer trivial."""
    m = len(cls.members)
    e_block = tuple(range(1, cls.fiber_size))
    return GUElement(cls, (e_block,) * m, range(1, m + 1))


def gu_multiply(z1: GUElement, z2: GUElement) -> GUElement:
    """Product: blocks are twisted by the right factor's outer part.

    The block at position i of the product is z1's block at position
    outer2(i) composed after z2's block at i; the outer parts compose
    directly.  Composition p after q has the table [p[v-1] for v in q].
    """
    cls = z1.fiber_class
    if cls is not z2.fiber_class and cls != z2.fiber_class:
        raise ValueError("elements belong to different classes")
    blocks1 = z1.blocks
    outer1 = z1.outer
    outer2 = z2.outer
    blocks = tuple(
        [
            tuple([blocks1[j - 1][v - 1] for v in b2])
            for j, b2 in zip(outer2, z2.blocks)
        ]
    )
    return _element(cls, blocks, tuple([outer1[v - 1] for v in outer2]))


def gu_inverse(z: GUElement) -> GUElement:
    """Inverse: invert the outer part, pull back and invert each block."""
    outer_inv = _inverse_table(z.outer)
    blocks = z.blocks
    inverted = tuple([_inverse_table(blocks[j - 1]) for j in outer_inv])
    return _element(z.fiber_class, inverted, outer_inv)


def gu_enumerate(cls: FiberClass) -> Iterator[GUElement]:
    """Every element of the class group exactly once, deterministically.

    Outer parts run in lexicographic order of their tables, and for each
    the block tuples in lexicographic order.
    """
    order = gu_order(cls)
    if order > GU_ENUM_LIMIT:
        raise ValueError(f"class group of order {order} exceeds {GU_ENUM_LIMIT}")
    m = len(cls.members)
    base = list(itertools.permutations(range(1, cls.fiber_size)))
    for outer in itertools.permutations(range(1, m + 1)):
        for blocks in itertools.product(base, repeat=m):
            yield _element(cls, blocks, outer)


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
    outer = [pos[sigma(u)] for u in members]
    blocks = []
    for u in members:
        src = [y for y in f.fibers[u] if y != u]
        dst_root = sigma(u)
        dst = [y for y in f.fibers[dst_root] if y != dst_root]
        dst_pos = {y: j for j, y in enumerate(dst, start=1)}
        blocks.append([dst_pos[sigma(y)] for y in src])
    return GUElement(cls, blocks, outer)
