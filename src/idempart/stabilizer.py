"""Stabilizer structure of an idempotent, factored by fiber size.

Image points whose fibers share a size k form a class U.  A stabilizing
permutation must permute U and carry fibers onto fibers, so per class it
is captured by a pair: a U-indexed tuple of permutations of positions
1..k-1 (each fiber minus its root, read in ascending order) twisted by
a permutation of U itself.  Those pairs form a group of order
((k-1)!)^|U| * |U|!.  An element is an immutable named tuple of its
class, one flat table of its |U| blocks end to end (block i at offset
i*(k-1)) and the twist, so a product builds one tuple for the blocks
and one for the twist.
Multiplying the group orders over all classes recovers the stabilizer
size, which depends only on the fiber-size type vector, the sparse
tuple ((k, g(k)), ...) of sizes k with g(k) > 0, ascending in k.
formula.stabilizer_order_formula computes it from that vector alone.
gu_enumerate lists a class group only up to order GU_ENUM_LIMIT, the one
cap on class groups, and verify checks the group laws on every shape
that it lists.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterable, Iterator, NamedTuple

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


def _is_bijection(table: tuple[int, ...], n: int) -> bool:
    return sorted(table) == list(range(1, n + 1))


class GUElement(namedtuple("GUElement", ("fiber_class", "table", "outer"))):
    """One element of the class group: per-member blocks plus a twist.

    table holds the blocks of all members end to end: with d = k-1, the
    block attached to members[i] is table[i*d:(i+1)*d], the forward
    table of a bijection of positions 1..d of the fiber minus its root
    (table[i*d + j-1] is the image of j).  outer is the forward table
    of a bijection of positions 1..|U| of the member list.  For fiber
    size 1 the table is empty.  An element is an immutable named tuple
    of its class, table and outer part, so equality, hashing and order
    run over those three fields.  The constructor, and _make and
    _replace through it, check the table's length, each of its blocks
    and the outer part.
    """

    __slots__ = ()

    def __new__(
        cls,
        fiber_class: FiberClass,
        table: Iterable[int],
        outer: Iterable[int],
    ) -> GUElement:
        m = len(fiber_class.members)
        d = fiber_class.fiber_size - 1
        table = tuple(table)
        outer = tuple(outer)
        if len(table) != m * d:
            raise ValueError(f"need a table of {m * d} entries, got {len(table)}")
        if not all(_is_bijection(table[i * d : i * d + d], d) for i in range(m)):
            raise ValueError(f"blocks must be bijections of 1..{d}")
        if not _is_bijection(outer, m):
            raise ValueError(f"outer must be a bijection of 1..{m}")
        return tuple.__new__(cls, (fiber_class, table, outer))

    @classmethod
    def _make(cls, iterable: Iterable) -> GUElement:
        return cls(*iterable)


def _element(
    cls: FiberClass, table: tuple[int, ...], outer: tuple[int, ...]
) -> GUElement:
    # GUElement without the constructor's checks, for products, inverses
    # and enumeration: those have a flat table of |U| bijections of
    # 1..k-1 and a bijection of 1..|U| by construction
    return tuple.__new__(GUElement, (cls, table, outer))


def _inverse_table(table: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(table)
    for x, v in enumerate(table, start=1):
        inverse[v - 1] = x
    return tuple(inverse)


def gu_order(cls: FiberClass) -> int:
    """Group order ((k-1)!)^|U| * |U|!."""
    k = cls.fiber_size
    m = len(cls.members)
    return math.factorial(k - 1) ** m * math.factorial(m)


def gu_identity(cls: FiberClass) -> GUElement:
    """Identity element: all blocks trivial, outer trivial."""
    m = len(cls.members)
    return GUElement(cls, tuple(range(1, cls.fiber_size)) * m, range(1, m + 1))


def gu_multiply(z1: GUElement, z2: GUElement) -> GUElement:
    """Product: blocks are twisted by the right factor's outer part.

    The block at position i of the product is z1's block at position
    outer2(i) composed after z2's block at i; the outer parts compose
    directly.  Composition p after q has the table [p[v-1] for v in q].
    On the flat tables, with d = k-1, the product's entry at index p is
    z1.table[(outer2[p // d] - 1)*d + z2.table[p] - 1].
    """
    cls = z1.fiber_class
    if cls is not z2.fiber_class and cls != z2.fiber_class:
        raise ValueError("elements belong to different classes")
    d = cls.fiber_size - 1
    table1 = z1.table
    outer1 = z1.outer
    outer2 = z2.outer
    table = tuple(
        [table1[(outer2[p // d] - 1) * d + v - 1] for p, v in enumerate(z2.table)]
    )
    return _element(cls, table, tuple([outer1[v - 1] for v in outer2]))


def gu_inverse(z: GUElement) -> GUElement:
    """Inverse: invert the outer part, pull back and invert each block."""
    outer_inv = _inverse_table(z.outer)
    d = z.fiber_class.fiber_size - 1
    table = z.table
    inverted: list[int] = []
    for j in outer_inv:
        inverted += _inverse_table(table[(j - 1) * d : j * d])
    return _element(z.fiber_class, tuple(inverted), outer_inv)


def gu_enumerate(cls: FiberClass) -> Iterator[GUElement]:
    """Every element of the class group exactly once, deterministically.

    Outer parts run in lexicographic order of their tables, and for each
    the block tuples in lexicographic order, which is the lexicographic
    order of the flat tables.
    """
    order = gu_order(cls)
    if order > GU_ENUM_LIMIT:
        raise ValueError(f"class group of order {order} exceeds {GU_ENUM_LIMIT}")
    m = len(cls.members)
    base = list(itertools.permutations(range(1, cls.fiber_size)))
    # the flat tables are shared by all outer parts; for |U| = 1 each is
    # the block itself
    tables = [sum(blocks, ()) for blocks in itertools.product(base, repeat=m)]
    for outer in itertools.permutations(range(1, m + 1)):
        for table in tables:
            yield _element(cls, table, outer)


def gamma_hom(sigma: Permutation, f: Idempotent, cls: FiberClass) -> GUElement:
    """Image of a stabilizing permutation in the class group.

    The outer part is sigma restricted to the class members; the block
    attached to u tracks sigma from the fiber of u to the fiber of
    sigma(u), each fiber minus its root read in ascending order.  cls
    must be one of eta_classes(f): its members are every image point
    of f with a fiber of fiber_size elements, and there is at least one.
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
    # among the members, any other point's index among its fiber's
    # non-root points; sigma carries both kinds to their own kind
    place = {u: i for i, u in enumerate(members, start=1)}
    rests = [[y for y in f.fibers[u] if y != u] for u in members]
    for rest in rests:
        place.update((y, j) for j, y in enumerate(rest, start=1))
    outer = [place[sigma(u)] for u in members]
    table = [place[sigma(y)] for rest in rests for y in rest]
    return GUElement(cls, table, outer)
