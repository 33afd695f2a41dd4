"""Exact combinatorial primitives.

Factorials, binomial coefficients, integer partitions, fiber-size
type vectors, and the pentagonal-number recurrence for the partition
function p(n).  Everything is exact integer arithmetic; nothing here
ever rounds or overflows.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "RemainderError",
    "TypeVector",
    "binomial",
    "enumerate_partitions",
    "enumerate_type_vectors",
    "exact_div",
    "factorial",
    "p_pentagonal",
    "partition_to_type_vector",
]


def factorial(n: int) -> int:
    """Exact n! for nonnegative n."""
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Exact C(n, k), zero-extended: 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class RemainderError(ArithmeticError):
    """A division that an identity says is exact left a remainder."""


def exact_div(a: int, b: int) -> int:
    """Integer quotient a // b, raising RemainderError if b does not divide a."""
    q, r = divmod(a, b)
    if r:
        raise RemainderError(f"{a} is not divisible by {b} (remainder {r})")
    return q


class Partition:
    """A partition of n: a nonincreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be nonincreasing: {parts}")
        self.parts = parts

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        # internal fast path for parts already known valid
        obj = object.__new__(cls)
        obj.parts = parts
        return obj

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def _descending_parts(n: int) -> Iterator[tuple[int, ...]]:
    """Raw part tuples of n in reverse-lexicographic order."""
    if n == 0:
        yield ()
        return
    stack: list[tuple[int, int, tuple[int, ...]]] = [(n, n, ())]
    while stack:
        remaining, cap, prefix = stack.pop()
        if remaining == 0:
            yield prefix
            continue
        # push smallest first part last so it pops largest-first
        for part in range(1, min(cap, remaining) + 1):
            stack.append((remaining - part, part, prefix + (part,)))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, reverse-lexicographic on part lists.

    n = 0 yields exactly the empty partition.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for parts in _descending_parts(n):
        yield Partition._unchecked(parts)


class TypeVector:
    """Fiber-size multiplicity vector over [n].

    counts[k-1] records how many fibers (equivalently, parts) have
    size k; weight is the total number of points covered, sum of
    k * counts[k-1].  The vectors of weight exactly n are in bijection
    with the partitions of n.
    """

    __slots__ = ("n", "counts", "weight")

    def __init__(self, n: int, counts: Iterable[int]):
        counts = tuple(counts)
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if len(counts) != n:
            raise ValueError(f"need exactly {n} entries, got {len(counts)}")
        if any(c < 0 or c > n for c in counts):
            raise ValueError(f"entries must lie in 0..{n}: {counts}")
        self.n = n
        self.counts = counts
        self.weight = sum(k * c for k, c in enumerate(counts, start=1))

    @classmethod
    def _unchecked(cls, n: int, counts: tuple[int, ...], weight: int) -> "TypeVector":
        obj = object.__new__(cls)
        obj.n = n
        obj.counts = counts
        obj.weight = weight
        return obj

    def g(self, k: int) -> int:
        """Multiplicity of fiber size k, 1 <= k <= n."""
        if not 1 <= k <= self.n:
            raise ValueError(f"k must lie in 1..{self.n}, got {k}")
        return self.counts[k - 1]

    def nonzero(self) -> Iterator[tuple[int, int]]:
        """(k, g(k)) pairs with g(k) > 0, ascending in k."""
        for k, c in enumerate(self.counts, start=1):
            if c:
                yield k, c

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TypeVector)
            and self.n == other.n
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash((self.n, self.counts))

    def __repr__(self) -> str:
        return f"TypeVector(n={self.n}, counts={self.counts})"


def partition_to_type_vector(p: Partition) -> TypeVector:
    """Multiplicity vector of a nonempty partition: g(k) = #parts equal to k."""
    n = p.n
    if n < 1:
        raise ValueError("the empty partition has no type vector")
    counts = [0] * n
    for part in p.parts:
        counts[part - 1] += 1
    return TypeVector._unchecked(n, tuple(counts), n)


def enumerate_type_vectors(n: int) -> Iterator[TypeVector]:
    """All weight-n type vectors, once each, in partition enumeration order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    for p in enumerate_partitions(n):
        yield partition_to_type_vector(p)


_pent_cache = [1]
_pent_lock = threading.Lock()


def p_pentagonal(n: int) -> int:
    """The partition number p(n) via Euler's pentagonal recurrence.

    p(n) = sum_{j>=1} (-1)^(j+1) [p(n - j(3j-1)/2) + p(n - j(3j+1)/2)]
    with p(0) = 1 and p(m) = 0 for m < 0.  Values are memoized; the
    table is extended under a lock, so concurrent callers are safe.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n < len(_pent_cache):
        return _pent_cache[n]
    with _pent_lock:
        for m in range(len(_pent_cache), n + 1):
            total = 0
            j = 1
            while True:
                g1 = j * (3 * j - 1) // 2
                if g1 > m:
                    break
                g2 = j * (3 * j + 1) // 2
                term = _pent_cache[m - g1]
                if g2 <= m:
                    term += _pent_cache[m - g2]
                total += term if j % 2 else -term
                j += 1
            _pent_cache.append(total)
    return _pent_cache[n]
