"""Idempotent self-maps of [n] = {1, ..., n}.

An idempotent self-map fixes every point of its image and retracts
every other point onto the image, so each one is determined by an
(image, retraction) pair.  Idempotent is the one map type: its
constructor checks the values and the idempotent law.  The constructive
enumerator walks image sets and writes each retraction straight into a
value tuple; a filtered scan of all n^n maps serves as the brute-force
cross-check at small n.
"""

from __future__ import annotations

import itertools
from collections import Counter
from types import MappingProxyType
from typing import Iterable, Iterator

from .combinatorics import _check_type

__all__ = [
    "Idempotent",
    "block_idempotent",
    "enumerate_idempotents",
    "enumerate_idempotents_bruteforce",
    "type_vector_of",
]

BRUTE_FORCE_MAP_LIMIT = 7  # 7^7 maps is the largest tolerable n^n scan


class Idempotent:
    """An idempotent map [n] -> [n], stored as a 1-based value tuple.

    image is the sorted tuple of fixed points (equivalently the set of
    attained values); fibers is a read-only mapping from each image
    point x to the sorted tuple of its preimage, which always contains
    x.  Construction raises ValueError on an empty tuple, on a value
    outside [1..n] and on a map that is not idempotent.  The slots are
    set once, by the constructor: assigning or deleting one raises
    AttributeError, and writing into fibers raises TypeError, so a map
    keeps its hash and its fibers while a set or dict holds it.
    """

    __slots__ = ("n", "values", "image", "fibers")

    def __init__(self, values: Iterable[int]):
        values = tuple(values)
        n = len(values)
        if n == 0:
            raise ValueError("domain must be nonempty")
        for v in values:
            if not 1 <= v <= n:
                raise ValueError(f"value {v} outside [1..{n}]")
        # f(f(x)) = f(x) for every x, i.e. every value is fixed
        if not all(values[v - 1] == v for v in values):
            raise ValueError(f"map {values} is not idempotent")
        buckets: dict[int, list[int]] = {}
        for x, v in enumerate(values, start=1):
            buckets.setdefault(v, []).append(x)
        image = tuple(sorted(buckets))
        set_slot = object.__setattr__
        set_slot(self, "n", n)
        set_slot(self, "values", values)
        set_slot(self, "image", image)
        fibers = {x: tuple(buckets[x]) for x in image}
        set_slot(self, "fibers", MappingProxyType(fibers))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r}: an Idempotent is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: an Idempotent is immutable")

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside [1..{self.n}]")
        return self.values[x - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Idempotent) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Idempotent({self.values})"


def enumerate_idempotents_bruteforce(n: int) -> Iterator[Idempotent]:
    """Filter all n^n self-maps for idempotency.  Oracle use only."""
    if not 1 <= n <= BRUTE_FORCE_MAP_LIMIT:
        raise ValueError(
            f"n must lie in 1..{BRUTE_FORCE_MAP_LIMIT} for the n^n scan, got {n}"
        )
    for vals in itertools.product(range(1, n + 1), repeat=n):
        # every value is fixed; a plain loop leaves at the first that is
        # not, with no generator set up for each of the n^n tuples
        for v in vals:
            if vals[v - 1] != v:
                break
        else:
            yield Idempotent(vals)


def enumerate_idempotents(n: int) -> Iterator[Idempotent]:
    """Generate every idempotent on [n] exactly once, constructively.

    Iterates image sets in lexicographic order and, for each, all
    retractions of the complement in mixed-radix order.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    base = list(range(1, n + 1))
    # sorted tuples compare lexicographically
    images = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(base, r) for r in range(1, n + 1)
        )
    )
    for image in images:
        image_set = set(image)
        complement = [x for x in base if x not in image_set]
        for assignment in itertools.product(image, repeat=len(complement)):
            values = list(base)
            for x, target in zip(complement, assignment):
                values[x - 1] = target
            yield Idempotent(values)


def type_vector_of(f: Idempotent) -> tuple[tuple[int, int], ...]:
    """Fiber-size type of f as the sparse tuple ((k, g(k)), ...), k ascending.

    g(k) is the number of image points whose fiber has k points; sizes
    with g(k) = 0 are left out.
    """
    return tuple(sorted(Counter(map(len, f.fibers.values())).items()))


def block_idempotent(g: tuple[tuple[int, int], ...]) -> Idempotent:
    """The idempotent of sparse type g whose fibers are consecutive blocks.

    The g(k) fibers of size k come in ascending k, each a block of k
    consecutive points rooted at its first point.  A g that is not a
    sparse type vector raises ValueError.
    """
    _check_type(g)
    values: list[int] = []
    for k, gk in g:
        for _ in range(gk):
            values.extend([len(values) + 1] * k)
    return Idempotent(values)
