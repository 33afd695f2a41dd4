"""Exact combinatorial primitives.

Integer partitions as part tuples, the pentagonal-number recurrence
for the partition function p(n), and the exact division that the
identities promise.  Everything is exact integer arithmetic; nothing
here ever rounds or overflows.  Factorials and binomial coefficients
are not wrapped here: every layer calls math.factorial and math.comb.
A fiber-size type vector is a plain sparse tuple ((k, g(k)), ...)
with k ascending and every g(k) > 0; formula.type_terms builds them,
and _check_type rejects any other tuple.
PERMUTATION_ENUM_LIMIT lives here, not in symmetric, so that the CLI's
limits table reads it without loading the group layer.
"""

from __future__ import annotations

import threading
from typing import Iterator

__all__ = [
    "RemainderError",
    "enumerate_partitions",
    "exact_div",
    "p_pentagonal",
]

# Largest n whose n! permutations symmetric.enumerate_permutations lists;
# every exhaustive route stops there.
PERMUTATION_ENUM_LIMIT = 8


class RemainderError(ArithmeticError):
    """A division that an identity says is exact left a remainder."""


def exact_div(a: int, b: int) -> int:
    """Integer quotient a // b, raising RemainderError if b does not divide a."""
    q, r = divmod(a, b)
    if r:
        raise RemainderError(f"{a} is not divisible by {b} (remainder {r})")
    return q


def _check_type(g: tuple[tuple[int, int], ...], n: int | None = None) -> None:
    """Raise ValueError unless g is a sparse type vector, of weight n if given.

    Its sizes k must be positive and strictly ascending, each with g(k) > 0.
    """
    previous = 0
    for k, gk in g:
        if k <= previous or gk < 1:
            raise ValueError(f"{g} is not a sparse type vector")
        previous = k
    if n is not None:
        weight = sum(k * gk for k, gk in g)
        if weight != n:
            raise ValueError(f"type vector has weight {weight}, expected {n}")


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as nonincreasing part tuples, reverse-lex order.

    n = 0 yields exactly the empty partition.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    stack: list[tuple[int, int, tuple[int, ...]]] = [(n, n, ())]
    while stack:
        remaining, cap, prefix = stack.pop()
        if remaining == 0:
            yield prefix
            continue
        # push smallest first part last so it pops largest-first
        for part in range(1, min(cap, remaining) + 1):
            stack.append((remaining - part, part, prefix + (part,)))


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
