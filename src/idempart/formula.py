"""Closed-form counting of idempotents and the partition number.

Averaging stabilizer sizes over all idempotents on [n] counts their
conjugation orbits, which is p(n).  Grouping the sum by fiber-size type
turns it into an explicit product formula: for every weight-n type
vector g, the stabilizer order factor and the number of idempotents of
that type multiply to one summand, and the summands total n! * p(n).
"""

from __future__ import annotations

from typing import Iterator

from .combinatorics import (
    TypeVector,
    binomial,
    enumerate_type_vectors,
    exact_div,
    factorial,
    p_pentagonal,
)
from .stabilizer import stabilizer_order_formula

__all__ = [
    "count_idempotents_of_type",
    "cumulative_identity",
    "p_via_formula",
    "summand",
    "summand_direct",
    "total_idempotents",
    "type_terms",
]


def count_idempotents_of_type(n: int, g: TypeVector) -> int:
    """Number of idempotents on [n] whose fiber-size type is g.

    Walking fiber sizes in ascending order, first choose the g(k) roots
    among the points not yet consumed, then fill each of their fibers
    with k-1 further points.  Degenerate binomials zero-extend, so
    malformed inputs count 0 instead of raising.
    """
    if g.weight != n:
        raise ValueError(f"type vector has weight {g.weight}, expected {n}")
    total = 1
    consumed = 0
    for k, gk in g.nonzero():
        remaining = n - consumed
        total *= binomial(remaining, gk)
        for v in range(1, gk + 1):
            total *= binomial(remaining - gk - (v - 1) * (k - 1), k - 1)
        consumed += k * gk
    return total


def summand(n: int, g: TypeVector) -> int:
    """One term of the n! * p(n) sum: stabilizer order times type count."""
    return stabilizer_order_formula(g) * count_idempotents_of_type(n, g)


def type_terms(n: int) -> Iterator[tuple[TypeVector, int, int]]:
    """Each weight-n type vector g with its idempotent count and stabilizer order.

    Their product is summand(n, g); the term-by-term sum, the `types`
    listing and the `formula-pn` check of verify all walk this one loop.
    """
    for g in enumerate_type_vectors(n):
        yield g, count_idempotents_of_type(n, g), stabilizer_order_formula(g)


def summand_direct(n: int, g: TypeVector) -> int:
    """Literal transcription of the fused product form of the summand.

    Kept deliberately separate from summand() and asserted equal in the
    tests, guarding against transcription slips in the nested product.
    """
    total = 1
    for k in range(1, n + 1):
        gk = g.g(k)
        prefix = sum(s * g.g(s) for s in range(1, k))
        total *= (
            factorial(k - 1) ** gk
            * factorial(gk)
            * binomial(n - prefix, gk)
        )
        for v in range(1, gk + 1):
            total *= binomial(n - prefix - gk - (v - 1) * (k - 1), k - 1)
    return total


def _type_sum(n: int) -> int:
    """Sum of summand(n, g) over all weight-n type vectors, term by term."""
    return sum(count * stab for _, count, stab in type_terms(n))


def _type_sum_by_size(n: int) -> int:
    """The same sum as _type_sum(n), evaluated one fiber size at a time.

    Every factor a summand takes for fiber size k depends only on k, g(k)
    and the r points that smaller sizes left free, so the sum factorises
    over sizes like Euler's product prod 1/(1 - x^k).  After the pass for
    size k, s[r] sums the factors of sizes k..n over every choice of
    g(k), ..., g(n) that uses up exactly r free points.

    The pass for size k walks q = r - k*g, the points left to larger
    sizes, and then g.  With q fixed the nested product reads
    prod_{w=1..g} C(q + (k-1)*w, k-1), so each step g -> g+1 multiplies
    it, (k-1)!^g and g! by one factor apiece; C(r, g) is taken afresh.
    """
    s = [1] + [0] * n
    for k in range(n, 0, -1):
        fiber_perms = factorial(k - 1)
        nxt = [0] * (n + 1)
        for q in range(n + 1):
            carried = s[q]  # (k-1)!^g * g! * nested product * s[q]
            if not carried:
                continue
            for g in range((n - q) // k + 1):
                if g:
                    carried *= fiber_perms * g * binomial(q + (k - 1) * g, k - 1)
                r = q + k * g
                nxt[r] += carried * binomial(r, g)
        s = nxt
    return s[n]


def p_via_formula(n: int) -> int:
    """p(n) as the exact quotient of the type-vector sum by n!.

    The sum is evaluated size by size; the division must come out exact,
    and a remainder signals a bug.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return exact_div(_type_sum_by_size(n), factorial(n))


def total_idempotents(n: int) -> int:
    """Number of idempotents on [n], summed over all weight-n types."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return sum(count_idempotents_of_type(n, g) for g in enumerate_type_vectors(n))


def cumulative_identity(m: int) -> tuple[int, int]:
    """Both sides of the cumulative identity up to m, computed independently.

    Left side: sum of n! * p(n) for n = 1..m with p from the pentagonal
    recurrence.  Right side: the raw summands accumulated over all
    weight-n type vectors for n = 1..m.  The two must agree.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    lhs = sum(factorial(n) * p_pentagonal(n) for n in range(1, m + 1))
    rhs = sum(_type_sum(n) for n in range(1, m + 1))
    return lhs, rhs
