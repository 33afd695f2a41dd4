"""Closed-form counting of idempotents and the partition number.

Averaging stabilizer sizes over all idempotents on [n] counts their
conjugation orbits, which is p(n).  Grouping the sum by fiber-size type
turns it into an explicit product formula: for every weight-n type
vector g, the stabilizer order factor and the number of idempotents of
that type multiply to one summand, and the summands total n! * p(n).

A type vector is a sparse tuple ((k, g(k)), ...) of the fiber sizes k
with g(k) > 0, ascending in k; its weight is the sum of k * g(k).
"""

from __future__ import annotations

import math
from typing import Iterator

from .combinatorics import _check_type, exact_div, p_pentagonal

__all__ = [
    "count_idempotents_of_type",
    "cumulative_identity",
    "p_via_formula",
    "stabilizer_order_formula",
    "summand",
    "summand_direct",
    "total_idempotents",
    "type_terms",
]


def count_idempotents_of_type(n: int, g: tuple[tuple[int, int], ...]) -> int:
    """Number of idempotents on [n] whose fiber-size type is g.

    Walking fiber sizes in ascending order, first choose the g(k) roots
    among the points not yet consumed, then fill each of their fibers
    with k-1 further points.
    """
    _check_type(g, n)
    total = 1
    consumed = 0
    for k, gk in g:
        remaining = n - consumed
        total *= math.comb(remaining, gk)
        for v in range(1, gk + 1):
            total *= math.comb(remaining - gk - (v - 1) * (k - 1), k - 1)
        consumed += k * gk
    return total


def stabilizer_order_formula(g: tuple[tuple[int, int], ...]) -> int:
    """Stabilizer size from the sparse type vector ((k, g(k)), ...).

    The product is prod (k-1)!^g(k) * g(k)! over the sizes k in g: the
    orders of the per-class factor groups of the stabilizer module.
    """
    _check_type(g)
    total = 1
    for k, gk in g:
        total *= math.factorial(k - 1) ** gk * math.factorial(gk)
    return total


def summand(n: int, g: tuple[tuple[int, int], ...]) -> int:
    """One term of the n! * p(n) sum: stabilizer order times type count."""
    return stabilizer_order_formula(g) * count_idempotents_of_type(n, g)


def type_terms(n: int) -> Iterator[tuple[tuple[tuple[int, int], ...], int, int]]:
    """Each weight-n type vector g with its idempotent count and stabilizer order.

    Their product is summand(n, g).  One depth-first walk decides g(n),
    g(n-1), ..., g(1) in turn, each from its largest value down to 0, so
    the types come in the reverse-lexicographic order of their partitions.
    When the walk picks g(k), the sizes above k have used q points, so the
    ascending-order count factor of size k is C(r, g) * prod_{v=1..g}
    C(r - g - (v-1)(k-1), k-1) with r = q + k*g, and its stabilizer factor
    is (k-1)!^g * g!.  Each node multiplies both onto the partial count and
    partial stabilizer order it carries, so every factor is taken once per
    node instead of once per type.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    # (size k to decide, points q used by larger sizes, count, stab, g so far)
    stack: list[tuple[int, int, int, int, tuple[tuple[int, int], ...]]]
    stack = [(n, 0, 1, 1, ())]
    while stack:
        k, q, count, stab, g = stack.pop()
        if q == n:
            yield g, count, stab
            continue
        if k == 1:
            # every nested binomial is C(., 0) = 1 and (k-1)! = 1
            rest = n - q
            yield (
                ((1, rest),) + g,
                count * math.comb(n, rest),
                stab * math.factorial(rest),
            )
            continue
        # With q fixed the nested product reads prod_{w=1..g} C(q + (k-1)w, k-1),
        # so the step g -> g+1 multiplies it and (k-1)!^g * g! by one factor
        # apiece.  Children are pushed for g ascending, so the largest pops first.
        fiber_perms = math.factorial(k - 1)
        nested = 1
        stab_k = 1
        for gk in range((n - q) // k + 1):
            if gk:
                nested *= math.comb(q + (k - 1) * gk, k - 1)
                stab_k *= fiber_perms * gk
            r = q + k * gk
            # sizes above n - r fit in no remaining point, so g is 0 there
            stack.append((
                min(k - 1, n - r),
                r,
                count * math.comb(r, gk) * nested,
                stab * stab_k,
                ((k, gk),) + g if gk else g,
            ))


def summand_direct(n: int, g: tuple[tuple[int, int], ...]) -> int:
    """Literal transcription of the fused product form of the summand.

    Kept deliberately separate from summand() and asserted equal in the
    tests, guarding against transcription slips in the nested product.
    """
    _check_type(g, n)
    counts = dict(g)
    total = 1
    for k in range(1, n + 1):
        gk = counts.get(k, 0)
        prefix = sum(s * counts.get(s, 0) for s in range(1, k))
        total *= (
            math.factorial(k - 1) ** gk
            * math.factorial(gk)
            * math.comb(n - prefix, gk)
        )
        for v in range(1, gk + 1):
            total *= math.comb(n - prefix - gk - (v - 1) * (k - 1), k - 1)
    return total


def _type_sum_by_size(n: int, stabilizers: bool = True) -> int:
    """Sum of summand(n, g) over all weight-n type vectors, size by size.

    Every factor a summand takes for fiber size k depends only on k, g(k)
    and the r points that smaller sizes left free, so the sum factorises
    over sizes like Euler's product prod 1/(1 - x^k).  After the pass for
    size k, s[r] sums the factors of sizes k..n over every choice of
    g(k), ..., g(n) that uses up exactly r free points.

    The pass for size k walks q = r - k*g, the points left to larger
    sizes, and then g.  With q fixed the nested product reads
    prod_{w=1..g} C(q + (k-1)*w, k-1), so each step g -> g+1 multiplies
    it, (k-1)!^g and g! by one factor apiece.  Every binomial is read from
    the Pascal rows C(a, .), a <= n, built by additions once per call.
    g = 0 adds s[q] * C(q, 0) = s[q], so each pass starts from a copy of s.
    Of the pass for size 1 only cell n is read, so it is one sum over q.

    With stabilizers=False the factors (k-1)!^g * g! are left out, and
    the sum counts the idempotents on [n] instead of n! * p(n).
    """
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        rows.append([1, *map(int.__add__, prev, prev[1:]), 1])
    s = [1] + [0] * n
    for k in range(n, 1, -1):
        fiber_perms = math.factorial(k - 1)
        nxt = s[:]
        for q in range(n - k + 1):
            carried = s[q]  # [(k-1)!^g * g!] * nested product * s[q]
            if not carried:
                continue
            r = q
            for g in range(1, (n - q) // k + 1):
                r += k
                carried *= rows[r - g][k - 1]  # C(q + (k-1)*g, k-1)
                if stabilizers:
                    carried *= fiber_perms * g
                nxt[r] += carried * rows[r][g]
        s = nxt
    # size 1 takes g = n - q: its nested binomials are C(q, 0) = 1,
    # C(r, g) = C(n, q) and (k-1)!^g * g! = (n - q)!
    return sum(
        s[q] * rows[n][q] * (math.factorial(n - q) if stabilizers else 1)
        for q in range(n + 1)
    )


def p_via_formula(n: int) -> int:
    """p(n) as the exact quotient of the type-vector sum by n!.

    The sum is evaluated size by size; the division must come out exact,
    and a remainder signals a bug.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return exact_div(_type_sum_by_size(n), math.factorial(n))


def total_idempotents(n: int) -> int:
    """Number of idempotents on [n], summed over all weight-n types."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return sum(count for _, count, _ in type_terms(n))


def cumulative_identity(m: int) -> tuple[int, int]:
    """Both sides of the cumulative identity up to m, computed independently.

    Left side: sum of n! * p(n) for n = 1..m with p from the pentagonal
    recurrence.  Right side: the raw summands accumulated over all
    weight-n type vectors for n = 1..m.  The two must agree.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    lhs = sum(math.factorial(n) * p_pentagonal(n) for n in range(1, m + 1))
    rhs = sum(
        count * stab for n in range(1, m + 1) for _, count, stab in type_terms(n)
    )
    return lhs, rhs
