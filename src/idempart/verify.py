"""Cross-check harness wiring every identity to its independent oracle.

Each check pits a closed-form computation against exhaustive
enumeration (or two independent computations against each other) and
reports a named pass/fail result.  The CLI `verify` subcommand runs
this harness; the test suite exercises the same identities.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterator, NamedTuple

from .combinatorics import PERMUTATION_ENUM_LIMIT, enumerate_partitions, p_pentagonal
from .formula import (
    _type_sum_by_size,
    count_idempotents_of_type,
    cumulative_identity,
    stabilizer_order_formula,
    summand,
    summand_direct,
    type_terms,
)
from .representations import BWord, Representation, apply_rep, conjugate_rep
from .stabilizer import GU_ENUM_LIMIT, gamma_hom, gu_enumerate, gu_order
from .symmetric import (
    Permutation,
    _orbit_stats,
    conjugate_idempotent,
    conjugator,
    enumerate_permutations,
    same_orbit,
    stabilizer_bruteforce,
)
from .transformations import (
    BRUTE_FORCE_MAP_LIMIT,
    block_idempotent,
    enumerate_idempotents,
    enumerate_idempotents_bruteforce,
    type_vector_of,
)

__all__ = ["CheckResult", "run_verification"]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _result(name: str, ok: bool, detail_fail: str) -> CheckResult:
    return CheckResult(name, ok, "" if ok else detail_fail)


def _gu_shapes() -> list[tuple[int, int]]:
    """Every (k, |U|) whose class group gu_enumerate lists, k then |U| ascending.

    The order ((k-1)!)^|U| * |U|! never falls as k or |U| grows, so each
    loop ends at the first order above GU_ENUM_LIMIT.
    """
    shapes = []
    for k in itertools.count(1):
        m = 1
        while gu_order(k, m) <= GU_ENUM_LIMIT:
            shapes.append((k, m))
            m += 1
        if m == 1:
            return shapes


def _gu_generators(k: int, m: int) -> list[tuple[int, ...]]:
    """Forward tables of generators of S_{k-1} wr S_m on [k*m].

    Written from the layout alone, not from gu_enumerate: a transposition
    and a (k-1)-cycle of member 0's non-root points 2..k, a swap of
    members 0 and 1, and a cycle of all members, each left out where it
    is the identity or repeats another.
    """
    points = list(range(1, k * m + 1))
    generators = []
    if k >= 3:
        transposition = points[:]
        transposition[1:3] = [3, 2]
        generators.append(transposition)
    if k >= 4:
        generators.append([1, *range(3, k + 1), 2, *points[k:]])
    if m >= 2:
        generators.append([*points[k : 2 * k], *points[:k], *points[2 * k :]])
    if m >= 3:
        generators.append([*points[k:], *points[:k]])
    return [tuple(g) for g in generators]


def _check_gu_shape(k: int, m: int) -> CheckResult:
    """The class group of m fibers of size k is a group of gu_order elements.

    The generators of _gu_generators must commute with the block
    idempotent whose fibers they permute, and the enumerated elements
    must be distinct and gu_order of them.  Left multiplication by the
    generators, from the identity, must then reach every element and
    nothing else: the enumerated set is the subgroup of S_{k*m} that
    they generate.  The permutations that commute with the idempotent
    form a subgroup too, so every element commutes with it.
    """
    f = block_idempotent(((k, m),))
    order = gu_order(k, m)
    name = f"gu-axioms k={k} |U|={m}"
    values = f.values
    generators = _gu_generators(k, m)
    for g in generators:
        if [g[v - 1] for v in values] != [values[v - 1] for v in g]:
            detail = f"{Permutation(g)} does not commute with {f}"
            return CheckResult(name, False, detail)
    # each element is held once, as the bytes of its forward table mapped
    # to its index; the enumerated tuples are dropped as they come
    index: dict[bytes, int] = {}
    enumerated = 0
    for z in gu_enumerate(k, m):
        enumerated += 1
        index.setdefault(bytes(z), len(index))
    if enumerated != order or len(index) != order:
        detail = f"enumerated {enumerated}, {len(index)} distinct != {order}"
        return CheckResult(name, False, detail)
    start = index.get(bytes(range(1, k * m + 1)))
    if start is None:
        return CheckResult(name, False, "the identity is not enumerated")
    tables = list(index)
    # translate sends each byte v of z's forward table to byte v of g256,
    # g's table padded to 256 bytes, so it gives the table of g * z
    padded = [(g, bytes([0, *g, *range(k * m + 1, 256)])) for g in generators]
    reached = bytearray(order)
    reached[start] = 1
    count = 1
    unexpanded = [start]
    while unexpanded:
        table = tables[unexpanded.pop()]
        for g, g256 in padded:
            j = index.get(table.translate(g256))
            if j is None:
                detail = f"{Permutation(g)} * {Permutation(table)} is not enumerated"
                return CheckResult(name, False, detail)
            if not reached[j]:
                reached[j] = 1
                count += 1
                unexpanded.append(j)
    return _result(name, count == order, f"the generators reach {count} of {order}")


def _check_exhaustive_level(n: int) -> Iterator[CheckResult]:
    idems = list(enumerate_idempotents(n))
    perms = list(enumerate_permutations(n))
    pn = p_pentagonal(n)

    if n <= BRUTE_FORCE_MAP_LIMIT:
        # value tuples, not maps: an Idempotent hashes and compares by its
        # values, so this is the same test, and the oracle's maps and the
        # set are freed before the level's other checks run
        brute = {f.values for f in enumerate_idempotents_bruteforce(n)}
        result = _result(
            f"idempotent-enumeration n={n}",
            {f.values for f in idems} == brute and len(idems) == len(brute),
            f"constructive {len(idems)} vs brute {len(brute)}",
        )
        del brute
        yield result

    stab_counts, orbit_keys, partition = _orbit_stats(idems, perms)
    # one type vector per idempotent, read by the checks below; equal
    # vectors share one tuple, so the level holds p(n) of them, not |I(n)|
    shared: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
    types = [shared.setdefault(g, g) for g in map(type_vector_of, idems)]

    ok = all(
        stabilizer_order_formula(g) == stab for g, stab in zip(types, stab_counts)
    )
    yield _result(f"stabilizer-order n={n}", ok, "formula != brute force")

    ok = all(
        math.prod(gu_order(k, m) for k, m in g) == stab
        for g, stab in zip(types, stab_counts)
    )
    yield _result(f"stabilizer-class-product n={n}", ok, "class orders != brute force")

    orbit_sizes = Counter(orbit_keys)
    yield _result(
        f"orbit-count n={n}",
        partition and len(orbit_sizes) == pn,
        f"{len(orbit_sizes)} orbits, p({n}) = {pn}, orbits partition "
        f"the enumerated idempotents: {partition}",
    )

    nfact = math.factorial(n)
    ok = all(
        orbit_sizes[key] * stab == nfact
        for key, stab in zip(orbit_keys, stab_counts)
    )
    yield _result(f"orbit-stabilizer-product n={n}", ok, "orbit * stab != n!")

    # the walk's carried count and the per-type product must both match
    # the tally; equal totals then leave no tallied type outside the walk
    tally = Counter(types)
    ok = True
    walked = 0
    for g, count, _ in type_terms(n):
        ok &= tally.get(g, 0) == count == count_idempotents_of_type(n, g)
        walked += count
    ok &= sum(tally.values()) == walked
    yield _result(f"type-count n={n}", ok, "per-type count != tally")

    total_stab = sum(stab_counts)
    yield _result(
        f"burnside n={n}",
        total_stab == nfact * pn,
        f"sum |stab| = {total_stab} != n! * p(n) = {nfact * pn}",
    )

    if n <= 4:
        key_of = dict(zip(idems, orbit_keys))
        ok = all(
            same_orbit(f, g) == (key_of[f] == key_of[g])
            for f in idems
            for g in idems
        )
        yield _result(f"orbit-criterion n={n}", ok, "type test != orbit oracle")

        ok = all(
            conjugate_idempotent(f, conjugator(f, g)) == g
            for f in idems
            for g in idems
            if key_of[f] == key_of[g]
        )
        yield _result(f"conjugator n={n}", ok, "conjugator postcondition failed")

        # rho respects products of words, and sigma intertwines rho with
        # sigma . rho; both read single points, not _conjugated's tables
        points = range(1, n + 1)
        reps = [Representation(f) for f in idems]
        ok = all(
            apply_rep(rho, u * w, x) == apply_rep(rho, u, apply_rep(rho, w, x))
            for rho in reps
            for u in BWord
            for w in BWord
            for x in points
        ) and all(
            apply_rep(image, w, sigma(x)) == sigma(apply_rep(rho, w, x))
            for rho in reps
            for sigma in perms
            for image in [conjugate_rep(rho, sigma)]
            for w in BWord
            for x in points
        )
        yield _result(f"equivariance n={n}", ok, "representation law fails")

        ok = True
        for f, g in zip(idems, types):
            stab = stabilizer_bruteforce(f)
            for k, m in g:
                ident = Permutation.identity(k * m)
                if gamma_hom(Permutation.identity(n), f, k) != ident:
                    ok = False
                images = {s: gamma_hom(s, f, k) for s in stab}
                for s in stab:
                    if images[s].inverse() != images[s.inverse()]:
                        ok = False
                for s in stab:
                    for t in stab:
                        if images[t] * images[s] != images[t * s]:
                            ok = False
                if len(set(images.values())) != gu_order(k, m):
                    ok = False
        yield _result(f"gamma-homomorphism n={n}", ok, "hom/surjectivity failed")


def _check_formula_level(n: int) -> Iterator[CheckResult]:
    pn = p_pentagonal(n)
    nfact = math.factorial(n)
    # one pass over the terms: each summand is |Stab f| * |orbit of f| for
    # an idempotent f of its type, which orbit-stabilizer makes exactly n!
    total = 0
    off_terms = 0
    for _, count, stab in type_terms(n):
        term = count * stab
        total += term
        off_terms += term != nfact
    by_size = _type_sum_by_size(n)
    ok = off_terms == 0 and total == by_size and total == nfact * pn
    yield _result(
        f"formula-pn n={n}",
        ok,
        f"term sum {total}, size-by-size sum {by_size}, n! * p(n) = {nfact * pn}, "
        f"{off_terms} summands != n!",
    )
    # Harris and Schoenfeld's closed form: choose the j-point image, then
    # send each of the other n - j points to one of its j fixed points
    idempotents = _type_sum_by_size(n, stabilizers=False)
    closed = sum(math.comb(n, j) * j ** (n - j) for j in range(1, n + 1))
    yield _result(
        f"idempotent-count n={n}",
        idempotents == closed,
        f"size-by-size count {idempotents} != closed form {closed}",
    )
    if n <= 25:
        count = sum(1 for _ in enumerate_partitions(n))
        yield _result(
            f"partition-count n={n}",
            count == pn,
            f"enumerated {count} != recurrence {pn}",
        )
    if n <= 12:
        ok = all(
            count * stab == summand(n, g) == summand_direct(n, g)
            for g, count, stab in type_terms(n)
        )
        yield _result(f"summand-decomposition n={n}", ok, "factored != literal")


def run_verification(nmax_exhaustive: int, nmax_formula: int) -> Iterator[CheckResult]:
    """Run every cross-check up to the given depth caps.

    nmax_exhaustive bounds the enumeration-backed identities, which
    conjugate by all n! permutations; nmax_formula bounds the pure
    formula identities.
    """
    if not 1 <= nmax_exhaustive <= PERMUTATION_ENUM_LIMIT:
        raise ValueError(
            f"exhaustive depth must lie in 1..{PERMUTATION_ENUM_LIMIT}, "
            f"got {nmax_exhaustive}"
        )
    if nmax_formula < 1:
        raise ValueError(f"formula depth must be positive, got {nmax_formula}")
    for n in range(1, nmax_exhaustive + 1):
        yield from _check_exhaustive_level(n)
    for k, m in _gu_shapes():
        yield _check_gu_shape(k, m)
    for n in range(1, nmax_formula + 1):
        yield from _check_formula_level(n)
    m = min(nmax_formula, 12)
    lhs, rhs = cumulative_identity(m)
    yield _result(
        f"cumulative-identity m={m}",
        lhs == rhs,
        f"lhs {lhs} != rhs {rhs}",
    )
