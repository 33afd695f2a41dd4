"""Cross-check harness wiring every identity to its independent oracle.

Each check pits a closed-form computation against exhaustive
enumeration (or two independent computations against each other) and
reports a named pass/fail result.  The CLI `verify` subcommand runs
this harness; the test suite exercises the same identities.
"""

from __future__ import annotations

import itertools
import math
import random
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
from .stabilizer import (
    GU_ENUM_LIMIT,
    FiberClass,
    GUElement,
    eta_classes,
    gamma_hom,
    gu_enumerate,
    gu_identity,
    gu_inverse,
    gu_multiply,
    gu_order,
)
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

RNG_SEED = 20260810

GU_EXHAUSTIVE_ORDER = 500
GU_RANDOM_TRIPLES = 1000


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _result(name: str, ok: bool, detail_fail: str) -> CheckResult:
    return CheckResult(name, ok, "" if ok else detail_fail)


def _induced_permutation(z: GUElement) -> tuple[int, ...]:
    """Forward table of the permutation z induces on block_idempotent(((k, |U|),)).

    Member i owns the points i*k+1 (its root) .. i*k+k, and (member i,
    position j) goes to (outer(i), table[i*(k-1) + j-1]), with the root
    as position 0 and fixed by every block.  The roots make the action
    faithful also for k = 1, where every block is empty.
    """
    k = z.fiber_class.fiber_size
    d = k - 1
    table = z.table
    image = []
    for i, target in enumerate(z.outer):
        root = (target - 1) * k + 1
        image.append(root)
        image.extend([root + v for v in table[i * d : i * d + d]])
    return tuple(image)


def _gu_shapes() -> list[tuple[int, int]]:
    """Every (k, |U|) whose class group gu_enumerate lists, k then |U| ascending.

    The order ((k-1)!)^|U| * |U|! never falls as k or |U| grows, so each
    loop ends at the first order above GU_ENUM_LIMIT.
    """
    shapes = []
    for k in itertools.count(1):
        m = 1
        while gu_order(FiberClass(k, tuple(range(1, m + 1)))) <= GU_ENUM_LIMIT:
            shapes.append((k, m))
            m += 1
        if m == 1:
            return shapes


def _check_gu_shape(k: int, m: int, rng: random.Random) -> CheckResult:
    """Group axioms of the class group of m fibers of size k."""
    cls = eta_classes(block_idempotent(((k, m),)))[0]
    elems = list(gu_enumerate(cls))
    order = gu_order(cls)
    name = f"gu-axioms k={k} |U|={m}"
    distinct = len(set(elems))
    if len(elems) != order or distinct != order:
        detail = f"enumerated {len(elems)}, {distinct} distinct != {order}"
        return CheckResult(name, False, detail)
    ident = gu_identity(cls)
    ok = all(
        gu_multiply(ident, z) == z
        and gu_multiply(z, ident) == z
        and gu_multiply(z, inv) == ident
        and gu_multiply(inv, z) == ident
        for z, inv in zip(elems, map(gu_inverse, elems))
    )
    if not ok:
        return CheckResult(name, False, "identity/inverse law failed")
    if order <= GU_EXHAUSTIVE_ORDER:
        # rho injective and multiplicative on all pairs gives
        # rho((ab)c) = rho(a)rho(b)rho(c) = rho(a(bc)), so (ab)c = a(bc).
        # The product's rho is looked up by the product itself; elements
        # are equal only with equal class and tables, so a product outside
        # the enumerated group, or of another class, is not found and fails
        rho = [_induced_permutation(z) for z in elems]
        rho_of = dict(zip(elems, rho))
        failed = CheckResult(name, False, "associativity failed (exhaustive)")
        if len(set(rho)) != order:
            return failed
        for a, ra in zip(elems, rho):
            for b, rb in zip(elems, rho):
                if rho_of.get(gu_multiply(a, b)) != tuple([ra[v - 1] for v in rb]):
                    return failed
        return CheckResult(name, True)
    ok = all(
        gu_multiply(gu_multiply(a, b), c) == gu_multiply(a, gu_multiply(b, c))
        for a, b, c in (
            (rng.choice(elems), rng.choice(elems), rng.choice(elems))
            for _ in range(GU_RANDOM_TRIPLES)
        )
    )
    return _result(name, ok, "associativity failed (random triples)")


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

    ok = all(
        stabilizer_order_formula(type_vector_of(f)) == stab
        for f, stab in zip(idems, stab_counts)
    )
    yield _result(f"stabilizer-order n={n}", ok, "formula != brute force")

    ok = all(
        math.prod(map(gu_order, eta_classes(f))) == stab
        for f, stab in zip(idems, stab_counts)
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
    tally = Counter(type_vector_of(f) for f in idems)
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
        for f in idems:
            stab = stabilizer_bruteforce(f)
            for cls in eta_classes(f):
                ident = gu_identity(cls)
                if gamma_hom(Permutation.identity(n), f, cls) != ident:
                    ok = False
                images = {s: gamma_hom(s, f, cls) for s in stab}
                for s in stab:
                    if gu_inverse(images[s]) != images[s.inverse()]:
                        ok = False
                for s in stab:
                    for t in stab:
                        if gu_multiply(images[t], images[s]) != images[t * s]:
                            ok = False
                if len(set(images.values())) != gu_order(cls):
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
    rng = random.Random(RNG_SEED)
    for n in range(1, nmax_exhaustive + 1):
        yield from _check_exhaustive_level(n)
    for k, m in _gu_shapes():
        yield _check_gu_shape(k, m, rng)
    for n in range(1, nmax_formula + 1):
        yield from _check_formula_level(n)
    m = min(nmax_formula, 12)
    lhs, rhs = cumulative_identity(m)
    yield _result(
        f"cumulative-identity m={m}",
        lhs == rhs,
        f"lhs {lhs} != rhs {rhs}",
    )
