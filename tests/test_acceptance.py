"""Acceptance suite: every release-gating identity at its full depth.

Each test prints one PASS line when the criterion holds; all
comparisons are exact integer equality.
"""

import random
import time
from collections import Counter

from idempart import (
    BWord,
    Representation,
    apply_rep,
    conjugate_idempotent,
    conjugate_rep,
    conjugator,
    count_idempotents_of_type,
    count_orbits_burnside,
    cumulative_identity,
    enumerate_idempotents,
    enumerate_idempotents_bruteforce,
    enumerate_partitions,
    enumerate_permutations,
    gamma_hom,
    orbit_of,
    p_pentagonal,
    p_via_formula,
    same_orbit,
    stabilizer_bruteforce,
    stabilizer_order_formula,
    type_vector_of,
    verify,
)
from idempart.formula import type_terms
from idempart.symmetric import _conjugated

IDEMPOTENT_TOTALS = {1: 1, 2: 3, 3: 10, 4: 41, 5: 196, 6: 1057}
KNOWN_P = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {criterion}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_main_formula():
    start = time.perf_counter()
    for n in range(1, 51):
        assert p_via_formula(n) == p_pentagonal(n), f"n={n}"
    elapsed = time.perf_counter() - start
    terms = sum(1 for _ in type_terms(50))
    assert terms == 204226 == p_pentagonal(50)
    report(1, True, f"formula == recurrence for n = 1..50 in {elapsed:.1f}s")


def test_criterion_2_burnside_bruteforce():
    start = time.perf_counter()
    for n in range(1, 6):
        assert count_orbits_burnside(n) == p_pentagonal(n), f"n={n}"
    elapsed = time.perf_counter() - start
    report(2, True, f"exhaustive stabilizer average == p(n), n = 1..5, {elapsed:.1f}s")


def test_criterion_3_stabilizer_order_formula():
    for n in range(1, 6):
        for f in enumerate_idempotents(n):
            expected = len(stabilizer_bruteforce(f))
            assert stabilizer_order_formula(type_vector_of(f)) == expected, f.values
    report(3, True, "closed-form stabilizer order == brute force, n = 1..5")


def test_criterion_4_per_type_counts():
    for n in range(1, 7):
        tally = Counter(type_vector_of(f) for f in enumerate_idempotents(n))
        if n <= 5:
            brute = Counter(
                type_vector_of(f) for f in enumerate_idempotents_bruteforce(n)
            )
            assert tally == brute, f"n={n}"
        for g, _, _ in type_terms(n):
            assert count_idempotents_of_type(n, g) == tally[g], (n, g)
        assert sum(tally.values()) == IDEMPOTENT_TOTALS[n], f"n={n}"
    report(4, True, "per-type counts match tallies, totals 1,3,10,41,196,1057")


def test_criterion_5_orbit_characterization():
    for n in range(1, 5):
        idems = list(enumerate_idempotents(n))
        orbits = {f: orbit_of(f) for f in idems}
        for f in idems:
            for g in idems:
                in_orbit = g in orbits[f]
                assert same_orbit(f, g) == in_orbit, (f.values, g.values)
                if in_orbit:
                    sigma = conjugator(f, g)
                    assert conjugate_idempotent(f, sigma) == g, (f.values, g.values)
    report(5, True, "type criterion == orbit oracle + conjugator works, n = 1..4")


def test_criterion_6_group_structure_and_gamma():
    # every enumerable class group, through the same check that `verify`
    # runs: gu_order distinct elements, equal to the closure of
    # independent generators that commute with the block idempotent
    shapes_checked = 0
    for k, m in verify._gu_shapes():
        result = verify._check_gu_shape(k, m)
        assert result.ok, result
        shapes_checked += 1

    # homomorphism laws and surjectivity, exhaustively for n <= 4, through
    # the gamma-homomorphism check that `verify` runs
    for n in range(1, 5):
        (result,) = [
            r
            for r in verify._check_exhaustive_level(n)
            if r.name == f"gamma-homomorphism n={n}"
        ]
        assert result.ok, result

    # and on sampled stabilizer pairs at n = 5
    rng = random.Random(1257)
    pairs = 0
    idems5 = list(enumerate_idempotents(5))
    perms5 = list(enumerate_permutations(5))
    rng.shuffle(idems5)
    for f in idems5:
        stab = [s for s in perms5 if _conjugated(f.values, s) == f.values]
        sizes = [k for k, _ in type_vector_of(f)]
        for _ in range(4):
            s = rng.choice(stab)
            t = rng.choice(stab)
            for k in sizes:
                assert gamma_hom(t, f, k) * gamma_hom(s, f, k) == gamma_hom(
                    t * s, f, k
                )
                assert gamma_hom(s, f, k).inverse() == gamma_hom(s.inverse(), f, k)
            pairs += 1
        if pairs >= 200:
            break
    assert pairs >= 200
    report(6, True, f"group axioms on {shapes_checked} shapes + hom laws")


def test_criterion_7_equivariance():
    for n in range(1, 5):
        perms = list(enumerate_permutations(n))
        for f in enumerate_idempotents(n):
            rho = Representation(f)
            for sigma in perms:
                image = conjugate_rep(rho, sigma)
                for w in BWord:
                    for x in range(1, n + 1):
                        assert apply_rep(image, w, sigma(x)) == sigma(
                            apply_rep(rho, w, x)
                        ), (f.values, sigma.forward, w, x)
    report(7, True, "sigma intertwines rho with its conjugate, n = 1..4")


def test_criterion_8_cumulative_identity():
    for m in range(1, 13):
        lhs, rhs = cumulative_identity(m)
        assert lhs == rhs, f"m={m}: {lhs} != {rhs}"
    report(8, True, "cumulative sums agree for m = 1..12")


def test_criterion_9_known_values():
    for n, expected in enumerate(KNOWN_P, start=1):
        assert sum(1 for _ in enumerate_partitions(n)) == expected
        assert p_pentagonal(n) == expected, f"n={n}"
        assert p_via_formula(n) == expected, f"n={n}"
        if n <= 6:
            assert count_orbits_burnside(n) == expected, f"n={n}"
    report(9, True, "p(1..10) = 1,2,3,5,7,11,15,22,30,42 on every route")
