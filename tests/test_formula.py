import math
from collections import Counter

import pytest

from idempart import (
    Idempotent,
    count_idempotents_of_type,
    cumulative_identity,
    enumerate_idempotents,
    enumerate_idempotents_bruteforce,
    formula,
    p_pentagonal,
    p_via_formula,
    stabilizer_order_formula,
    summand,
    summand_direct,
    total_idempotents,
    type_vector_of,
)
from idempart.cli import PN_CAP
from idempart.formula import stabilizer_order_formula, type_terms


def test_count_examples_n3():
    assert count_idempotents_of_type(3, ((1, 3),)) == 1
    assert count_idempotents_of_type(3, ((1, 1), (2, 1))) == 6
    assert count_idempotents_of_type(3, ((3, 1),)) == 3


def test_count_rejects_weight_mismatch():
    with pytest.raises(ValueError):
        count_idempotents_of_type(4, ((1, 1), (2, 1)))
    # weight n, but not sparse type vectors
    for n, g in (
        (3, ((1, 1), (1, 2))),  # a size repeated
        (3, ((1, -1), (2, 2))),  # g(k) below 1
        (2, ((2, 1), (0, 5))),  # a size below 1
        (4, ((1, 4), (3, 0))),  # g(k) = 0 listed
        (5, ((2, 1), (1, 3))),  # sizes descending
    ):
        with pytest.raises(ValueError):
            count_idempotents_of_type(n, g)
        with pytest.raises(ValueError):
            stabilizer_order_formula(g)
        with pytest.raises(ValueError):
            summand_direct(n, g)
        with pytest.raises(ValueError):
            summand(n, g)
    with pytest.raises(ValueError):
        summand_direct(3, ((1, 2),))  # weight 2


def test_count_matches_bruteforce_tally():
    for n in range(1, 6):
        tally = Counter(
            type_vector_of(Idempotent(v)) for v in enumerate_idempotents_bruteforce(n)
        )
        for g, _, _ in type_terms(n):
            assert count_idempotents_of_type(n, g) == tally[g]


def test_count_matches_constructive_tally_n6():
    tally = Counter(type_vector_of(f) for f in enumerate_idempotents(6))
    for g, _, _ in type_terms(6):
        assert count_idempotents_of_type(6, g) == tally[g]
    assert sum(tally.values()) == 1057


def test_total_idempotents():
    assert total_idempotents(1) == 1
    assert total_idempotents(4) == 41
    assert total_idempotents(5) == 196
    for n in range(1, 7):
        assert total_idempotents(n) == sum(1 for _ in enumerate_idempotents(n))


def test_total_idempotents_image_size_oracle():
    # independent closed form (Harris-Schoenfeld 1967, OEIS A000248):
    # choose a k-point image, retract the rest; it checks the walk's
    # carried counts far beyond the exhaustive range
    from math import comb

    for n in [*range(1, 41), 50, 60]:
        expected = sum(comb(n, k) * k ** (n - k) for k in range(1, n + 1))
        assert total_idempotents(n) == expected


def test_type_terms_carry_the_per_type_references():
    # the walk's carried factors against the count and order rebuilt per type
    for n in range(1, 31):
        for g, count, stab in type_terms(n):
            assert (count, stab) == (
                count_idempotents_of_type(n, g),
                stabilizer_order_formula(g),
            ), (n, g)


def test_summand_equals_literal_transcription():
    for n in range(1, 13):
        for g, _, _ in type_terms(n):
            assert summand(n, g) == summand_direct(n, g)


def test_p_via_formula_small():
    assert p_via_formula(1) == 1
    assert p_via_formula(3) == 3
    assert sum(summand(3, g) for g, _, _ in type_terms(3)) == 18
    assert p_via_formula(10) == 42


def test_p_via_formula_matches_pentagonal():
    for n in range(1, 31):
        assert p_via_formula(n) == p_pentagonal(n)


def test_sum_is_divisible_by_factorial():
    for n in (1, 5, 17, 33, 42):
        total = sum(summand(n, g) for g, _, _ in type_terms(n))
        assert total % math.factorial(n) == 0


def test_size_by_size_sum_matches_term_sum():
    for n in range(1, 31):
        terms = sum(count * stab for _, count, stab in type_terms(n))
        assert formula._type_sum_by_size(n) == terms


def _type_sum_by_size_rebuilt(n):
    # the DP with free points r outermost, rebuilding every factor of
    # every (k, r, g) term from scratch
    s = [1] + [0] * n
    for k in range(n, 0, -1):
        nxt = [0] * (n + 1)
        for r in range(n + 1):
            for g in range(r // k + 1):
                term = math.factorial(k - 1) ** g * math.factorial(g) * math.comb(r, g)
                for v in range(1, g + 1):
                    term *= math.comb(r - g - (v - 1) * (k - 1), k - 1)
                nxt[r] += term * s[r - k * g]
        s = nxt
    return s[n]


def test_size_by_size_sum_matches_rebuilt_factors():
    for n in range(1, 61):
        assert formula._type_sum_by_size(n) == _type_sum_by_size_rebuilt(n)


def test_size_by_size_sum_is_factorial_times_partition_number():
    for n in [*range(121), 200]:
        assert formula._type_sum_by_size(n) == math.factorial(n) * p_pentagonal(n)


def test_count_only_sum_matches_the_type_walk():
    for n in range(1, 31):
        assert formula._type_sum_by_size(n, stabilizers=False) == total_idempotents(n)


def test_count_only_sum_matches_the_closed_form():
    from math import comb

    for n in range(1, 61):
        expected = sum(comb(n, j) * j ** (n - j) for j in range(1, n + 1))
        assert formula._type_sum_by_size(n, stabilizers=False) == expected


def test_p_via_formula_matches_sympy_partition():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for n in (1, 2, 7, 25, 50, 99, 123, 150, 177, PN_CAP):
        assert p_via_formula(n) == numbers.partition(n)


def test_formula_check_requires_every_summand_to_be_factorial(monkeypatch):
    from idempart import verify

    # move one unit between the first two summands: every total is kept,
    # so only the per-summand condition can notice
    shift = iter([1, -1])
    exact = verify.type_terms

    def shifted(n):
        # (summand + d, 1) in place of (count, stabilizer order)
        for g, count, stab in exact(n):
            yield g, count * stab + next(shift, 0), 1

    monkeypatch.setattr(verify, "type_terms", shifted)
    first = next(verify._check_formula_level(3))
    assert first.name == "formula-pn n=3"
    assert not first.ok
    assert "2 summands != n!" in first.detail


def test_idempotent_count_check_fails_on_a_dropped_nested_binomial(monkeypatch):
    from idempart import verify

    exact = verify._type_sum_by_size

    def dropped(n, stabilizers=True):
        if stabilizers:
            return exact(n)
        # the count-only sum rebuilt per (k, r, g) term, each term without
        # its last nested binomial C(r - k*g + k - 1, k - 1); that one is 1
        # unless a larger size is present, first for type (0, 1, 1) at n = 5
        s = [1] + [0] * n
        for k in range(n, 0, -1):
            nxt = [0] * (n + 1)
            for r in range(n + 1):
                for g in range(r // k + 1):
                    term = math.comb(r, g)
                    for v in range(1, g):
                        term *= math.comb(r - g - (v - 1) * (k - 1), k - 1)
                    nxt[r] += term * s[r - k * g]
            s = nxt
        return s[n]

    monkeypatch.setattr(verify, "_type_sum_by_size", dropped)
    results = {r.name: r for r in verify._check_formula_level(6)}
    assert not results["idempotent-count n=6"].ok
    assert "!= closed form" in results["idempotent-count n=6"].detail
    assert [name for name, r in results.items() if not r.ok] == ["idempotent-count n=6"]


def test_p_via_formula_rejects_zero():
    with pytest.raises(ValueError):
        p_via_formula(0)


def test_cumulative_identity_examples():
    assert cumulative_identity(1) == (1, 1)
    assert cumulative_identity(3) == (23, 23)
    lhs, rhs = cumulative_identity(12)
    assert lhs == rhs


def test_cumulative_identity_rejects_zero():
    with pytest.raises(ValueError):
        cumulative_identity(0)
