import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idempart import (
    Idempotent,
    enumerate_partitions,
    exact_div,
    p_pentagonal,
    type_vector_of,
)
from idempart.formula import type_terms

# ---------------------------------------------------------------- oracles


def partitions_ascending_dfs(n):
    """Independent enumeration: nondecreasing part tuples by DFS."""
    out = []

    def rec(remaining, minpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(minpart, remaining + 1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(n, 1, [])
    return out


def multiplicities(parts):
    """Sparse type vector of a part tuple: ((k, #parts equal to k), ...)."""
    return tuple(sorted(Counter(parts).items()))


def partition_count_dp(n):
    """Independent count: classic unbounded-part dynamic program."""
    dp = [0] * (n + 1)
    dp[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            dp[total] += dp[total - part]
    return dp[n]


# ------------------------------------------------------------- exact_div


def test_exact_div():
    assert exact_div(18, 6) == 3
    assert exact_div(math.factorial(30), math.factorial(29)) == 30
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


# ------------------------------------------------------------ partitions


def test_enumerate_partitions_trivial():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(1)) == [(1,)]


def test_enumerate_partitions_of_four():
    got = list(enumerate_partitions(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_partitions_matches_dfs_oracle():
    for n in range(11):
        got = list(enumerate_partitions(n))
        expected = {tuple(reversed(t)) for t in partitions_ascending_dfs(n)}
        assert set(got) == expected
        assert len(got) == len(expected) == partition_count_dp(n)


def test_enumerate_partitions_reverse_lex_order():
    for n in range(1, 13):
        got = list(enumerate_partitions(n))
        assert got == sorted(got, reverse=True)


def test_partition_count_n10():
    assert sum(1 for _ in enumerate_partitions(10)) == 42


# ---------------------------------------------------------- type vectors


def test_enumerate_type_vectors_small():
    assert [g for g, _, _ in type_terms(1)] == [((1, 1),)]
    assert {g for g, _, _ in type_terms(2)} == {((1, 2),), ((2, 1),)}
    assert sum(1 for _ in type_terms(4)) == 5


def test_enumerate_type_vectors_bijective_image():
    assert multiplicities((2, 1)) == ((1, 1), (2, 1))
    assert multiplicities((1, 1, 1)) == ((1, 3),)
    for n in range(1, 31):
        parts = list(enumerate_partitions(n))
        tvs = [g for g, _, _ in type_terms(n)]
        assert len(tvs) == len(parts) == len(set(tvs))
        assert all(sum(k * gk for k, gk in g) == n for g in tvs)
        assert all(gk > 0 for g in tvs for _, gk in g)
        assert all([k for k, _ in g] == sorted({k for k, _ in g}) for g in tvs)
        # the walk yields the types in the partitions' reverse-lex order
        assert tvs == [multiplicities(p) for p in parts]


def test_enumerate_type_vectors_rejects_zero():
    with pytest.raises(ValueError):
        list(type_terms(0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_type_vector_round_trips_through_parts_and_idempotents(data):
    n = data.draw(st.integers(1, 25))
    partitions = list(enumerate_partitions(n))
    i = data.draw(st.integers(0, len(partitions) - 1))
    g = [g for g, _, _ in type_terms(n)][i]
    parts = tuple(k for k, gk in reversed(g) for _ in range(gk))
    assert parts == partitions[i]
    # an idempotent whose fibers are the parts, on shuffled points
    points = data.draw(st.permutations(range(1, n + 1)))
    values = [0] * n
    start = 0
    for part in parts:
        fiber = points[start:start + part]
        root = data.draw(st.sampled_from(fiber))
        for x in fiber:
            values[x - 1] = root
        start += part
    f = Idempotent(values)
    assert sorted(len(fiber) for fiber in f.fibers.values()) == sorted(parts)
    assert type_vector_of(f) == g


# ------------------------------------------------------------ pentagonal


def test_p_pentagonal_base_cases():
    assert p_pentagonal(0) == 1
    assert p_pentagonal(5) == 7
    assert p_pentagonal(10) == 42


def test_p_pentagonal_matches_enumeration():
    for n in range(26):
        assert p_pentagonal(n) == sum(1 for _ in enumerate_partitions(n))


def test_p_pentagonal_matches_dp_count():
    for n in range(0, 80, 7):
        assert p_pentagonal(n) == partition_count_dp(n)


def test_p_pentagonal_rejects_negative():
    with pytest.raises(ValueError):
        p_pentagonal(-3)
