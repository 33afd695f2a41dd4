import itertools
from collections import Counter

import pytest

from idempart import (
    Idempotent,
    Permutation,
    block_idempotent,
    conjugate_idempotent,
    conjugator,
    enumerate_idempotents,
    enumerate_idempotents_bruteforce,
    gamma_hom,
    type_vector_of,
)
from idempart.formula import type_terms

IDEMPOTENT_COUNTS = {1: 1, 2: 3, 3: 10, 4: 41, 5: 196}


def test_finite_map_validation():
    f = Idempotent((2, 2, 3))
    assert f(1) == 2 and f.n == 3
    with pytest.raises(ValueError, match="nonempty"):
        Idempotent(())
    with pytest.raises(ValueError, match="outside"):
        Idempotent((1, 4, 2))
    with pytest.raises(ValueError):
        f(0)
    with pytest.raises(ValueError):
        f(4)


def test_is_idempotent():
    assert Idempotent(range(1, 6)).values == (1, 2, 3, 4, 5)
    assert Idempotent((2, 2, 3)).values == (2, 2, 3)
    with pytest.raises(ValueError, match="not idempotent"):
        Idempotent((2, 3, 1))
    with pytest.raises(ValueError, match="not idempotent"):
        Idempotent((2, 1))


def test_idempotent_construction_validates():
    f = Idempotent((1, 2, 1))
    assert f.image == (1, 2)
    assert f.fibers == {1: (1, 3), 2: (2,)}
    with pytest.raises(ValueError):
        Idempotent((2, 3, 1))


def test_idempotent_slots_cannot_change_after_it_is_hashed():
    f = Idempotent((1, 1, 3))
    held = {f: "held"}
    for slot in Idempotent.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(f, slot, getattr(Idempotent((1, 2, 3)), slot))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, slot)
    assert (f.n, f.values, f.image) == (3, (1, 1, 3), (1, 3))
    assert f.fibers == {1: (1, 2), 3: (3,)}
    assert held[f] == held[Idempotent((1, 1, 3))] == "held"


def test_idempotent_fibers_cannot_be_written():
    # the fibers are read by type_vector_of, gamma_hom and conjugator; a
    # write into them is refused and leaves all three as they were
    f = Idempotent((1, 1, 3))
    g = Idempotent((1, 3, 3))
    identity = Permutation.identity(3)

    def readings():
        return type_vector_of(f), gamma_hom(identity, f, 2), conjugator(f, g)

    before = readings()
    assert before[:2] == (((1, 1), (2, 1)), Permutation.identity(2))
    assert conjugate_idempotent(f, before[2]) == g
    with pytest.raises(TypeError):
        f.fibers[3] = (1, 2, 3)
    with pytest.raises(TypeError):
        del f.fibers[1]
    assert f.fibers == {1: (1, 2), 3: (3,)}
    assert readings() == before


def test_idempotent_fibers_contain_roots():
    for n in range(1, 6):
        for f in enumerate_idempotents(n):
            assert set(f.image) == {v for v in f.values}
            for x in f.image:
                assert x in f.fibers[x]


def test_bruteforce_counts_and_examples():
    assert list(enumerate_idempotents_bruteforce(2)) == [
        (1, 1),
        (1, 2),
        (2, 2),
    ]
    for n, count in IDEMPOTENT_COUNTS.items():
        assert sum(1 for _ in enumerate_idempotents_bruteforce(n)) == count


def test_bruteforce_keeps_exactly_the_maps_equal_to_their_square():
    # the scan's own law test reads values; this oracle composes each
    # value tuple with itself, in the order itertools.product lists them
    for n in range(1, 6):
        expected = [
            v
            for v in itertools.product(range(1, n + 1), repeat=n)
            if tuple(v[x - 1] for x in v) == v
        ]
        assert list(enumerate_idempotents_bruteforce(n)) == expected


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        list(enumerate_idempotents_bruteforce(8))
    with pytest.raises(ValueError):
        list(enumerate_idempotents_bruteforce(0))


def test_constructive_matches_bruteforce():
    for n in range(1, 6):
        constructive = list(enumerate_idempotents(n))
        brute = set(enumerate_idempotents_bruteforce(n))
        assert len(constructive) == len(set(constructive))
        assert {f.values for f in constructive} == brute


def test_constructive_counts():
    for n, count in IDEMPOTENT_COUNTS.items():
        assert sum(1 for _ in enumerate_idempotents(n)) == count


def test_constructive_order_is_image_then_retraction():
    # image sets in lexicographic order, then the values of the points
    # outside the image, read in ascending point order
    def key(f):
        return f.image, tuple(v for x, v in enumerate(f.values, 1) if v != x)

    for n in range(1, 7):
        brute = sorted(map(Idempotent, enumerate_idempotents_bruteforce(n)), key=key)
        assert [f.values for f in enumerate_idempotents(n)] == [
            f.values for f in brute
        ]


def test_all_enumerated_maps_are_idempotent():
    for n in range(1, 8):
        for f in enumerate_idempotents(n):
            vals = f.values
            assert all(vals[v - 1] == v for v in vals)


def test_type_vector_of_examples():
    assert type_vector_of(Idempotent(range(1, 4))) == ((1, 3),)
    assert type_vector_of(Idempotent((1, 1, 1))) == ((3, 1),)
    assert type_vector_of(Idempotent((1, 2, 1))) == ((1, 1), (2, 1))
    assert type_vector_of(Idempotent((1, 2, 1, 4, 4))) == ((1, 1), (2, 2))


def test_type_vector_of_matches_the_counter_of_fiber_sizes():
    for n in range(1, 7):
        for f in enumerate_idempotents(n):
            sizes = Counter(len(fiber) for fiber in f.fibers.values())
            assert type_vector_of(f) == tuple(sorted(sizes.items()))


def test_type_vector_weight_invariant():
    for n in range(1, 8):
        for f in enumerate_idempotents(n):
            assert sum(k * gk for k, gk in type_vector_of(f)) == n


def test_block_idempotent_has_the_type_it_is_built_from():
    for n in range(1, 13):
        for g, _, _ in type_terms(n):
            assert type_vector_of(block_idempotent(g)) == g
    # consecutive blocks, each rooted at its first point
    assert block_idempotent(((1, 1), (2, 2))).values == (1, 2, 2, 4, 4)


@pytest.mark.parametrize(
    "g",
    [
        ((2, 1), (1, 1)),  # sizes descending
        ((2, 1), (2, 1)),  # size 2 listed twice
        ((1, 2), (1, 1)),  # size 1 listed twice
        ((3, 0), (1, 2)),  # g(3) = 0 left in, sizes descending
    ],
)
def test_block_idempotent_rejects_a_malformed_type_vector(g):
    with pytest.raises(ValueError, match="not a sparse type vector"):
        block_idempotent(g)
