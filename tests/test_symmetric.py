import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idempart import (
    Idempotent,
    Permutation,
    conjugate_idempotent,
    conjugator,
    count_orbits_burnside,
    enumerate_idempotents,
    enumerate_permutations,
    orbit_of,
    p_pentagonal,
    same_orbit,
    stabilizer_bruteforce,
    type_vector_of,
)
from idempart.symmetric import (
    PERMUTATION_ENUM_LIMIT,
    _conjugated,
    _conjugation_sweep,
    _permutation_tables,
)


def test_permutation_validation():
    p = Permutation((2, 3, 1))
    assert p(1) == 2
    assert p.inverse().forward == (3, 1, 2)
    # the repr reads back through the checking constructor
    z = Permutation([5, 8, 6, 7, 1, 3, 4, 2])
    assert eval(repr(z), {"Permutation": Permutation}) == z
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 4, 2))


def test_permutation_slots_cannot_change_after_it_is_hashed():
    p = Permutation((2, 1))
    held = {p: "held"}
    for slot in Permutation.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, slot, getattr(Permutation.identity(2), slot))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(p, slot)
    assert (p.n, p.forward, p.backward) == (2, (2, 1), (2, 1))
    assert held[p] == held[Permutation((2, 1))] == "held"


def test_permutation_composition_applies_right_first():
    p = Permutation((2, 1, 3))
    q = Permutation((2, 3, 1))
    assert (p * q).forward == tuple(p(q(x)) for x in (1, 2, 3))
    assert (p * p.inverse()) == Permutation.identity(3)
    with pytest.raises(ValueError):
        p * Permutation((1, 2))


def _permutations_of_one_size(count):
    """count random permutations of one common size 0..8."""
    return st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.lists(
            st.permutations(range(1, n + 1)).map(Permutation),
            min_size=count,
            max_size=count,
        )
    )


@given(_permutations_of_one_size(3))
def test_unchecked_product_is_a_valid_permutation(perms):
    p, q, r = perms
    pq = p * q
    # products come from the validating constructor, so building one again
    # from the forward table gives the same backward table
    checked = Permutation(pq.forward)
    assert (pq.n, pq.backward) == (checked.n, checked.backward)
    assert pq.forward == tuple(p(q(x)) for x in range(1, p.n + 1))
    assert (pq * r).forward == (p * (q * r)).forward
    assert (pq * r).backward == (p * (q * r)).backward
    assert (p * q).inverse() == checked.inverse()
    assert (p * q).inverse().backward == pq.forward
    pqrq = (pq * r) * (r * q)
    assert pqrq.backward == Permutation(pqrq.forward).backward


def test_every_permutation_is_returned_with_both_tables():
    p = Permutation((2, 3, 1))
    built = (
        p,
        Permutation.identity(3),
        conjugator(Idempotent((1, 1, 3)), Idempotent((1, 3, 3))),
        p.inverse(),
        p * p,
    )
    for sigma in built:
        # read the slot itself, so that nothing can fill it in on first use
        backward = Permutation.backward.__get__(sigma)
        assert tuple(sigma.forward[v - 1] for v in backward) == (1, 2, 3)


def _permutation(pair, n):
    # the forward table is byte 1..n of the padded one
    return Permutation(pair[1][1 : n + 1])


def test_permutation_tables_hold_inverse_and_padded_forward():
    for n in range(0, 6):
        tables = _permutation_tables(n)
        perms = list(enumerate_permutations(n))
        assert len(tables) == len(perms)
        for (inv, fwd), sigma in zip(tables, perms):
            assert tuple(inv) == sigma.backward
            assert len(fwd) == 256
            assert tuple(fwd[1 : n + 1]) == sigma.forward
            assert not any(fwd[0:1] + fwd[n + 1 :])


def test_byte_kernel_matches_tuple_conjugation():
    # a one-pair sweep returns the conjugate of f by that pair alone, so
    # this reads every (f, sigma) conjugation the byte kernel makes
    for n in range(1, 6):
        pairs = list(zip(_permutation_tables(n), enumerate_permutations(n)))
        for f in enumerate_idempotents(n):
            for pair, sigma in pairs:
                (conj,), stab = _conjugation_sweep(f.values, [pair])
                assert tuple(conj) == _conjugated(f.values, sigma)
                assert bool(stab) == (tuple(conj) == f.values)


def test_conjugation_sweep_matches_orbit_and_stabilizer_oracles():
    # orbit_of, stabilizer_bruteforce and conjugate_idempotent conjugate
    # value tuples, not the byte tables the sweep composes
    for n in range(1, 6):
        tables = _permutation_tables(n)
        for f in enumerate_idempotents(n):
            conjugators, stab = _conjugation_sweep(f.values, tables)
            assert {Idempotent(v) for v in conjugators} == orbit_of(f)
            assert tuple(_permutation(s, n) for s in stab) == stabilizer_bruteforce(f)
            assert all(
                conjugate_idempotent(f, _permutation(s, n)).values == tuple(g)
                for g, s in conjugators.items()
            )


def test_enumerate_permutations_counts():
    assert sum(1 for _ in enumerate_permutations(1)) == 1
    assert sum(1 for _ in enumerate_permutations(3)) == 6
    assert sum(1 for _ in enumerate_permutations(5)) == 120


def test_enumerate_permutations_lexicographic():
    seq = [p.forward for p in enumerate_permutations(3)]
    assert seq == sorted(seq)


def test_enumerate_permutations_guard():
    with pytest.raises(ValueError):
        list(enumerate_permutations(9))


def test_conjugate_by_identity():
    for f in enumerate_idempotents(4):
        assert conjugate_idempotent(f, Permutation.identity(4)) == f


def test_conjugate_constant_map():
    f = Idempotent((1, 1, 1))
    swap13 = Permutation((3, 2, 1))
    assert conjugate_idempotent(f, swap13).values == (3, 3, 3)


def test_conjugate_inverse_law():
    for f in enumerate_idempotents(4):
        for sigma in enumerate_permutations(4):
            back = conjugate_idempotent(conjugate_idempotent(f, sigma), sigma.inverse())
            assert back == f


def test_conjugate_size_mismatch():
    with pytest.raises(ValueError):
        conjugate_idempotent(Idempotent((1, 1)), Permutation.identity(3))


def test_action_law_exhaustive_small(idems_by_n, perms_by_n):
    for n in (2, 3, 4):
        for f in idems_by_n[n]:
            for sigma in perms_by_n[n]:
                fs = conjugate_idempotent(f, sigma)
                for tau in perms_by_n[n]:
                    assert conjugate_idempotent(fs, tau) == conjugate_idempotent(
                        f, tau * sigma
                    )


def test_action_law_randomized(idems_by_n, perms_by_n):
    rng = random.Random(402)
    for n in (5, 6):
        for _ in range(300):
            f = rng.choice(idems_by_n[n])
            sigma = rng.choice(perms_by_n[n])
            tau = rng.choice(perms_by_n[n])
            left = conjugate_idempotent(conjugate_idempotent(f, sigma), tau)
            assert left == conjugate_idempotent(f, tau * sigma)


@st.composite
def _idempotent_and_two_permutations(draw):
    """An idempotent on [n], n in 1..8, from a drawn image and retraction."""
    n = draw(st.integers(min_value=1, max_value=PERMUTATION_ENUM_LIMIT))
    image = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
    targets = st.sampled_from(sorted(image))
    retraction = {x: draw(targets) for x in range(1, n + 1) if x not in image}
    f = Idempotent(retraction.get(x, x) for x in range(1, n + 1))
    sigma, tau = (
        Permutation(draw(st.permutations(range(1, n + 1)))) for _ in range(2)
    )
    return f, sigma, tau


@given(_idempotent_and_two_permutations())
def test_action_law_property(drawn):
    f, sigma, tau = drawn
    fs = conjugate_idempotent(f, sigma)
    assert conjugate_idempotent(fs, tau) == conjugate_idempotent(f, tau * sigma)
    assert conjugate_idempotent(f, Permutation.identity(f.n)) == f
    assert type_vector_of(fs) == type_vector_of(f)


def test_type_vector_invariant_under_conjugation(idems_by_n, perms_by_n):
    for n in range(1, 6):
        for f in idems_by_n[n]:
            g = type_vector_of(f)
            for sigma in perms_by_n[n]:
                assert type_vector_of(conjugate_idempotent(f, sigma)) == g


def test_orbit_of_examples():
    assert orbit_of(Idempotent(range(1, 5))) == {Idempotent(range(1, 5))}
    constants = orbit_of(Idempotent((1, 1, 1)))
    assert constants == {Idempotent((c,) * 3) for c in (1, 2, 3)}
    assert len(orbit_of(Idempotent((1, 2, 1)))) == 6


def test_same_orbit_examples():
    f = Idempotent((1, 2, 1))
    assert same_orbit(f, f)
    assert same_orbit(Idempotent((1, 1, 1)), Idempotent((3, 3, 3)))
    assert not same_orbit(Idempotent(range(1, 4)), Idempotent((1, 1, 1)))
    with pytest.raises(ValueError):
        same_orbit(Idempotent((1, 1)), Idempotent((1, 1, 1)))


def test_orbit_count_equals_partition_number(idems_by_n):
    for n in range(1, 6):
        reps = set()
        for f in idems_by_n[n]:
            reps.add(min(h.values for h in orbit_of(f)))
        assert len(reps) == p_pentagonal(n)


def test_distinct_type_vectors_equal_partition_number():
    for n in range(1, 8):
        types = {type_vector_of(f) for f in enumerate_idempotents(n)}
        assert len(types) == p_pentagonal(n)


def test_conjugator_examples():
    f = Idempotent((1, 1, 1))
    g = Idempotent((2, 2, 2))
    sigma = conjugator(f, g)
    assert sigma(1) == 2
    assert conjugate_idempotent(f, sigma) == g

    f2 = Idempotent((1, 2, 1))
    g2 = Idempotent((1, 2, 2))
    assert conjugate_idempotent(f2, conjugator(f2, g2)) == g2

    same = conjugator(f2, f2)
    assert conjugate_idempotent(f2, same) == f2


def test_conjugator_rejects_different_orbits():
    with pytest.raises(ValueError):
        conjugator(Idempotent(range(1, 4)), Idempotent((1, 1, 1)))


def test_stabilizer_bruteforce_examples():
    assert len(stabilizer_bruteforce(Idempotent(range(1, 4)))) == 6
    stab = stabilizer_bruteforce(Idempotent((1, 1, 1)))
    assert {s.forward for s in stab} == {(1, 2, 3), (1, 3, 2)}
    assert [s.forward for s in stabilizer_bruteforce(Idempotent((1, 2, 1)))] == [
        (1, 2, 3)
    ]


def test_orbit_stabilizer_product(idems_by_n):
    import math

    for n in range(1, 6):
        for f in idems_by_n[n]:
            orbit = orbit_of(f)
            stab = stabilizer_bruteforce(f)
            assert len(orbit) * len(stab) == math.factorial(n)


def test_burnside_counts():
    assert [count_orbits_burnside(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_burnside_n3_sum_is_18(idems_by_n):
    total = sum(len(stabilizer_bruteforce(f)) for f in idems_by_n[3])
    assert total == 18


def test_exhaustive_oracles_reject_n_above_the_enumeration_limit():
    n = PERMUTATION_ENUM_LIMIT + 1
    too_big = Idempotent(range(1, n + 1))
    with pytest.raises(ValueError):
        orbit_of(too_big)
    with pytest.raises(ValueError):
        stabilizer_bruteforce(too_big)
    with pytest.raises(ValueError):
        count_orbits_burnside(n)
    with pytest.raises(ValueError):
        count_orbits_burnside(0)
