import random

import pytest

from idempart import (
    BWord,
    FiniteMap,
    Idempotent,
    Permutation,
    Representation,
    apply_rep,
    check_representation,
    conjugate_idempotent,
    conjugate_rep,
    enumerate_idempotents,
    enumerate_permutations,
    reduce_word,
    rep_from_idempotent,
)


def test_reduce_word():
    assert reduce_word(0) is BWord.IDENT
    assert reduce_word(1) is BWord.GEN
    assert reduce_word(17) is BWord.GEN
    with pytest.raises(ValueError):
        reduce_word(-1)


def test_bword_multiplication():
    # the quotient relation: concatenation reduces by letter count
    for a in range(4):
        for b in range(4):
            assert reduce_word(a) * reduce_word(b) == reduce_word(a + b)
    assert BWord.IDENT * BWord.IDENT is BWord.IDENT
    assert BWord.GEN * BWord.GEN is BWord.GEN


def test_rep_from_idempotent():
    rho = rep_from_idempotent(Idempotent((1, 2, 1)))
    assert rho.action_of_b.values == (1, 2, 1)
    assert rho.n == 3
    trivial = rep_from_idempotent(Idempotent.identity(3))
    assert trivial.action_of_b == Idempotent.identity(3)
    collapsing = rep_from_idempotent(Idempotent((1, 1, 1)))
    assert apply_rep(collapsing, BWord.GEN, 3) == 1


def test_rep_from_idempotent_rejects_non_idempotent():
    with pytest.raises(ValueError):
        rep_from_idempotent(FiniteMap((2, 3, 1)))


def test_apply_rep():
    rho = rep_from_idempotent(Idempotent((1, 2, 1)))
    for x in (1, 2, 3):
        assert apply_rep(rho, BWord.IDENT, x) == x
    assert apply_rep(rho, BWord.GEN, 3) == 1
    with pytest.raises(ValueError):
        apply_rep(rho, BWord.GEN, 4)


def test_conjugate_rep_examples():
    rho = rep_from_idempotent(Idempotent((1, 1, 1)))
    swapped = conjugate_rep(rho, Permutation((2, 1, 3)))
    assert swapped.action_of_b.values == (2, 2, 2)

    ident = Permutation.identity(3)
    assert conjugate_rep(rho, ident) == rho

    sigma = Permutation((2, 3, 1))
    assert conjugate_rep(conjugate_rep(rho, sigma), sigma.inverse()) == rho

    with pytest.raises(ValueError):
        conjugate_rep(rho, Permutation.identity(4))


def test_conjugate_rep_rejects_a_non_idempotent_action():
    # a 3-cycle is no representation of {e, b}: b would not be idempotent
    with pytest.raises(ValueError):
        conjugate_rep(Representation(FiniteMap((2, 3, 1))), Permutation((2, 1, 3)))


def test_check_representation():
    assert check_representation(rep_from_idempotent(Idempotent.identity(3)))
    assert check_representation(Representation(FiniteMap((1, 2, 1))))
    assert not check_representation(Representation(FiniteMap((2, 3, 1))))


def test_idempotent_map_correspondence_is_equivariant(idems_by_n, perms_by_n):
    for n in range(1, 5):
        for f in idems_by_n[n]:
            rho = rep_from_idempotent(f)
            for sigma in perms_by_n[n]:
                assert (
                    conjugate_rep(rho, sigma).action_of_b
                    == conjugate_idempotent(f, sigma)
                )


def test_correspondence_is_bijective():
    for n in range(1, 6):
        idems = list(enumerate_idempotents(n))
        reps = {rep_from_idempotent(f) for f in idems}
        assert len(reps) == len(idems)
        assert {rho.action_of_b for rho in reps} == set(idems)


def test_conjugation_action_law_random():
    rng = random.Random(573)
    for n in (3, 4, 5):
        idems = list(enumerate_idempotents(n))
        perms = list(enumerate_permutations(n))
        for _ in range(200):
            rho = rep_from_idempotent(rng.choice(idems))
            sigma = rng.choice(perms)
            tau = rng.choice(perms)
            assert conjugate_rep(conjugate_rep(rho, sigma), tau) == conjugate_rep(
                rho, tau * sigma
            )
