import random

import pytest

from idempart import (
    BWord,
    Idempotent,
    Permutation,
    Representation,
    apply_rep,
    conjugate_rep,
    enumerate_idempotents,
    enumerate_permutations,
)


def test_bword_multiplication():
    e, b = BWord.IDENT, BWord.GEN
    assert e * e is e
    assert e * b is b
    assert b * e is b
    assert b * b is b


def test_rep_from_idempotent():
    rho = Representation(Idempotent((1, 2, 1)))
    assert rho.action_of_b.values == (1, 2, 1)
    assert rho.n == 3
    trivial = Representation(Idempotent(range(1, 4)))
    assert trivial.action_of_b == Idempotent(range(1, 4))
    collapsing = Representation(Idempotent((1, 1, 1)))
    assert apply_rep(collapsing, BWord.GEN, 3) == 1


def test_representation_rejects_a_non_idempotent_action():
    for action in ((2, 3, 1), (1, 1, 1), Permutation((2, 3, 1)), None):
        with pytest.raises(TypeError, match="must be an Idempotent"):
            Representation(action)
    rho = Representation(Idempotent((1, 1, 3)))
    with pytest.raises(TypeError):
        rho._replace(action_of_b=(1, 1, 3))
    with pytest.raises(TypeError):
        Representation._make([(1, 1, 3)])
    assert Representation._make([rho.action_of_b]) == rho
    assert rho._replace(action_of_b=Idempotent((1, 2))).n == 2


def test_apply_rep():
    rho = Representation(Idempotent((1, 2, 1)))
    for x in (1, 2, 3):
        assert apply_rep(rho, BWord.IDENT, x) == x
    assert apply_rep(rho, BWord.GEN, 3) == 1
    with pytest.raises(ValueError):
        apply_rep(rho, BWord.GEN, 4)
    with pytest.raises(TypeError):
        apply_rep(rho, "e", 3)  # a string is no word, though it names e


def test_conjugate_rep_examples():
    rho = Representation(Idempotent((1, 1, 1)))
    swapped = conjugate_rep(rho, Permutation((2, 1, 3)))
    assert swapped.action_of_b.values == (2, 2, 2)

    ident = Permutation.identity(3)
    assert conjugate_rep(rho, ident) == rho

    sigma = Permutation((2, 3, 1))
    assert conjugate_rep(conjugate_rep(rho, sigma), sigma.inverse()) == rho

    with pytest.raises(ValueError):
        conjugate_rep(rho, Permutation.identity(4))


def test_correspondence_is_bijective():
    for n in range(1, 6):
        idems = list(enumerate_idempotents(n))
        reps = {Representation(f) for f in idems}
        assert len(reps) == len(idems)
        assert {rho.action_of_b for rho in reps} == set(idems)


def test_conjugation_action_law_random():
    rng = random.Random(573)
    for n in (3, 4, 5):
        idems = list(enumerate_idempotents(n))
        perms = list(enumerate_permutations(n))
        for _ in range(200):
            rho = Representation(rng.choice(idems))
            sigma = rng.choice(perms)
            tau = rng.choice(perms)
            assert conjugate_rep(conjugate_rep(rho, sigma), tau) == conjugate_rep(
                rho, tau * sigma
            )
