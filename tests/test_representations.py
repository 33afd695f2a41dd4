import pytest

from idempart import BWord, Idempotent, Permutation, apply_rep


def test_bword_multiplication():
    e, b = BWord.IDENT, BWord.GEN
    assert e * e is e
    assert e * b is b
    assert b * e is b
    assert b * b is b


def test_apply_rep():
    f = Idempotent((1, 2, 1))
    for x in (1, 2, 3):
        assert apply_rep(f, BWord.IDENT, x) == x
    assert apply_rep(f, BWord.GEN, 3) == 1
    collapsing = Idempotent((1, 1, 1))
    assert [apply_rep(collapsing, BWord.GEN, x) for x in (1, 2, 3)] == [1, 1, 1]
    # a value tuple read at x - 1 would wrap round at 0 and below
    for x in (4, 0, -1):
        for w in BWord:
            with pytest.raises(ValueError, match="outside"):
                apply_rep(f, w, x)
    with pytest.raises(TypeError):
        apply_rep(f, "e", 3)  # a string is no word, though it names e
    # b acts only as an idempotent: a value tuple, even an idempotent one,
    # or a permutation is refused
    for action in ((2, 3, 1), (1, 1, 1), Permutation((2, 3, 1)), None):
        with pytest.raises(TypeError, match="must be an Idempotent"):
            apply_rep(action, BWord.GEN, 1)
