import pytest

from idempart import (
    Idempotent,
    Permutation,
    block_idempotent,
    gamma_hom,
    gu_order,
    stabilizer_bruteforce,
    stabilizer_order_formula,
    type_vector_of,
    verify,
)


# -------------------------------------------------------------- the group


def test_gu_identity_and_enumerate_counts():
    # k = 1 blocks act on the empty set, only the outer part varies
    assert gu_order(1, 3) == 6
    assert len(verify._gu_closure(1, 3)) == 6

    assert gu_order(3, 1) == 2  # the constant map on [3]
    assert len(verify._gu_closure(3, 1)) == 2

    assert gu_order(2, 2) == 2
    assert len(verify._gu_closure(2, 2)) == 2


def test_generator_closure_is_the_stabilizer_of_the_block_idempotent():
    # against the brute-force stabilizer, on every checked shape that it
    # can enumerate
    shapes = [(k, m) for k, m in verify._gu_shapes() if k * m <= 7]
    assert len(shapes) == 16
    for k, m in shapes:
        f = block_idempotent(((k, m),))
        stabilizer = {bytes(s.forward) for s in stabilizer_bruteforce(f)}
        assert verify._gu_closure(k, m) == stabilizer


# ------------------------------------------------------------- gamma hom


def test_gamma_of_identity_is_identity():
    f = Idempotent((1, 1, 3, 3, 5))
    for k, m in type_vector_of(f):
        ident = Permutation.identity(k * m)
        assert gamma_hom(Permutation.identity(5), f, k) == ident


def test_gamma_constant_map_example():
    f = Idempotent((1, 1, 1))
    assert gamma_hom(Permutation((1, 3, 2)), f, 3) == Permutation((1, 3, 2))

    # the fibers (1, 2, 6) and (3, 4, 5), rooted at 2 and 5, trade
    # places: the rest (1, 6) of the first lands reversed on (3, 4), the
    # rest (3, 4) of the second in order on (1, 6)
    f = Idempotent((2, 2, 5, 5, 5, 2))
    z = gamma_hom(Permutation((4, 5, 1, 6, 2, 3)), f, 3)
    assert z == Permutation((4, 6, 5, 1, 2, 3))


def test_gamma_rejects_non_stabilizer():
    f = Idempotent((1, 1, 1))
    with pytest.raises(ValueError, match="does not stabilize"):
        gamma_hom(Permutation((2, 3, 1)), f, 3)
    # nor does a permutation of another number of points
    with pytest.raises(ValueError, match="size mismatch"):
        gamma_hom(Permutation.identity(4), f, 3)


def test_gamma_rejects_foreign_class():
    # the constant map on [3] has one fiber, of 3 points, and none of 1
    f = Idempotent((1, 1, 1))
    assert gamma_hom(Permutation.identity(3), f, 3) == Permutation.identity(3)
    with pytest.raises(ValueError, match="no fiber"):
        gamma_hom(Permutation.identity(3), f, 1)

    # two fibers of 3 points, and none of 2
    f = block_idempotent(((3, 2),))
    swap = Permutation((4, 5, 6, 1, 2, 3))
    assert gamma_hom(swap, f, 3) == swap
    for sigma in (swap, Permutation.identity(6)):
        with pytest.raises(ValueError, match="no fiber"):
            gamma_hom(sigma, f, 2)


# ------------------------------------------------------- stabilizer order


def test_stabilizer_order_formula_examples():
    assert stabilizer_order_formula(((1, 4),)) == 24
    assert stabilizer_order_formula(((3, 1),)) == 2
    assert stabilizer_order_formula(((1, 1), (2, 1))) == 1


def test_class_group_orders_multiply_to_stabilizer_order(idems_by_n):
    for n in range(1, 6):
        for f in idems_by_n[n]:
            product = 1
            for k, m in type_vector_of(f):
                product *= gu_order(k, m)
            assert product == len(stabilizer_bruteforce(f))
