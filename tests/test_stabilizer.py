import itertools

import pytest

from idempart import (
    Idempotent,
    Permutation,
    block_idempotent,
    conjugate_idempotent,
    gamma_hom,
    gu_enumerate,
    gu_order,
    stabilizer_bruteforce,
    stabilizer_order_formula,
    type_vector_of,
    verify,
)


def elements(k, m):
    return [Permutation(t) for t in gu_enumerate(k, m)]


def blocks(z, k):
    """The per-member blocks of z on 1..k-1, read from its forward table."""
    return [
        tuple(v - z.forward[i * k] for v in z.forward[i * k + 1 : i * k + k])
        for i in range(z.n // k)
    ]


# -------------------------------------------------------------- the group


def test_gu_identity_and_enumerate_counts():
    # k = 1 blocks act on the empty set, only the outer part varies
    assert gu_order(1, 3) == 6
    assert sum(1 for _ in gu_enumerate(1, 3)) == 6

    assert gu_order(3, 1) == 2  # the constant map on [3]
    assert sum(1 for _ in gu_enumerate(3, 1)) == 2

    assert gu_order(2, 2) == 2
    assert sum(1 for _ in gu_enumerate(2, 2)) == 2


def test_gu_enumerate_guard():
    # S_9, the class group of the identity on [9], has 362,880 elements
    with pytest.raises(ValueError):
        list(gu_enumerate(1, 9))


def test_gu_enumerate_is_the_stabilizer_of_the_block_idempotent():
    # against the brute-force stabilizer, on every listed shape that it
    # can enumerate
    shapes = [(k, m) for k, m in verify._gu_shapes() if k * m <= 7]
    assert len(shapes) == 16
    for k, m in shapes:
        f = block_idempotent(((k, m),))
        stabilizer = {s.forward for s in stabilizer_bruteforce(f)}
        assert set(gu_enumerate(k, m)) == stabilizer


def test_gu_enumerate_yields_bijective_forward_tables():
    # gu-axioms reads each table as bytes, with no Permutation to check
    # it: every table is a tuple that lists each point of [k*m] once
    for k, m in verify._gu_shapes():
        points = list(range(1, k * m + 1))
        for t in gu_enumerate(k, m):
            assert isinstance(t, tuple) and len(t) == k * m
            assert sorted(t) == points


def test_gu_outer_swap_squares_to_identity():
    swap = Permutation((3, 4, 1, 2))
    assert swap in elements(2, 2)
    assert swap * swap == Permutation.identity(4)


def test_gu_multiply_rejects_class_mismatch():
    # the groups of (k, |U|) = (3, 1) and (2, 2) act on 3 and 4 points
    z1 = elements(3, 1)[0]
    z2 = elements(2, 2)[0]
    with pytest.raises(ValueError):
        z1 * z2
    with pytest.raises(ValueError):
        z2 * z1


def test_gu_inverse_examples():
    # identity inverts to itself
    ident = Permutation.identity(6)
    assert ident in elements(3, 2)
    assert ident.inverse() == ident

    # pure outer 3-cycle inverts to the reverse cycle
    z = Permutation((2, 3, 1))
    assert z in elements(1, 3)
    assert z.inverse() == Permutation((3, 1, 2))

    # pure block element inverts the block in place, root fixed
    z = Permutation((1, 3, 4, 2))
    assert z in elements(4, 1)
    assert z.inverse() == Permutation((1, 4, 2, 3))
    assert z.inverse() in elements(4, 1)


def test_gu_table_holds_the_blocks_end_to_end():
    # member i owns the points i*k+1 .. i*k+k, root first, and every
    # element carries each member's block onto one member's block, root
    # to root
    for k, m in ((1, 3), (2, 3), (3, 2), (4, 2), (5, 1)):
        for z in elements(k, m):
            assert z.n == k * m
            for i in range(m):
                image = z.forward[i * k : i * k + k]
                root = image[0]
                assert (root - 1) % k == 0
                assert sorted(image) == list(range(root, root + k))


def test_gu_element_validation():
    # an element of the class group of two fibers of size 3 is exactly a
    # permutation of [6] that commutes with their block idempotent
    f = block_idempotent(((3, 2),))
    group = set(elements(3, 2))
    for forward in ((1, 3, 2, 4, 5, 6), (4, 6, 5, 1, 2, 3)):
        z = Permutation(forward)
        assert z in group
        assert conjugate_idempotent(f, z) == f
    for forward in (
        (1, 2, 2, 4, 5, 6),  # a block is not a bijection
        (1, 2, 3, 1, 2, 3),  # outer is not a bijection
        (1, 2, 3, 4, 5, 7),  # a block leaves 1..k*|U|
    ):
        with pytest.raises(ValueError):
            Permutation(forward)
    for forward in (
        (2, 1, 3, 4, 5, 6),  # a root goes to a non-root point
        (1, 2, 4, 3, 5, 6),  # a block leaves its member's points
        (4, 5, 3, 1, 2, 6),  # a block splits across two members
    ):
        z = Permutation(forward)
        assert z not in group
        assert conjugate_idempotent(f, z) != f
        with pytest.raises(ValueError):
            gamma_hom(z, f, 3)
    assert Permutation.identity(5) not in group  # too few points


def test_gu_blocks_round_trip_through_the_constructor():
    # member 0 goes to member 1 with the block (3, 1, 2), member 1 to
    # member 0 with the block (2, 3, 1)
    z = Permutation([5, 8, 6, 7, 1, 3, 4, 2])
    assert z in elements(4, 2)
    assert blocks(z, 4) == [(3, 1, 2), (2, 3, 1)]
    assert Permutation(z.forward) == z
    assert eval(repr(z), {"Permutation": Permutation}) == z


def test_gu_table_of_fiber_size_one_is_empty():
    # each member's block is its root alone: the group is S_|U| itself
    elems = elements(1, 3)
    assert [z.forward for z in elems] == list(itertools.permutations(range(1, 4)))
    assert all(blocks(z, 1) == [(), (), ()] for z in elems)
    z = Permutation((3, 1, 2))
    assert z * z in elems
    assert z.inverse() in elems
    assert blocks(z * z, 1) == blocks(z.inverse(), 1) == [(), (), ()]


def test_gu_enumerate_runs_outer_then_blocks_lexicographically():
    shapes = verify._gu_shapes()
    assert len(shapes) == 27
    for k, m in shapes:
        base = list(itertools.permutations(range(1, k)))
        reference = []
        for outer in itertools.permutations(range(m)):
            for blocks in itertools.product(base, repeat=m):
                forward = []
                for target, block in zip(outer, blocks):
                    root = target * k + 1
                    forward += [root] + [root + v for v in block]
                reference.append(tuple(forward))
        assert list(gu_enumerate(k, m)) == reference


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
