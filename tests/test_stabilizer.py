import itertools

import pytest

from idempart import (
    FiberClass,
    GUElement,
    Idempotent,
    Permutation,
    block_idempotent,
    eta_classes,
    gamma_hom,
    gu_enumerate,
    gu_identity,
    gu_inverse,
    gu_multiply,
    gu_order,
    stabilizer_bruteforce,
    stabilizer_order_formula,
    type_vector_of,
)


def single_class(f):
    classes = eta_classes(f)
    assert len(classes) == 1
    return classes[0]


def blocks(z):
    """The per-member blocks of z, read as slices of its flat table."""
    d = z.fiber_class.fiber_size - 1
    return [z.table[i * d : i * d + d] for i in range(len(z.outer))]


# ------------------------------------------------------------ eta classes


def test_eta_classes_identity():
    classes = eta_classes(Idempotent(range(1, 4)))
    assert classes == [FiberClass(1, (1, 2, 3))]


def test_eta_classes_constant():
    classes = eta_classes(Idempotent((1, 1, 1)))
    assert classes == [FiberClass(3, (1,))]


def test_eta_classes_mixed():
    classes = eta_classes(Idempotent((1, 2, 1, 4, 4)))
    assert classes == [
        FiberClass(1, (2,)),
        FiberClass(2, (1, 4)),
    ]


def test_eta_class_sizes_match_type_vector(idems_by_n):
    for n in range(1, 6):
        for f in idems_by_n[n]:
            g = type_vector_of(f)
            by_size = {c.fiber_size: len(c.members) for c in eta_classes(f)}
            for k in range(1, n + 1):
                assert by_size.get(k, 0) == dict(g).get(k, 0)
            sizes = [c.fiber_size for c in eta_classes(f)]
            assert sizes == sorted(sizes)


# -------------------------------------------------------------- the group


def test_gu_identity_and_enumerate_counts():
    # k = 1 blocks act on the empty set, only the outer part varies
    cls = single_class(Idempotent(range(1, 4)))
    assert gu_order(cls) == 6
    assert sum(1 for _ in gu_enumerate(cls)) == 6

    cls = single_class(Idempotent((1, 1, 1)))  # k = 3, |U| = 1
    assert gu_order(cls) == 2
    assert sum(1 for _ in gu_enumerate(cls)) == 2

    cls = single_class(block_idempotent(((2, 2),)))  # k = 2, |U| = 2
    assert gu_order(cls) == 2
    assert sum(1 for _ in gu_enumerate(cls)) == 2


def test_gu_enumerate_guard():
    cls = single_class(Idempotent(range(1, 10)))
    with pytest.raises(ValueError):
        list(gu_enumerate(cls))


def test_gu_outer_swap_squares_to_identity():
    cls = single_class(block_idempotent(((2, 2),)))
    z = GUElement(cls, (1, 1), (2, 1))
    assert gu_multiply(z, z) == gu_identity(cls)


def test_gu_multiply_rejects_class_mismatch():
    z1 = gu_identity(single_class(Idempotent((1, 1, 1))))
    z2 = gu_identity(single_class(Idempotent(range(1, 4))))
    with pytest.raises(ValueError):
        gu_multiply(z1, z2)


def test_gu_inverse_examples():
    # identity inverts to itself
    cls = single_class(block_idempotent(((3, 2),)))
    assert gu_inverse(gu_identity(cls)) == gu_identity(cls)

    # pure outer 3-cycle inverts to the reverse cycle
    cls = single_class(Idempotent(range(1, 4)))
    z = GUElement(cls, (), (2, 3, 1))
    assert gu_inverse(z).outer == (3, 1, 2)

    # pure block element inverts each block in place
    cls = single_class(Idempotent((1, 1, 1, 1)))  # k = 4, blocks act on 3 points
    z = GUElement(cls, (2, 3, 1), (1,))
    inv = gu_inverse(z)
    assert inv.outer == (1,)
    assert inv.table == (3, 1, 2)


def test_gu_element_validation():
    cls = single_class(block_idempotent(((2, 2),)))
    assert GUElement(cls, [1, 1], [2, 1]) == GUElement(cls, (1, 1), (2, 1))
    with pytest.raises(ValueError):
        GUElement(cls, (1,), (1, 2))  # one block too few
    with pytest.raises(ValueError):
        GUElement(cls, (1, 2) * 2, (1, 2))  # blocks on k points
    with pytest.raises(ValueError):
        GUElement(cls, (), (1, 2))  # blocks on k - 2 points
    with pytest.raises(ValueError):
        GUElement(cls, (1, 1), (1, 2, 3))  # outer too long

    cls = single_class(block_idempotent(((3, 2),)))
    with pytest.raises(ValueError):
        GUElement(cls, (1, 1, 1, 2), (1, 2))  # a block is not a bijection
    with pytest.raises(ValueError):
        GUElement(cls, (1, 2, 2, 3), (1, 2))  # a block leaves 1..k-1
    with pytest.raises(ValueError):
        GUElement(cls, (1, 2, 1, 2), (1, 1))  # outer is not a bijection
    with pytest.raises(ValueError):
        GUElement(cls, (1, 2, 1, 2), (0, 1))  # outer leaves 1..|U|
    with pytest.raises(ValueError):
        GUElement(cls, (1, 2, 1, 2, 1, 2), (1, 2))  # one block too many
    with pytest.raises(ValueError):
        # a bijection of 1..|U|*(k-1) whose blocks are not bijections of 1..k-1
        GUElement(cls, (3, 4, 1, 2), (1, 2))

    # every public way to build an element runs the same checks
    z = GUElement(cls, (1, 2, 2, 1), (2, 1))
    with pytest.raises(ValueError):
        GUElement(fiber_class=cls, table=(1, 1, 1, 2), outer=(1, 2))
    with pytest.raises(ValueError):
        GUElement._make((cls, (1, 1, 1, 2), (1, 2)))
    with pytest.raises(ValueError):
        z._replace(table=(1, 1, 1, 2))
    with pytest.raises(ValueError):
        z._replace(outer=(1, 1))
    assert GUElement._make((cls, [1, 2, 2, 1], [2, 1])) == z
    assert z._replace(outer=(1, 2)) == GUElement(cls, (1, 2, 2, 1), (1, 2))


def test_gu_element_is_immutable():
    cls = single_class(block_idempotent(((3, 2),)))
    z = GUElement(cls, (1, 2, 2, 1), (2, 1))
    seen = {z: "z"}
    for field, value in (
        ("table", (9, 9, 9, 9)),
        ("outer", (1, 1)),
        ("fiber_class", single_class(Idempotent(range(1, 4)))),
    ):
        with pytest.raises(AttributeError):
            setattr(z, field, value)
    assert z == GUElement(cls, (1, 2, 2, 1), (2, 1))
    assert seen[GUElement(cls, (1, 2, 2, 1), (2, 1))] == "z"


def test_gu_table_holds_the_blocks_end_to_end():
    for k, m in ((1, 3), (2, 3), (3, 2), (4, 2), (5, 1)):
        cls = single_class(block_idempotent(((k, m),)))
        d = k - 1
        for z in gu_enumerate(cls):
            assert len(z.table) == m * d
            assert all(sorted(block) == list(range(1, k)) for block in blocks(z))


def test_gu_blocks_round_trip_through_the_constructor():
    cls = single_class(block_idempotent(((4, 2),)))
    z = GUElement(cls, [3, 1, 2, 2, 3, 1], (2, 1))
    assert z.table == (3, 1, 2, 2, 3, 1)
    assert blocks(z) == [(3, 1, 2), (2, 3, 1)]
    assert GUElement(cls, z.table, z.outer) == z
    names = {"GUElement": GUElement, "FiberClass": FiberClass}
    assert eval(repr(z), names) == z


def test_gu_table_of_fiber_size_one_is_empty():
    cls = single_class(Idempotent(range(1, 4)))
    z = GUElement(cls, (), (3, 1, 2))
    assert z.table == ()
    assert blocks(z) == [(), (), ()]
    assert all(y.table == () for y in gu_enumerate(cls))
    assert gu_multiply(z, z).table == gu_inverse(z).table == ()


def test_gu_hash_and_equality_run_over_table_outer_and_class():
    cls = single_class(block_idempotent(((3, 2),)))
    z = GUElement(cls, (2, 1, 1, 2), (2, 1))
    key = (z.table, z.outer)
    twin = next(y for y in gu_enumerate(cls) if (y.table, y.outer) == key)
    assert twin is not z
    assert twin == z and hash(twin) == hash(z)
    assert GUElement(cls, (1, 2, 2, 1), (2, 1)) != z
    assert GUElement(cls, (2, 1, 1, 2), (1, 2)) != z
    other = cls._replace(members=tuple(u + 100 for u in cls.members))
    assert GUElement(other, z.table, z.outer) != z


def test_gu_enumerate_runs_outer_then_blocks_lexicographically():
    for k, m in ((1, 3), (2, 2), (3, 2), (3, 3), (4, 2)):
        cls = single_class(block_idempotent(((k, m),)))
        base = list(itertools.permutations(range(1, k)))
        reference = [
            (blocks, outer)
            for outer in itertools.permutations(range(1, m + 1))
            for blocks in itertools.product(base, repeat=m)
        ]
        assert [
            (tuple(blocks(z)), z.outer)
            for z in gu_enumerate(cls)
        ] == reference


# ------------------------------------------------------------- gamma hom


def test_gamma_of_identity_is_identity():
    f = Idempotent((1, 1, 3, 3, 5))
    for cls in eta_classes(f):
        assert gamma_hom(Permutation.identity(5), f, cls) == gu_identity(cls)


def test_gamma_constant_map_example():
    f = Idempotent((1, 1, 1))
    cls = single_class(f)
    z = gamma_hom(Permutation((1, 3, 2)), f, cls)
    assert z.outer == (1,)
    assert z.table == (2, 1)


def test_gamma_rejects_non_stabilizer():
    f = Idempotent((1, 1, 1))
    with pytest.raises(ValueError):
        gamma_hom(Permutation((2, 3, 1)), f, single_class(f))


def test_gamma_rejects_foreign_class():
    f = Idempotent((1, 1, 1))
    other = single_class(Idempotent(range(1, 4)))
    with pytest.raises(ValueError):
        gamma_hom(Permutation.identity(3), f, other)

    f = block_idempotent(((3, 2),))
    swap = Permutation((4, 5, 6, 1, 2, 3))
    assert single_class(f) == FiberClass(3, (1, 4))
    for cls in (
        FiberClass(3, (1,)),  # one of the two members
        FiberClass(3, (4, 1)),  # members out of order
        FiberClass(2, (1, 4)),  # the right members, the wrong fiber size
        FiberClass(2, ()),  # no fiber has 2 points, and no member is given
    ):
        for sigma in (swap, Permutation.identity(6)):
            with pytest.raises(ValueError):
                gamma_hom(sigma, f, cls)


# ------------------------------------------------------- stabilizer order


def test_stabilizer_order_formula_examples():
    assert stabilizer_order_formula(((1, 4),)) == 24
    assert stabilizer_order_formula(((3, 1),)) == 2
    assert stabilizer_order_formula(((1, 1), (2, 1))) == 1


def test_class_group_orders_multiply_to_stabilizer_order(idems_by_n):
    for n in range(1, 6):
        for f in idems_by_n[n]:
            product = 1
            for cls in eta_classes(f):
                product *= gu_order(cls)
            assert product == len(stabilizer_bruteforce(f))
