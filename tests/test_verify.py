import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idempart import (
    Idempotent,
    block_idempotent,
    conjugate_idempotent,
    enumerate_idempotents,
    enumerate_permutations,
    gamma_hom,
    stabilizer_bruteforce,
    symmetric,
    type_vector_of,
    verify,
)
from idempart.cli import main
from idempart.combinatorics import RemainderError
from idempart.stabilizer import gu_order
from idempart.symmetric import Permutation, _conjugated


# every shape (k, |U|) with k = 1..5 whose class group has at most 1296 elements
SHAPES = [
    (k, m)
    for k in range(1, 6)
    for m in range(1, 6)
    if gu_order(k, m) <= 1296
]


@functools.lru_cache(maxsize=None)
def _elements(k, m):
    """Every element of S_{k-1} wr S_m on [k*m], built from the layout
    alone: each outer part with each tuple of member blocks."""
    base = list(itertools.permutations(range(1, k)))
    elements = []
    for outer in itertools.permutations(range(m)):
        for blocks in itertools.product(base, repeat=m):
            forward = []
            for target, block in zip(outer, blocks):
                root = target * k + 1
                forward += [root] + [root + v for v in block]
            elements.append(Permutation(forward))
    return elements


@functools.lru_cache(maxsize=None)
def _stabilized(n):
    """Every idempotent on [n] with its brute-force stabilizer."""
    return [(f, stabilizer_bruteforce(f)) for f in enumerate_idempotents(n)]


@settings(deadline=None)
@given(data=st.data())
def test_induced_action_is_faithful_and_multiplicative(data):
    # gamma_hom, fiber size by fiber size, is the action that a stabilizing
    # permutation induces on the fibers of each class: together the
    # classes tell every two stabilizing permutations apart, and each
    # class turns products into products
    f, stab = data.draw(st.sampled_from(_stabilized(data.draw(st.integers(1, 5)))))
    s, t = (data.draw(st.sampled_from(stab)) for _ in range(2))
    sizes = [k for k, _ in type_vector_of(f)]

    def induced(sigma):
        return tuple(gamma_hom(sigma, f, k) for k in sizes)

    assert (induced(s) == induced(t)) == (s == t)
    assert induced(t * s) == tuple(a * b for a, b in zip(induced(t), induced(s)))


def _layout(z, k):
    """The outer part of z, members from 0, and the per-member blocks of
    z on 1..k-1, read from its forward table."""
    roots = z.forward[::k]
    blocks = [
        tuple(v - root for v in z.forward[i * k + 1 : i * k + k])
        for i, root in enumerate(roots)
    ]
    return tuple((root - 1) // k for root in roots), blocks


@settings(deadline=None)
@given(data=st.data())
def test_table_product_and_inverse_match_permutation_objects(data):
    # the product that the gu-axioms check composes on forward tables is
    # Permutation's, and it and the inverse are the wreath product's,
    # recomputed block by block through Permutation objects as an
    # independent oracle; both stay in the group
    k, m = data.draw(st.sampled_from(SHAPES))
    elems = _elements(k, m)
    a, b = (data.draw(st.sampled_from(elems)) for _ in range(2))
    ab = a * b
    assert ab.forward == tuple(a.forward[v - 1] for v in b.forward)
    assert ab in elems
    outer_a, blocks_a = _layout(a, k)
    outer_b, blocks_b = _layout(b, k)
    assert _layout(ab, k) == (
        tuple(outer_a[j] for j in outer_b),
        [
            (Permutation(blocks_a[j]) * Permutation(blocks_b[i])).forward
            for i, j in enumerate(outer_b)
        ],
    )
    inv = a.inverse()
    assert inv.forward == a.backward
    assert inv in elems
    outer_inv = Permutation(j + 1 for j in outer_a).inverse()
    assert _layout(inv, k) == (
        tuple(j - 1 for j in outer_inv.forward),
        [Permutation(blocks_a[j - 1]).inverse().forward for j in outer_inv.forward],
    )


def test_induced_action_stabilizes_the_block_idempotent():
    # each element is the stabilizing permutation that it stands for,
    # and gamma maps it to itself
    for k, m in ((1, 3), (2, 2), (3, 2), (4, 1)):
        f = block_idempotent(((k, m),))
        for z in _elements(k, m):
            assert conjugate_idempotent(f, z) == f
            assert gamma_hom(z, f, k) == z


def _full_sweep(idems, perms):
    """Stabilizer count and least conjugate of every idempotent, each
    conjugated by every permutation: the |I(n)|·n! reference for the
    orbit-by-orbit oracle."""
    stab_counts = []
    orbit_keys = []
    for f in idems:
        stab = 0
        best = f.values
        for sigma in perms:
            conj = _conjugated(f.values, sigma)
            if conj == f.values:
                stab += 1
            if conj < best:
                best = conj
        stab_counts.append(stab)
        orbit_keys.append(best)
    return stab_counts, orbit_keys


def _partition(idems, keys):
    groups = {}
    for f, key in zip(idems, keys):
        groups.setdefault(key, set()).add(f)
    return {frozenset(g) for g in groups.values()}


def test_orbit_by_orbit_oracle_matches_the_full_sweep():
    for n in range(1, 7):
        idems = list(enumerate_idempotents(n))
        perms = list(enumerate_permutations(n))
        tables = symmetric._permutation_tables(n)
        counts, keys, partition = symmetric._orbit_stats(idems, tables)
        old_counts, old_keys = _full_sweep(idems, perms)
        assert partition
        assert counts == old_counts
        assert _partition(idems, keys) == _partition(idems, old_keys)
        # each key is the value tuple of the first enumerated member
        first = {}
        for f, key in zip(idems, old_keys):
            first.setdefault(key, f.values)
        assert keys == [first[key] for key in old_keys]


def _failed(n):
    results = list(verify._check_exhaustive_level(n))
    return {r.name.split(" ")[0] for r in results if not r.ok}


def _enumeration(change):
    exact = verify.enumerate_idempotents
    return lambda n: iter(change(list(exact(n))))


def test_orbit_oracle_fails_on_a_dropped_idempotent(monkeypatch):
    dropped = _enumeration(lambda idems: idems[:7] + idems[8:])
    monkeypatch.setattr(verify, "enumerate_idempotents", dropped)
    assert "orbit-count" in _failed(4)


def test_orbit_oracle_fails_on_a_repeated_idempotent(monkeypatch):
    repeated = _enumeration(lambda idems: idems + idems[7:8])
    monkeypatch.setattr(verify, "enumerate_idempotents", repeated)
    assert "orbit-count" in _failed(4)


def _swap_two_conjugators(monkeypatch):
    """Make symmetric._conjugation_sweep hand out one wrong conjugator pair.

    Returns the list that records the swapped pair once the patched sweep
    has swapped it; clearing the list lets the next sweep swap again.
    """
    exact = symmetric._conjugation_sweep
    swapped = []

    def sweep(values, tables):
        conjugators, stab = exact(values, tables)
        # two members with one stabilizer trade conjugators; each still
        # carries Stab(r) onto the stabilizer of the member it is listed
        # for, so only the test that it carries r there sees the swap
        by_stabilizer = {}
        for g in conjugators:
            fixing = frozenset(exact(g, tables)[1])
            by_stabilizer.setdefault(fixing, []).append(g)
        pair = next((gs[:2] for gs in by_stabilizer.values() if len(gs) > 1), None)
        if pair and not swapped:
            f, g = pair
            conjugators[f], conjugators[g] = conjugators[g], conjugators[f]
            swapped.append(pair)
        return conjugators, stab

    monkeypatch.setattr(symmetric, "_conjugation_sweep", sweep)
    return swapped


def test_orbit_oracle_fails_on_a_wrong_conjugator(monkeypatch):
    swapped = _swap_two_conjugators(monkeypatch)
    assert "stabilizer-order" in _failed(4)
    assert swapped


def test_burnside_count_fails_on_a_wrong_conjugator(monkeypatch, capsys):
    # both swapped members have |Stab| = 2 and now count 0: 4! * 5 - 2 - 2
    swapped = _swap_two_conjugators(monkeypatch)
    with pytest.raises(RemainderError, match="116 is not divisible by 24"):
        symmetric.count_orbits_burnside(4)
    assert swapped
    swapped.clear()
    assert main(["pn", "4", "--method", "burnside"]) == 1
    assert swapped
    assert "116 is not divisible by 24" in capsys.readouterr().err


def test_stabilizer_order_matches_the_brute_force_stabilizer():
    for n in range(1, 6):
        pad = bytes(255 - n)
        tables = symmetric._permutation_tables(n)
        for f in enumerate_idempotents(n):
            stab = [
                (bytes(s.backward), b"\0" + bytes(s.forward) + pad)
                for s in stabilizer_bruteforce(f)
            ]
            assert symmetric._stabilizer_order(f.values, stab) == len(stab)
            with pytest.raises(RuntimeError):
                symmetric._stabilizer_order(f.values, stab + stab[:1])
            outside = next((pair for pair in tables if pair not in stab), None)
            if outside:
                with pytest.raises(RuntimeError):
                    symmetric._stabilizer_order(f.values, stab + [outside])


# faults planted in the stabilizer list of one orbit of the sweep; each
# takes the list and a permutation pair outside it
STABILIZER_FAULTS = {
    "extra": lambda stab, outside: stab + [outside],
    "repeat": lambda stab, outside: stab + stab[:1],
    "swap": lambda stab, outside: [outside] + stab[1:],
}


def _plant_stabilizer_fault(monkeypatch, fault):
    """Plant fault in every sweep of the orbit of (1, 1, 3, 4) on [4],
    whose stabilizer has order 2."""
    exact = symmetric._conjugation_sweep

    def sweep(values, tables):
        conjugators, stab = exact(values, tables)
        if bytes((1, 1, 3, 4)) in conjugators:
            outside = next(pair for pair in tables if pair not in stab)
            stab = fault(stab, outside)
        return conjugators, stab

    monkeypatch.setattr(symmetric, "_conjugation_sweep", sweep)


@pytest.mark.parametrize("fault", sorted(STABILIZER_FAULTS))
def test_every_exhaustive_route_fails_on_a_faulty_stabilizer_list(
    monkeypatch, capsys, fault
):
    _plant_stabilizer_fault(monkeypatch, STABILIZER_FAULTS[fault])
    with pytest.raises(RuntimeError, match="stabilizer of"):
        list(verify._check_exhaustive_level(4))
    with pytest.raises(RuntimeError, match="stabilizer of"):
        symmetric.count_orbits_burnside(4)
    for argv in (
        ["pn", "4", "--method", "burnside"],
        ["orbits", "4"],
        ["verify", "--exhaustive", "4", "--formula", "1"],
    ):
        capsys.readouterr()
        assert main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error: internal error: RuntimeError("), err
        assert "Traceback" not in err


def test_equivariance_fails_on_conjugation_from_the_wrong_side(monkeypatch):
    def wrong_side(values, sigma):
        # sigma^-1 . f . sigma; S_1 and S_2 hold only involutions, where
        # both sides agree, so the first levels that can tell are 3 and 4
        return _conjugated(values, sigma.inverse())

    monkeypatch.setattr(symmetric, "_conjugated", wrong_side)
    assert "equivariance" in _failed(3)
    assert "equivariance" in _failed(4)


def test_gamma_homomorphism_check_fails_on_one_wrong_image(monkeypatch):
    # the constant map on [3] is fixed by the swap of 2 and 3, whose image
    # swaps the fiber's two non-root points; sending it to the identity
    # instead leaves gamma neither injective nor onto the class group
    exact = verify.gamma_hom
    f = block_idempotent(((3, 1),))
    swap = Permutation((1, 3, 2))
    assert exact(swap, f, 3) == swap

    def gamma_hom(sigma, g, k):
        if (sigma, g) == (swap, f):
            return Permutation.identity(3)
        return exact(sigma, g, k)

    assert "gamma-homomorphism" not in _failed(3)
    monkeypatch.setattr(verify, "gamma_hom", gamma_hom)
    assert _failed(3) == {"gamma-homomorphism"}


def test_gamma_homomorphism_check_fails_on_a_broken_product(monkeypatch):
    # the identity on [3] has one class group, S_3, and gamma sends each
    # stabilizing permutation to itself; trading the images of the two
    # transpositions (2, 1, 3) and (3, 2, 1) keeps the identity, every
    # inverse (both are involutions) and the six distinct images, and
    # breaks only products: (2, 1, 3) * (3, 2, 1) = (3, 1, 2), but the
    # images multiply to (3, 2, 1) * (2, 1, 3) = (2, 3, 1)
    exact = verify.gamma_hom
    f = Idempotent((1, 2, 3))
    a, b = Permutation((2, 1, 3)), Permutation((3, 2, 1))
    assert all(exact(s, f, 1) == s for s in enumerate_permutations(3))
    traded = {a: b, b: a}

    def gamma_hom(sigma, g, k):
        if g == f:
            return traded.get(sigma, sigma)
        return exact(sigma, g, k)

    assert "gamma-homomorphism" not in _failed(3)
    monkeypatch.setattr(verify, "gamma_hom", gamma_hom)
    assert _failed(3) == {"gamma-homomorphism"}


def test_gamma_homomorphism_check_fails_on_images_outside_the_class_group(monkeypatch):
    # tau * gamma(sigma) * tau^-1, tau the swap of points 1 and 2, is a
    # homomorphism onto a group of gu_order elements too; from k = 2 on,
    # that group moves a member's root into its fiber, so only the
    # membership of each image in the generator closure tells. The first
    # shape where it differs is the constant map on [3]: (1, 3, 2)
    # becomes (3, 2, 1)
    exact = verify.gamma_hom

    def gamma_hom(sigma, f, k):
        z = exact(sigma, f, k)
        if z.n < 2:
            return z
        tau = Permutation((2, 1, *range(3, z.n + 1)))
        return tau * z * tau.inverse()

    monkeypatch.setattr(verify, "gamma_hom", gamma_hom)
    failed = [_failed(n) for n in range(1, 5)]
    assert failed == [set(), set(), {"gamma-homomorphism"}, {"gamma-homomorphism"}]


def test_exhaustive_level_7_passes():
    results = list(verify._check_exhaustive_level(7))
    assert [r.name.split(" ")[0] for r in results] == [
        "idempotent-enumeration",
        "stabilizer-order",
        "stabilizer-class-product",
        "orbit-count",
        "orbit-stabilizer-product",
        "type-count",
        "burnside",
    ]
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_gu_axioms_check_passes_and_draws_no_random_numbers():
    assert verify._check_gu_shape(3, 2).ok
    assert "random" not in vars(verify)


def test_gu_axioms_check_fails_on_a_product_outside_the_group(monkeypatch):
    # a generator that no element equals, in place of the member swap:
    # it trades member 0's last non-root point with member 1's root, so
    # it fails the commutation test before any product is taken
    bad = Permutation((1, 2, 4, 3, 5, 6))
    assert bad not in _elements(3, 2)
    exact = verify._gu_generators
    monkeypatch.setattr(
        verify, "_gu_generators", lambda k, m: [*exact(k, m)[:-1], bad.forward]
    )
    result = verify._check_gu_shape(3, 2)
    assert not result.ok
    f = block_idempotent(((3, 2),))
    assert result.detail == f"{bad} does not commute with {f}"


def test_gu_axioms_check_fails_on_a_product_of_another_class(monkeypatch):
    # a generator of the class group of three fibers of size 2, which
    # acts on the same six points: the swap of its members 0 and 1 sends
    # the root of member 0 of two fibers of size 3 to a non-root point,
    # so it fails the commutation test before any product is taken
    bad = Permutation((3, 4, 1, 2, 5, 6))
    assert bad in _elements(2, 3)
    assert bad not in _elements(3, 2)
    exact = verify._gu_generators
    monkeypatch.setattr(
        verify, "_gu_generators", lambda k, m: [*exact(k, m)[:-1], bad.forward]
    )
    result = verify._check_gu_shape(3, 2)
    assert not result.ok
    f = block_idempotent(((3, 2),))
    assert result.detail == f"{bad} does not commute with {f}"


def test_gu_axioms_check_fails_when_the_generators_reach_too_few(monkeypatch):
    # without the member swap the closure is the transposition of member
    # 0's two non-root points: 2 of the 8 elements of S_2 wr S_2
    exact = verify._gu_generators
    monkeypatch.setattr(verify, "_gu_generators", lambda k, m: exact(k, m)[:-1])
    result = verify._check_gu_shape(3, 2)
    assert not result.ok
    assert result.detail == "the generators reach 2 of 8"


def test_gu_axioms_check_fails_on_a_wrong_order(monkeypatch):
    # the generators reach all 8 elements of S_2 wr S_2, one short of an
    # order off by one
    exact = verify.gu_order
    monkeypatch.setattr(verify, "gu_order", lambda k, m: exact(k, m) + 1)
    result = verify._check_gu_shape(3, 2)
    assert not result.ok
    assert result.detail == "the generators reach 8 of 9"


def test_gu_axioms_check_fails_at_the_cap(monkeypatch):
    # S_2 wr S_4 has 384 elements; under a cap of 100 the closure stops
    # at the 101st table it reaches
    monkeypatch.setattr(verify, "GU_ENUM_LIMIT", 100)
    assert len(verify._gu_closure(3, 4)) == 101
    result = verify._check_gu_shape(3, 4)
    assert not result.ok
    assert result.detail == "the generators reach more than 100 elements"


def _closure(generators, n):
    """The group that generators generate in S_n, by Permutation products."""
    reached = {Permutation.identity(n)}
    frontier = list(reached)
    while frontier:
        frontier = {z * g for z in frontier for g in generators} - reached
        reached |= frontier
    return reached


def test_gu_axioms_closes_the_generators_on_every_shape(monkeypatch):
    # the 27 shapes of order <= 10,000 in order, and on each the
    # generators that the check closes under generate exactly the class
    # group built from the layout, of gu_order elements
    generators = {}
    exact = verify._gu_generators

    def recording(k, m):
        generators[k, m] = [Permutation(g) for g in exact(k, m)]
        return exact(k, m)

    monkeypatch.setattr(verify, "_gu_generators", recording)
    names = []
    for result in verify.run_verification(1, 1):
        if result.name.startswith("gu-axioms"):
            assert result.ok, result
            names.append(result.name)
    shapes = [
        (k, m)
        for k, top in ((1, 7), (2, 7), (3, 5), (4, 3), (5, 2), (6, 1), (7, 1), (8, 1))
        for m in range(1, top + 1)
    ]
    assert names == [f"gu-axioms k={k} |U|={m}" for k, m in shapes]
    assert list(generators) == shapes
    for k, m in shapes:
        order = math.factorial(k - 1) ** m * math.factorial(m)
        group = _closure(generators[k, m], k * m)
        assert len(generators[k, m]) <= 4
        assert len(group) == order, (k, m)
        assert group == set(_elements(k, m)), (k, m)
