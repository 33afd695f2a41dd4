import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idempart import (
    block_idempotent,
    conjugate_idempotent,
    enumerate_idempotents,
    enumerate_permutations,
    gamma_hom,
    symmetric,
    verify,
)
from idempart.cli import main
from idempart.combinatorics import RemainderError
from idempart.stabilizer import (
    GUElement,
    _element,
    eta_classes,
    gu_enumerate,
    gu_identity,
    gu_inverse,
    gu_multiply,
    gu_order,
)
from idempart.symmetric import Permutation, _conjugated

# every shape (k, |U|) with k = 1..5 whose class group has at most 1296 elements
SHAPES = [
    (k, m)
    for k in range(1, 6)
    for m in range(1, 6)
    if gu_order(eta_classes(block_idempotent(((k, m),)))[0]) <= 1296
]


@functools.lru_cache(maxsize=None)
def _elements(k, m):
    return list(gu_enumerate(eta_classes(block_idempotent(((k, m),)))[0]))


def _rho(z):
    return Permutation(verify._induced_permutation(z))


@settings(deadline=None)
@given(data=st.data())
def test_induced_action_is_faithful_and_multiplicative(data):
    k, m = data.draw(st.sampled_from(SHAPES))
    elems = _elements(k, m)
    a, b = (data.draw(st.sampled_from(elems)) for _ in range(2))
    assert (_rho(a) == _rho(b)) == (a == b)
    assert _rho(verify.gu_multiply(a, b)) == _rho(a) * _rho(b)


def _blocks(z):
    """The per-member blocks of z, read as slices of its flat table."""
    d = z.fiber_class.fiber_size - 1
    return [z.table[i * d : i * d + d] for i in range(len(z.outer))]


@settings(deadline=None)
@given(data=st.data())
def test_table_product_and_inverse_match_permutation_objects(data):
    # the twisted product and inverse, recomputed block by block through
    # Permutation objects as an independent oracle
    k, m = data.draw(st.sampled_from(SHAPES))
    elems = _elements(k, m)
    a, b = (data.draw(st.sampled_from(elems)) for _ in range(2))
    ab = gu_multiply(a, b)
    assert ab.fiber_class == a.fiber_class
    assert _blocks(ab) == [
        (Permutation(_blocks(a)[j - 1]) * Permutation(_blocks(b)[i])).forward
        for i, j in enumerate(b.outer)
    ]
    assert ab.outer == (Permutation(a.outer) * Permutation(b.outer)).forward
    inv = gu_inverse(a)
    outer_inv = Permutation(a.outer).inverse()
    assert _blocks(inv) == [
        Permutation(_blocks(a)[j - 1]).inverse().forward for j in outer_inv.forward
    ]
    assert inv.outer == outer_inv.forward


def test_induced_action_stabilizes_the_block_idempotent():
    # rho(z) is the stabilizing permutation that z stands for
    for k, m in ((1, 3), (2, 2), (3, 2), (4, 1)):
        f = block_idempotent(((k, m),))
        for z in _elements(k, m):
            sigma = _rho(z)
            assert conjugate_idempotent(f, sigma) == f
            assert gamma_hom(sigma, f, z.fiber_class) == z


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
        counts, keys, partition = symmetric._orbit_stats(idems, perms)
        old_counts, old_keys = _full_sweep(idems, perms)
        assert partition
        assert counts == old_counts
        assert _partition(idems, keys) == _partition(idems, old_keys)


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

    def sweep(values, perms):
        conjugators, stab = exact(values, perms)
        # two members with one stabilizer trade conjugators, so conjugating
        # Stab(r) by the wrong one still gives permutations that fix f
        by_stabilizer = {}
        for g in conjugators:
            fixing = frozenset(s for s in perms if _conjugated(g, s) == g)
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
    assert exact(swap, f, eta_classes(f)[0]).table == (2, 1)

    def gamma_hom(sigma, g, cls):
        return gu_identity(cls) if (sigma, g) == (swap, f) else exact(sigma, g, cls)

    assert "gamma-homomorphism" not in _failed(3)
    monkeypatch.setattr(verify, "gamma_hom", gamma_hom)
    assert _failed(3) == {"gamma-homomorphism"}


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


def _patched_product(monkeypatch, k, m, replace):
    """Make verify.gu_multiply return replace(a * b) for one pair (a, b)
    that no identity or inverse law multiplies."""
    elems = _elements(k, m)
    exact = verify.gu_multiply
    ident = gu_identity(elems[0].fiber_class)
    a, b = next(
        (a, b)
        for a in elems
        for b in elems
        if ident not in (a, b, exact(a, b))
    )

    def gu_multiply(z1, z2):
        product = exact(z1, z2)
        return replace(product) if (z1, z2) == (a, b) else product

    monkeypatch.setattr(verify, "gu_multiply", gu_multiply)


def test_gu_axioms_check_fails_on_a_product_outside_the_group(monkeypatch):
    k, m = 3, 2
    # a flat table of |U| segments on k points instead of k - 1: no
    # element of the class
    _patched_product(
        monkeypatch,
        k,
        m,
        lambda z: _element(z.fiber_class, tuple(range(1, k + 1)) * m, z.outer),
    )
    result = verify._check_gu_shape(k, m, random.Random(0))
    assert not result.ok
    assert result.detail == "associativity failed (exhaustive)"


def test_gu_axioms_check_fails_on_a_product_of_another_class(monkeypatch):
    k, m = 3, 2

    def elsewhere(z):
        cls = z.fiber_class
        other = cls._replace(members=tuple(u + 100 for u in cls.members))
        return GUElement(other, z.table, z.outer)

    _patched_product(monkeypatch, k, m, elsewhere)
    result = verify._check_gu_shape(k, m, random.Random(0))
    assert not result.ok
    assert result.detail == "associativity failed (exhaustive)"


def test_gu_axioms_check_catches_one_wrong_product(monkeypatch):
    k, m = 3, 2
    assert verify._check_gu_shape(k, m, random.Random(0)).ok
    elems = _elements(k, m)
    exact = verify.gu_multiply
    ident = gu_identity(elems[0].fiber_class)
    # a pair that no identity or inverse law multiplies
    a, b = next(
        (a, b)
        for a in elems
        for b in elems
        if ident not in (a, b, exact(a, b))
    )
    wrong = next(z for z in elems if z != exact(a, b))

    def gu_multiply(z1, z2):
        return wrong if (z1, z2) == (a, b) else exact(z1, z2)

    monkeypatch.setattr(verify, "gu_multiply", gu_multiply)
    result = verify._check_gu_shape(k, m, random.Random(0))
    assert result.name == "gu-axioms k=3 |U|=2"
    assert not result.ok
    assert result.detail == "associativity failed (exhaustive)"


def test_gu_axioms_multiplies_every_pair_on_every_shape(monkeypatch):
    # the 27 shapes of order <= 10,000, each checked with at least the
    # products its laws need: the identity and inverse laws on every
    # element, then every pair up to order 500 and 1000 triples above
    calls = 0
    exact = verify.gu_multiply

    def gu_multiply(z1, z2):
        nonlocal calls
        calls += 1
        return exact(z1, z2)

    monkeypatch.setattr(verify, "gu_multiply", gu_multiply)
    spent = {}
    before = 0
    for result in verify.run_verification(1, 1):
        if result.name.startswith("gu-axioms"):
            assert result.ok, result
            spent[result.name] = calls - before
        before = calls
    shapes = [
        (k, m)
        for k, top in ((1, 7), (2, 7), (3, 5), (4, 3), (5, 2), (6, 1), (7, 1), (8, 1))
        for m in range(1, top + 1)
    ]
    assert list(spent) == [f"gu-axioms k={k} |U|={m}" for k, m in shapes]
    for k, m in shapes:
        order = math.factorial(k - 1) ** m * math.factorial(m)
        pairs = order**2 if order <= 500 else 4 * 1000
        assert spent[f"gu-axioms k={k} |U|={m}"] >= 4 * order + pairs, (k, m)


def test_gu_axioms_covers_every_shape_gu_enumerate_lists():
    # one cap: the class groups that gu_enumerate lists are exactly the
    # shapes gu-axioms checks, and it refuses every other
    checked = verify._gu_shapes()
    listed = []
    for k in range(1, 11):
        for m in range(1, 11):
            elements = gu_enumerate(eta_classes(block_idempotent(((k, m),)))[0])
            if (k, m) in checked:
                next(elements)
                listed.append((k, m))
            else:
                with pytest.raises(ValueError):
                    next(elements)
    assert listed == checked


@pytest.mark.parametrize("k, m", [(8, 1), (1, 7), (3, 5), (3, 4)])
def test_gu_axioms_check_fails_on_a_repeated_element(monkeypatch, k, m):
    # one element enumerated twice in place of another: every law still
    # holds on the enumerated elements, only their count tells; the first
    # three shapes lie above GU_EXHAUSTIVE_ORDER, the last at or below it
    exact = verify.gu_enumerate

    def gu_enumerate(cls):
        elems = list(exact(cls))
        elems[-1] = elems[1]
        return iter(elems)

    monkeypatch.setattr(verify, "gu_enumerate", gu_enumerate)
    order = math.factorial(k - 1) ** m * math.factorial(m)
    result = verify._check_gu_shape(k, m, random.Random(0))
    assert not result.ok
    assert result.detail == f"enumerated {order}, {order - 1} distinct != {order}"
