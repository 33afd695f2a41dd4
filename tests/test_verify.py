import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from idempart import conjugate_idempotent, gamma_hom, verify
from idempart.stabilizer import eta_classes, gu_enumerate, gu_identity, gu_order
from idempart.symmetric import Permutation

# every shape (k, |U|) with k = 1..5 whose class group has at most 1296 elements
SHAPES = [
    (k, m)
    for k in range(1, 6)
    for m in range(1, 6)
    if gu_order(eta_classes(verify._block_idempotent(k, m))[0]) <= 1296
]


@functools.lru_cache(maxsize=None)
def _elements(k, m):
    return list(gu_enumerate(eta_classes(verify._block_idempotent(k, m))[0]))


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


def test_induced_action_stabilizes_the_block_idempotent():
    # rho(z) is the stabilizing permutation that z stands for
    for k, m in ((1, 3), (2, 2), (3, 2), (4, 1)):
        f = verify._block_idempotent(k, m)
        for z in _elements(k, m):
            sigma = _rho(z)
            assert conjugate_idempotent(f, sigma) == f
            assert gamma_hom(sigma, f, z.fiber_class) == z


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
