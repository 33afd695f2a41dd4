"""Set representations of the two-element monoid {e, b} with b*b = b.

A representation on [n] is a monoid homomorphism into the self-maps of
[n]; e must act as the identity, so the whole representation is pinned
down by the action of b, which must be idempotent: Representation(f)
is the representation whose generator acts as the Idempotent f.
Conjugating a representation by a permutation conjugates that action.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Iterable

from .symmetric import Permutation, conjugate_idempotent
from .transformations import Idempotent

__all__ = [
    "BWord",
    "Representation",
    "apply_rep",
    "conjugate_rep",
]


class BWord(enum.Enum):
    """Element of the free idempotent monoid on one generator."""

    IDENT = "e"
    GEN = "b"

    def __mul__(self, other: "BWord") -> "BWord":
        if not isinstance(other, BWord):
            return NotImplemented
        if self is BWord.IDENT:
            return other
        return BWord.GEN


class Representation(namedtuple("Representation", ("action_of_b",))):
    """A representation, stored as the action of the generator b.

    The identity's action is never stored; it is always id on [n].  The
    constructor, and _make and _replace through it, raise TypeError
    unless action_of_b is an Idempotent.
    """

    __slots__ = ()

    def __new__(cls, action_of_b: Idempotent) -> Representation:
        if not isinstance(action_of_b, Idempotent):
            raise TypeError(f"action_of_b must be an Idempotent, got {action_of_b!r}")
        return tuple.__new__(cls, (action_of_b,))

    @classmethod
    def _make(cls, iterable: Iterable) -> Representation:
        return cls(*iterable)

    @property
    def n(self) -> int:
        return self.action_of_b.n


def apply_rep(rho: Representation, w: BWord, x: int) -> int:
    """Act on the point x by the image of the word w."""
    if not isinstance(w, BWord):
        raise TypeError(f"word must be a BWord, got {w!r}")
    if not 1 <= x <= rho.n:
        raise ValueError(f"point {x} outside [1..{rho.n}]")
    if w is BWord.IDENT:
        return x
    return rho.action_of_b(x)


def conjugate_rep(rho: Representation, sigma: Permutation) -> Representation:
    """Conjugate representation: the generator acts as sigma.f.sigma^-1.

    Raises ValueError if the sizes differ.
    """
    return Representation(conjugate_idempotent(rho.action_of_b, sigma))
