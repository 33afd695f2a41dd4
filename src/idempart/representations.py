"""Set representations of the two-element monoid {e, b} with b*b = b.

A representation on [n] is a monoid homomorphism into the self-maps of
[n]; e must act as the identity, so the whole representation is pinned
down by the action of b, which must be idempotent.  An Idempotent f is
therefore its own representation: apply_rep(f, w, x) acts by the word
w, and conjugating the representation by a permutation is
conjugate_idempotent.
"""

from __future__ import annotations

import enum

from .transformations import Idempotent

__all__ = ["BWord", "apply_rep"]


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


def apply_rep(f: Idempotent, w: BWord, x: int) -> int:
    """Act on the point x by the image of the word w, b acting as f.

    Raises TypeError unless f is an Idempotent and w a BWord, and
    ValueError for a point outside [1..n].
    """
    if not isinstance(f, Idempotent):
        raise TypeError(f"action of b must be an Idempotent, got {f!r}")
    if not isinstance(w, BWord):
        raise TypeError(f"word must be a BWord, got {w!r}")
    if not 1 <= x <= f.n:
        raise ValueError(f"point {x} outside [1..{f.n}]")
    if w is BWord.IDENT:
        return x
    return f.values[x - 1]
