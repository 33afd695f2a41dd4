"""The symmetric group acting on idempotents by conjugation.

A permutation s sends the idempotent f to s . f . s^-1.  Conjugation
preserves fiber sizes, so the induced partition of [n] is an orbit
invariant; it is in fact a complete invariant, and this module builds
the witnessing conjugator explicitly.  The exhaustive oracles enumerate
all n! permutations, so they accept n <= 8 only, and back the
closed-form counts elsewhere in the package.  The Burnside count and
verify share one stabilizer tally, which conjugates one representative
per orbit by all of them and carries its stabilizer to the orbit.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .combinatorics import PERMUTATION_ENUM_LIMIT, exact_div
from .transformations import Idempotent, enumerate_idempotents, type_vector_of

__all__ = [
    "Permutation",
    "conjugate_idempotent",
    "conjugator",
    "count_orbits_burnside",
    "enumerate_permutations",
    "orbit_of",
    "same_orbit",
    "stabilizer_bruteforce",
]


class Permutation:
    """A bijection of [n] with O(1) inverse lookup.

    forward[x-1] is the image of x; backward is the inverse table.
    The empty permutation (n = 0) is allowed, it is the identity of
    the symmetric group on the empty set.  The slots are set once, by
    the constructor: assigning or deleting one raises AttributeError,
    so a permutation keeps its hash while a set or dict holds it.
    """

    __slots__ = ("n", "forward", "backward")

    def __init__(self, forward: Iterable[int]):
        forward = tuple(forward)
        n = len(forward)
        backward = [0] * n
        for x, v in enumerate(forward, start=1):
            if not 1 <= v <= n or backward[v - 1]:
                raise ValueError(f"{forward} is not a bijection of [1..{n}]")
            backward[v - 1] = x
        set_slot = object.__setattr__
        set_slot(self, "n", n)
        set_slot(self, "forward", forward)
        set_slot(self, "backward", tuple(backward))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r}: a Permutation is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside [1..{self.n}]")
        return self.forward[x - 1]

    def inverse(self) -> "Permutation":
        return Permutation(self.backward)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x)), q applied first."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation([self.forward[v - 1] for v in other.forward])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.forward == other.forward

    def __hash__(self) -> int:
        return hash(self.forward)

    def __repr__(self) -> str:
        return f"Permutation({self.forward})"


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of [n], lexicographic on value tuples."""
    if n < 0 or n > PERMUTATION_ENUM_LIMIT:
        raise ValueError(
            f"n must lie in 0..{PERMUTATION_ENUM_LIMIT} for full enumeration, got {n}"
        )
    for vals in itertools.permutations(range(1, n + 1)):
        yield Permutation(vals)


def _conjugated(values: tuple[int, ...], sigma: Permutation) -> tuple[int, ...]:
    # value tuple of sigma . f . sigma^-1 without building map objects
    fwd = sigma.forward
    return tuple([fwd[values[b - 1] - 1] for b in sigma.backward])


def conjugate_idempotent(f: Idempotent, sigma: Permutation) -> Idempotent:
    """Conjugate of an idempotent; the result is again idempotent.

    Raises ValueError if the sizes differ.
    """
    if f.n != sigma.n:
        raise ValueError(f"size mismatch: map on [{f.n}], permutation on [{sigma.n}]")
    return Idempotent(_conjugated(f.values, sigma))


def orbit_of(f: Idempotent) -> set[Idempotent]:
    """All conjugates of f, by exhaustive conjugation.  Oracle use only."""
    seen = {_conjugated(f.values, sigma) for sigma in enumerate_permutations(f.n)}
    return {Idempotent(vals) for vals in seen}


def _conjugation_sweep(
    values: tuple[int, ...], perms: Sequence[Permutation]
) -> tuple[dict[tuple[int, ...], Permutation], list[Permutation]]:
    """Conjugate one value tuple by every permutation in perms.

    Returns the orbit, each member mapped to the first permutation that
    carries values onto it, and the permutations that fix values.  With
    perms all of S_n that is the whole orbit and the whole stabilizer.
    """
    conjugators: dict[tuple[int, ...], Permutation] = {}
    stabilizer = []
    for sigma in perms:
        conj = _conjugated(values, sigma)
        if conj == values:
            stabilizer.append(sigma)
        if conj not in conjugators:
            conjugators[conj] = sigma
    return conjugators, stabilizer


def same_orbit(f: Idempotent, g: Idempotent) -> bool:
    """True iff f and g are conjugate, i.e. share a fiber-size type."""
    if f.n != g.n:
        raise ValueError(f"size mismatch: {f.n} vs {g.n}")
    return type_vector_of(f) == type_vector_of(g)


def conjugator(f: Idempotent, g: Idempotent) -> Permutation:
    """A permutation s with s . f . s^-1 = g, for conjugate f and g.

    Image points of equal fiber size are matched in ascending order,
    and each fiber is carried onto its target root-first with the
    remaining elements matched in ascending order.  Any such choice
    works; this one is canonical so the output is deterministic.
    """
    if not same_orbit(f, g):
        raise ValueError("the idempotents are not conjugate")
    # a stable sort by fiber size keeps points of one size ascending, and
    # equal type vectors pair the two lists size for size
    roots = [sorted(h.image, key=lambda x: len(h.fibers[x])) for h in (f, g)]
    forward = [0] * f.n
    for x, y in zip(*roots):
        forward[x - 1] = y
        rest_src = [s for s in f.fibers[x] if s != x]
        rest_dst = [t for t in g.fibers[y] if t != y]
        for s, t in zip(rest_src, rest_dst):
            forward[s - 1] = t
    return Permutation(forward)


def stabilizer_bruteforce(f: Idempotent) -> tuple[Permutation, ...]:
    """All permutations fixing f under conjugation, lexicographic order."""
    vals = f.values
    return tuple(
        sigma
        for sigma in enumerate_permutations(f.n)
        if _conjugated(vals, sigma) == vals
    )


def _orbit_stats(idems, perms):
    """Per-idempotent stabilizer count and orbit key, orbit by orbit.

    Each idempotent r that no earlier orbit holds is conjugated by every
    permutation: that gives its orbit, a conjugator s_f for each member
    f, and Stab(r).  The count of f is the number of distinct
    s_f.sigma.s_f^-1, sigma in Stab(r), checked to fix f, or 0 if s_f
    does not carry r onto f.  When it does, Stab(f) = s_f.Stab(r).s_f^-1,
    so the count is |Stab(f)|.  The key of f is its orbit's
    representative r.  The flag says whether the orbits are disjoint
    and cover the enumerated idempotents, each once.
    """
    key_of = {}
    count_of = {}
    disjoint = True
    for f in idems:
        rep = f.values
        if rep in key_of:
            continue
        conjugators, stab = _conjugation_sweep(rep, perms)
        for member, s in conjugators.items():
            disjoint &= member not in key_of
            key_of[member] = rep
            if _conjugated(rep, s) != member:
                count_of[member] = 0
                continue
            # t = s.sigma.s^-1 is built as a forward table; t.f.t^-1 = f
            # iff t.f = f.t, so the fix test needs no inverse of t
            fwd_s = s.forward
            inv_s = s.backward
            fixing = set()
            for sigma in stab:
                fwd_sigma = sigma.forward
                fwd = tuple([fwd_s[fwd_sigma[v - 1] - 1] for v in inv_s])
                if [fwd[v - 1] for v in member] == [member[v - 1] for v in fwd]:
                    fixing.add(fwd)
            count_of[member] = len(fixing)
    values = [f.values for f in idems]
    enumerated = set(values)
    partition = (
        disjoint and len(enumerated) == len(values) and key_of.keys() == enumerated
    )
    counts = [count_of.get(v, 0) for v in values]
    return counts, [key_of.get(v) for v in values], partition


def count_orbits_burnside(n: int) -> int:
    """Number of conjugation orbits of idempotents on [n], exhaustively.

    Sums |Stab(f)| over all idempotents f, read from the orbit-by-orbit
    tally, and divides by n!; the division must be exact, a remainder
    would mean a bug.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    perms = list(enumerate_permutations(n))
    counts, _, _ = _orbit_stats(list(enumerate_idempotents(n)), perms)
    return exact_div(sum(counts), math.factorial(n))
