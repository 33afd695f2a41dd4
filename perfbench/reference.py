"""A fixed pure-Python computation that gauges how fast the host runs now.

The shared host runs the same code up to 1.8x slower for a minute or
more at a time, so a whole run can land in a slow stretch.  The harness
times this computation after every job, and scales the run's times by
NOMINAL_S over the run's lower-quartile reference time: they read as on
the host at its usual speed.  The computation does what idempart's hot
loops do -- it enumerates integer partitions with big-integer
arithmetic, and composes and hashes permutation tuples -- but it never
imports idempart, so no change to the program can move it.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from typing import Iterator

# Lower-quartile reference time of a typical run on the 2-vCPU Xeon host
# of README.md's baseline (median over 60 runs, rounded).
NOMINAL_S = 0.32

PARTITION_N = 36
PERMUTATION_DEGREE = 8
CHECKSUM = (938340083863032520321306177175947028399694819721, 37955)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _class_sizes(n: int) -> int:
    """Sum over the partitions of n of (conjugacy class size) * C(n, parts)."""
    total = 0
    for parts in _partitions(n, n):
        size = math.factorial(n)
        for k, mult in Counter(parts).items():
            size //= k**mult * math.factorial(mult)
        total += size * math.comb(n, len(parts))
    return total


def _compositions(degree: int) -> int:
    """Number of distinct products a*b*c over fixed random permutations."""
    rng = random.Random(5)
    perms = [tuple(rng.sample(range(degree), degree)) for _ in range(64)]
    seen = set()
    for a in perms:
        for b in perms:
            for c in perms[:28]:
                # a*b is rebuilt per c on purpose: the work is tuple building
                ab = tuple(a[b[i]] for i in range(degree))
                seen.add(tuple(ab[c[i]] for i in range(degree)))
    return len(seen)


def run() -> tuple[int, int]:
    return _class_sizes(PARTITION_N), _compositions(PERMUTATION_DEGREE)


def timed() -> float:
    """Seconds one run() takes now; raises if it computed something else."""
    start = time.perf_counter()
    value = run()
    elapsed = time.perf_counter() - start
    if value != CHECKSUM:
        raise RuntimeError(f"reference computed {value}, expected {CHECKSUM}")
    return elapsed
