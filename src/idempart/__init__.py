"""idempart: exact partition numbers from idempotent self-maps.

The partition number p(n) equals the number of conjugation orbits of
idempotent self-maps of {1, ..., n} under the symmetric group.  This
package implements the whole chain with exact integer arithmetic:
idempotents and their (image, retraction) structure, the conjugation
action with explicit orbits, stabilizers and their per-fiber-size
factor groups, the resulting closed-form product formula for p(n), and
brute-force oracles cross-checking every identity at small n.
"""

from .combinatorics import (
    binomial,
    enumerate_partitions,
    exact_div,
    factorial,
    p_pentagonal,
)
from .formula import (
    count_idempotents_of_type,
    cumulative_identity,
    p_via_formula,
    summand,
    summand_direct,
    total_idempotents,
)
from .representations import (
    BWord,
    Representation,
    apply_rep,
    conjugate_rep,
    rep_from_idempotent,
)
from .stabilizer import (
    FiberClass,
    GUElement,
    eta_classes,
    gamma_hom,
    gu_enumerate,
    gu_identity,
    gu_inverse,
    gu_multiply,
    gu_order,
    stabilizer_order_formula,
)
from .symmetric import (
    Permutation,
    conjugate_idempotent,
    conjugator,
    count_orbits_burnside,
    enumerate_permutations,
    orbit_of,
    same_orbit,
    stabilizer_bruteforce,
)
from .transformations import (
    FiniteMap,
    Idempotent,
    assemble_idempotent,
    block_idempotent,
    compose,
    decompose_idempotent,
    enumerate_idempotents,
    enumerate_idempotents_bruteforce,
    is_idempotent,
    type_vector_of,
)

__version__ = "0.1.0"
