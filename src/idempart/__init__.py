"""idempart: exact partition numbers from idempotent self-maps.

The partition number p(n) equals the number of conjugation orbits of
idempotent self-maps of {1, ..., n} under the symmetric group.  This
package implements the whole chain with exact integer arithmetic:
idempotents, each built and checked by one constructor, with their
images and fibers, each its own representation of the monoid {e, b},
the conjugation action with explicit orbits, stabilizers and their
per-fiber-size factor groups, the resulting closed-form product formula
for p(n), and brute-force oracles cross-checking every identity at
small n.

Each name of __all__ is read from its submodule on first access
(PEP 562), so importing the package, or one submodule through it, loads
no other layer.
"""

# every re-exported name -> the submodule that defines it
_HOME = {
    "enumerate_partitions": "combinatorics",
    "exact_div": "combinatorics",
    "p_pentagonal": "combinatorics",
    "count_idempotents_of_type": "formula",
    "cumulative_identity": "formula",
    "p_via_formula": "formula",
    "summand": "formula",
    "summand_direct": "formula",
    "total_idempotents": "formula",
    "BWord": "representations",
    "apply_rep": "representations",
    "gamma_hom": "stabilizer",
    "gu_order": "stabilizer",
    "stabilizer_order_formula": "formula",
    "Permutation": "symmetric",
    "conjugate_idempotent": "symmetric",
    "conjugator": "symmetric",
    "count_orbits_burnside": "symmetric",
    "enumerate_permutations": "symmetric",
    "orbit_of": "symmetric",
    "same_orbit": "symmetric",
    "stabilizer_bruteforce": "symmetric",
    "Idempotent": "transformations",
    "block_idempotent": "transformations",
    "enumerate_idempotents": "transformations",
    "enumerate_idempotents_bruteforce": "transformations",
    "type_vector_of": "transformations",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    import importlib

    # the submodules that define the names are package attributes too,
    # as they were when the package imported them all
    if name in _HOME.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOME.values()})
