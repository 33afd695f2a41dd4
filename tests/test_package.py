import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import idempart

# every name the package re-exports, in order, with the submodule defining it
EXPORTS = [
    ("enumerate_partitions", "combinatorics"),
    ("exact_div", "combinatorics"),
    ("p_pentagonal", "combinatorics"),
    ("count_idempotents_of_type", "formula"),
    ("cumulative_identity", "formula"),
    ("p_via_formula", "formula"),
    ("summand", "formula"),
    ("summand_direct", "formula"),
    ("total_idempotents", "formula"),
    ("BWord", "representations"),
    ("Representation", "representations"),
    ("apply_rep", "representations"),
    ("conjugate_rep", "representations"),
    ("gamma_hom", "stabilizer"),
    ("gu_enumerate", "stabilizer"),
    ("gu_order", "stabilizer"),
    ("stabilizer_order_formula", "formula"),
    ("Permutation", "symmetric"),
    ("conjugate_idempotent", "symmetric"),
    ("conjugator", "symmetric"),
    ("count_orbits_burnside", "symmetric"),
    ("enumerate_permutations", "symmetric"),
    ("orbit_of", "symmetric"),
    ("same_orbit", "symmetric"),
    ("stabilizer_bruteforce", "symmetric"),
    ("Idempotent", "transformations"),
    ("block_idempotent", "transformations"),
    ("enumerate_idempotents", "transformations"),
    ("enumerate_idempotents_bruteforce", "transformations"),
    ("type_vector_of", "transformations"),
]
NAMES = [name for name, _ in EXPORTS]
SUBMODULES = sorted({module for _, module in EXPORTS})


def test_all_lists_every_re_exported_name():
    assert idempart.__all__ == NAMES


@pytest.mark.parametrize("name, home", EXPORTS)
def test_each_name_is_its_submodule_object(name, home):
    module = importlib.import_module(f"idempart.{home}")
    assert getattr(idempart, name) is getattr(module, name)
    # one home: no other submodule lists the name in its __all__
    exported_by = [m for m in SUBMODULES if name in getattr(idempart, m).__all__]
    assert exported_by == [home]
    assert name in dir(idempart)


def test_star_import_binds_exactly_the_re_exported_names():
    namespace = {}
    exec("from idempart import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(NAMES)
    assert all(namespace[name] is getattr(idempart, name) for name in NAMES)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        idempart.no_such_name


def test_the_package_loads_a_submodule_only_when_asked():
    script = (
        "import sys, idempart\n"
        "assert not [m for m in sys.modules if m.startswith('idempart.')]\n"
        "assert idempart.symmetric.Permutation is idempart.Permutation\n"
        "print(*sorted(m for m in sys.modules if m.startswith('idempart.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    # symmetric imports combinatorics and transformations, and nothing else
    assert proc.stdout.split() == [
        "idempart.combinatorics",
        "idempart.symmetric",
        "idempart.transformations",
    ]
    assert set(SUBMODULES) <= set(dir(idempart))


def _names_read(tree):
    """Every name a module reads: loaded names, attributes, from-imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_re_exported_name_is_read_by_the_package():
    # reference implementations that only the tests compare against
    test_references = {"orbit_of", "total_idempotents"}
    read = set()
    for path in Path(idempart.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            read.update(_names_read(ast.parse(path.read_text())))
    assert sorted(set(idempart.__all__) - read - test_references) == []


def _named_tuple_fields(cls):
    """Field names of a class built on NamedTuple or on namedtuple(...)."""
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id == "NamedTuple":
            for node in cls.body:
                if isinstance(node, ast.AnnAssign):
                    yield node.target.id
        elif isinstance(base, ast.Call) and ast.unparse(base.func) == "namedtuple":
            fields = ast.literal_eval(base.args[1])
            if isinstance(fields, str):
                fields = fields.replace(",", " ").split()
            yield from fields


def test_every_field_and_public_method_is_read_by_the_package():
    # Matched by name only: an attribute read anywhere in src/ counts for
    # every class with a member of that name, so one read of
    # Permutation.identity would hide an unread identity method elsewhere.
    members = []
    attributes = set()
    for path in Path(idempart.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                methods = [
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                ]
                for name in [*_named_tuple_fields(node), *methods]:
                    members.append(f"{node.name}.{name}")
    assert members  # the walk found the classes
    assert sorted(m for m in members if m.split(".")[1] not in attributes) == []
