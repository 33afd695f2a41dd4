import warnings

import pytest

from idempart import enumerate_idempotents, enumerate_permutations

# When a property test fails, hypothesis imports its patch writer, which
# imports libcst, which warns through mypy_extensions; under
# -W error::DeprecationWarning that warning turns the failure report into
# an INTERNALERROR.  Importing the patch writer here, with that warning
# ignored for this import only, leaves the report intact.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis writes no patch then
        pass


@pytest.fixture(scope="session")
def idems_by_n():
    """All idempotents for 1 <= n <= 6, constructively enumerated."""
    return {n: list(enumerate_idempotents(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def perms_by_n():
    """All permutations for 1 <= n <= 6."""
    return {n: list(enumerate_permutations(n)) for n in range(1, 7)}
