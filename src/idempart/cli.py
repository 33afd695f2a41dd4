"""Command-line front end.

Subcommands: pn, idempotents, orbits, types, verify.  Every command
emits either a plain aligned table or, with --json, one self-describing
JSON record per line in which all integers are exact decimal strings.
Every integer argument is checked against one limits table before the
command runs.  Exit codes: 0 success, 1 an identity failed, 2 an
argument outside the table.  Any other error inside a command is a bug
and propagates as a traceback instead of being reported as a bad
argument.  Each command imports the layers it runs when it runs, so
`pn --method formula|pentagonal` and the size-by-size `idempotents`
count never load the group layer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from .combinatorics import (
    PERMUTATION_ENUM_LIMIT,
    RemainderError,
    exact_div,
    factorial,
    p_pentagonal,
)
from .formula import _type_sum_by_size, p_via_formula, type_terms

__all__ = ["main", "run"]

PN_CAP = 200
TYPES_CAP = 60
LISTING_CAP = 7
DEFAULT_VERIFY_EXHAUSTIVE = 5
DEFAULT_VERIFY_FORMULA = 50

# Accepted range of every integer argument, one row per command variant.
# The size-by-size sums (pn --method formula, idempotents above the
# listing cap) share PN_CAP; the p(n)-term enumerations (types, the
# formula levels of verify) share TYPES_CAP; the exhaustive routes
# conjugate by all n! permutations and share that enumeration's guard.
_LIMITS = {
    "pn --method formula": {"n": (1, PN_CAP)},
    "pn --method pentagonal": {"n": (0, PN_CAP)},
    "pn --method burnside": {"n": (1, PERMUTATION_ENUM_LIMIT)},
    "idempotents": {"n": (1, PN_CAP)},
    "idempotents --list": {"n": (1, LISTING_CAP)},
    "orbits": {"n": (1, PERMUTATION_ENUM_LIMIT)},
    "types": {"n": (1, TYPES_CAP)},
    "verify": {
        "--exhaustive": (1, PERMUTATION_ENUM_LIMIT),
        "--formula": (1, TYPES_CAP),
    },
}

# one encoder for every --json record; json.dumps with these settings
# would build a new one per call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _row(args: argparse.Namespace) -> str:
    if args.command == "pn":
        return f"pn --method {args.method}"
    if args.command == "idempotents" and args.list:
        return "idempotents --list"
    return args.command


def _limit_error(args: argparse.Namespace) -> str | None:
    """Why the arguments miss their row of _LIMITS, or None if they fit."""
    row = _row(args)
    for option, (low, high) in _LIMITS[row].items():
        value = getattr(args, option.lstrip("-"))
        if not low <= value <= high:
            return f"{row} accepts {low} <= {option} <= {high}, got {value}"
    return None


def _emit(as_json: bool, command: str, **fields: Any) -> None:
    """Print one record; fields keep their order and None fields are left out.

    Integer values are rendered as exact decimal strings so that nothing
    is ever squeezed through floating point; a list field is passed in
    as strings already.
    """
    record: dict[str, Any] = {"command": command}
    for key, value in fields.items():
        if value is None:
            continue
        if key == "elapsed_ms":
            value = round(value, 3)
        elif type(value) is int:  # not bool, a subclass of int
            value = str(value)
        record[key] = value
    if as_json:
        print(_JSON.encode(record))
    else:
        parts = [f"{k}={v}" for k, v in record.items() if k != "command"]
        print(f"{command}  " + "  ".join(parts))


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000


def _type_key(n: int, g: tuple[tuple[int, int], ...]) -> str:
    """The dense key (g(1),...,g(n)) of a sparse type vector.

    Each entry of g is written after the run of zeros for the sizes it
    skips, so the key costs one string per entry, not one per size.
    """
    parts = []
    last = 0
    for k, gk in g:
        parts.append("0," * (k - last - 1) + str(gk))
        last = k
    return "(" + ",".join(parts) + ",0" * (n - last) + ")"


def cmd_pn(args: argparse.Namespace) -> int:
    # Looked up per call, so that a patched or traced name takes effect.
    # A command imports the layers beyond combinatorics and formula
    # before its clock starts, so elapsed_ms does not time the import.
    if args.method == "burnside":
        from .symmetric import count_orbits_burnside as route
    else:
        route = {"formula": p_via_formula, "pentagonal": p_pentagonal}[args.method]
    start = time.perf_counter()
    value = route(args.n)
    _emit(
        args.json,
        "pn",
        n=args.n,
        p=value,
        method=args.method,
        elapsed_ms=_ms_since(start),
    )
    return 0


def cmd_idempotents(args: argparse.Namespace) -> int:
    n = args.n
    if args.list or n <= LISTING_CAP:
        from .transformations import enumerate_idempotents, type_vector_of
    start = time.perf_counter()
    if args.list:
        count = 0
        for f in enumerate_idempotents(n):
            count += 1
            _emit(
                args.json,
                "idempotent",
                n=n,
                values=[str(v) for v in f.values],
                type=_type_key(n, type_vector_of(f)),
            )
        method = "constructive"
    elif n <= LISTING_CAP:
        count = sum(1 for _ in enumerate_idempotents(n))
        method = "constructive"
    else:
        count = _type_sum_by_size(n, stabilizers=False)
        method = "size-by-size"
    _emit(
        args.json,
        "idempotents",
        n=n,
        count=count,
        method=method,
        elapsed_ms=_ms_since(start),
    )
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    from .symmetric import _conjugation_sweep, enumerate_permutations
    from .transformations import block_idempotent

    n = args.n
    start = time.perf_counter()
    nfact = factorial(n)
    perms = list(enumerate_permutations(n))
    rows = 0
    all_ok = True
    for g, _, _ in type_terms(n):
        orbit, stabilizer = _conjugation_sweep(block_idempotent(g).values, perms)
        size = len(orbit)
        stab = len(stabilizer)
        ok = size * stab == nfact
        all_ok &= ok
        rows += 1
        _emit(
            args.json,
            "orbit",
            n=n,
            type=_type_key(n, g),
            orbit_size=size,
            stabilizer_order=stab,
            product_check=ok,
        )
    _emit(
        args.json,
        "orbits",
        n=n,
        orbits=rows,
        all_products_equal_factorial=all_ok,
        method="exhaustive-conjugation",
        elapsed_ms=_ms_since(start),
    )
    return 0 if all_ok else 1


def cmd_types(args: argparse.Namespace) -> int:
    n = args.n
    start = time.perf_counter()
    total = 0
    rows = 0
    for g, count, stab in type_terms(n):
        term = stab * count
        total += term
        rows += 1
        _emit(
            args.json,
            "type",
            n=n,
            type=_type_key(n, g),
            idempotents=count,
            stabilizer_order=stab,
            summand=term,
        )
    quotient = exact_div(total, factorial(n))
    _emit(
        args.json,
        "types",
        n=n,
        types=rows,
        sum=total,
        quotient=quotient,
        method="formula",
        elapsed_ms=_ms_since(start),
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    start = time.perf_counter()
    failures = []
    checks = 0
    # a check's time runs from the previous record to its own yield, so
    # work shared by several checks is charged to the first that needs it
    since = time.perf_counter()
    for result in run_verification(args.exhaustive, args.formula):
        elapsed_ms = _ms_since(since)
        checks += 1
        _emit(
            args.json,
            "check",
            name=result.name,
            ok=result.ok,
            detail=result.detail or None,
            elapsed_ms=elapsed_ms,
        )
        if not result.ok:
            failures.append(result.name)
        since = time.perf_counter()
    _emit(
        args.json,
        "verify",
        exhaustive=args.exhaustive,
        formula=args.formula,
        checks=checks,
        failures=len(failures),
        first_failure=failures[0] if failures else None,
        elapsed_ms=_ms_since(start),
    )
    return 1 if failures else 0


def _n_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)


def _pn_arguments(p: argparse.ArgumentParser) -> None:
    _n_arguments(p)
    p.add_argument(
        "--method",
        choices=("formula", "pentagonal", "burnside"),
        default="formula",
        help="computation route (default: formula)",
    )


def _idempotents_arguments(p: argparse.ArgumentParser) -> None:
    _n_arguments(p)
    p.add_argument("--list", action="store_true", help="print every map with its type")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exhaustive", type=int, default=DEFAULT_VERIFY_EXHAUSTIVE)
    p.add_argument("--formula", type=int, default=DEFAULT_VERIFY_FORMULA)


# Every command's help text and arguments, defined once for both the
# one-command parser of main and the full parser of build_parser; each
# command runs cmd_<name>.
_COMMANDS = {
    "pn": ("compute the partition number p(n)", _pn_arguments),
    "idempotents": ("count (or list) idempotent self-maps", _idempotents_arguments),
    "orbits": ("conjugation orbits with stabilizer orders", _n_arguments),
    "types": ("weight-n type vectors with counts and orders", _n_arguments),
    "verify": ("run the full identity cross-check harness", _verify_arguments),
}


def _add_command(p: argparse.ArgumentParser, name: str) -> None:
    _COMMANDS[name][1](p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    # looked up now, so that a patched or traced cmd_<name> takes effect
    p.set_defaults(command=name, func=globals()[f"cmd_{name}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idempart",
        description=(
            "Exact partition numbers by orbit-counting idempotent self-maps "
            "under symmetric-group conjugation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of argv, building only the named command's parser.

    The parser add_parser would make for that command parses the rest
    of argv alone.  Leftover arguments, and an argv that does not start
    with a command, go to the full parser, whose errors and help name
    every command.
    """
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"idempart {argv[0]}")
        _add_command(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    problem = _limit_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except RemainderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    import signal

    # a reader that quits early (`idempart types 30 | head`) ends the
    # process quietly, as for any filter, not with a BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
