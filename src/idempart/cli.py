"""Command-line front end.

Subcommands: pn, idempotents, orbits, types, verify.  Every command
emits either a plain aligned table or, with --json, one self-describing
JSON record per line in which all integers are exact decimal strings.
Every integer argument is checked against one limits table before the
command runs.  Exit codes: 0 success, 1 an identity failed, 2 an
argument outside the table, 3 the output could not be written (an
OSError such as a full disk), 4 any other error inside a command: a
bug, reported on one line without a traceback, not as a bad argument.
Each command imports the layers it runs when it runs, so
`pn --method formula|pentagonal` and `idempotents` without --list,
which counts size by size, never load the group layer.

One grammar table, _COMMANDS, gives every command's arguments to two
readers.  A plainly spelled command line (the command, its option
strings in full, numbers in ASCII digits) is read from the table
directly, without building an argparse parser, whose first use in a
process costs more than `pn 48` itself.  Every other spelling, help
included, goes to the full argparse parser built from the same table,
which alone prints usage and errors; for a plain command line both
readers give the same Namespace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any

from .combinatorics import (
    PERMUTATION_ENUM_LIMIT,
    RemainderError,
    exact_div,
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
# The size-by-size sums (pn --method formula, idempotents without
# --list) share PN_CAP; LISTING_CAP bounds only the printed listing; the
# p(n)-term enumerations (types, the formula levels of verify) share
# TYPES_CAP; the exhaustive routes conjugate by all n! permutations and
# share that enumeration's guard.
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
    if args.list:
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
    from .symmetric import _conjugation_sweep, _permutation_tables, _stabilizer_order
    from .transformations import block_idempotent

    n = args.n
    start = time.perf_counter()
    nfact = math.factorial(n)
    tables = _permutation_tables(n)
    rows = 0
    all_ok = True
    for g, _, _ in type_terms(n):
        rep = block_idempotent(g).values
        orbit, stabilizer = _conjugation_sweep(rep, tables)
        size = len(orbit)
        stab = _stabilizer_order(rep, stabilizer)
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
    quotient = exact_div(total, math.factorial(n))
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


# One grammar table for both parse paths: each command's help text,
# whether it takes the positional n, and each option as (string, kind,
# default, help), where kind is bool for a flag, int, or a tuple of
# choices.  build_parser adds every argparse argument from it and _plain
# reads it without argparse; each command runs cmd_<name>.
_JSON_OPTION = ("--json", bool, False, "machine-readable output")
_COMMANDS = {
    "pn": (
        "compute the partition number p(n)",
        True,
        (
            (
                "--method",
                ("formula", "pentagonal", "burnside"),
                "formula",
                "computation route (default: formula)",
            ),
            _JSON_OPTION,
        ),
    ),
    "idempotents": (
        "count (or list) idempotent self-maps",
        True,
        (("--list", bool, False, "print every map with its type"), _JSON_OPTION),
    ),
    "orbits": ("conjugation orbits with stabilizer orders", True, (_JSON_OPTION,)),
    "types": ("weight-n type vectors with counts and orders", True, (_JSON_OPTION,)),
    "verify": (
        "run the full identity cross-check harness",
        False,
        (
            ("--exhaustive", int, DEFAULT_VERIFY_EXHAUSTIVE, None),
            ("--formula", int, DEFAULT_VERIFY_FORMULA, None),
            _JSON_OPTION,
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idempart",
        description=(
            "Exact partition numbers by orbit-counting idempotent self-maps "
            "under symmetric-group conjugation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, takes_n, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if takes_n:
            p.add_argument("n", type=int)
        for option, kind, default, option_help in options:
            if kind is bool:
                how: dict[str, Any] = {"action": "store_true"}
            elif kind is int:
                how = {"type": int}
            else:
                how = {"choices": kind}
            p.add_argument(option, default=default, help=option_help, **how)
        # looked up now, so that a patched or traced cmd_<name> takes effect
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """build_parser()'s Namespace for a plainly spelled argv, else None.

    Plain means a command, then only that command's option strings in
    full and without "=", each valued option followed by one of its
    choices or by ASCII digits, and the positional n, if the command
    takes one, exactly once as ASCII digits; a repeated option keeps its
    last value, as in argparse.  Every other argv (help, "--", an
    abbreviation, a sign, an underscore, non-ASCII digits, a missing or
    extra word) gives None and is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    name = argv[0]
    _, takes_n, options = _COMMANDS[name]
    kinds = {}
    values: dict[str, Any] = {"command": name, "func": globals()[f"cmd_{name}"]}
    for option, kind, default, _ in options:
        kinds[option] = kind
        values[option.lstrip("-")] = default
    words = iter(argv[1:])
    for word in words:
        if word in kinds:
            dest, kind = word.lstrip("-"), kinds[word]
            value = True if kind is bool else next(words, "")
        elif takes_n and "n" not in values:
            dest, kind, value = "n", int, word
        else:
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                return None
        elif kind is not bool and value not in kind:
            return None
        values[dest] = value
    if takes_n and "n" not in values:
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of argv: read plainly, or else by the full parser.

    Only argparse prints help and errors, so every argv that _plain
    leaves alone gets exactly the full parser's result.
    """
    return _plain(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    problem = _limit_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        status = args.func(args)
        # records still buffered fail here, not in the flush at exit
        sys.stdout.flush()
        return status
    except RemainderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # commands touch no file but stdout, so this is a failed write
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        # what stays buffered would fail again in the flush at exit and
        # turn the exit status into 120
        sys.stdout = open(os.devnull, "w")
        return 3
    except Exception as exc:
        # a fault of the program, not of the arguments; repr keeps the
        # exception's type and fits its message on one line
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 4


def run() -> None:
    import signal

    # a reader that quits early (`idempart types 30 | head`) ends the
    # process quietly, as for any filter, not with a BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
