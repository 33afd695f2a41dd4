"""Command-line front end.

Subcommands: pn, idempotents, orbits, types, verify.  Every command
emits either a plain aligned table or, with --json, one self-describing
JSON record per line in which all integers are exact decimal strings.
Exit codes: 0 success, 1 an identity failed, 2 argument error.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from .combinatorics import (
    RemainderError,
    enumerate_type_vectors,
    exact_div,
    factorial,
    p_pentagonal,
)
from .formula import count_idempotents_of_type, p_via_formula, total_idempotents
from .stabilizer import stabilizer_order_formula
from .symmetric import (
    brute_force_cap,
    count_orbits_burnside,
    orbit_of,
    stabilizer_bruteforce,
)
from .transformations import enumerate_idempotents, type_vector_of
from .verify import run_verification

__all__ = ["ReportRecord", "main", "run"]

PN_CAP = 200
TYPES_CAP = 60
LISTING_CAP = 7
DEFAULT_VERIFY_EXHAUSTIVE = 5
DEFAULT_VERIFY_FORMULA = 50


class ArgumentRangeError(Exception):
    """Raised for out-of-range arguments; mapped to exit code 2."""


@dataclass
class ReportRecord:
    """One output record: command, parameters, results, method, timing.

    Integer values are rendered as exact decimal strings so that
    nothing is ever squeezed through floating point.
    """

    command: str
    params: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    method: str = ""
    elapsed_ms: float | None = None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"command": self.command}
        for key, value in self.params.items():
            out[key] = _stringify(value)
        for key, value in self.results.items():
            out[key] = _stringify(value)
        if self.method:
            out["method"] = self.method
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def _stringify(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value


def _emit(record: ReportRecord, as_json: bool) -> None:
    data = record.as_dict()
    if as_json:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        parts = [f"{k}={v}" for k, v in data.items() if k != "command"]
        print(f"{data['command']}  " + "  ".join(parts))


def _type_key(counts: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in counts) + ")"


def cmd_pn(args: argparse.Namespace) -> int:
    n = args.n
    method = args.method
    start = time.perf_counter()
    if method == "pentagonal":
        if not 0 <= n <= PN_CAP:
            raise ArgumentRangeError(
                f"pentagonal method accepts 0 <= n <= {PN_CAP}, got {n}"
            )
        value = p_pentagonal(n)
    elif method == "formula":
        if not 1 <= n <= PN_CAP:
            raise ArgumentRangeError(
                f"formula method accepts 1 <= n <= {PN_CAP}, got {n}"
            )
        value = p_via_formula(n)
    else:
        cap = brute_force_cap()
        if not 1 <= n <= cap:
            raise ArgumentRangeError(
                f"burnside method accepts 1 <= n <= {cap}, got {n}"
            )
        value = count_orbits_burnside(n)
    elapsed = (time.perf_counter() - start) * 1000
    _emit(
        ReportRecord(
            "pn",
            params={"n": n},
            results={"p": value},
            method=method,
            elapsed_ms=elapsed,
        ),
        args.json,
    )
    return 0


def cmd_idempotents(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise ArgumentRangeError(f"n must be positive, got {n}")
    start = time.perf_counter()
    if args.list:
        if n > LISTING_CAP:
            raise ArgumentRangeError(
                f"listing accepts n <= {LISTING_CAP}, got {n}"
            )
        count = 0
        for f in enumerate_idempotents(n):
            count += 1
            _emit(
                ReportRecord(
                    "idempotent",
                    params={"n": n},
                    results={
                        "values": list(f.values),
                        "type": _type_key(type_vector_of(f).counts),
                    },
                ),
                args.json,
            )
        method = "constructive"
    elif n <= LISTING_CAP:
        count = sum(1 for _ in enumerate_idempotents(n))
        method = "constructive"
    else:
        count = total_idempotents(n)
        method = "type-sum"
    elapsed = (time.perf_counter() - start) * 1000
    _emit(
        ReportRecord(
            "idempotents",
            params={"n": n},
            results={"count": count},
            method=method,
            elapsed_ms=elapsed,
        ),
        args.json,
    )
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    n = args.n
    cap = brute_force_cap()
    if not 1 <= n <= cap:
        raise ArgumentRangeError(f"orbits accepts 1 <= n <= {cap}, got {n}")
    start = time.perf_counter()
    nfact = factorial(n)
    reps: dict = {}
    for f in enumerate_idempotents(n):
        reps.setdefault(type_vector_of(f), f)
    rows = 0
    all_ok = True
    for g in enumerate_type_vectors(n):
        rep = reps[g]
        size = len(orbit_of(rep))
        stab = len(stabilizer_bruteforce(rep))
        ok = size * stab == nfact
        all_ok &= ok
        rows += 1
        _emit(
            ReportRecord(
                "orbit",
                params={"n": n},
                results={
                    "type": _type_key(g.counts),
                    "orbit_size": size,
                    "stabilizer_order": stab,
                    "product_check": ok,
                },
            ),
            args.json,
        )
    elapsed = (time.perf_counter() - start) * 1000
    _emit(
        ReportRecord(
            "orbits",
            params={"n": n},
            results={"orbits": rows, "all_products_equal_factorial": all_ok},
            method="exhaustive-conjugation",
            elapsed_ms=elapsed,
        ),
        args.json,
    )
    return 0 if all_ok else 1


def cmd_types(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= TYPES_CAP:
        raise ArgumentRangeError(f"types accepts 1 <= n <= {TYPES_CAP}, got {n}")
    start = time.perf_counter()
    total = 0
    rows = 0
    for g in enumerate_type_vectors(n):
        count = count_idempotents_of_type(n, g)
        stab = stabilizer_order_formula(g)
        term = stab * count
        total += term
        rows += 1
        _emit(
            ReportRecord(
                "type",
                params={"n": n},
                results={
                    "type": _type_key(g.counts),
                    "idempotents": count,
                    "stabilizer_order": stab,
                    "summand": term,
                },
            ),
            args.json,
        )
    quotient = exact_div(total, factorial(n))
    elapsed = (time.perf_counter() - start) * 1000
    _emit(
        ReportRecord(
            "types",
            params={"n": n},
            results={"types": rows, "sum": total, "quotient": quotient},
            method="formula",
            elapsed_ms=elapsed,
        ),
        args.json,
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cap = brute_force_cap()
    if not 1 <= args.exhaustive <= cap:
        raise ArgumentRangeError(
            f"--exhaustive must lie in 1..{cap}, got {args.exhaustive}"
        )
    if args.formula < 1:
        raise ArgumentRangeError(f"--formula must be positive, got {args.formula}")
    start = time.perf_counter()
    failures = []
    checks = 0
    for result in run_verification(args.exhaustive, args.formula):
        checks += 1
        _emit(
            ReportRecord(
                "check",
                results={
                    "name": result.name,
                    "ok": result.ok,
                    **({"detail": result.detail} if result.detail else {}),
                },
            ),
            args.json,
        )
        if not result.ok:
            failures.append(result)
    elapsed = (time.perf_counter() - start) * 1000
    _emit(
        ReportRecord(
            "verify",
            params={"exhaustive": args.exhaustive, "formula": args.formula},
            results={
                "checks": checks,
                "failures": len(failures),
                **(
                    {"first_failure": failures[0].name}
                    if failures
                    else {}
                ),
            },
            elapsed_ms=elapsed,
        ),
        args.json,
    )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idempart",
        description=(
            "Exact partition numbers by orbit-counting idempotent self-maps "
            "under symmetric-group conjugation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pn", help="compute the partition number p(n)")
    p.add_argument("n", type=int)
    p.add_argument(
        "--method",
        choices=("formula", "pentagonal", "burnside"),
        default="formula",
        help="computation route (default: formula)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_pn)

    p = sub.add_parser("idempotents", help="count (or list) idempotent self-maps")
    p.add_argument("n", type=int)
    p.add_argument("--list", action="store_true", help="print every map with its type")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("orbits", help="conjugation orbits with stabilizer orders")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("types", help="weight-n type vectors with counts and orders")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_types)

    p = sub.add_parser("verify", help="run the full identity cross-check harness")
    p.add_argument("--exhaustive", type=int, default=DEFAULT_VERIFY_EXHAUSTIVE)
    p.add_argument("--formula", type=int, default=DEFAULT_VERIFY_FORMULA)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RemainderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArgumentRangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    # a reader that quits early (`idempart types 30 | head`) ends the
    # process quietly, as for any filter, not with a BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
