"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs `pn 10`, `types 8` and `verify --exhaustive 3 --formula 5` through
the same loop, oracles and metric code as the real workloads, and checks:
- every metric BENCHMARK.json names is emitted with its unit, untraced
  and traced, with no failed job;
- a deliberately wrong oracle value fails every job (error rate 1);
- a job that exits nonzero is counted as failed, its exit code is
  recorded, and the loop goes on to the next job.
Exits 0 when every check holds, 1 otherwise.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

TINY = (
    run.Workload("pn-formula", ("pn", "10", "--method", "formula", "--json"), run.check_pn(10)),
    run.Workload("types-stream", ("types", "8", "--json"), run.check_types(8)),
    run.Workload(
        "verify-exhaustive",
        ("verify", "--exhaustive", "3", "--formula", "5", "--json"),
        run.check_verify,
    ),
)
SEED = 7


def wrong_oracle(n: int) -> int:
    return run.sympy_partition(n) + 1


def main() -> int:
    spec = run.spec()
    problems = []

    def expect(cond: bool, message: str) -> None:
        print(("ok   " if cond else "FAIL ") + message)
        if not cond:
            problems.append(message)

    for workload in TINY:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(workload, 0, SEED, trace)["result"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            label = f"{workload.name} trace={int(trace)}"
            expect(got == want, f"{label}: every {kind} metric with its unit")
            expect(
                result["attempted"] >= run.MIN_JOBS and result["failed"] == 0,
                f"{label}: {result['attempted']} jobs, error rate 0",
            )

    for workload in TINY[:2]:
        result = run.run_workload(workload, 0, SEED, False, oracle=wrong_oracle)["result"]
        expect(
            result["failed"] == result["attempted"] and not result["correct"],
            f"{workload.name}: wrong oracle gives error rate 1",
        )

    bad = run.Workload("bad-args", ("pn", "0", "--json"), run.check_pn(0))
    jobs = run.measure(bad, 0, SEED, False)["jobs"]
    expect(
        len(jobs) >= run.MIN_JOBS and all(j["exit"] == 2 and not j["ok"] for j in jobs),
        f"pn 0: {len(jobs)} jobs, each failed with exit 2",
    )

    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
