"""Benchmark harness for the idempart CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

A run is a closed loop with one client: it starts one job, waits for it,
checks its output against an oracle, and starts the next, until the next
job would end after --seconds.  A job is one call of idempart.cli.main
in a fresh child process (job.py) with stdout going to a file.  Every
job's metrics come from that child; the run reports low-quartile times
and the median memory (see end_to_end).  The seed draws each
job's PYTHONHASHSEED, so one seed always replays the same processes;
the CLI arguments are fixed per workload (see README.md).

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
from traced jobs that alternate with untraced ones (their ratio is
trace.overhead).  The full record of a run, with every job, every layer
aggregate and the environment stamp, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
JOB = os.path.join(HERE, "job.py")

MIN_JOBS = 3
# jobs stop here whatever MIN_JOBS says, so a run ends well within 180 s
DEADLINE_S = 150
SETUP_PROBES = 8

Oracle = Callable[[int], int]


class Invalid(Exception):
    """A job's output disagrees with the oracle."""


def sympy_partition(n: int) -> int:
    from sympy.functions.combinatorial.numbers import partition

    return int(partition(n))


def _records(path: str) -> list[bytes]:
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines[-1] != b"":
        raise Invalid("output does not end with a newline")
    return lines[:-1]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Invalid(message)


def check_pn(n: int):
    def check(path: str, oracle: Oracle, seen: set) -> dict:
        lines = _records(path)
        _expect(len(lines) == 1, f"expected one record, got {len(lines)}")
        rec = json.loads(lines[0])
        _expect(rec.get("command") == "pn" and rec.get("n") == str(n), f"bad record {rec}")
        _expect(rec.get("method") == "formula", f"method {rec.get('method')}")
        want = oracle(n)
        _expect(int(rec["p"]) == want, f"p({n}) = {rec['p']}, oracle says {want}")
        return {}

    return check


def check_types(n: int):
    def check(path: str, oracle: Oracle, seen: set) -> dict:
        lines = _records(path)
        _expect(len(lines) >= 1, "no output")
        rows, summary = lines[:-1], json.loads(lines[-1])
        pn = oracle(n)
        _expect(summary.get("command") == "types", f"bad summary {summary}")
        _expect(summary.get("n") == str(n), f"summary n {summary.get('n')}")
        _expect(int(summary["types"]) == pn, f"types {summary['types']} != p({n}) {pn}")
        _expect(int(summary["quotient"]) == pn, f"quotient {summary['quotient']} != {pn}")
        _expect(
            int(summary["sum"]) == math.factorial(n) * pn, f"sum {summary['sum']} != n!*p(n)"
        )
        # Rows carry no timing, so output identical to an already checked
        # job's passes without parsing 50k records again.
        digest = hashlib.sha256(b"\n".join(rows)).digest()
        if digest in seen:
            return {}
        _expect(len(rows) == pn, f"{len(rows)} rows != p({n}) = {pn}")
        types = set()
        for line in rows:
            rec = json.loads(line)
            _expect(rec["command"] == "type" and rec["n"] == str(n), f"bad row {rec}")
            _expect(
                int(rec["summand"]) == int(rec["idempotents"]) * int(rec["stabilizer_order"]),
                f"summand != idempotents * stabilizer_order in {rec}",
            )
            types.add(rec["type"])
        _expect(len(types) == pn, f"{len(types)} distinct types != p({n})")
        seen.add(digest)
        return {}

    return check


def check_verify(path: str, oracle: Oracle, seen: set) -> dict:
    recs = [json.loads(line) for line in _records(path)]
    _expect(len(recs) >= 1, "no output")
    summary, checks = recs[-1], recs[:-1]
    _expect(summary.get("command") == "verify", f"bad summary {summary}")
    _expect(summary.get("failures") == "0", f"{summary.get('failures')} failures")
    _expect(int(summary.get("checks", 0)) > 0, "no checks ran")
    _expect(len(checks) == int(summary["checks"]), "check records != checks")
    _expect(all(c["ok"] is True for c in checks), "a check record is not ok")
    families = sorted({c["name"].split(" ")[0] for c in checks})
    return {"check_families": families}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str, Oracle, set], dict]


# types-stream is not in BENCHMARK.json: with three workloads the runs
# had to be shorter and spread too far on this host (README.md).  It stays
# here as the by-hand bypass workload for a closed-form sum.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pn-formula", ("pn", "48", "--method", "formula", "--json"), check_pn(48)),
        Workload("types-stream", ("types", "42", "--json"), check_types(42)),
        Workload(
            "verify-exhaustive",
            ("verify", "--exhaustive", "6", "--formula", "12", "--json"),
            check_verify,
        ),
    )
}


def _child_env(hashseed: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    # an inherited override would change which checks verify may run
    env.pop("IDEMPART_BRUTE_CAP", None)
    return env


def _spawn(args: list[str], stdout_path: str, hashseed: int, timeout: float) -> dict:
    """Run job.py with args; return exit code, stderr and its metrics."""
    metrics_path = os.path.join(OUT, "job-metrics.json")
    stderr_path = os.path.join(OUT, "job-stderr.txt")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, JOB, metrics_path, *args],
            stdout=out,
            stderr=err,
            env=_child_env(hashseed),
            cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    with open(stderr_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    result = {"exit": code, "stderr": stderr[-2000:]}
    if code == 0 and os.path.exists(metrics_path):
        with open(metrics_path) as fh:
            metrics = json.load(fh)
        metrics["setup_s"] = metrics.pop("imported_at") - spawned_at
        result["metrics"] = metrics
    return result


def run_job(
    workload: Workload,
    job_id: int,
    traced: bool,
    hashseed: int,
    timeout: float,
    oracle: Oracle,
    seen: set,
) -> dict:
    """One job: spawn, wait, validate.  Never raises for a failed job."""
    stdout_path = os.path.join(OUT, f"{workload.name}.stdout")
    args = (["--trace"] if traced else []) + ["--", *workload.argv]
    res = _spawn(args, stdout_path, hashseed, timeout)
    job = {"job": job_id, "traced": traced, "hashseed": hashseed, "exit": res["exit"]}
    job.update(res.get("metrics", {}))
    if res["exit"] is None:
        job["error"] = f"timeout after {timeout:.0f} s"
    elif res["exit"] != 0:
        job["error"] = f"exit {res['exit']}: {res['stderr'].strip()[-300:]}"
    elif "Traceback" in res["stderr"]:
        job["error"] = "traceback on stderr"
    elif "wall_s" not in job:
        job["error"] = "no metrics from the job"
    else:
        with open(stdout_path, "rb") as fh:
            data = fh.read()
        job["records"] = data.count(b"\n")
        job["bytes"] = len(data)
        try:
            job.update(workload.check(stdout_path, oracle, seen))
        except (Invalid, ValueError, KeyError, TypeError) as exc:
            job["error"] = f"invalid output: {exc}"
    job["ok"] = "error" not in job
    return job


def measure(
    workload: Workload, seconds: float, seed: int, trace: bool, oracle: Oracle = sympy_partition
) -> dict:
    """Run the closed loop for one workload and collect every job."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    rng = random.Random(seed)
    probe_path = os.path.join(OUT, "probe.stdout")
    # the first spawn also compiles bytecode; it is not a set-up sample
    _spawn(["--setup-only"], probe_path, rng.randrange(2**32), DEADLINE_S)
    setup = []
    for _ in range(SETUP_PROBES):
        res = _spawn(["--setup-only"], probe_path, rng.randrange(2**32), DEADLINE_S)
        if "metrics" in res:
            setup.append(res["metrics"]["setup_s"])
    jobs: list[dict] = []
    seen: set = set()
    start = time.monotonic()
    while True:
        began = time.monotonic()
        traced = trace and len(jobs) % 2 == 1
        timeout = max(1.0, deadline - began)
        job = run_job(workload, len(jobs), traced, rng.randrange(2**32), timeout, oracle, seen)
        job["reference_s"] = reference.timed()
        job["loop_s"] = time.monotonic() - began
        jobs.append(job)
        typical = statistics.median(j["loop_s"] for j in jobs)
        now = time.monotonic()
        if now >= deadline or (len(jobs) >= MIN_JOBS and now - start + typical > seconds):
            break
    return {"setup_samples": setup, "jobs": jobs}


def _median(jobs: list[dict], key: str) -> float:
    return statistics.median(j[key] for j in jobs)


def _low(values: list[float]) -> float:
    """Lower quartile; the minimum when there are too few values for one."""
    return statistics.quantiles(values, n=4)[0] if len(values) >= 3 else min(values)


def _low_of(jobs: list[dict], key: str) -> float:
    return _low([j[key] for j in jobs])


def host_scale(run: dict) -> float:
    """Factor that brings the run's times to the host's usual speed."""
    return reference.NOMINAL_S / _low_of(run["jobs"], "reference_s")


def end_to_end(run: dict) -> dict[str, float]:
    """The run's figures: low-quartile times, median memory, share passed.

    Times are the lower quartile of the run's samples, scaled by
    host_scale: the host slows jobs down in bursts of seconds and in
    stretches of minutes, never speeds them up, so these move least
    between runs of the same code (README.md, "Lower quartile, at the
    host's usual speed").
    """
    timed = [j for j in run["jobs"] if "wall_s" in j and not j["traced"]]
    if not timed or not run["setup_samples"]:
        raise RuntimeError("no job completed, so there is nothing to report")
    jobs = run["jobs"]
    scale = host_scale(run)
    setup = run["setup_samples"] + [j["setup_s"] for j in timed]
    return {
        "wall_s": _low_of(timed, "wall_s") * scale,
        "cpu_s": _low_of(timed, "cpu_s") * scale,
        "setup_s": _low(setup) * scale,
        "peak_rss_mib": _median(timed, "peak_rss_mib"),
        "success_pct": 100.0 * sum(j["ok"] for j in jobs) / len(jobs),
    }


def per_layer(run: dict, names: list[str]) -> dict[str, float]:
    traced = [j for j in run["jobs"] if "layers" in j]
    plain = [j for j in run["jobs"] if "wall_s" in j and not j["traced"]]
    if not traced or not plain:
        raise RuntimeError("need a traced and an untraced job that completed")
    for j in traced:
        j["layers"]["cli.records"] = j.get("records", 0)
        j["layers"]["cli.bytes"] = j.get("bytes", 0)
    out = {
        name: statistics.median(j["layers"].get(name, 0) for j in traced)
        for name in names
        if name != "trace.overhead"
    }
    out["trace.overhead"] = _low_of(traced, "wall_s") / _low_of(plain, "wall_s")
    return out


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(
    workload: Workload, seconds: float, seed: int, trace: bool, oracle: Oracle = sympy_partition
) -> dict:
    """Measure one workload and return the result line plus the full record."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    run = measure(workload, seconds, seed, trace, oracle)
    values = per_layer(run, list(units)) if trace else end_to_end(run)
    jobs = run["jobs"]
    result = {
        "correct": all(j["ok"] for j in jobs),
        "attempted": len(jobs),
        "failed": sum(not j["ok"] for j in jobs),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload.name,
        "argv": list(workload.argv),
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "result": result,
        **run,
    }
    path = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def describe(record: dict) -> str:
    result = record["result"]
    jobs = record["jobs"]
    timed = sum("wall_s" in j and not j["traced"] for j in jobs)
    lines = [
        f"# {record['workload']}: {' '.join(record['argv'])}",
        "# environment " + json.dumps(record["environment"], sort_keys=True),
        f"# jobs attempted={result['attempted']} failed={result['failed']} "
        f"error_rate={result['failed'] / result['attempted']:.3f} untraced_timed={timed} "
        f"setup_samples={len(record['setup_samples'])}",
    ]
    plain = [j for j in jobs if "wall_s" in j and not j["traced"]]
    if plain:
        lines.append(
            f"# unscaled, {len(plain)} untraced jobs: lower quartile wall_s={_low_of(plain, 'wall_s'):.6g} s "
            f"cpu_s={_low_of(plain, 'cpu_s'):.6g} s; median wall_s={_median(plain, 'wall_s'):.6g} s "
            f"cpu_s={_median(plain, 'cpu_s'):.6g} s; host_scale={host_scale(record):.4f}"
        )
    for j in jobs:
        if not j["ok"]:
            lines.append(f"# job {j['job']} FAILED (exit {j['exit']}): {j['error']}")
    for name, m in result["metrics"].items():
        lines.append(f"{record['workload']:18s} {name:50s} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "idempart", "cli.py")):
        print(f"error: no idempart sources under {ROOT}/src", file=sys.stderr)
        return 2
    seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            record = run_workload(WORKLOADS[name], seconds, args.seed, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(describe(record), flush=True)
        results[name] = record["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
