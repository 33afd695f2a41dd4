"""Child process for one benchmark job: one call of idempart.cli.main(argv).

Usage: job.py METRICS_PATH [--trace] -- CLI_ARGS...
       job.py METRICS_PATH --setup-only

The parent redirects stdout to a file.  This process records when the
CLI module finished importing (CLOCK_MONOTONIC, comparable with the
parent's spawn time), times main(argv) in wall and CPU time, including
the final flush of stdout, and writes those numbers with its peak RSS
to METRICS_PATH as JSON.  With --trace it also installs the span tracer
and adds the per-function aggregates.  With --setup-only it stops after
the import.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import idempart.cli  # noqa: E402

imported_at = time.monotonic()

import json  # noqa: E402
import traceback  # noqa: E402

EXIT_HARNESS = 3  # main raised, or an idempart outside this tree was imported


def peak_rss_mib() -> float:
    """High-water RSS of this process image.

    Not getrusage's ru_maxrss: Linux carries that across exec from the
    forking parent, so it would report the harness's own footprint.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    metrics_path = sys.argv[1]
    rest = sys.argv[2:]
    expected = os.path.realpath(os.path.join(ROOT, "src", "idempart"))
    if os.path.dirname(os.path.realpath(idempart.cli.__file__)) != expected:
        print(f"imported {idempart.cli.__file__}, not {expected}", file=sys.stderr)
        return EXIT_HARNESS
    record = {"imported_at": imported_at}
    if rest == ["--setup-only"]:
        with open(metrics_path, "w") as fh:
            json.dump(record, fh)
        return 0
    tracer = None
    if rest[:1] == ["--trace"]:
        sys.path.insert(0, HERE)
        import spans

        tracer = spans.install()
    argv = rest[rest.index("--") + 1 :]
    cli_main = idempart.cli.main
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        code = cli_main(argv)
    except Exception:
        traceback.print_exc()
        return EXIT_HARNESS
    finally:
        sys.stdout.flush()
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0
    record.update(
        exit=code,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mib=peak_rss_mib(),
    )
    if tracer is not None:
        record["layers"] = tracer.summary()
    with open(metrics_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
