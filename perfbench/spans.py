"""In-memory span tracer for the public functions of every idempart module.

`install()` replaces each public function of the traced modules with a
wrapper, in every idempart module namespace that binds it (cli and
verify import by name, so patching the defining module alone would miss
their calls).  Plain functions get one span per call; generators get one
span per `next()`, so a consumer's time between items is not charged to
the generator.  Hot leaves are count-only: timing a call that costs well
under a microsecond would multiply the run time and bury the layers the
spans are meant to show.

Spans live in flat arrays (name id, parent index, start, end) until
`summary()` derives per-function calls, items, total and self time.
Self time is a span's duration minus the durations of its direct
children; no traced function calls itself, so totals never double-count.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import defaultdict

MODULES = (
    "combinatorics",
    "formula",
    "stabilizer",
    "symmetric",
    "transformations",
    "representations",
    "verify",
    "cli",
)

# Leaves called millions of times per job whose bodies are a single
# math.comb / math.factorial call.
COUNT_ONLY = {"combinatorics.binomial", "combinatorics.factorial"}

ROOT = -1


class Tracer:
    """Span store plus the per-function counters the wrappers update."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.items: list[int] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [ROOT]
        self.check_s: dict[str, float] = defaultdict(float)
        self.checks = 0
        self.check_failures = 0
        self.result_bits = 0

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.items.append(0)
        return len(self.names) - 1

    def _span_ops(self):
        """The span arrays, stack and clock a wrapper needs, bound once."""
        return (
            self.span_name.append,
            self.span_parent.append,
            self.span_start.append,
            self.span_end,
            self.stack,
            time.perf_counter,
        )

    def wrap_function(self, name: str, fn):
        fid = self._register(name)
        calls = self.calls
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                calls[fid] += 1
                return fn(*args, **kwargs)

            return counted

        add_name, add_parent, add_start, ends, stack, clock = self._span_ops()
        on_call = self._exact_div_hook if name == "combinatorics.exact_div" else None

        def timed(*args, **kwargs):
            calls[fid] += 1
            if on_call is not None:
                on_call(*args)
            idx = len(ends)
            add_name(fid)
            add_parent(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return timed

    def wrap_generator(self, name: str, fn):
        fid = self._register(name)
        calls, items = self.calls, self.items
        add_name, add_parent, add_start, ends, stack, clock = self._span_ops()
        starts = self.span_start
        on_item = self._check_hook if name == "verify.run_verification" else None

        def timed(*args, **kwargs):
            calls[fid] += 1
            inner = fn(*args, **kwargs)
            while True:
                idx = len(ends)
                add_name(fid)
                add_parent(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                add_start(clock())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    ends[idx] = clock()
                    stack.pop()
                items[fid] += 1
                if on_item is not None:
                    on_item(item, ends[idx] - starts[idx])
                yield item

        return timed

    def _exact_div_hook(self, a, *_):
        self.result_bits = max(self.result_bits, abs(a).bit_length())

    def _check_hook(self, result, seconds: float) -> None:
        # the time between two yields of run_verification is the check's
        self.check_s[result.name.split(" ")[0]] += seconds
        self.checks += 1
        self.check_failures += not result.ok

    def summary(self) -> dict[str, float]:
        """Per-function aggregates, keyed `<module>.<function>.<stat>`."""
        n = len(self.names)
        total = [0.0] * n
        child = [0.0] * len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            total[names[i]] += d
            p = parents[i]
            if p != ROOT:
                child[p] += d
        self_s = [0.0] * n
        for i in range(len(starts)):
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        out: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.items"] = self.items[fid]
            if name not in COUNT_ONLY:
                out[f"{name}.total_s"] = total[fid]
                out[f"{name}.self_s"] = self_s[fid]
        for family, seconds in self.check_s.items():
            out[f"verify.check.{family}.total_s"] = seconds
        out["verify.checks"] = self.checks
        out["verify.failures"] = self.check_failures
        out["formula.result_bits"] = self.result_bits
        out["trace.spans"] = len(starts)
        return out


def install() -> Tracer:
    """Patch every public idempart function with a traced wrapper."""
    tracer = Tracer()
    modules = [importlib.import_module(f"idempart.{m}") for m in MODULES]
    namespaces = modules + [importlib.import_module("idempart")]
    for short, module in zip(MODULES, modules):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn):
                continue
            name = f"{short}.{attr}"
            if inspect.isgeneratorfunction(fn):
                wrapper = tracer.wrap_generator(name, fn)
            else:
                wrapper = tracer.wrap_function(name, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
    return tracer
