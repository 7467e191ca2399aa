"""Spans around the calls into coniccond's layers, recorded from outside.

Inside ``with tracer:`` each traced public function is replaced by a
timing wrapper wherever it is bound: in its defining module, in every coniccond module
that imported it by name (``condition.classify_feasibility``,
``harness.condition_report``, ...) and in the package namespace.
``numpy.linalg.eigh`` and ``numpy.linalg.svd`` are wrapped as the
``kernel`` layer.  Spans stay in memory with their parent; self time is
derived at the end, after leaving the block has restored every original.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict

# (layer metric name, defining module, function names)
LAYER_FUNCTIONS = (
    ("linalg.polar", "coniccond.linalg", ("polar_decompose",)),
    ("linalg.kappa", "coniccond.linalg", ("kappa",)),
    ("grassmann.rowspan", "coniccond.grassmann", ("subspace_from_rowspan",)),
    ("grassmann.complement", "coniccond.grassmann", ("complement",)),
    ("cones.classify", "coniccond.cones", ("classify_feasibility",)),
    ("cones.angle", "coniccond.cones", ("cone_subspace_angle",)),
    ("cones.extremum", "coniccond.cones", ("extremize_quadratic_over_cone",)),
    ("condition.grassmann", "coniccond.condition", ("grassmann_condition",)),
    ("condition.renegar", "coniccond.condition", ("renegar_condition",)),
    (
        "condition.witness",
        "coniccond.condition",
        ("witness_flip_dual_to_primal", "witness_image", "witness_kernel"),
    ),
    ("gcc.cap", "coniccond.gcc", ("smallest_enclosing_cap",)),
    ("harness.report", "coniccond.harness", ("condition_report",)),
    ("harness.experiment", "coniccond.harness", ("run_experiment",)),
)
KERNEL_FUNCTIONS = (("kernel.eigh", "eigh"), ("kernel.svd", "svd"))

# Counts kept next to the spans; "computed" ones derive from input shapes.
COUNT_NAMES = (
    "cones.extremum.exact.calls",
    "cones.extremum.multistart.calls",
    "cones.enum.supports",            # computed: 2^dim - 1 per exact call
    "cones.multistart.starts",
    "cones.multistart.converged",
    "cones.multistart.failures",
    "kernel.eigh.matrices",
    "gcc.cap.subsets",                # computed: sum_{k=2}^{min(m,n)} C(n,k)
)


class Tracer:
    """Collects spans (id, parent, name, start, end) and named counts."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper; ``after(args, kwargs, result, error)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's outermost span was caused by the span the
            # main thread has open, e.g. run_experiment's thread pool.
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
                if after is not None:
                    after(args, kwargs, result, error)

        return traced

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        self._install()
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _install(self) -> None:
        import numpy

        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "coniccond" or key.startswith("coniccond."))]
        hooks = _count_hooks(self)
        for name, module_name, functions in LAYER_FUNCTIONS:
            module = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self.wrap(name, original, hooks.get(name))
                self._replace_everywhere(modules, original, wrapper)
        for name, fn_name in KERNEL_FUNCTIONS:
            original = getattr(numpy.linalg, fn_name)
            wrapper = self.wrap(name, original, hooks.get(name))
            setattr(numpy.linalg, fn_name, wrapper)
            self._patched.append((numpy.linalg, fn_name, original))

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self seconds).

        A span's self time is its duration minus the part of its
        interval that its child spans cover; children from worker
        threads may overlap, so their union is subtracted.
        """
        children = defaultdict(list)
        for span_id, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span_id, _, name, start, end in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end}) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _count_hooks(tracer: Tracer) -> dict:
    """Count hooks run after each call of the named layer function."""
    from coniccond.cones import extremize_quadratic_over_cone
    from coniccond.errors import NumericalFailure

    extremum_signature = inspect.signature(extremize_quadratic_over_cone)

    def extremum(args, kwargs, result, error):
        bound = extremum_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if result is not None:
            tracer.count(f"cones.extremum.{result.method}.calls")
            if result.method == "exact":
                tracer.count("cones.enum.supports", 2 ** bound.arguments["cone"].dim - 1)
            else:
                tracer.count("cones.multistart.starts", bound.arguments["multistart_count"])
                tracer.count("cones.multistart.converged", len(result.converged_values))
        elif isinstance(error, NumericalFailure):
            # Only the multistart path raises this: every start ran, none converged.
            tracer.count("cones.extremum.multistart.calls")
            tracer.count("cones.multistart.starts", bound.arguments["multistart_count"])
            tracer.count("cones.multistart.failures")

    def eigh(args, kwargs, result, error):
        shape = getattr(args[0], "shape", ())
        tracer.count("kernel.eigh.matrices", math.prod(shape[:-2]) if len(shape) > 2 else 1)

    def cap(args, kwargs, result, error):
        shape = getattr(args[0], "shape", ())
        if len(shape) == 2:
            count, ambient = shape
            tracer.count("gcc.cap.subsets",
                         sum(math.comb(count, k) for k in range(2, min(ambient, count) + 1)))

    return {"cones.extremum": extremum, "kernel.eigh": eigh, "gcc.cap": cap}
