"""coniccond benchmark: one seeded workload, end to end or traced.

Run from the repository root:

    python3 condbench/run.py --workload orthant-report --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs each cycle of operations untraced and then traced,
and reports the per-layer metrics.  Every load is closed loop from a
single client; only the ensemble's 2-worker pass uses two threads.
Timed end-to-end metrics are scaled to a reference machine speed by
gauge.py, and printed unscaled as well.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See condbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Fresh interpreters timed for setup_s, in three groups spread over the
# run (before the timed pass, after it, after the checks); the median of
# all of them is reported.
SETUP_REPEATS = 3
# A traced run covers a fixed number of calls, so its counts repeat
# exactly for a seed: these rates times --seconds, in whole cycles of
# shapes.  They were sized so that the untraced pass, the traced pass
# (and the ensemble's traced 2-worker pass) took about --seconds on a
# 2-core machine with the library as it was when they were set.
TRACE_CALLS_PER_SECOND = {"orthant-report": 11.0, "lorentz-report": 0.36,
                          "orthant-ensemble": 0.4}
# latency_p90_ms needs at least ten samples beyond it.
P90_MIN_SAMPLES = 100
THREADS_ENV = "CONIC_COND_THREADS"
FAILURES_LISTED = 20


@dataclass
class Outcome:
    """One operation: its index, trials carried, latency and result or error."""

    index: int
    trials: int
    seconds: float
    output: object = None
    error: str | None = None
    scale: float = 1.0          # gauge reading just before the operation's cycle


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    from importlib.metadata import version

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, gauge) -> list[tuple[float, float]]:
    """(wall seconds, gauge scale) of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        scale = gauge.scale()
        start = time.perf_counter()
        # No timeout: Popen.wait polls in steps of up to 50 ms when given one.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append((time.perf_counter() - start, scale))
    return samples


def warm_up() -> None:
    """Load lazy imports and numpy code paths on inputs outside the workloads."""
    from coniccond import ExperimentConfig, Orthant, condition_report, run_experiment

    a = [[1.0, -0.5, 0.25, 2.0], [0.5, 1.0, -1.0, 0.0]]
    condition_report(Orthant(4), a, 0, include_witnesses=True)
    for workers in ("1", "2"):
        with _threads(workers):
            run_experiment(ExperimentConfig(n=4, m=2, trials=2, seed=0))


@contextmanager
def _threads(workers: str):
    """Set CONIC_COND_THREADS for the duration of a block."""
    saved = os.environ.get(THREADS_ENV)
    os.environ[THREADS_ENV] = workers
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved


def run_ops(workload, first: int, count: int):
    """Closed loop over operations first, ..., first + count - 1."""
    outcomes = []
    start = time.perf_counter()
    for i in range(first, first + count):
        t0 = time.perf_counter()
        try:
            output, error = workload.run(i), None
        except Exception as exc:  # every raise is a failed operation, recorded
            output, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(i, workload.trials(i), time.perf_counter() - t0, output, error))
    return outcomes, time.perf_counter() - start


def run_passes(workload, passes, budget: float | None = None, count: int | None = None,
               gauge=None):
    """Run whole cycles of shapes, each cycle once under every pass in turn.

    ``passes`` are context-manager factories (plain, two workers,
    traced).  Alternating them cycle by cycle lets a machine that speeds
    up or slows down during the run affect every pass alike.  With a
    budget the run stops at the cycle boundary nearest to it, so every
    shape runs equally often; with a count, after that many operations.
    A gauge, when given, is read before every pass of every cycle and
    its reading stored on the cycle's outcomes.  Returns (outcomes, wall
    seconds) per pass.
    """
    outcomes = [[] for _ in passes]
    walls = [0.0] * len(passes)
    start = time.perf_counter()
    first = 0
    while True:
        if count is not None:
            if first >= count:
                break
        elif first:
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 * workload.cycle / first) >= budget:
                break
        for k, make in enumerate(passes):
            scale = gauge.scale() if gauge is not None else 1.0
            with make():
                part, wall = run_ops(workload, first, workload.cycle)
            for outcome in part:
                outcome.scale = scale
            outcomes[k] += part
            walls[k] += wall
        first += workload.cycle
    return list(zip(outcomes, walls))


def _comparable(output):
    """JSON text of an output, so runs of the same operation compare exactly."""
    if isinstance(output, list):
        output = [record.to_json() for record in output]
    return json.dumps(output, sort_keys=True)


def check_outcomes(workload, outcomes, reruns=()) -> tuple[dict, int]:
    """Check outputs outside the timed span.

    ``reruns`` are passes over the same operations (two workers, or
    traced) whose outputs must equal the first pass.  Returns the
    failed trials per operation index with a message, and the number of
    operations whose outputs failed a check (raises are not counted
    there).
    """
    import checks

    failures: dict[int, tuple[int, str]] = {}
    check_failed = 0
    for k, outcome in enumerate(outcomes):
        error = outcome.error
        for label, rerun in reruns:
            other = rerun[k]
            if error is None and other.error is not None:
                error = f"{label}: {other.error}"
            elif error is None and _comparable(other.output) != _comparable(outcome.output):
                error = f"{label} output differs from the first pass"
                check_failed += 1
        if error is not None:
            failures[outcome.index] = (outcome.trials, error)
            continue
        if workload.is_ensemble:
            cfg = workload.item(outcome.index)
            bad = []
            for record in outcome.output:
                problem = checks.check_trial(record.to_json(), cfg.seed, cfg.m, cfg.n)
                if problem:
                    bad.append(f"trial {record.trial_index}: {problem}")
            if bad:
                failures[outcome.index] = (len(bad), "; ".join(bad))
                check_failed += 1
        else:
            cone, a = workload.item(outcome.index)
            problem = checks.check_report(outcome.output, cone.spec(), a)
            if problem:
                failures[outcome.index] = (1, problem)
                check_failed += 1
    return failures, check_failed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a measured sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _latencies_ms(workload, outcomes, failures, scaled: bool) -> list[float]:
    """Latency samples in ms; one that includes a failure counts as unbounded.

    A report is one sample.  The ensemble's per-trial latency is only
    visible per call, and its calls cycle through shapes of different
    cost, so one sample is the per-trial mean over a whole cycle of calls.
    ``scaled`` multiplies each operation's time by its gauge scale.
    """
    group = workload.cycle if workload.is_ensemble else 1
    samples = []
    for k in range(0, len(outcomes), group):
        part = outcomes[k:k + group]
        if any(o.index in failures for o in part):
            samples.append(math.inf)
        else:
            seconds = sum(o.seconds * (o.scale if scaled else 1.0) for o in part)
            samples.append(1e3 * seconds / sum(o.trials for o in part))
    return samples


def _scaled_seconds(outcomes) -> float:
    return sum(o.seconds * o.scale for o in outcomes)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_failures(failures) -> None:
    for index in sorted(failures)[:FAILURES_LISTED]:
        trials, message = failures[index]
        print(f"failure op {index} ({trials} trial(s)): {message}")
    if len(failures) > FAILURES_LISTED:
        print(f"failure ... {len(failures) - FAILURES_LISTED} more")


def end_to_end(workload, args):
    from gauge import Gauge

    gauge = Gauge()
    setup = measure_setup(args.workload, args.seed, gauge)
    warm_up()
    passes = [nullcontext]
    if workload.is_ensemble:
        passes.append(lambda: _threads("2"))
    (outcomes, wall), *two_workers = run_passes(workload, passes, budget=args.seconds,
                                                gauge=gauge)
    reruns = [("2 workers", two_workers[0][0])] if two_workers else []
    peak_rss = _peak_rss_mb()
    setup += measure_setup(args.workload, args.seed, gauge)
    failures, check_failed = check_outcomes(workload, outcomes, reruns)
    setup += measure_setup(args.workload, args.seed, gauge)

    attempted = sum(o.trials for o in outcomes)
    failed = sum(trials for trials, _ in failures.values())
    latencies = _latencies_ms(workload, outcomes, failures, scaled=True)
    raw_latencies = _latencies_ms(workload, outcomes, failures, scaled=False)
    p50 = percentile(latencies, 0.5)
    if math.isinf(p50):
        _report_failures(failures)
        print(f"error: {failed} of {attempted} operations failed; no median latency",
              file=sys.stderr)
        return None
    # Timed metrics are scaled to the gauge's reference speed (gauge.py);
    # the unscaled values are printed next to them.
    unscaled = {"setup_s": statistics.median(t for t, _ in setup),
                "ops_per_s": attempted / wall,
                "latency_p50_ms": percentile(raw_latencies, 0.5)}
    metrics = {
        "setup_s": _metric(statistics.median(t * scale for t, scale in setup), "s"),
        "ops_per_s": _metric(attempted / _scaled_seconds(outcomes), "ops/s"),
        "latency_p50_ms": _metric(p50, "ms"),
        "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": _metric(peak_rss, "MB"),
    }

    unit = "trial" if workload.is_ensemble else "op"
    print(f"workload {workload.name}: {attempted} {unit}s in {len(outcomes)} calls, "
          f"{wall:.3f} s timed, input pool {len(workload.items)} calls "
          f"(wrapped {len(outcomes) // len(workload.items)} times)")
    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t, _ in setup)}")
    scales = sorted(o.scale for o in outcomes)
    print(f"gauge scale: median {statistics.median(scales):.4f}, "
          f"range {scales[0]:.4f} to {scales[-1]:.4f}")
    for name, entry in metrics.items():
        note = f" (unscaled {unscaled[name]!r})" if name in unscaled else ""
        print(f"metric {name} = {entry['value']!r} {entry['unit']}{note}")
    samples = f"{len(latencies)} samples" + (
        f" of per-trial means over cycles of {workload.cycle} calls" if workload.is_ensemble else "")
    print(f"  latency_p50_ms from {samples}")
    if len(latencies) >= P90_MIN_SAMPLES:
        print(f"metric latency_p90_ms = {percentile(latencies, 0.9)!r} ms "
              f"(unscaled {percentile(raw_latencies, 0.9)!r}; {samples})")
    else:
        print(f"metric latency_p90_ms omitted: {samples}, fewer than {P90_MIN_SAMPLES}")
    print(f"metric failed_ratio = {failed / attempted!r} ratio ({failed} of {attempted} failed)")
    if two_workers:
        two, wall_2w = two_workers[0]
        print(f"metric ops_per_s_2w = {attempted / _scaled_seconds(two)!r} trials/s "
              f"(unscaled {attempted / wall_2w!r}; same {attempted} trials, {THREADS_ENV}=2)")
    _report_failures(failures)
    return check_failed == 0, attempted, failed, metrics


def traced(workload, args, env: dict):
    import tracing

    warm_up()
    rate = TRACE_CALLS_PER_SECOND[workload.name]
    count = workload.cycle * max(1, round(args.seconds * rate / workload.cycle))
    tracer, tracer_2w = tracing.Tracer(), tracing.Tracer()
    passes = [nullcontext, lambda: tracer]
    if workload.is_ensemble:
        passes.append(lambda: _traced_two_workers(tracer_2w))
    (untraced, wall_untraced), (traced_ops, wall_traced), *two_workers = run_passes(
        workload, passes, count=count)
    reruns = [("traced", traced_ops)]
    if two_workers:
        reruns.append(("2 workers traced", two_workers[0][0]))
    failures, check_failed = check_outcomes(workload, untraced, reruns)

    attempted = sum(o.trials for o in untraced)
    failed = sum(trials for trials, _ in failures.values())
    metrics = per_layer_metrics(tracer, tracer_2w, attempted, wall_traced / wall_untraced)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    header = {"workload": workload.name, "env": env, "operations": count,
              "trials": attempted, "wall_untraced_s": wall_untraced,
              "wall_traced_s": wall_traced,
              "metrics": {k: v["value"] for k, v in metrics.items()}}
    tracer.write(path, header)
    print(f"workload {workload.name}: {attempted} trial(s) in {count} calls, "
          f"untraced {wall_untraced:.3f} s, traced {wall_traced:.3f} s")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    for name, entry in metrics.items():
        print(f"layer {name} = {entry['value']!r} {entry['unit']}")
    _report_failures(failures)
    return check_failed == 0, attempted, failed, metrics


@contextmanager
def _traced_two_workers(tracer):
    with tracer, _threads("2"):
        yield


def per_layer_metrics(tracer, tracer_2w, trials: int, overhead: float) -> dict:
    import tracing

    times = tracer.self_times()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = _metric(value, unit)

    for name, _, _ in tracing.LAYER_FUNCTIONS:
        calls, seconds = times.get(name, (0, 0.0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", seconds, "s")
    counts = tracer.counts
    for name in tracing.COUNT_NAMES:
        put(name, int(counts[name]), "count")
    starts = counts["cones.multistart.starts"]
    put("cones.multistart.converged_ratio",
        counts["cones.multistart.converged"] / starts if starts else 0.0, "ratio")
    eigh_calls, eigh_s = times.get("kernel.eigh", (0, 0.0))
    put("kernel.eigh.calls", eigh_calls, "count")
    put("kernel.eigh.s", eigh_s, "s")
    put("kernel.svd.s", times.get("kernel.svd", (0, 0.0))[1], "s")
    put("condition.extremum_per_op", times.get("cones.extremum", (0, 0.0))[0] / trials, "calls/op")
    calls_2w, self_2w = tracer_2w.self_times().get("harness.experiment", (0, 0.0))
    put("harness.experiment.2w.calls", calls_2w, "count")
    put("harness.experiment.2w.self_s", self_2w, "s")
    put("trace.overhead_ratio", overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    # The process never runs more BLAS threads than it has clients.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "coniccond" / "__init__.py").is_file():
        print("error: src/coniccond not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    env = _environment(args.seed)
    env["workload"] = args.workload
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads.build(args.workload, args.seed)
    outcome = traced(workload, args, env) if args.trace else end_to_end(workload, args)
    if outcome is None:
        return 1
    correct, attempted, failed, metrics = outcome
    # The result carries exactly the metrics BENCHMARK.json names for this
    # mode; the lines above also show the ones it leaves out.
    section = spec["per_layer" if args.trace else "end_to_end"]
    listed = {entry["name"]: metrics[entry["name"]] for entry in section}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": listed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
