"""The batched kernels on the heap: fresh results, the same bytes on any worker count, no churn."""

import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import coniccond
import coniccond.cones
from coniccond import ExperimentConfig, run_experiment
from coniccond.cones import (_enumerate_orthant_extremum, _inverse_norm_bound, _realizable_supports,
                             _sign_rejections, _spd_inverse)
from conftest import random_matrix, stream

SRC = Path(coniccond.__file__).resolve().parents[1]
# Minor page faults of each probe below, in a fresh interpreter, after its
# warm-up.  The block that cones.py allocates and frees at import keeps glibc
# from trimming the heap after each kernel call.  With it the probes read
# 110-112 (30 ensemble chunks, 1 worker), 428-483 (2 workers) and 0 (three
# n = 16 analyses); with that line removed 22 662-24 959, 8 466-36 730 and
# 11 616-14 269.  The bound is 100 per ensemble chunk.
HEAP_FAULT_BOUND = 3000
HEAP_PROBE = """
import resource
from coniccond import ExperimentConfig, run_experiment
configs = [ExperimentConfig(n=12, m=(3, 6, 9)[c % 3], trials=4, seed=500 + c) for c in range(33)]
for cfg in configs[:3]:
    run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for cfg in configs[3:]:
    run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
# Three n = 16 analyses, each with the dual-route minimum where the instance is
# dual strict, after three more at the same m: batches of up to 12 870 supports.
LARGE_N_PROBE = """
import resource
from coniccond import Feasibility, Orthant, analyze, gaussian_matrix, trial_stream

def analyses(seed):
    for m in (4, 8, 12):
        analysis = analyze(Orthant(16), None, a=gaussian_matrix(trial_stream(seed, m), m, 16))
        if analysis.status.tag is Feasibility.DUAL_STRICT:
            analysis.dual_minimum

analyses(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
analyses(6)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _gram_stack(seed, rows, n, size):
    """The size x size principal submatrices of A^T A, A a rows x n Gaussian matrix."""
    a = random_matrix(stream(seed), rows, n)
    supports = np.array(list(itertools.combinations(range(n), size)))
    return (a.T @ a)[supports[:, :, None], supports[:, None, :]]


def _orthonormal_rows(seed, r, n):
    u, _, vh = np.linalg.svd(random_matrix(stream(seed), r, n), full_matrices=False)
    return u @ vh


def _kernel_results(seed, n, size, r):
    """Every array the kernels return for one shape, each a separate entry."""
    subs = _gram_stack(seed, n - 2, n, size)
    inverse, det = _spd_inverse(subs)
    bound, _ = _inverse_norm_bound(subs, inverse, np.einsum("bii->b", subs))
    rejected, lower = _sign_rejections(subs, False)
    rejected_max, lower_max = _sign_rejections(subs / (2.0 * np.abs(subs).max()), True)
    basis = _orthonormal_rows(seed, r, n)
    table = _realizable_supports(basis)
    value, point = _enumerate_orthant_extremum(basis.T @ basis, True, table, n - r)
    a = random_matrix(stream(seed, 1), n - 3, n)
    low, low_point = _enumerate_orthant_extremum(a.T @ a, False, None, n - 3)
    return [inverse, det, bound, rejected, lower, rejected_max, lower_max, table, point, low_point,
            np.array([value, low])]


def _minor_faults(probe, **settings):
    """The count ``probe`` prints, run in a fresh interpreter with ``settings`` in its environment.

    The allocator is at its defaults: no MALLOC_* or GLIBC_TUNABLES setting of
    the caller's reaches it, nor its CONIC_COND_THREADS.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key not in ("GLIBC_TUNABLES", "CONIC_COND_THREADS")}
    env.update(settings, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    return int(run.stdout.split()[-1])


class TestFreshResults:
    @pytest.mark.parametrize("first_shape, later_shape", [((12, 8, 5), (9, 4, 3)), ((9, 4, 3), (12, 8, 5))])
    def test_no_result_shares_memory_with_a_later_call(self, first_shape, later_shape):
        # Batches of 70 and 495 supports: both past the sign certificate's
        # minimum batch, larger then smaller and smaller then larger.
        first = _kernel_results(7, *first_shape)
        kept = [result.copy() for result in first]
        later = _kernel_results(8, *later_shape)
        for result, copy in zip(first, kept):
            assert not any(np.shares_memory(result, other) for other in later)
            assert np.array_equal(result, copy, equal_nan=True)


class TestThreadsAtKernelScale:
    @pytest.mark.parametrize("m", [3, 6, 9])
    def test_workers_write_the_same_bytes(self, tmp_path, monkeypatch, m):
        # n = 12 builds realizable tables on two workers or more at once and screens
        # batches of 64 or more supports with the sign certificate.  Three
        # workers, more than the cores, run with a short switch interval.
        certify, build = coniccond.cones._sign_rejections, coniccond.cones._realizable_supports
        screened, tables = {}, {}

        def counted_certify(subs, maximize):
            screened.setdefault(threading.get_ident(), []).append(len(subs))
            return certify(subs, maximize)

        def counted_build(basis):
            tables[threading.get_ident()] = tables.get(threading.get_ident(), 0) + 1
            return build(basis)

        monkeypatch.setattr(coniccond.cones, "_sign_rejections", counted_certify)
        monkeypatch.setattr(coniccond.cones, "_realizable_supports", counted_build)
        outputs = []
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 2, 3):
                screened.clear()
                tables.clear()
                monkeypatch.setenv("CONIC_COND_THREADS", str(workers))
                sys.setswitchinterval(1e-5 if workers == 3 else interval)
                out = tmp_path / f"{workers}.jsonl"
                run_experiment(ExperimentConfig(n=12, m=m, trials=8, seed=40 + m,
                                                output_path=str(out)))
                outputs.append(out.read_bytes())
                assert len(tables) >= min(workers, 2)
                assert max(itertools.chain(*screened.values())) >= 64
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1] == outputs[2]


class TestHeapChurn:
    def test_ensemble_chunks_leave_the_heap_in_place(self):
        faults = _minor_faults(HEAP_PROBE)
        assert 0 <= faults < HEAP_FAULT_BOUND

    def test_ensemble_chunks_on_two_workers_leave_the_heap_in_place(self):
        faults = _minor_faults(HEAP_PROBE, CONIC_COND_THREADS="2")
        assert 0 <= faults < HEAP_FAULT_BOUND

    def test_large_n_analyses_leave_the_heap_in_place(self):
        faults = _minor_faults(LARGE_N_PROBE)
        assert 0 <= faults < HEAP_FAULT_BOUND
