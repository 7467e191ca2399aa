"""The batched kernels' workspaces: one per running thread, reused across calls, never in a result."""

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
from coniccond.cones import (_SCRATCH, _enumerate_orthant_extremum, _inverse_norm_bound,
                             _realizable_supports, _sign_rejections, _spd_inverse)
from conftest import random_matrix, stream

SRC = Path(coniccond.__file__).resolve().parents[1]
# Minor page faults over 30 n = 12 chunks after 3 warm-up chunks, in a fresh
# interpreter.  Measured with the probe below at its seeds and four other seed
# sets: 24 to 363 with the workspaces, 23 063 to 31 075 when every call
# allocated its temporaries afresh (glibc grew and trimmed the heap on each
# call).  The bound is 100 per chunk.
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


def _gram_stack(seed, rows, n, size):
    """The size x size principal submatrices of A^T A, A a rows x n Gaussian matrix."""
    a = random_matrix(stream(seed), rows, n)
    supports = np.array(list(itertools.combinations(range(n), size)))
    return (a.T @ a)[supports[:, :, None], supports[:, None, :]]


def _orthonormal_rows(seed, r, n):
    u, _, vh = np.linalg.svd(random_matrix(stream(seed), r, n), full_matrices=False)
    return u @ vh


def _pooled_buffers():
    return [buffer for workspace in _SCRATCH.pool for buffer in workspace.buffers.values()]


def _kernel_results(seed, n, size, r):
    """Every array the kernels return for one shape, each a separate entry."""
    subs = _gram_stack(seed, n - 2, n, size)
    inverse, det = _spd_inverse(subs, np.empty_like(subs))
    bound = _inverse_norm_bound(subs, inverse, np.einsum("bii->b", subs))
    rejected, lower = _sign_rejections(subs, False)
    rejected_max, lower_max = _sign_rejections(subs / (2.0 * np.abs(subs).max()), True)
    basis = _orthonormal_rows(seed, r, n)
    table = _realizable_supports(basis)
    value, point = _enumerate_orthant_extremum(basis.T @ basis, True, table, n - r)
    a = random_matrix(stream(seed, 1), n - 3, n)
    low, low_point = _enumerate_orthant_extremum(a.T @ a, False, None, n - 3)
    return [inverse, det, bound, rejected, lower, rejected_max, lower_max, table, point, low_point,
            np.array([value, low])]


class TestFreshResults:
    @pytest.mark.parametrize("first_shape, later_shape", [((12, 8, 5), (9, 4, 3)), ((9, 4, 3), (12, 8, 5))])
    def test_no_result_shares_memory_with_a_later_call(self, first_shape, later_shape):
        # Batches of 70 and 495 supports: both past the sign certificate's
        # minimum batch.  The smaller call reuses the buffers the larger one
        # grew, and the larger call grows the smaller one's.
        first = _kernel_results(7, *first_shape)
        for result in first:
            assert not any(np.shares_memory(result, buffer) for buffer in _pooled_buffers())
        kept = [result.copy() for result in first]
        later = _kernel_results(8, *later_shape)
        for result, copy in zip(first, kept):
            assert not any(np.shares_memory(result, other) for other in later)
            assert np.array_equal(result, copy, equal_nan=True)

    def test_threads_running_at_once_hold_distinct_workspaces(self):
        held, release, theirs = threading.Event(), threading.Event(), []

        def worker():
            with _SCRATCH as workspace:
                _kernel_results(8, 12, 8, 5)
                theirs.append(workspace)
                held.set()
                release.wait(timeout=60)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert held.wait(timeout=60)
            with _SCRATCH as mine:
                _kernel_results(7, 9, 4, 3)
                assert mine is not theirs[0]
                for buffer in mine.buffers.values():
                    assert not any(np.shares_memory(buffer, other)
                                   for other in theirs[0].buffers.values())
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        # The pool thread's workspace outlives it, for the next thread to take.
        assert any(workspace is theirs[0] for workspace in _SCRATCH.pool)


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
        # A fresh interpreter with the allocator at its defaults: no MALLOC_*
        # or GLIBC_TUNABLES setting of the caller's reaches it.
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(SRC)
        env.pop("CONIC_COND_THREADS", None)
        probe = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env, capture_output=True,
                               text=True, check=True)
        faults = int(probe.stdout.split()[-1])
        assert 0 <= faults < HEAP_FAULT_BOUND
