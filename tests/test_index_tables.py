"""The enumeration's (n, size) index tables, and one realizable table per analysis."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coniccond
import coniccond.cones
from coniccond import Feasibility, Orthant, analyze
from coniccond.cones import EXACT_ENUM_LIMIT, _ray_patterns, _support_table
from conftest import random_matrix, stream

SRC = Path(coniccond.__file__).resolve().parents[1]


class TestSupportTable:
    @pytest.mark.parametrize("n", range(1, EXACT_ENUM_LIMIT + 1))
    def test_tables_are_read_only_and_small(self, n):
        for size in range(n + 1):
            combos, masks, gather, supersets = _support_table(n, size)
            assert (combos.dtype, masks.dtype, gather.dtype, supersets.dtype) == (
                np.uint8, np.int32, np.uint8, np.int32)
            for table in (combos, masks, gather, supersets):
                assert not table.flags.writeable
        for size in range(n // 2):
            off, on = _ray_patterns(n, size)
            assert (off.dtype, on.dtype) == (bool, np.int32)
            assert not off.flags.writeable and not on.flags.writeable

    @pytest.mark.parametrize("n", range(1, EXACT_ENUM_LIMIT + 1))
    def test_take_gathers_the_principal_submatrices_bit_for_bit(self, n):
        m_mat = random_matrix(stream(n), n, n)
        for size in range(1, n + 1):
            combos, masks, gather, supersets = _support_table(n, size)
            reference = np.array(list(itertools.combinations(range(n), size)))
            assert np.array_equal(combos, reference)
            assert np.array_equal(masks, (1 << reference).sum(axis=1))
            assert np.array_equal(supersets, masks[:, None] | (1 << np.arange(n)))
            fancy = m_mat[reference[:, :, None], reference[:, None, :]]
            taken = np.take(m_mat, gather)
            assert taken.shape == fancy.shape
            assert np.array_equal(taken.view(np.uint64), fancy.view(np.uint64))

    @pytest.mark.parametrize("n", [7, 12, 16])
    def test_ray_patterns_are_the_sign_choices_within_each_subset(self, n):
        for size in range(n // 2):
            subsets = np.array(list(itertools.combinations(range(n), size)), dtype=np.int64)
            off, on = _ray_patterns(n, size)
            expected_off = np.ones((len(subsets), n), dtype=bool)
            expected_off[np.arange(len(subsets))[:, None], subsets] = False
            choices = (np.arange(1 << size)[:, None] >> np.arange(size)) & 1
            assert np.array_equal(off, expected_off)
            assert np.array_equal(on, (np.int64(1) << subsets) @ choices.T)

    def test_import_fills_no_table(self):
        probe = ("import coniccond, coniccond.cones as c; "
                 "print(c._support_table.cache_info().currsize, "
                 "c._ray_patterns.cache_info().currsize)")
        run = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(SRC)},
                             capture_output=True, text=True, check=True)
        assert run.stdout.split() == ["0", "0"]


class TestOneTablePerAnalysis:
    @staticmethod
    def _count_builds(monkeypatch):
        build, calls = coniccond.cones._realizable_supports, []

        def counted(basis):
            table = build(basis)
            calls.append(table is not None)
            return table

        monkeypatch.setattr(coniccond.cones, "_realizable_supports", counted)
        return calls

    def test_analyze_builds_at_most_one_table(self, monkeypatch):
        # The ensemble's shapes, n = 12 and m = 3, 6 and 9.
        calls = self._count_builds(monkeypatch)
        tags = set()
        for m in (3, 6, 9):
            for trial in range(16):
                calls.clear()
                a = random_matrix(stream(70 + m, trial), m, 12)
                tags.add(analyze(Orthant(12), None, a=a).status.tag)
                assert len(calls) <= 1, (m, trial)
        assert tags == {Feasibility.PRIMAL_STRICT, Feasibility.DUAL_STRICT}

    def test_a_refused_table_at_the_tie_is_the_only_build(self, monkeypatch):
        # n = 12, m = 6: W's table is refused (an off-S entry of 7.0e-7 against
        # GENERAL_POSITION_TOL), and W_perp, which shares its arrangement up to Gale
        # duality, builds none of its own.
        calls = self._count_builds(monkeypatch)
        a = random_matrix(stream(4459946117874164492, 2), 6, 12)
        assert analyze(Orthant(12), None, a=a).status.tag is Feasibility.DUAL_STRICT
        assert calls == [False]
