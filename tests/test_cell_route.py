"""The cell route: a small-rank angle maximum from the r x r matrices of its realizable cells."""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coniccond.cones
from coniccond import Feasibility, Orthant, analyze
from coniccond.cones import (CELL_ROUTE_MAX_RANK, _cell_extremum, _enumerate_orthant_extremum,
                             _realizable_supports, extremize_quadratic_over_cone)
from coniccond.harness import gaussian_matrix, trial_stream
from conftest import STRUCTURED_KINDS, near_face, orthant_like, row_basis, structured_matrix


@st.composite
def small_rank_bases(draw):
    """(cone, basis): an orthant-like cone with 7 <= n <= 16 and r <= 3 orthonormal rows.

    The rows span a Gaussian matrix, a conftest.structured_matrix, or one
    through a boundary point of the cone moved off by eps; or the basis
    has two equal columns, so supports that swap them tie exactly.
    """
    n = draw(st.integers(7, 16))
    r = draw(st.integers(1, CELL_ROUTE_MAX_RANK))
    kind = draw(st.sampled_from(("gaussian", "boundary", "tie") + STRUCTURED_KINDS))
    split = draw(st.integers(0, n))
    cone = orthant_like([(positive, k) for positive, k in ((True, split), (False, n - split)) if k])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((r, n))
    if kind == "boundary":
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]))
        a[0] = near_face(rng, cone.orthant_signs, eps)
    elif kind in STRUCTURED_KINDS:
        a = structured_matrix(rng, r, n, kind)
    basis = row_basis(a)
    if kind == "tie":
        i, j = rng.choice(n, 2, replace=False)
        basis[:, j] = basis[:, i]
    return cone, basis


def _same(one, other):
    return one[0] == other[0] and np.array_equal(one[1], other[1])


class TestCellRoute:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_rank_bases())
    def test_cell_route_is_the_enumeration_bit_for_bit(self, arrangement):
        cone, basis = arrangement
        signs = cone.orthant_signs
        n = cone.dim
        conj = basis.T @ basis * np.outer(signs, signs)
        full = _enumerate_orthant_extremum(conj, True)
        table = _realizable_supports(basis * signs)
        if table is None:
            # Not in general position: the route over every support, where
            # the enumeration with the table is the full one.
            table = np.ones(1 << n, dtype=bool)
            table[0] = False
            by_table = full
        else:
            by_table = _enumerate_orthant_extremum(conj, True, table)
            assert _same(by_table, full)
        cells = _cell_extremum(conj, basis * signs, table)
        if cells is not None:
            assert _same(cells, by_table)
        ext = extremize_quadratic_over_cone(basis.T @ basis, cone, True, _factor=basis)
        assert ext.route in ("cells", "table", "enumeration")
        assert ext.value == full[0]
        assert np.array_equal(ext.point, signs * full[1])


def _isotropic_basis():
    """Two orthonormal rows over five columns: two orthogonal columns of squared
    norm 1/2, and three of squared norm 1/3 at 120 degree spacing, each set a
    tight frame of the plane.  Both sets have B_P B_P^T = I / 2 exactly, so
    each has top eigenvalue 1/2 twice: the supports tie with each other and
    within their own spectra."""
    angles = np.deg2rad([200.0, 320.0, 80.0])
    frame = np.sqrt(1.0 / 3.0) * np.array([np.cos(angles), np.sin(angles)])
    return np.hstack([np.sqrt(0.5) * np.eye(2), frame])


class TestRefusal:
    def test_near_multiple_top_eigenvalues_return_the_enumeration(self):
        # A table of the two tight frames alone: no support has a gap, so none
        # is surely accepted, the route refuses, and the dispatch runs the
        # table enumeration.
        basis = _isotropic_basis()
        projector = basis.T @ basis
        assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-15)
        table = np.zeros(1 << 5, dtype=bool)
        table[[0b00011, 0b11100]] = True
        assert _cell_extremum(projector, basis, table) is None
        ext = extremize_quadratic_over_cone(projector, Orthant(5), True, _factor=basis,
                                            _table=table)
        expected = _enumerate_orthant_extremum(projector, True, table, 3)
        assert ext.route == "table"
        assert ext.value == expected[0] == 0.5000000000000001
        assert np.array_equal(ext.point, expected[1])

    def test_undecided_cells_are_solved_again(self):
        # The same basis with its own realizable table: cells whose gap the bound
        # cannot use are solved again by the enumeration's code, so the route
        # still answers, with the enumeration's bits.
        basis = _isotropic_basis()
        projector = basis.T @ basis
        table = _realizable_supports(basis)
        assert table is not None
        cells = _cell_extremum(projector, basis, table)
        assert cells is not None
        assert _same(cells, _enumerate_orthant_extremum(projector, True, table))
        assert _same(cells, _enumerate_orthant_extremum(projector, True))


def _ensemble_trials(chunks=range(30)):
    """(m, matrix) of the orthant-ensemble benchmark's seed 1 trials in the given chunks.

    Chunk c has m = (3, 6, 9)[c % 3], its seed drawn from the generator
    keyed [3, 1], and four n = 12 trials whose matrices come from
    trial_stream(seed, index), as run_experiment draws them.
    """
    chunk_seeds = np.random.default_rng([3, 1]).integers(0, 2**62, size=768)
    for c in chunks:
        m = (3, 6, 9)[c % 3]
        for index in range(4):
            yield m, gaussian_matrix(trial_stream(int(chunk_seeds[c]), index), m, 12)


class TestEnsembleCoverage:
    def test_route_serves_every_small_strict_side(self):
        # The strict side has r = 3 rows at m = 3 primal strict and at m = 9 dual
        # strict; each such side of seed 1 chunks 0-29 takes the cell route.  Those
        # are 76 of the 80 m = 3 and m = 9 trials (37 and 39); the other four have a
        # strict side of 9 rows.
        solve = coniccond.cones.extremize_quadratic_over_cone
        routes = []

        def spy(*args, **kwargs):
            ext = solve(*args, **kwargs)
            if kwargs.get("maximize") and kwargs.get("_factor") is not None:
                routes.append((len(kwargs["_factor"]), ext.route))
            return ext

        small, served, trials = 0, 0, 0
        for m, a in _ensemble_trials():
            if m == 6:
                continue
            trials += 1
            routes.clear()
            with mock.patch.object(coniccond.cones, "extremize_quadratic_over_cone", spy):
                tag = analyze(Orthant(12), None, a=a).status.tag
            strict_rank = m if tag is Feasibility.PRIMAL_STRICT else 12 - m
            if strict_rank <= CELL_ROUTE_MAX_RANK:
                small += 1
                served += (strict_rank, "cells") in routes
        assert (small, trials) == (76, 80)
        assert served == small
