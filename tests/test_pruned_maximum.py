"""Angle maxima: the interlacing prune, bit for bit against every support."""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coniccond.cones
from coniccond import Lorentz, Orthant
from coniccond.cones import (_enumerate_orthant_extremum, _realizable_supports,
                             extremize_quadratic_over_cone)
from coniccond.tolerances import INTERLACING_MARGIN
from conftest import (STRUCTURED_KINDS, full_orthant_extremum, near_face, row_basis,
                      structured_matrix)

# The cascade's margin for a maximum, where ||K|| = ||I - P|| <= 1.
MARGIN = 2.0 * INTERLACING_MARGIN


@st.composite
def bases(draw):
    """An orthonormal basis of W in R^n, 4 <= n <= 12, 1 <= dim W < n.

    The rows span a Gaussian matrix, a conftest.structured_matrix, one
    through a boundary point of the orthant moved off by eps, or one with
    two equal columns, which the basis keeps equal, so supports that swap
    them tie.
    """
    n = draw(st.integers(4, 12))
    r = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(("gaussian", "near face", "duplicated column") + STRUCTURED_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((r, n))
    if kind == "near face":
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]))
        a[0] = near_face(rng, np.ones(n), eps)
    elif kind in STRUCTURED_KINDS:
        a = structured_matrix(rng, r, n, kind)
    elif kind == "duplicated column":
        i, j = rng.choice(n, 2, replace=False)
        a[:, j] = a[:, i]
    return row_basis(a)


def _pruned_run(m_mat, table, cap):
    """(value, point, pruned masks, tally) of one _enumerate_orthant_extremum call.

    The pruned supports are those of the sizes the call visits that
    ``table`` marks (every nonempty one without a table) and whose
    principal submatrix the call never gathers.
    """
    n = len(m_mat)
    sizes, reached = [], []
    support_table, take = coniccond.cones._support_table, np.take

    def visited(count, size):
        sizes.append(size)
        return support_table(count, size)

    def gathered(a, indices, *args, **kwargs):
        if np.ndim(indices) == 3 and np.shape(a) == (n, n):
            # M[F, F]'s diagonal sits at the flat indices F_i (n + 1).
            supports = np.diagonal(indices, axis1=1, axis2=2).astype(np.int64) // (n + 1)
            reached.extend((1 << supports).sum(axis=1).tolist())
        return take(a, indices, *args, **kwargs)

    tally = Counter()
    with (mock.patch.object(coniccond.cones, "_support_table", visited),
          mock.patch.object(coniccond.cones.np, "take", gathered)):
        value, point = _enumerate_orthant_extremum(m_mat, True, table, cap, tally)
    everything = np.arange(1 << n)
    counts = np.array([bin(mask).count("1") for mask in everything])
    marked = everything[np.isin(counts, sizes) & (counts > 0)
                        & (True if table is None else table)]
    return value, point, np.setdiff1d(marked, reached), tally


def _top_eigenvalue(m_mat, mask):
    support = [i for i in range(len(m_mat)) if mask >> i & 1]
    return float(np.linalg.eigvalsh(m_mat[np.ix_(support, support)])[-1])


class TestAgainstEverySupport:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bases())
    def test_maximum_is_the_full_enumeration_bit_for_bit(self, basis):
        r, n = basis.shape
        projector = basis.T @ basis
        ref_value, ref_point = full_orthant_extremum(projector, maximize=True)
        table = _realizable_supports(basis)
        routes = [(None, None), (None, n - r)]
        if table is not None:
            routes += [(table, None), (table, n - r)]
        for realizable, cap in routes:
            value, point, pruned, tally = _pruned_run(projector, realizable, cap)
            assert value == ref_value
            assert np.array_equal(point, ref_point)
            assert len(pruned) == tally["pruned"]
            # Interlacing: no pruned support could attain or tie the maximum.
            for mask in pruned.tolist():
                assert _top_eigenvalue(projector, mask) < value - MARGIN
        ext = extremize_quadratic_over_cone(projector, Orthant(n), True, _factor=basis)
        assert ext.value == ref_value
        assert np.array_equal(ext.point, ref_point)


class TestCounts:
    def test_multistart_records_no_supports(self):
        ext = extremize_quadratic_over_cone(np.eye(3), Lorentz(3), True, multistart_count=4)
        assert ext.route == "multistart"
        assert (ext.solved, ext.rejected, ext.pruned) == (0, 0, 0)
