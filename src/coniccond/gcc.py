"""GCC condition number for the nonnegative orthant.

The GCC condition of a matrix is 1/|cos(rho)| where rho is the angular
radius of the smallest spherical cap containing its normalized columns.
The cap is found by exhaustive enumeration of candidate support sets of
at most m points; each subset with a nonsingular Gram matrix determines
a spherical circumcenter, and both the circumcenter and its antipode are
tried so caps wider than a hemisphere are found too.

Candidates are scored one support size at a time: the points, then one
preallocated block holding +c, -c for every kept subset of each size, so
no per-candidate array is kept.  A block's cosines to the points come
from a batched matrix-vector product, one gemv per center, which gives
the bits of ``points @ center``; a matrix-matrix product (gemm) sums in
another order and can move a radius in its last bit, and with it the
tie-break.
"""

from __future__ import annotations

import itertools
import math

from dataclasses import dataclass

import numpy as np

from .condition import ConditionValue
from .errors import EmptyInput, NonUnitPoint, ZeroColumn
from .linalg import require_matrix
from .tolerances import (CAP_BOUNDARY_TOL, CAP_TIE_TOL, CENTER_NORM_FLOOR, RIGHT_ANGLE_TOL,
                         UNIT_NORM_TOL)


@dataclass(frozen=True)
class SphericalCap:
    """A spherical cap: unit center, angular radius, boundary point indices."""

    center: np.ndarray
    radius: float
    support: tuple[int, ...]


def smallest_enclosing_cap(points) -> SphericalCap:
    """Smallest spherical cap containing the given unit points.

    Candidate centers are the points themselves and the spherical
    circumcenters (both signs) of every subset of 2..m points with a
    nonsingular Gram matrix; the minimal enclosing radius over all
    candidates is exact at this desk scale.  Ties are broken toward the
    lexicographically smallest boundary index set, and among equal sets
    toward the first candidate: the points, then each support size in
    turn, its subsets in ``itertools.combinations`` order.  The
    candidates of one size fill one block, scored in one batched pass
    whose product is a gemv per center, so every radius has the bits of
    ``points @ center``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.size == 0 or pts.shape[0] == 0:
        raise EmptyInput("at least one point is required")
    norms = np.linalg.norm(pts, axis=1)
    # The negated test also rejects a NaN norm.
    if np.any(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise NonUnitPoint(f"point {worst} has norm {float(norms[worst])!r}")

    best_center = None
    best_radius = math.inf
    best_boundary: tuple[int, ...] = ()
    for block in _candidate_blocks(pts):
        # One gemv per center: the same bits as pts @ center.
        angles = np.matmul(pts[None], block[:, :, None])[:, :, 0]
        np.clip(angles, -1.0, 1.0, out=angles)
        np.arccos(angles, out=angles)
        for row, radius in enumerate(angles.max(axis=1).tolist()):
            # The negated test also skips a NaN radius.
            if not radius <= best_radius + CAP_TIE_TOL:
                continue
            boundary = _boundary(angles[row], radius)
            if radius < best_radius - CAP_TIE_TOL or boundary < best_boundary:
                best_center = block[row].copy()
                best_radius = radius
                best_boundary = boundary
    assert best_center is not None
    return SphericalCap(center=best_center, radius=best_radius, support=best_boundary)


def _candidate_blocks(pts: np.ndarray):
    """Candidate centers, one array per support size: the points, then +c, -c per subset."""
    count, ambient = pts.shape
    yield pts
    for size in range(2, min(ambient, count) + 1):
        block = np.empty((2 * math.comb(count, size), ambient))
        kept = 0
        for subset in itertools.combinations(range(count), size):
            sub = pts[list(subset)]
            gram = sub @ sub.T
            # Near-singular Gram matrices are kept: every candidate's radius
            # is measured, and caps of radius near pi/2 have them.
            try:
                weights = np.linalg.solve(gram, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            center = sub.T @ weights
            norm = float(np.linalg.norm(center))
            if norm < CENTER_NORM_FLOOR:
                continue
            center /= norm
            block[kept] = center
            block[kept + 1] = -center
            kept += 2
        yield block[:kept]


def _boundary(angles: np.ndarray, radius: float) -> tuple[int, ...]:
    """Indices of the points whose angle to the center is the radius."""
    return tuple(int(i) for i in np.flatnonzero(np.abs(angles - radius) <= CAP_BOUNDARY_TOL))


def gcc_condition(a) -> ConditionValue:
    """GCC condition of a matrix: 1/|cos| of its minimal column cap radius.

    Columns are normalized first, so the value is invariant under
    positive column scaling.  Infinite when the radius is a right angle
    within RIGHT_ANGLE_TOL.
    """
    arr = require_matrix(a)
    col_norms = np.linalg.norm(arr, axis=0)
    if np.any(col_norms == 0.0):
        raise ZeroColumn(f"column {int(np.argmin(col_norms))} is zero")
    cap = smallest_enclosing_cap((arr / col_norms).T)
    if abs(cap.radius - math.pi / 2.0) <= RIGHT_ANGLE_TOL:
        return ConditionValue.exact(math.inf, "enclosing-cap")
    return ConditionValue.exact(1.0 / abs(math.cos(cap.radius)), "enclosing-cap")
