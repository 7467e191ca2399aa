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

The wide route.  condition_report knows the feasibility tag before it
asks for the cap.  A primal strict tag means 0 lies in the interior of
the convex hull of the points (Gordan), so no closed hemisphere holds
them and every local minimum of the radius F(c) = max_i angle(c, p_i)
is wide.  A wide local minimum is the antipode of a vertex of the
spherical Voronoi diagram whose nearest points span R^m, so it is a
circumcenter of m points.  The route (_wide_route) therefore scores only
the size-m block, built and scored by the same code as in the full scan,
so its winner c* keeps its bits.  It returns c* only when a certificate
(_wide_certificate) shows that every skipped candidate, a point or a
circumcenter of fewer than m points, has a computed radius above
r* + 2 CAP_TIE_TOL: the scan then keeps c* whatever it held before the
size-m block (the tie-break is decided by radius alone at that gap), so
the full scan returns the same cap.  The certificate:

1. c*'s boundary S is its own subset of exactly m points, and r* exceeds
   pi/2 + RIGHT_ANGLE_TOL.
2. Sharpness.  With n_i the dual basis of the rows of A_S (<a_j, n_i> =
   delta_ij), c* = -sum w_i a_i with every w_i > 0: c* lies inside the
   tangent simplex of S.  For c = cos t c* + sin t d (d a unit tangent)
   this gives cos F(c) <= -(kappa cos t + mu sin t), kappa the least
   cos angle(-c*, a_i) over S and mu = 1 / sum_i s_i ||n_i||, s_i =
   max(1, (sum w - w_i) / w_i).  So every c with F(c) <= r* + delta
   (delta the tie gap plus the rounding of a computed radius) lies in
   the ball t <= t_max around c* or beyond the annulus t_max < t < t_far
   where the bound excludes it.
3. Conditioning.  One batched _spd_inverse of every m-subset Gram
   matrix bounds its condition number; by Cauchy interlacing the bound
   of a superset bounds every smaller subset, so each computed center
   lies within CAP_CENTER_ROUNDING-scaled error of the exact one.
4. Nothing skipped comes near c*, and nothing lies beyond the annulus.
   A sublevel component of F beyond the annulus would hold a wide local
   minimum, the exact circumcenter of some m-subset; every size-m row
   other than c*'s has a computed radius above r* + delta plus its
   center error, so there is none.  Within t_max of c* (plus the skipped
   centers' error):
   - a subset T of S: angle(c*, +-c_T) >= the distance of c* from the
     span of a_T, at least the facet distance w_j / ||n_j|| for j in S
     outside T;
   - a subset T with a point outside S: its center is equidistant from
     T, so T's angles from c* would lie within twice that radius; the
     sorted angles from c* leave wider gaps at every non-boundary point;
   - a point: its angle from c* exceeds the radius.
Where any check fails the route returns None and the full scan runs,
reusing the size-m block, so a cap never depends on the route.  Check 3
needs every m-subset's center error bounded; a 10 x 20 Gaussian matrix
has a few 10-subsets whose Gram matrices are too ill conditioned for
that, so at that size the route mostly falls back.  gcc_condition called
alone has no tag and always scans in full.
"""

from __future__ import annotations

import functools
import itertools
import math

from dataclasses import dataclass

import numpy as np

from .condition import ConditionValue
from .cones import _inverse_norm_bound, _spd_inverse, _support_table
from .errors import EmptyInput, NonUnitPoint, ZeroColumn
from .linalg import require_matrix
from .tolerances import (CAP_BOUNDARY_TOL, CAP_CENTER_ROUNDING, CAP_DOT_ROUNDING, CAP_TIE_TOL,
                         CENTER_NORM_FLOOR, RIGHT_ANGLE_TOL, UNIT_NORM_TOL)

# Gram matrices per batched inverse in the wide certificate, so that its
# temporaries stay below a few MB at any C(n, m).
_CERTIFICATE_BATCH = 4096


@dataclass(frozen=True)
class SphericalCap:
    """A spherical cap: unit center, angular radius, boundary point indices."""

    center: np.ndarray
    radius: float
    support: tuple[int, ...]


def smallest_enclosing_cap(points, *, _wide: bool = False) -> SphericalCap:
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
    ``_wide`` says that 0 lies in the interior of the points' convex
    hull, as a primal strict tag shows: the size-m block alone is scored
    and kept where the certificate of the module docstring passes, with
    the full scan's cap bit for bit; otherwise the full scan runs, and
    reuses that block.
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

    count, ambient = pts.shape
    wide_block = None
    if _wide and 2 <= ambient < count:
        wide_block = _circumcenters(pts, ambient)
        cap = _wide_route(pts, wide_block)
        if cap is not None:
            return cap
    best_center = None
    best_radius = math.inf
    best_boundary: tuple[int, ...] = ()
    for block in _candidate_blocks(pts, wide_block):
        angles = _angles(pts, block)
        row, best_radius, best_boundary = _tie_break(angles, best_radius, best_boundary)
        if row is not None:
            best_center = block[row].copy()
    assert best_center is not None
    return SphericalCap(center=best_center, radius=best_radius, support=best_boundary)


def _angles(pts: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Angles from each center of a block (rows) to every point (columns)."""
    # One gemv per center: the same bits as pts @ center.
    angles = np.matmul(pts[None], block[:, :, None])[:, :, 0]
    np.clip(angles, -1.0, 1.0, out=angles)
    np.arccos(angles, out=angles)
    return angles


def _tie_break(angles: np.ndarray, radius: float, boundary: tuple[int, ...]):
    """(row, radius, boundary) that the scan keeps after a block; row is None if it keeps none."""
    kept = None
    for row, candidate in enumerate(angles.max(axis=1).tolist()):
        # The negated test also skips a NaN radius.
        if not candidate <= radius + CAP_TIE_TOL:
            continue
        candidate_boundary = _boundary(angles[row], candidate)
        if candidate < radius - CAP_TIE_TOL or candidate_boundary < boundary:
            kept, radius, boundary = row, candidate, candidate_boundary
    return kept, radius, boundary


def _candidate_blocks(pts: np.ndarray, wide_block: np.ndarray | None = None):
    """Candidate centers, one array per support size: the points, then +c, -c per subset.

    ``wide_block`` is the size-m block where the wide route built it already.
    """
    count, ambient = pts.shape
    yield pts
    for size in range(2, min(ambient, count) + 1):
        yield wide_block if size == ambient and wide_block is not None else _circumcenters(pts, size)


def _circumcenters(pts: np.ndarray, size: int) -> np.ndarray:
    """+c, -c for every subset of ``size`` points with a solvable Gram matrix, in combinations order."""
    count, ambient = pts.shape
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
    return block[:kept]


def _wide_route(pts: np.ndarray, block: np.ndarray) -> SphericalCap | None:
    """The full scan's cap from the size-m circumcenters ``block`` alone, or None where uncertified."""
    count, ambient = pts.shape
    # A dropped subset has a singular Gram matrix: no general position.
    if len(block) < 2 * math.comb(count, ambient):
        return None
    angles = _angles(pts, block)
    row, radius, boundary = _tie_break(angles, math.inf, ())
    if row is None or not _wide_certificate(pts, block, angles, row, radius, boundary):
        return None
    return SphericalCap(center=block[row].copy(), radius=radius, support=boundary)


@functools.lru_cache(maxsize=None)
def _superset_rows(count: int, size: int) -> np.ndarray:
    """For each (size-1)-subset, the rows of its size-supersets in _support_table order (read-only)."""
    lookup = np.full(1 << count, -1, dtype=np.int32)
    lookup[_support_table(count, size)[1]] = np.arange(math.comb(count, size), dtype=np.int32)
    rows = lookup[_support_table(count, size - 1)[3]]
    rows = rows[rows >= 0].reshape(-1, count - size + 1)
    rows.flags.writeable = False
    return rows


def _center_errors(pts: np.ndarray, size: int) -> np.ndarray:
    """Bounds on the center error of every size-subset, in combinations order; NaN where none.

    The error is 2 e / (1 - e) radians, e = CAP_CENTER_ROUNDING cond_2(G) < 1/2, with
    cond_2(G) <= tr(G) ||G^-1||_F for the subset's Gram matrix G, the norm bounded from
    a batched _spd_inverse by _inverse_norm_bound (whose INVERSE_ROUNDING also covers the
    rounding of G itself).
    """
    gather = _support_table(len(pts), size)[2]
    outer = pts @ pts.T
    scaled = np.empty(len(gather))
    for lo in range(0, len(gather), _CERTIFICATE_BATCH):
        gram = np.take(outer, gather[lo:lo + _CERTIFICATE_BATCH])
        trace = np.einsum("bii->b", gram)
        inverse, _ = _spd_inverse(gram)
        scaled[lo:lo + len(gram)] = (CAP_CENTER_ROUNDING * trace
                                     * _inverse_norm_bound(gram, inverse, trace))
    with np.errstate(invalid="ignore"):
        return np.where(scaled < 0.5, 2.0 * scaled / (1.0 - scaled), np.nan)


def _wide_certificate(pts, block, angles, row, radius, boundary) -> bool:
    """True when the size-m winner ``row`` is the full scan's cap (module docstring, checks 1-4)."""
    count, m = pts.shape
    subset = _support_table(count, m)[0][row // 2]
    center = block[row]
    rho = math.pi - radius          # radius of the largest empty cap, centred at -c*
    # 1. The boundary is c*'s own m-subset, and the cap is wide.
    if boundary != tuple(subset.tolist()) or not radius > math.pi / 2.0 + RIGHT_ANGLE_TOL:
        return False
    drift = max(float(np.abs(np.einsum("ij,ij->i", pts, pts) - 1.0).max()),
                abs(float(center @ center) - 1.0))
    if not drift <= CAP_DOT_ROUNDING / 4.0:
        return False
    # 3. Each computed center lies within `errors` radians of its exact one.  By
    # interlacing, a subset of fewer than m points is no worse conditioned than any of its
    # m-supersets, so its center lies within `skipped_error`.
    errors = _center_errors(pts, m)
    skipped_error = float(errors[_superset_rows(count, m)].min(axis=1).max()) if m >= 3 else 0.0
    if not (np.all(errors < 1.0) and skipped_error < 1.0):
        return False
    # A computed angle near the radius errs by at most `near` (the dot product by
    # CAP_DOT_ROUNDING, sin >= sin(rho / 2) there); any computed angle by `anywhere`.
    near = CAP_DOT_ROUNDING / math.sin(rho / 2.0)
    anywhere = 2.3 * math.sqrt(CAP_DOT_ROUNDING)
    # A candidate the scan could keep over c* has a computed radius <= r* + 2 CAP_TIE_TOL,
    # so an exact radius <= r* + delta.
    delta = 2.0 * CAP_TIE_TOL + near
    if not delta + 2.0 * near < rho / 2.0:
        return False
    # 4, beyond the annulus: every other size-m row stays clear of r* + delta.
    rounding = np.where(delta + errors + 2.0 * near < rho / 2.0, near, anywhere)
    clear = radius + delta + np.repeat(errors + rounding, 2)
    clear[row] = -math.inf
    if not np.all(angles.max(axis=1) > clear):
        return False
    # 2. Sharpness: c* = -sum w_i a_i with w > 0, in the dual basis n_i of A_S.
    a_s = pts[subset]
    dual = np.linalg.inv(a_s)                # columns n_i
    eta = float(errors[row // 2]) + CAP_DOT_ROUNDING
    n_norm = np.linalg.norm(dual, axis=0) * (1.0 + 2.0 * eta)
    weights = -(center @ dual)
    w_lo = weights - 2.0 * eta * n_norm
    if not np.all(w_lo > 0.0):
        return False
    w_hi = weights + 2.0 * eta * n_norm
    spread = np.maximum(1.0, (w_hi.sum() - w_lo) / w_lo)
    mu = 1.0 / float(spread @ n_norm)
    kappa = float(-(a_s @ center).max()) - CAP_DOT_ROUNDING
    if not kappa > 0.0:
        return False
    excess = math.cos(rho - delta) - kappa   # h(t) <= kappa + excess at a near tie
    t_max = 2.0 * excess / mu
    t_far = min(1.0, mu / kappa)

    def gain(t):                             # a lower bound on h(t) - kappa
        return mu * t - kappa * t * t / 2.0 - mu * t ** 3 / 6.0

    if not (errors[row // 2] < t_far and t_max < t_far
            and gain(t_max) > excess and gain(t_far) > excess):
        return False
    # 4, within the ball: no skipped center comes near c*.
    theta = angles[row]
    if not float(theta.min()) - anywhere > t_max:
        return False
    if m >= 3:
        reach = t_max + skipped_error
        if not float((w_lo / n_norm).min()) > reach:
            return False
        order = np.argsort(theta, kind="stable")
        on_boundary = np.zeros(count, dtype=bool)
        on_boundary[subset] = True
        on_boundary = on_boundary[order]
        gaps = np.diff(theta[order])[~(on_boundary[1:] & on_boundary[:-1])]
        if not float(gaps.min()) > 2.0 * (reach + anywhere):
            return False
    return True


def _boundary(angles: np.ndarray, radius: float) -> tuple[int, ...]:
    """Indices of the points whose angle to the center is the radius."""
    return tuple(int(i) for i in np.flatnonzero(np.abs(angles - radius) <= CAP_BOUNDARY_TOL))


def gcc_condition(a, *, _wide: bool = False) -> ConditionValue:
    """GCC condition of a matrix: 1/|cos| of its minimal column cap radius.

    Columns are normalized first, so the value is invariant under
    positive column scaling.  Infinite when the radius is a right angle
    within RIGHT_ANGLE_TOL.  ``_wide`` is smallest_enclosing_cap's: the
    caller's primal strict tag.
    """
    arr = require_matrix(a)
    col_norms = np.linalg.norm(arr, axis=0)
    if np.any(col_norms == 0.0):
        raise ZeroColumn(f"column {int(np.argmin(col_norms))} is zero")
    cap = smallest_enclosing_cap((arr / col_norms).T, _wide=_wide)
    if abs(cap.radius - math.pi / 2.0) <= RIGHT_ANGLE_TOL:
        return ConditionValue.exact(math.inf, "enclosing-cap")
    return ConditionValue.exact(1.0 / abs(math.cos(cap.radius)), "enclosing-cap")
