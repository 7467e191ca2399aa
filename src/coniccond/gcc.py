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
circumcenter of m points.  The route (_wide_route) therefore looks only
at the m-subsets, and solves few of them.  One chunked pass of batched
_spd_inverse over their Gram matrices (_approximate_centers) gives every
m-subset S an approximate center c~ = A_S^T X 1 / ||A_S^T X 1||, X the
computed inverse of its Gram matrix G, with a bound on the angle from c~
to the exact center (below).  The route scores +-c~ and takes the least
radius; it then solves that winner again with the full scan's own code
(_circumcenter), so its c* and radius r* keep the scan's bits.  It
returns c* only when a certificate shows that every candidate the full
scan would hold, a point, a circumcenter of fewer than m points or
another m-subset's, has a computed radius above r* + 2 CAP_TIE_TOL: the
scan then keeps c* whatever it held before it (the tie-break is decided
by radius alone at that gap), so the full scan returns the same cap.
The certificate:

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
3. Conditioning.  The same batched inverses bound each m-subset's
   condition number; by Cauchy interlacing the bound of a superset
   bounds every smaller subset, so each center the scan computes lies
   within CAP_CENTER_ROUNDING-scaled error of the exact one.  They also
   bound each approximate center's angle to the exact one: with e >=
   ||I - G X||_F and beta >= ||G^-1||_F from _inverse_norm_bound, X =
   G^-1 (I - E) gives A_S^T X 1 - A_S^T G^-1 1 = -A_S^+ E 1, and the
   pseudo-inverse A_S^+ = A_S^T G^-1 has norm lambda_min(G)^(-1/2) <=
   sqrt(beta).  So the computed A_S^T X 1 lies within sqrt(beta) e
   sqrt(m) + INVERSE_ROUNDING ||A_S||_F beta of the exact A_S^T G^-1 1,
   the last term for the rounding of the two products (beta >= ||X||_F).
   That over ||A_S^T X 1||, plus INVERSE_ROUNDING for the normalization,
   bounds the sine x of the angle, taken as x / (1 - x) >= arcsin x.
4. Nothing skipped comes near c*, and nothing lies beyond the annulus.
   A sublevel component of F beyond the annulus would hold a wide local
   minimum, the exact circumcenter of some m-subset.  Every size-m row
   other than c* has a computed radius above r* + delta plus its
   center error and rounding, the center error of an approximate row
   adding its approximation bound to the scan's: so the exact center
   has a radius above r* + delta, and the scan's computed one a radius
   above r* + 2 CAP_TIE_TOL.  A row whose approximation cannot clear
   that is solved again with the scan's code and checked on its own
   error alone.  Within t_max of c* (plus the skipped centers' error):
   - a subset T of S: angle(c*, +-c_T) >= the distance of c* from the
     span of a_T, at least the facet distance w_j / ||n_j|| for j in S
     outside T;
   - a subset T with a point outside S: its center is equidistant from
     T, so T's angles from c* would lie within twice that radius; the
     sorted angles from c* leave wider gaps at every non-boundary point;
   - a point: its angle from c* exceeds the radius.
Where any check fails the route returns None and the full scan runs, so
a cap never depends on the route.  Check 3 needs every m-subset's center
error bounded; a 10 x 20 Gaussian matrix has a few 10-subsets whose Gram
matrices are too ill conditioned for that, so at that size the route
mostly falls back.  gcc_condition called alone has no tag and always
scans in full.
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
                         CENTER_NORM_FLOOR, INVERSE_ROUNDING, RIGHT_ANGLE_TOL, UNIT_NORM_TOL)

# Gram matrices per batched inverse in the wide route, so that its
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
    hull, as a primal strict tag shows: the wide route of the module
    docstring then answers from the m-subsets where its certificate
    passes, with the full scan's cap bit for bit; otherwise the full
    scan runs.
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
    if _wide and 2 <= ambient < count:
        cap = _wide_route(pts)
        if cap is not None:
            return cap
    best_center = None
    best_radius = math.inf
    best_boundary: tuple[int, ...] = ()
    for block in _candidate_blocks(pts):
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


def _candidate_blocks(pts: np.ndarray):
    """Candidate centers, one array per support size: the points, then +c, -c per subset."""
    count, ambient = pts.shape
    yield pts
    for size in range(2, min(ambient, count) + 1):
        yield _circumcenters(pts, size)


def _circumcenters(pts: np.ndarray, size: int) -> np.ndarray:
    """+c, -c for every subset of ``size`` points with a solvable Gram matrix, in combinations order."""
    count, ambient = pts.shape
    block = np.empty((2 * math.comb(count, size), ambient))
    kept = 0
    for subset in itertools.combinations(range(count), size):
        center = _circumcenter(pts, subset)
        if center is not None:
            block[kept] = center
            block[kept + 1] = -center
            kept += 2
    return block[:kept]


def _circumcenter(pts: np.ndarray, subset) -> np.ndarray | None:
    """The unit circumcenter c of the points ``subset`` as the full scan computes it, or None.

    None where the scan skips the subset: its Gram matrix is singular to
    the solver, or c is shorter than CENTER_NORM_FLOOR before normalization.
    """
    sub = pts[list(subset)]
    gram = sub @ sub.T
    # Near-singular Gram matrices are kept: every candidate's radius
    # is measured, and caps of radius near pi/2 have them.
    try:
        weights = np.linalg.solve(gram, np.ones(len(sub)))
    except np.linalg.LinAlgError:
        return None
    center = sub.T @ weights
    norm = float(np.linalg.norm(center))
    if norm < CENTER_NORM_FLOOR:
        return None
    center /= norm
    return center


@functools.lru_cache(maxsize=None)
def _superset_rows(count: int, size: int) -> np.ndarray:
    """For each (size-1)-subset, the rows of its size-supersets in _support_table order (read-only)."""
    lookup = np.full(1 << count, -1, dtype=np.int32)
    lookup[_support_table(count, size)[1]] = np.arange(math.comb(count, size), dtype=np.int32)
    rows = lookup[_support_table(count, size - 1)[3]]
    rows = rows[rows >= 0].reshape(-1, count - size + 1)
    rows.flags.writeable = False
    return rows


def _approximate_centers(pts: np.ndarray):
    """(centers, errors, approximation) of every m-subset, in combinations order; NaN where none.

    centers holds the approximate unit centers c~ of the module docstring.
    errors bounds the angle from the center the full scan computes to the
    exact one: 2 e / (1 - e) radians, e = CAP_CENTER_ROUNDING cond_2(G) < 1/2,
    with cond_2(G) <= tr(G) ||G^-1||_F for the subset's Gram matrix G.
    approximation bounds the angle from c~ to the exact center (check 3).
    Both read one batched _spd_inverse through _inverse_norm_bound, whose
    INVERSE_ROUNDING also covers the rounding of G itself.
    """
    count, m = pts.shape
    subsets, _, gather, _ = _support_table(count, m)
    outer = pts @ pts.T
    centers = np.empty((len(subsets), m))
    scaled = np.empty(len(subsets))
    sines = np.empty(len(subsets))
    for lo in range(0, len(subsets), _CERTIFICATE_BATCH):
        hi = min(lo + _CERTIFICATE_BATCH, len(subsets))
        gram = np.take(outer, gather[lo:hi])
        trace = np.einsum("bii->b", gram)               # ||A_S||_F^2
        inverse, _ = _spd_inverse(gram)
        beta, e = _inverse_norm_bound(gram, inverse, trace)
        scaled[lo:hi] = CAP_CENTER_ROUNDING * trace * beta
        with np.errstate(invalid="ignore"):
            # A_S^T X 1, one row per subset.
            center = np.einsum("bij,bi->bj", pts[subsets[lo:hi]], inverse.sum(axis=2))
            length = np.sqrt(np.einsum("bj,bj->b", center, center))
            centers[lo:hi] = center / length[:, None]
            # ||A_S^T X 1 - A_S^T G^-1 1||: A_S^T G^-1 is the pseudo-inverse of A_S, of norm
            # at most sqrt(beta); beta >= ||X||_F in the rounding term.
            distance = (np.sqrt(beta) * e * math.sqrt(m)
                        + INVERSE_ROUNDING * np.sqrt(trace) * beta)
            sines[lo:hi] = distance / length + INVERSE_ROUNDING
    with np.errstate(invalid="ignore"):
        errors = np.where(scaled < 0.5, 2.0 * scaled / (1.0 - scaled), np.nan)
        approximation = np.where(sines < 0.5, sines / (1.0 - sines), np.nan)
    return centers, errors, approximation


def _margins(radius: float):
    """(rho, near, anywhere, delta) of a wide cap of computed radius r* (module docstring).

    rho = pi - r* is the radius of the largest empty cap, centred at -c*.  A
    computed angle near the radius errs by at most ``near`` (the dot product
    by CAP_DOT_ROUNDING, sin >= sin(rho / 2) there), any computed angle by
    ``anywhere``.  A candidate the scan could keep over c* has a computed
    radius <= r* + 2 CAP_TIE_TOL, so an exact radius <= r* + ``delta``.
    """
    rho = math.pi - radius
    near = CAP_DOT_ROUNDING / math.sin(rho / 2.0)
    return rho, near, 2.3 * math.sqrt(CAP_DOT_ROUNDING), 2.0 * CAP_TIE_TOL + near


def _clearance(radius: float, error: np.ndarray) -> np.ndarray:
    """Per m-subset, the computed radius both its rows must exceed in check 4.

    ``error`` bounds the angle from each subset's computed center to its exact one.
    """
    rho, near, anywhere, delta = _margins(radius)
    rounding = np.where(delta + error + 2.0 * near < rho / 2.0, near, anywhere)
    return radius + delta + (error + rounding)


def _wide_route(pts: np.ndarray) -> SphericalCap | None:
    """The full scan's cap from the m-subsets' centers alone, or None where uncertified.

    Module docstring: checks 1-4, with the approximate centers of check 3.
    """
    count, m = pts.shape
    subsets = _support_table(count, m)[0]
    centers, errors, approximation = _approximate_centers(pts)
    # 3. Every computed center lies within `errors` radians of its exact one.  By
    # interlacing, a subset of fewer than m points is no worse conditioned than any of its
    # m-supersets, so its center lies within `skipped_error`.
    skipped_error = float(errors[_superset_rows(count, m)].min(axis=1).max()) if m >= 3 else 0.0
    if not (np.all(errors < 1.0) and skipped_error < 1.0):
        return None
    # +c~, -c~ per subset, the rows of the scan's size-m block.
    block = np.repeat(centers, 2, axis=0)
    block[1::2] *= -1.0
    angles = _angles(pts, block)
    # The least radius; where the scan's tie-break would keep another row, check 4 fails.
    row = int(np.argmin(angles.max(axis=1)))
    approximate = np.ones(len(subsets), dtype=bool)

    def solve_again(k):
        """Put the scan's own rows of subset k into block and angles; False where it has none."""
        center = _circumcenter(pts, subsets[k].tolist())
        if center is None:
            return False
        block[2 * k] = center
        block[2 * k + 1] = -center
        angles[2 * k:2 * k + 2] = _angles(pts, block[2 * k:2 * k + 2])
        approximate[k] = False
        return True

    if not solve_again(row // 2):
        return None
    center, theta = block[row], angles[row]
    radius = float(theta.max())
    boundary = _boundary(theta, radius)
    subset = subsets[row // 2]
    # 1. The boundary is c*'s own m-subset, and the cap is wide.
    if boundary != tuple(subset.tolist()) or not radius > math.pi / 2.0 + RIGHT_ANGLE_TOL:
        return None
    rho, near, anywhere, delta = _margins(radius)
    if not delta + 2.0 * near < rho / 2.0:
        return None
    # 4, beyond the annulus: every other size-m row stays clear of r* + delta.  An
    # approximate row adds its approximation bound to its center error; where that
    # cannot clear, the scan's own rows are solved and checked instead.
    def unclear():
        radii = angles.max(axis=1)
        radii[row] = math.inf
        error = np.where(approximate, errors + approximation, errors)
        return ~(radii.reshape(-1, 2).min(axis=1) > _clearance(radius, error))

    pending = unclear()
    for k in np.flatnonzero(pending & approximate).tolist():
        if not solve_again(k):
            return None
    if pending.any() and unclear().any():
        return None
    # Every cosine above takes unit vectors within CAP_DOT_ROUNDING / 4 in squared norm.
    drift = max(float(np.abs(np.einsum("ij,ij->i", pts, pts) - 1.0).max()),
                float(np.abs(np.einsum("ij,ij->i", block, block) - 1.0).max()))
    if not drift <= CAP_DOT_ROUNDING / 4.0:
        return None
    # 2. Sharpness: c* = -sum w_i a_i with w > 0, in the dual basis n_i of A_S.
    a_s = pts[subset]
    dual = np.linalg.inv(a_s)                # columns n_i
    eta = float(errors[row // 2]) + CAP_DOT_ROUNDING
    n_norm = np.linalg.norm(dual, axis=0) * (1.0 + 2.0 * eta)
    weights = -(center @ dual)
    w_lo = weights - 2.0 * eta * n_norm
    if not np.all(w_lo > 0.0):
        return None
    w_hi = weights + 2.0 * eta * n_norm
    spread = np.maximum(1.0, (w_hi.sum() - w_lo) / w_lo)
    mu = 1.0 / float(spread @ n_norm)
    kappa = float(-(a_s @ center).max()) - CAP_DOT_ROUNDING
    if not kappa > 0.0:
        return None
    excess = math.cos(rho - delta) - kappa   # h(t) <= kappa + excess at a near tie
    t_max = 2.0 * excess / mu
    t_far = min(1.0, mu / kappa)

    def gain(t):                             # a lower bound on h(t) - kappa
        return mu * t - kappa * t * t / 2.0 - mu * t ** 3 / 6.0

    if not (errors[row // 2] < t_far and t_max < t_far
            and gain(t_max) > excess and gain(t_far) > excess):
        return None
    # 4, within the ball: no skipped center comes near c*.
    if not float(theta.min()) - anywhere > t_max:
        return None
    if m >= 3:
        reach = t_max + skipped_error
        if not float((w_lo / n_norm).min()) > reach:
            return None
        order = np.argsort(theta, kind="stable")
        on_boundary = np.zeros(count, dtype=bool)
        on_boundary[subset] = True
        on_boundary = on_boundary[order]
        gaps = np.diff(theta[order])[~(on_boundary[1:] & on_boundary[:-1])]
        if not float(gaps.min()) > 2.0 * (reach + anywhere):
            return None
    return SphericalCap(center=center.copy(), radius=radius, support=boundary)


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
