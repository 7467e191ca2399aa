"""Linear subspaces of R^n and the metrics between them.

A subspace is stored through an orthonormal row basis.  All distances
(projection, geodesic, Hausdorff) are derived from the principal angles,
i.e. the arccosines of the singular values of B1 B2^T.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalFailure, ZeroVector
from .linalg import polar_decompose, require_matrix
from .tolerances import BASIS_DEFECT_TOL, COSINE_OVERSHOOT, SMALL_ANGLE, SUBSPACE_ANGLE_TOL


class Subspace:
    """An m-dimensional linear subspace of R^n, 1 <= m < n.

    Bases are not unique; two instances describe the same subspace iff
    ``span_equals`` holds, never compare bases directly.
    """

    __slots__ = ("_basis",)

    def __init__(self, basis):
        arr = require_matrix(basis)
        m, n = arr.shape
        if not 1 <= m < n:
            raise DimensionError(f"subspace dimension must satisfy 1 <= m < n, got {m}, {n}")
        defect = float(np.linalg.norm(arr @ arr.T - np.eye(m)))
        if defect > BASIS_DEFECT_TOL:
            raise ValueError(f"basis rows are not orthonormal (defect {defect:.2e})")
        arr = arr.copy()
        arr.flags.writeable = False
        self._basis = arr

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def ambient_dim(self) -> int:
        return self._basis.shape[1]

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix onto the subspace (n x n)."""
        return self._basis.T @ self._basis

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._basis.T @ (self._basis @ x)

    def span_equals(self, other: "Subspace") -> bool:
        if self.dim != other.dim or self.ambient_dim != other.ambient_dim:
            return False
        angles = principal_angles(self, other)
        return float(angles[-1]) <= SUBSPACE_ANGLE_TOL

    def contains(self, x) -> bool:
        return angle_point_subspace(x, self) <= SUBSPACE_ANGLE_TOL

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim})"


def subspace_from_rowspan(a) -> Subspace:
    """Subspace spanned by the rows of a full-rank matrix (m < n)."""
    return Subspace(polar_decompose(a).balanced_part)


def complement(w: Subspace) -> Subspace:
    """The orthogonal complement, an (n-m)-dimensional subspace."""
    _, _, vh = np.linalg.svd(w.basis, full_matrices=True)
    return Subspace(vh[w.dim:])


def principal_angles(w1: Subspace, w2: Subspace) -> np.ndarray:
    """Principal angles between two subspaces of equal dimension.

    Returns a nondecreasing vector in [0, pi/2].  Angles below SMALL_ANGLE are
    recomputed from the sine-based product B2 (I - B1^T B1), which stays
    accurate where arccos loses digits.
    """
    if w1.dim != w2.dim:
        raise DimensionError(f"subspace dimensions differ: {w1.dim} vs {w2.dim}")
    if w1.ambient_dim != w2.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {w1.ambient_dim} vs {w2.ambient_dim}"
        )
    if w2.basis.tobytes() < w1.basis.tobytes():
        w1, w2 = w2, w1  # canonical order makes the metric exactly symmetric
    cosines = np.linalg.svd(w1.basis @ w2.basis.T, compute_uv=False)
    if cosines.size and cosines[0] > 1.0 + COSINE_OVERSHOOT:
        raise NumericalFailure(f"cosine {cosines[0]} exceeds 1 beyond tolerance")
    cosines = np.clip(cosines, 0.0, 1.0)
    angles = np.arccos(cosines)  # nondecreasing: cosines are nonincreasing

    small = angles < SMALL_ANGLE
    if np.any(small):
        residual = w2.basis @ (np.eye(w1.ambient_dim) - w1.basis.T @ w1.basis)
        sines = np.clip(np.linalg.svd(residual, compute_uv=False), 0.0, 1.0)[::-1]
        angles[small] = np.arcsin(sines[small])
    return angles


def grassmann_distances(w1: Subspace, w2: Subspace) -> tuple[float, float, float]:
    """Projection, geodesic, and Hausdorff distances, in that order.

    d_p = sin(max angle), d_g = ||angles||_2, d_H = max angle; hence
    d_p = sin(d_H) by construction and d_p <= sin(d_g) whenever
    d_g <= pi/2.
    """
    angles = principal_angles(w1, w2)
    d_h = float(angles[-1])
    return float(np.sin(d_h)), float(np.linalg.norm(angles)), d_h


def angle_point_subspace(x, w: Subspace) -> float:
    """Angle in [0, pi/2] between a nonzero vector and a subspace."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != w.ambient_dim:
        raise DimensionError(f"vector length {x.shape[0]} != ambient dim {w.ambient_dim}")
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ZeroVector("angle to a subspace is undefined for the zero vector")
    unit = x / norm
    inside = w.basis @ unit
    cos = float(np.linalg.norm(inside))
    if cos > 1.0 + COSINE_OVERSHOOT:
        raise NumericalFailure(f"projection norm {cos} exceeds 1 beyond tolerance")
    sin = float(np.linalg.norm(unit - w.basis.T @ inside))
    return float(np.arctan2(max(sin, 0.0), min(cos, 1.0)))


def distance_to_spaces_containing(x, w: Subspace) -> tuple[float, float]:
    """Projection and geodesic distance from W to the subspaces through x.

    Both reduce to the angle between x and W: the nearest m-dimensional
    subspace containing x is W with its farthest direction rotated onto x.
    """
    theta = angle_point_subspace(x, w)
    return float(np.sin(theta)), theta
