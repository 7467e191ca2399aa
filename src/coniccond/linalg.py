"""Dense real matrix kernel: norms, SVD services, polar decomposition.

Everything here is a thin, contract-checked layer over LAPACK through
numpy.  Matrices are plain 2-d float arrays; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalFailure, RankDeficient
from .tolerances import BALANCED_TOL, RANK_TOLERANCE


def require_matrix(a) -> np.ndarray:
    """Coerce to a nonempty 2-d float array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"expected a nonempty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericalFailure("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD A = U diag(s) V^T with square orthogonal factors."""

    left_factor: np.ndarray        # m x m
    singular_values: np.ndarray    # nonincreasing, length min(m, n)
    right_factor: np.ndarray       # n x n

    def reconstruct(self) -> np.ndarray:
        m = self.left_factor.shape[0]
        n = self.right_factor.shape[0]
        s = np.zeros((m, n))
        k = self.singular_values.shape[0]
        s[:k, :k] = np.diag(self.singular_values)
        return self.left_factor @ s @ self.right_factor.T


@dataclass(frozen=True)
class PolarFactors:
    """Polar decomposition A = scale @ balanced_part.

    scale is symmetric positive definite, balanced_part has orthonormal
    rows and spans the same row space as A.
    """

    scale: np.ndarray          # m x m
    balanced_part: np.ndarray  # m x n


def matrix_norms(a) -> tuple[float, float]:
    """Spectral and Frobenius norms; (0, 0) for the zero matrix."""
    arr = require_matrix(a)
    fro = float(np.linalg.norm(arr))
    if fro == 0.0:
        return 0.0, 0.0
    return float(np.linalg.norm(arr, 2)), fro


def svd_factorize(a) -> SvdFactorization:
    """Full singular value decomposition with nonincreasing values."""
    arr = require_matrix(a)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    return SvdFactorization(u, s, vh.T)


def is_rank_deficient(s: np.ndarray) -> bool:
    """True when the smallest of the nonincreasing singular values s counts as zero."""
    return bool(s[0] == 0.0 or s[-1] <= RANK_TOLERANCE * s[0])


def kappa(a) -> float:
    """Matrix condition number sigma_1 / sigma_m, inf when rank deficient."""
    arr = require_matrix(a)
    m, n = arr.shape
    if m > n:
        raise DimensionError(f"kappa requires m <= n, got shape {arr.shape}")
    return kappa_of_singular_values(np.linalg.svd(arr, compute_uv=False))


def kappa_of_singular_values(s: np.ndarray) -> float:
    """sigma_1 / sigma_m of the nonincreasing singular values s, inf when rank deficient."""
    if is_rank_deficient(s):
        return float("inf")
    return float(s[0] / s[-1])


def polar_decompose(a) -> PolarFactors:
    """Split A into a symmetric positive definite scale and a balanced part.

    Requires full row rank and m < n.  The balanced part is the closest
    matrix with orthonormal rows spanning the same row space.
    """
    arr = require_matrix(a)
    m, n = arr.shape
    if m >= n:
        raise DimensionError(f"polar decomposition requires m < n, got shape {arr.shape}")
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    if is_rank_deficient(s):
        raise RankDeficient(f"matrix of shape {arr.shape} is not of full row rank")
    scale = (u * s) @ u.T
    scale = 0.5 * (scale + scale.T)
    return PolarFactors(scale=scale, balanced_part=u @ vh)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse."""
    return np.linalg.pinv(require_matrix(a))


def rank_deficiency_distance(a) -> float:
    """Spectral distance to the nearest rank deficient matrix (= sigma_m)."""
    arr = require_matrix(a)
    if arr.shape[0] > arr.shape[1]:
        raise DimensionError(f"requires m <= n, got shape {arr.shape}")
    s = np.linalg.svd(arr, compute_uv=False)
    return float(s[-1])


def is_balanced(a) -> bool:
    """True when the rows are orthonormal (B B^T = I within BALANCED_TOL, Frobenius)."""
    arr = require_matrix(a)
    m = arr.shape[0]
    if m > arr.shape[1]:
        return False
    defect = arr @ arr.T - np.eye(m)
    return float(np.linalg.norm(defect)) <= BALANCED_TOL
