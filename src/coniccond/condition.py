"""Condition numbers for homogeneous conic feasibility and their witnesses.

For a cone C and a matrix A with row span W, ``analyze`` solves the two
cone-subspace angles once; the conditions and the flip witness derive from it:

* the Grassmann condition of W: reciprocal projection distance from W
  to the set of subspaces touching C;
* the Renegar condition of A: norm of A over its distance to the set of
  ill-posed matrices (exact where an exact route exists, a certified
  interval otherwise, and heuristic wherever it reads a multistart
  extremum);
* minimal rank-one perturbations that force a chosen vector into the
  row span or kernel, or flip a dual feasible instance to primal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cones import (Cone, ConeAngleResult, Feasibility, FeasibilityStatus, _stream, dual_cone,
                    extremize_quadratic_over_cone, primal_dual_angles)
from .errors import (DimensionError, NotBalanced, NotDualFeasible, NotPrimalFeasible,
                     XInComplement, ZeroVector)
from .grassmann import Subspace, angle_point_subspace, subspace_from_rowspan
from .linalg import is_balanced, is_rank_deficient, kappa_of_singular_values, require_matrix
from .tolerances import COMPLEMENT_BAND, INCLUSION_AGREEMENT, ZERO_DISTANCE

# Angular spacing, in radians, of the deterministic direction grid of inclusion_radius_check.
INCLUSION_GRID_RESOLUTION = 0.05


def json_number(x: float):
    """x itself, or the string "inf" for infinity, which JSON cannot carry."""
    return "inf" if math.isinf(x) else x


@dataclass(frozen=True)
class ConditionValue:
    """A condition number: an exact value, a certified interval or a heuristic one.

    Values live in [1, inf]; infinity marks ill-posed instances.
    basis_of_claim names the route that justifies the number.  A
    heuristic value reads a multistart extremum, which certifies
    nothing; it carries lower and upper, equal for a point estimate.
    """

    kind: str                    # "exact" | "interval" | "heuristic"
    value: float | None = None
    lower: float | None = None
    upper: float | None = None
    basis_of_claim: str = ""

    @staticmethod
    def exact(value: float, basis: str) -> "ConditionValue":
        value = float(value)
        if not math.isinf(value):
            value = max(value, 1.0)
        return ConditionValue(kind="exact", value=value, basis_of_claim=basis)

    @staticmethod
    def interval(lower: float, upper: float, basis: str) -> "ConditionValue":
        lower = max(float(lower), 1.0)
        upper = max(float(upper), lower)
        return ConditionValue(kind="interval", lower=lower, upper=upper, basis_of_claim=basis)

    def as_heuristic(self) -> "ConditionValue":
        """The same bounds and basis, labelled "heuristic"."""
        lower, upper = self.bounds()
        return ConditionValue(kind="heuristic", lower=lower, upper=upper,
                              basis_of_claim=self.basis_of_claim)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def bounds(self) -> tuple[float, float]:
        if self.is_exact:
            assert self.value is not None
            return self.value, self.value
        assert self.lower is not None and self.upper is not None
        return self.lower, self.upper

    def to_json(self) -> dict:
        if self.is_exact:
            return {"kind": "exact", "value": json_number(self.value), "basis": self.basis_of_claim}
        return {
            "kind": self.kind,
            "lower": json_number(self.lower),
            "upper": json_number(self.upper),
            "basis": self.basis_of_claim,
        }


@dataclass(frozen=True)
class PerturbationWitness:
    """A rank-one perturbation certifying a feasibility-changing property.

    property_forced is one of "image_contains", "kernel_contains",
    "flips_to_primal"; vector is the (internally normalized) direction the
    property refers to, and residual measures how well the perturbed
    matrix achieves it.  normalization records the norm divided out of
    the caller's vector.
    """

    delta: np.ndarray
    frob_norm: float
    property_forced: str
    vector: np.ndarray
    residual: float
    normalization: float = 1.0


def _witness(delta, property_forced, vector, residual, normalization=1.0) -> PerturbationWitness:
    return PerturbationWitness(delta, float(np.linalg.norm(delta)), property_forced, vector,
                               float(residual), normalization)


def _min_image_over_dual(cone: Cone, a: np.ndarray, seed: int):
    """Minimize ||A p|| over unit p in the dual cone; returns (value, p, method).

    A positive minimum lies in the relative interior of its face F, so
    restricted to F it is the lambda_min eigenvector of A_F^T A_F, which
    is singular when |F| > m, the row count of A.  An exact enumeration
    takes A as the factor of A^T A and so solves only supports of at most
    m coordinates wherever Gordan's alternative certifies that no larger
    one can be accepted.
    """
    ext = extremize_quadratic_over_cone(a.T @ a, dual_cone(cone), maximize=False, seed=seed,
                                        _factor=a)
    return float(np.sqrt(max(ext.value, 0.0))), ext.point, ext.method


def _dual_route(spectral: float, minimum: tuple, prefix: str) -> ConditionValue:
    """||A|| over the dual-route minimum; infinite when that minimum vanishes.

    Heuristic when the minimum came from multistart.
    """
    dist, _, method = minimum
    if dist <= ZERO_DISTANCE * max(1.0, spectral):
        value = ConditionValue.exact(math.inf, f"{prefix}ill-posed")
    else:
        value = ConditionValue.exact(spectral / dist, f"{prefix}dual-route-{method}")
    return value.as_heuristic() if method == "multistart" else value


@dataclass(eq=False)
class Analysis:
    """One instance solved once: primal = angle(C, W), dual = angle(dual C, W_perp).

    The classification, both conditions and both witnesses derive from
    these two results.  Every derived value is computed on first use, at
    most once; the dual-route minimum of ||A p|| over unit p in the dual
    cone and the singular values of ``a``, which give ||A|| and kappa(A),
    need ``a``.
    """

    cone: Cone
    w: Subspace
    seed: int
    a: np.ndarray | None
    primal: ConeAngleResult
    dual: ConeAngleResult

    @functools.cached_property
    def status(self) -> FeasibilityStatus:
        return FeasibilityStatus.from_angles(self.primal.angle, self.dual.angle)

    @functools.cached_property
    def grassmann(self) -> ConditionValue:
        status = self.status
        if status.tag is Feasibility.PRIMAL_STRICT:
            return ConditionValue.exact(1.0 / math.sin(status.primal_angle), "primal-angle")
        if status.tag is Feasibility.DUAL_STRICT:
            return ConditionValue.exact(1.0 / math.sin(status.dual_angle), "dual-angle")
        return ConditionValue.exact(math.inf, "ill-posed")

    def _matrix(self) -> np.ndarray:
        if self.a is None:
            raise ValueError("this quantity needs the matrix: analyze(..., a=A)")
        return self.a

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        """The nonincreasing singular values of ``a``: one SVD for ||A|| and kappa(A)."""
        return np.linalg.svd(self._matrix(), compute_uv=False)

    @property
    def kappa(self) -> float:
        """kappa(A) of ``a``."""
        return kappa_of_singular_values(self.singular_values)

    @functools.cached_property
    def dual_minimum(self) -> tuple[float, np.ndarray, str]:
        """min ||A p|| over unit p in the dual cone as (value, p, method).

        See _min_image_over_dual.
        """
        return _min_image_over_dual(self.cone, self._matrix(), self.seed)

    def renegar(self) -> ConditionValue:
        """Renegar condition of the full-rank matrix ``a``; see renegar_condition.

        Heuristic when either angle, which gives the status and C(W), or
        the dual-route minimum came from multistart.
        """
        if is_balanced(self._matrix()):
            grassmann = self.grassmann
            value = ConditionValue.exact(grassmann.value, f"balanced:{grassmann.basis_of_claim}")
        elif self.status.tag is Feasibility.DUAL_STRICT:
            value = _dual_route(float(self.singular_values[0]), self.dual_minimum, "")
        elif self.status.tag is Feasibility.PRIMAL_STRICT:
            grassmann = self.grassmann.value
            value = ConditionValue.interval(grassmann, self.kappa * grassmann, "sandwich")
        else:
            value = ConditionValue.exact(math.inf, "ill-posed")
        if "multistart" in (self.primal.method, self.dual.method):
            return value.as_heuristic()
        return value

    def flip_witness(self) -> PerturbationWitness:
        """The perturbation of witness_flip_dual_to_primal for ``a``."""
        if self.status.tag is not Feasibility.DUAL_STRICT:
            raise NotDualFeasible(f"instance classified as {self.status.tag.value}")
        _, p, _ = self.dual_minimum
        delta = -np.outer(self.a @ p, p)
        return _witness(delta, "flips_to_primal", p, np.linalg.norm((self.a + delta) @ p))

    def image_witness(self) -> PerturbationWitness:
        """The perturbation of witness_image pulling the primal witness into W.

        It acts on the orthonormal basis of W, which for W the row span of
        ``a`` is the balanced part of the polar decomposition of ``a``.
        """
        if self.status.tag is not Feasibility.PRIMAL_STRICT:
            raise NotPrimalFeasible(f"instance classified as {self.status.tag.value}")
        return witness_image(self.w.basis, self.primal.witness)


def analyze(cone: Cone, w: Subspace | None, seed: int = 0, a=None) -> Analysis:
    """Solve the primal and the dual cone-subspace angle of W, once each.

    W is ``w``, or the row span of ``a`` when ``w`` is None; passing both
    raises ValueError.  The Renegar condition and the flip witness need
    ``a``.  A side that touches the cone is exactly 0 wherever Gordan's
    alternative shows it from the strict side's witness, and is solved
    otherwise (see primal_dual_angles).
    """
    if w is not None and a is not None:
        raise ValueError("give w or a, not both: with a, W is its row span")
    arr = None if a is None else require_matrix(a)
    if w is None:
        w = subspace_from_rowspan(arr)
    primal, dual = primal_dual_angles(cone, w, seed=seed)
    return Analysis(cone=cone, w=w, seed=seed, a=arr, primal=primal, dual=dual)


def grassmann_condition(cone: Cone, w: Subspace, seed: int = 0) -> ConditionValue:
    """Reciprocal projection distance from W to the touching subspaces.

    1/sin of the primal angle for strictly primal feasible W, 1/sin of
    the dual angle for strictly dual feasible W, infinity when W itself
    touches the cone.
    """
    return analyze(cone, w, seed=seed).grassmann


def distance_to_primal_feasible(cone: Cone, a, seed: int = 0) -> float:
    """Spectral distance from A to the primal feasible matrices.

    Equals the minimum of ||A p|| over unit p in the dual cone: the
    rank-one perturbation -(Ap)p^T puts p into the kernel and no smaller
    perturbation can.
    """
    arr = require_matrix(a)
    if cone.dim != arr.shape[1]:
        raise DimensionError(f"cone dimension {cone.dim} != column count {arr.shape[1]}")
    return _min_image_over_dual(cone, arr, seed)[0]


def renegar_condition(cone: Cone, a, seed: int = 0) -> ConditionValue:
    """Renegar condition of A with respect to the cone.

    Exact for balanced matrices (it then equals the Grassmann condition
    of the row span), exact through the dual-route minimum for dual
    feasible instances (including rank deficient ones), and a certified
    interval [C(W), kappa(A) C(W)] for strictly primal feasible
    nonbalanced matrices.  Any of these is labelled "heuristic" instead
    when an extremum it reads came from multistart (Analysis.renegar).
    """
    arr = require_matrix(a)
    m, n = arr.shape
    if m >= n:
        raise DimensionError(f"requires m < n, got shape {arr.shape}")
    if cone.dim != n:
        raise DimensionError(f"cone dimension {cone.dim} != column count {n}")
    sigma = np.linalg.svd(arr, compute_uv=False)
    if sigma[0] == 0.0:
        raise ZeroVector("the condition of the zero matrix is undefined")
    if is_rank_deficient(sigma):
        # Rank deficiency makes A dual feasible and leaves no row span to
        # analyze; the dual-route minimum still measures the distance to
        # the primal feasible set.
        return _dual_route(float(sigma[0]), _min_image_over_dual(cone, arr, seed), "rank-deficient-")
    return analyze(cone, None, seed=seed, a=arr).renegar()


def _unit_vector(x, dim: int) -> tuple[np.ndarray, float]:
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape[0] != dim:
        raise DimensionError(f"vector length {vec.shape[0]} != expected {dim}")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVector("a nonzero vector is required")
    return vec / norm, norm


def _require_balanced(b) -> np.ndarray:
    arr = require_matrix(b)
    if not is_balanced(arr):
        raise NotBalanced("matrix rows must be orthonormal")
    return arr


def witness_image(b, x) -> PerturbationWitness:
    """Minimal rank-one perturbation pulling x into the row span of balanced B.

    The perturbation (Bp)(cos(a) x - p)^T, with p the normalized
    projection of x onto the row span and a the angle between x and the
    row span, has Frobenius norm sin(a) and no perturbation of smaller
    spectral norm achieves the inclusion.  Requires x not (numerically)
    orthogonal to the row span.
    """
    arr = _require_balanced(b)
    unit, norm = _unit_vector(x, arr.shape[1])
    alpha = angle_point_subspace(unit, Subspace(arr))
    if alpha >= math.pi / 2.0 - COMPLEMENT_BAND:
        raise XInComplement("x lies in the orthogonal complement of the row span")
    coords = arr @ unit
    cos_alpha = math.cos(alpha)
    if math.sin(alpha) == 0.0:
        return _witness(np.zeros_like(arr), "image_contains", unit, 0.0, norm)
    p = (arr.T @ coords) / cos_alpha
    delta = np.outer(arr @ p, cos_alpha * unit - p)
    residual = math.sin(angle_point_subspace(unit, subspace_from_rowspan(arr + delta)))
    return _witness(delta, "image_contains", unit, residual, norm)


def witness_kernel(b, x) -> PerturbationWitness:
    """Minimal rank-one perturbation putting x into the kernel of balanced B.

    The perturbation is -(Bx)x^T with Frobenius norm cos of the angle
    between x and the row span; it vanishes when x is already orthogonal
    to the row span.
    """
    arr = _require_balanced(b)
    unit, norm = _unit_vector(x, arr.shape[1])
    delta = -np.outer(arr @ unit, unit)
    return _witness(delta, "kernel_contains", unit, np.linalg.norm((arr + delta) @ unit), norm)


def witness_flip_dual_to_primal(cone: Cone, a, seed: int = 0) -> PerturbationWitness:
    """Minimal perturbation flipping a strictly dual feasible A to primal.

    Picks the unit p in the dual cone minimizing ||A p|| and returns
    -(Ap)p^T, which puts p into the kernel of the perturbed matrix and
    realizes the distance to the primal feasible set.
    """
    return analyze(cone, None, seed=seed, a=a).flip_witness()


def sigma_distances(cone: Cone, w: Subspace, seed: int = 0) -> tuple[float, float]:
    """Projection and geodesic distance from W to the touching subspaces.

    d_p is the reciprocal Grassmann condition (0 when ill posed) and the
    geodesic distance is arcsin(d_p).
    """
    value = analyze(cone, w, seed=seed).grassmann.value
    d_p = 0.0 if math.isinf(value) else 1.0 / value
    return d_p, math.asin(d_p)


def inclusion_radius_check(
    cone: Cone,
    w: Subspace,
    samples: int = 200_000,
    seed: int = 0,
) -> tuple[float, bool]:
    """Randomized check of the inclusion-radius characterization.

    For strictly primal feasible W, the reciprocal Grassmann condition
    equals the largest r with r * (unit ball of W) inside the projection
    K of (dual cone intersect unit ball) onto W.  That radius is the
    minimum over unit directions y of W of the support of K along y,
    and the support along y equals the norm of the dual-cone projection
    of y.  The sweep covers a deterministic direction grid with angular
    resolution INCLUSION_GRID_RESOLUTION plus ``samples`` random directions;
    a line (m = 1) takes only its grid, +-1, the whole unit sphere of W.
    Agreement means within 10 percent of 1/C(W).
    """
    if samples < 1000:
        raise ValueError("samples must be at least 1000")
    status = analyze(cone, w, seed=seed).status
    if status.tag is not Feasibility.PRIMAL_STRICT:
        raise NotPrimalFeasible(f"instance classified as {status.tag.value}")
    dual = dual_cone(cone)
    m = w.dim

    def directions():
        yield _direction_grid(m, INCLUSION_GRID_RESOLUTION, seed)
        if m == 1:
            return  # +-1 is the whole unit sphere of a line
        for chunk_index, drawn in enumerate(range(0, samples, 100_000)):
            dirs = _stream(seed, chunk_index).standard_normal((min(100_000, samples - drawn), m))
            yield dirs / np.linalg.norm(dirs, axis=1)[:, None]

    estimate = min(float(np.linalg.norm(dual.project(dirs @ w.basis), axis=1).min())
                   for dirs in directions())
    reference = math.sin(status.primal_angle)
    agreement = abs(estimate - reference) <= INCLUSION_AGREEMENT * reference
    return estimate, agreement


def _direction_grid(m: int, resolution: float, seed: int) -> np.ndarray:
    """Unit directions in R^m with angular spacing about ``resolution``."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        count = max(16, int(math.ceil(2.0 * math.pi / resolution)))
        grid = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(grid), np.sin(grid)])
    if m == 3:
        # Fibonacci sphere; covering radius is about 2.4/sqrt(count).
        count = max(64, int(math.ceil((2.4 / resolution) ** 2)))
        k = np.arange(count)
        z = 1.0 - (2.0 * k + 1.0) / count
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
        phi = k * math.pi * (3.0 - math.sqrt(5.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = _stream(seed, 2**32)
    directions = rng.standard_normal((8192, m))
    return directions / np.linalg.norm(directions, axis=1)[:, None]


def iteration_bound_estimate(condition: float, n: int) -> float:
    """Interior-point iteration count estimate sqrt(n) * ln(n * condition).

    The constant factor is fixed to one; this is a scale estimate, not a
    guarantee.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if condition < 1.0:
        raise ValueError(f"condition must be at least 1, got {condition}")
    if math.isinf(condition):
        return math.inf
    return math.sqrt(n) * math.log(n * condition)
