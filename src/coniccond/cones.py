"""Regular cone oracles and the angle between a cone and a subspace.

Cones are membership/projection/sampling oracles.  The central
computation is extremizing a positive semidefinite quadratic form over
the intersection of a cone with the unit sphere:

* for cones that are sign-isomorphic to the nonnegative orthant the
  extremum is found exactly by enumerating coordinate support sets
  (the extremizer restricted to its support is an eigenvector of the
  corresponding principal submatrix);
* an angle maximum ||P_W x|| with a basis B of W (r rows) solves only
  the realizable supports, the cells of the arrangement {B^T y = 0},
  when REALIZABLE_MIN_DIM <= n and 2r <= n, and in primal_dual_angles
  the larger side reads the complement of the smaller side's table;
  every other maximum solves all 2^n - 1 supports, each the same way;
* where such a table is the side's own and r <= CELL_ROUTE_MAX_RANK
  (2r < n), the cell route (_cell_extremum) solves every cell as the r x r
  matrix B_P B_P^T in one batched eigh, which shares its top eigenvalue
  with the principal submatrix B_P^T B_P; a rounding bound decides most
  cells, the enumeration's own code solves the rest near the top again,
  so the result keeps its bits, and where the bound decides nothing the
  table enumeration runs;
* the index tables of the enumeration depend only on (n, size) and are
  built once, on first use (_support_table, _ray_patterns);
* both extrema first solve only the supports of at most k coordinates,
  k the rank of a form K whose kernel every larger support meets:
  K = A^T A (A with k rows) for a minimum, K = I - P_W (k = n - r) for
  an angle maximum; that result is kept when K x > 0 at its point x
  proves by Gordan's alternative that no larger support can be accepted;
  otherwise the larger sizes are solved too and selected as the full
  enumeration does;
* within that cap, where K_F is positive definite, a batch of supports
  first takes a sign certificate (_sign_rejections): one batched
  inverse and a few steps of inverse iteration prove that most
  supports' eigenvectors have entries of both signs, so eigh, which
  would reject them, solves only the rest;
* both extrema skip the supports that Cauchy interlacing shows cannot
  attain them, bounded by eigh's extreme eigenvalue where a larger
  support was solved and by the sign certificate's where it was
  rejected;
* the returned point comes from the lexicographically smallest accepted
  support whose computed value is the extremum, so it attains the value
  returned with it;
* for everything else (Lorentz cones and products involving them) a
  multistart projected-gradient search returns its best run, converged
  or not, with no certificate.

primal_dual_angles builds one realizable table per instance, on the side
with the smaller subspace, and gives the other side its complement: by
Gordan's alternative no support is a cell of both sides.  It solves the
strict side first where that table shows it.  When that side is exact,
Gordan's alternative can show from its witness that the other subspace
meets the interior of the other cone (_gordan_zero); that angle is then
exactly 0 and is not solved.

A sign-orthant of more than EXACT_ENUM_LIMIT coordinates raises
DimensionError: no route here solves it exactly.

The batched kernels of the exact enumeration allocate fresh temporaries
on every call.  One block, allocated and freed at import, sets glibc's
thresholds so that the heap holds those temporaries and stays in place
between calls (see the comment at the block).
"""

from __future__ import annotations

import abc
import collections
import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConeSpecError, DimensionError, InconsistentClassification
from .grassmann import Subspace, angle_point_subspace, complement
from .tolerances import (ANGLE_THRESHOLD, ASCENT_MAX_STEPS, ASCENT_MIN_GAIN, ASCENT_MIN_NORM,
                         ASCENT_MIN_STEP, CELL_ROUNDING, GENERAL_POSITION_TOL, GORDAN_MARGIN,
                         INTERLACING_MARGIN, INVERSE_ROUNDING, MEMBERSHIP_TOL,
                         PRODUCT_WEIGHT_FLOOR, SIGN_CERT_COND_LIMIT, SIGN_CERT_ROUNDING,
                         SIGNABLE_TOL, SMALL_ANGLE)

# glibc maps a block above its mmap threshold (128 KiB by default), unmaps it
# when freed, and trims the heap top once more than its trim threshold is free.
# Freeing a mapped block of up to 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit)
# raises the mmap threshold to its size and the trim threshold to twice that
# (mallopt(3), M_MMAP_THRESHOLD).  This untouched 30 MiB block does so at
# import, so the batched kernels' temporaries come from a heap that stays in
# place.  Over three n = 16 analyses after three warm-up ones, 4 and 16 MiB
# blocks left 12 861 and 7 309 minor page faults (the heap top still passed the
# trim threshold); 30 MiB left 0.  Under another allocator, or where the
# process sets M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_THRESHOLD or M_MMAP_MAX (by
# mallopt or a MALLOC_*_ variable), it changes nothing.
np.empty(30 << 17)

# Orthant enumeration is exact but exponential; past this many coordinates a
# sign-orthant raises DimensionError.
EXACT_ENUM_LIMIT = 16
# Below this many coordinates building the realizable-support table costs
# more than the full enumeration it would shorten.  One maximum, full
# enumeration against the table route, medians over 20 Gaussian bases of the
# best of 15 calls (2 cores, numpy 2.4.6): at n = 6 the table wins only at r = 1
# (0.56 against 0.43 ms) and loses at r = 2 (0.46 against 0.61 ms) and r = 3
# (0.34 against 0.59 ms).  At n = 7 it wins at r = 1 (0.90 against 0.43 ms) and
# r = 2 (0.77 against 0.62 ms) and loses at r = 3 (0.64 against 0.78 ms); at
# n = 8 it wins at every r <= n/2, 1.38 against 0.94 ms at r = 3 and 2.05
# against 1.72 ms at r = 4.  The cell route (below) does not lower it: at n = 5
# the table and the cell route lose to the full enumeration at r = 1 (0.37
# against 0.31 ms) and r = 2 (0.27 against 0.15 ms), and at n = 6 they win at
# r = 1 (0.24 against 0.28 ms) and lose at r = 2 (0.26 against 0.22 ms).  Built
# for the cell route at n = 5 and 6, primal_dual_angles over 200 of the report
# benchmark's seed 1 inputs per shape took 0.357 against 0.362 ms at (2, 6),
# 0.448 against 0.451 at (3, 6) and 0.374 against 0.391 at (4, 6) (best of 5).
REALIZABLE_MIN_DIM = 7
# An angle maximum whose basis has at most this many rows, with 2r < n, solves
# its realizable table by the cell route (_cell_extremum): one r x r matrix per
# cell in place of its principal submatrix.  One maximum with its table built,
# the cell route against the table enumeration, medians over 20 Gaussian bases
# of the best of 15 calls (2 cores, numpy 2.4.6): r = 2 is 1.8x faster at n = 8
# and 2.2-2.8x at n = 10-16; r = 3 is 1.2x at n = 8, 1.8x at n = 10, 2.5x at
# n = 12 and 3.5x at n = 16; r = 4 is 1.08x at n = 8, 1.04x at n = 10 and
# 1.4-2.1x at n = 12-16; r = 5 and 6 lose (0.42-0.97x).  Re-time r = 4 before
# widening this.
CELL_ROUTE_MAX_RANK = 3
MULTISTART_COUNT = 64
# The sign certificate's inverse iteration takes 2^this steps, by squaring the
# inverse (_sign_rejections).  Over seed 1 orthant-ensemble chunks 0-59, eigh
# solves 339 340 matrices unscreened; 73 781 remain after four steps, 46 654
# after eight and 39 308 after sixteen.  Eight and sixteen took 1.77 and 1.74 s
# against 2.10 s for four and 2.53 s unscreened (medians of 4 runs, 2 cores,
# numpy 2.4.6), so more steps buy nothing.
SIGN_CERT_SQUARINGS = 3
# The sign certificate screens only batches of at least this many supports; a
# smaller batch goes to eigh whole.  The certificate costs about 220 us per
# batch, most of it one vectorized step per pivot of its inverse, plus 1.0-1.6
# us per matrix of 4 to 6 rows, a fifth of eigh's 4.8-8.7 us.  Timing each
# batch of seed 1 orthant-ensemble chunks 0-29 and orthant-report ops 0-179
# both ways (best of 7, 2 cores, numpy 2.4.6), batches of 64-95 supports lost
# 15 us each to the screen and batches of 96-127 gained 109 us; the summed time
# was flat from 64 to 96 (513.7 and 513.1 ms) against 1240.7 ms unscreened.
SIGN_CERT_MIN_BATCH = 64


def _stream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-index generator derived from a caller seed."""
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, index % 2**64]))


class Cone(abc.ABC):
    """A regular cone in R^n: closed, convex, solid, pointed."""

    # The sign vector d with x in C iff d*x >= 0 (read-only), or None if
    # C is not of that form; such cones take the exact enumeration.
    orthant_signs: np.ndarray | None = None

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Number of coordinates."""

    @abc.abstractmethod
    def contains(self, x) -> bool:
        """Whether x violates the cone's inequality by at most MEMBERSHIP_TOL."""

    @abc.abstractmethod
    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection of a point, or of each row of a (count, dim) stack."""

    def dual(self) -> "Cone":
        """The cone of directions with nonpositive inner product against self.

        Every supported cone is self-dual, so this is its negation -C.
        """
        return Negated(self)

    @abc.abstractmethod
    def sample_units(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, dim) array of unit vectors inside the cone."""

    @abc.abstractmethod
    def extreme_unit_rays(self, limit: int) -> np.ndarray:
        """Deterministic unit vectors on extreme rays, at most ``limit``."""

    @abc.abstractmethod
    def spec(self) -> str:
        """Textual form; parse_cone reads it back to an equal cone."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"


class Orthant(Cone):
    """The nonnegative orthant of R^n."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"orthant dimension must be >= 1, got {n}")
        self._n = int(n)
        self.orthant_signs = np.ones(self._n)
        self.orthant_signs.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._n

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -MEMBERSHIP_TOL))

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def sample_units(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # Absolute Gaussians, half of them restricted to a random
        # coordinate face: minima of angle functionals often sit on
        # low-dimensional faces that full-support samples cannot reach.
        pts = np.abs(rng.standard_normal((count, self._n)))
        restrict = rng.random(count) < 0.5
        keep = rng.random((count, self._n)) < 0.5
        keep[~restrict] = True
        empty = ~keep.any(axis=1)
        keep[empty, rng.integers(0, self._n, int(empty.sum()))] = True
        pts *= keep
        norms = np.linalg.norm(pts, axis=1)
        norms[norms == 0.0] = 1.0
        return pts / norms[:, None]

    def extreme_unit_rays(self, limit: int) -> np.ndarray:
        k = min(limit, self._n)
        return np.eye(self._n)[:k]

    def spec(self) -> str:
        return f"orthant:{self._n}"


class Lorentz(Cone):
    """Second order cone: last coordinate dominates the norm of the rest."""

    def __init__(self, n: int):
        if n < 2:
            raise DimensionError(f"lorentz cone dimension must be >= 2, got {n}")
        self._n = int(n)

    @property
    def dim(self) -> int:
        return self._n

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(x[-1] >= np.linalg.norm(x[:-1]) - MEMBERSHIP_TOL)

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            # One point, multistart's per-step call: scalar arithmetic is
            # several times faster than the row-wise body below.
            head, t = x[:-1], float(x[-1])
            r = float(np.linalg.norm(head))
            if r <= t:
                return x.copy()
            if r <= -t:
                return np.zeros_like(x)
            coeff = 0.5 * (r + t)
            out = np.empty_like(x)
            out[:-1] = head * (coeff / r)
            out[-1] = coeff
            return out
        head, t = x[:, :-1], x[:, -1]
        # Row norms as dot products, the way np.linalg.norm takes the norm
        # of one vector, so each row projects to the same bits as the point.
        r = np.sqrt(np.matmul(head[:, None, :], head[:, :, None])[:, 0, 0])
        out = x.copy()
        outside = r > t
        out[outside & (r <= -t)] = 0.0
        mid = outside & (r > -t)
        coeff = 0.5 * (r[mid] + t[mid])
        out[mid, :-1] = head[mid] * (coeff / r[mid])[:, None]
        out[mid, -1] = coeff
        return out

    def sample_units(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # Mixture of boundary rays (r = 1) and interior points with the
        # cross-section angle uniform on the disk.
        dirs = rng.standard_normal((count, self._n - 1))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0.0] = 1.0
        dirs /= norms[:, None]
        radii = np.where(rng.random(count) < 0.5, 1.0, np.sqrt(rng.random(count)))
        pts = np.concatenate([dirs * radii[:, None], np.ones((count, 1))], axis=1)
        return pts / np.linalg.norm(pts, axis=1)[:, None]

    def extreme_unit_rays(self, limit: int) -> np.ndarray:
        # (e_last + e_i) / sqrt(2), then (e_last - e_i) / sqrt(2), for i = 1, 2, ...
        rays = np.zeros((2 * (self._n - 1), self._n))
        head = np.arange(self._n - 1)
        rays[2 * head, head] = 1.0 / np.sqrt(2.0)
        rays[2 * head + 1, head] = -1.0 / np.sqrt(2.0)
        rays[:, -1] = 1.0 / np.sqrt(2.0)
        return rays[:limit]

    def spec(self) -> str:
        return f"lorentz:{self._n}"


class Product(Cone):
    """Cartesian product of cones acting on consecutive coordinate blocks."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise DimensionError("product cone needs at least one factor")
        self._factors = factors
        self._offsets = np.cumsum([0] + [c.dim for c in factors])
        signs = [c.orthant_signs for c in factors]
        if all(d is not None for d in signs):
            self.orthant_signs = np.concatenate(signs)
            self.orthant_signs.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self._offsets[-1])

    def _blocks(self, x: np.ndarray):
        for cone, lo, hi in zip(self._factors, self._offsets, self._offsets[1:]):
            yield cone, x[..., lo:hi]

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return all(cone.contains(block) for cone, block in self._blocks(x))

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.concatenate([cone.project(block) for cone, block in self._blocks(x)], axis=-1)

    def sample_units(self, rng: np.random.Generator, count: int) -> np.ndarray:
        parts = []
        weights = np.abs(rng.standard_normal((count, len(self._factors)))) + PRODUCT_WEIGHT_FLOOR
        for j, cone in enumerate(self._factors):
            parts.append(cone.sample_units(rng, count) * weights[:, j, None])
        pts = np.concatenate(parts, axis=1)
        return pts / np.linalg.norm(pts, axis=1)[:, None]

    def extreme_unit_rays(self, limit: int) -> np.ndarray:
        rays = []
        for cone, lo, hi in zip(self._factors, self._offsets, self._offsets[1:]):
            for ray in cone.extreme_unit_rays(limit - len(rays)):
                full = np.zeros(self.dim)
                full[lo:hi] = ray
                rays.append(full)
                if len(rays) >= limit:
                    return np.array(rays)
        return np.array(rays) if rays else np.zeros((0, self.dim))

    def spec(self) -> str:
        return "product(" + ",".join(c.spec() for c in self._factors) + ")"


class Negated(Cone):
    """The pointwise negation -C of another cone."""

    def __init__(self, inner: Cone):
        self._inner = inner
        if inner.orthant_signs is not None:
            self.orthant_signs = -inner.orthant_signs
            self.orthant_signs.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._inner.dim

    def contains(self, x) -> bool:
        return self._inner.contains(-np.asarray(x, dtype=float))

    def project(self, x: np.ndarray) -> np.ndarray:
        return -self._inner.project(-np.asarray(x, dtype=float))

    def dual(self) -> Cone:
        """The dual of -C is C, since C is self-dual."""
        return self._inner

    def sample_units(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return -self._inner.sample_units(rng, count)

    def extreme_unit_rays(self, limit: int) -> np.ndarray:
        return -self._inner.extreme_unit_rays(limit)

    def spec(self) -> str:
        return f"negated({self._inner.spec()})"


def cone_membership(cone: Cone, x) -> bool:
    """Membership oracle with a dimension check."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != cone.dim:
        raise DimensionError(f"vector length {x.shape[0]} != cone dimension {cone.dim}")
    return cone.contains(x)


def dual_cone(cone: Cone) -> Cone:
    return cone.dual()


def parse_cone(text: str) -> Cone:
    """Parse ``orthant:n``, ``lorentz:n``, ``product(spec,...)`` or ``negated(spec)``, any case.

    Every cone's ``spec()`` parses back to an equal cone, nested at any depth.
    """
    spec = text.strip().lower()
    if not spec:
        raise ConeSpecError("empty cone specification")
    if spec.startswith("product"):
        return Product([parse_cone(p) for p in _arguments(spec, "product", text)])
    if spec.startswith("negated"):
        parts = _arguments(spec, "negated", text)
        if len(parts) != 1:
            raise ConeSpecError(f"negated takes one cone in {text!r}")
        return Negated(parse_cone(parts[0]))
    name, sep, arg = spec.partition(":")
    if sep != ":":
        raise ConeSpecError(f"expected 'name:dim' in {text!r}")
    try:
        n = int(arg)
    except ValueError:
        raise ConeSpecError(f"bad dimension {arg!r} in {text!r}") from None
    name = name.strip()
    if name == "orthant":
        return Orthant(n)
    if name == "lorentz":
        return Lorentz(n)
    raise ConeSpecError(f"unknown cone {name!r} in {text!r}")


def _arguments(spec: str, name: str, text: str) -> list[str]:
    """The top-level comma-separated parts of ``name(part,...)``, for parse_cone."""
    body = spec[len(name):].strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ConeSpecError(f"malformed {name} specification: {text!r}")
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body[1:-1]):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and depth == 0:
            parts.append(body[1 + start:1 + i])
            start = i + 1
    if depth != 0:
        raise ConeSpecError(f"unbalanced parentheses in {text!r}")
    parts.append(body[1 + start:-1])
    return parts


@dataclass(frozen=True)
class QuadraticExtremum:
    """Extremum of x^T M x over (cone intersect unit sphere)."""

    value: float
    point: np.ndarray           # a point whose own value is value
    method: str                 # "exact" | "multistart"
    converged_values: np.ndarray  # converged runs' values, best first, possibly empty; exact: one
    route: str                  # "cells" | "table" | "enumeration" | "multistart"
    # What an exact route cost, 0 for multistart: the matrices eigh solved, the
    # supports the sign certificate rejected and those the interlacing cascade pruned.
    solved: int
    rejected: int
    pruned: int


def _angle_of_cos2(lam: float) -> float:
    """arccos(sqrt(lam)), lam clipped to [0, 1]; accurate near both ends."""
    lam = min(max(lam, 0.0), 1.0)
    return float(np.arctan2(np.sqrt(1.0 - lam), np.sqrt(lam)))


@functools.lru_cache(maxsize=None)
def _support_table(n: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the supports F of one size of n coordinates, built on first use (read-only).

    (combos, masks, gather, supersets), one row per support in
    lexicographic order: its coordinates; its int32 bitmask; the flat
    indices of M[F, F] in an n x n matrix, so that np.take(M, gather) is
    the stack of principal submatrices; and the int32 masks of F with one
    coordinate added (F itself where the coordinate is in F).  Indices
    take the smallest unsigned type, uint8 for n <= 16.
    """
    combos = np.array(list(itertools.combinations(range(n), size)),
                      dtype=np.min_scalar_type(max(n - 1, 0)))
    gather = combos.astype(np.min_scalar_type(n * n - 1))
    gather = gather[:, :, None] * gather.dtype.type(n) + gather[:, None, :]
    masks = (np.int32(1) << combos.astype(np.int32)).sum(axis=1, dtype=np.int32)
    supersets = masks[:, None] | (np.int32(1) << np.arange(n, dtype=np.int32))
    for table in (combos, masks, gather, supersets):
        table.flags.writeable = False
    return combos, masks, gather, supersets


@functools.lru_cache(maxsize=None)
def _ray_patterns(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(off, on) for the rays of _realizable_supports from the size-subsets S, built on first use.

    One row per S, as _support_table orders them (read-only): off marks
    the coordinates outside S, and on holds the int32 bitmasks within S
    of all 2^size sign choices on S.
    """
    combos = _support_table(n, size)[0]
    off = np.ones((len(combos), n), dtype=bool)
    off[np.arange(len(combos))[:, None], combos] = False
    choices = np.arange(1 << size, dtype=np.int32)[:, None] >> np.arange(size, dtype=np.int32)
    choices &= 1
    on = (np.int32(1) << combos.astype(np.int32)) @ choices.T
    off.flags.writeable = on.flags.writeable = False
    return off, on


def _realizable_supports(basis: np.ndarray) -> np.ndarray | None:
    """Table over support bitmasks: True for the positive sets of B^T y, y in R^r.

    The maximizer x of ||B x|| over unit x >= 0 has such a support: by
    the KKT conditions (B^T B x)_i = lam x_i > 0 on it and <= 0 off it.
    These sets are the cells of the central arrangement {B^T y = 0}.  In
    general position each cell has a ray on r - 1 of the hyperplanes:
    for each (r-1)-subset S of columns the ray is the null line of X_S =
    B_S^T, and the cells around it take the signs of B^T rho off S and
    every sign on S.  One batched _spd_inverse of the Gram matrices G =
    X_S X_S^T gives each ray, read only up to sign and scale, as a column
    of the projector I - X_S^T G^-1 X_S onto that line, and the length
    sqrt(det G) of the signed cofactor ray (Cauchy-Binet).

    Returns None when the arrangement is not in general position within
    GENERAL_POSITION_TOL: a vanishing cofactor ray, or a ray on another
    hyperplane.  A column b_i that small is one of these: since r - 1 < n
    some S omits i, and |(B^T rho)_i| <= ||b_i|| for its unit ray rho.  A
    sign is read only where the entry exceeds GENERAL_POSITION_TOL plus
    the computed ray v's error bound: v = c rho + w with rho the unit
    null vector, ||w|| <= ||X_S v|| / sigma_min(X_S), sigma_min^-2 <=
    ||G^-1||_F (_inverse_norm_bound), so (B^T v)_i is within ||b_i|| ||w||
    of c (B^T rho)_i; INVERSE_ROUNDING covers the rounding of these entries.
    Where the bound fails, None too.
    """
    r, n = basis.shape
    norms = np.linalg.norm(basis, axis=0)
    subsets, _, gather, _ = _support_table(n, r - 1)
    rows = basis.T[subsets]                           # X_S, (rays, r - 1, r)
    # G = X_S X_S^T = (B^T B)[S, S], read off one n x n product.
    gram = np.take(basis.T @ basis, gather)
    inverse, det = _spd_inverse(gram)
    column_norms = norms[subsets]
    if not np.all(np.sqrt(det) > GENERAL_POSITION_TOL * np.prod(column_norms, axis=1)):
        return None
    # Each ray is the column of the null projector I - X_S^T G^-1 X_S with the
    # largest diagonal entry 1 - x_j^T G^-1 x_j, x_j the columns of X_S.
    rays_index = np.arange(len(subsets))
    solved = inverse @ rows                           # G^-1 X_S
    lead = np.argmin(np.einsum("baj,baj->bj", rows, solved), axis=1)
    rays = -np.einsum("baj,ba->bj", rows, solved[rays_index, :, lead])
    rays[rays_index, lead] += 1.0
    rays /= np.sqrt(np.einsum("bi,bi->b", rays, rays))[:, None]
    # B^T v for unit rays v; its off-S entries are the coordinates of x they give.
    entries = rays @ basis
    off, on_s = _ray_patterns(n, r - 1)
    trace = np.einsum("bi,bi->b", column_norms, column_norms)   # tr G = ||X_S||_F^2
    # A bound on ||X_S v||, the on-S entries of B^T v.
    on_entries = np.einsum("bij,bj->bi", rows, rays)
    residual = (np.sqrt(np.einsum("bi,bi->b", on_entries, on_entries))
                + INVERSE_ROUNDING * np.sqrt(trace))
    drift = residual * np.sqrt(_inverse_norm_bound(gram, inverse, trace)[0]) + INVERSE_ROUNDING
    if not np.all((np.abs(entries) > GENERAL_POSITION_TOL + drift[:, None] * norms) | ~off):
        return None
    bits = np.int64(1) << np.arange(n)
    table = np.zeros(1 << n, dtype=bool)
    for side in (entries > 0.0, entries < 0.0):
        table[((side & off) @ bits)[:, None] | on_s] = True
    return table


def _spd_inverse(mats):
    """(inverses, pivot products) of a (batch, k, k) stack of symmetric positive definite matrices.

    Gauss-Jordan elimination without pivoting, run along the batch axis:
    the stack is copied to a (k, k, batch) array, so each pivot is one
    vectorized step over every matrix, and the input is left unchanged.
    The pivots are those of the LDL^T factorization, all positive exactly
    when the matrix is positive definite, and their product is its
    determinant.  A pivot that is not positive makes that matrix's
    inverse and product NaN, and no other's.  Nothing here bounds the
    inverse's error; _inverse_norm_bound does, from its residual.  Both
    results are fresh arrays.
    """
    k = mats.shape[-1]
    # copy(), not ascontiguousarray: a batch of one moves to a contiguous view.
    work = mats.transpose(1, 2, 0).copy()
    pivots = np.empty((k, len(mats)))
    with np.errstate(all="ignore"):
        for p in range(k):
            pivots[p] = work[p, p]
            col = work[:, p].copy()
            col[p] = 0.0
            work[:, p] = 0.0
            work[p, p] = 1.0
            work[p] /= pivots[p]
            work -= col[:, None] * work[p]
        det = np.prod(pivots, axis=0)
        bad = ~np.all(pivots > 0.0, axis=0)
        if bad.any():
            work[:, :, bad] = np.nan
            det[bad] = np.nan
    return work.transpose(2, 0, 1).copy(), det


def _inverse_norm_bound(mats, inverse, scale):
    """(bound, e) for each K of a stack: bound >= ||K^-1||_F (or NaN) and e >= ||I - K X||_F.

    K X = I - E gives K^-1 = X (I - E)^-1, so ||K^-1||_F <= ||X||_F / (1 - e)
    for any e >= ||E||_F below 1.  e is the computed ||I - K X||_F plus
    INVERSE_ROUNDING times ``scale`` ||X||_F, ``scale`` a bound on ||K||_F
    (see INVERSE_ROUNDING); the bound is NaN where e >= 1 or X is not finite.
    """
    with np.errstate(all="ignore"):
        x_norm = np.sqrt(np.einsum("bij,bij->b", inverse, inverse))
        k = mats.shape[-1]
        residual = mats @ inverse                     # K X, then K X - I in place
        residual.reshape(len(mats), k * k)[:, ::k + 1] -= 1.0
        e = np.sqrt(np.einsum("bij,bij->b", residual, residual)) + INVERSE_ROUNDING * scale * x_norm
        return np.where(e < 1.0, x_norm / (1.0 - e), np.nan), e


def _enumerate_orthant_extremum(m_mat: np.ndarray, maximize: bool, realizable=None, cap=None,
                                tally=None):
    """Exact extremum of y^T M y over unit y >= 0 by support enumeration.

    The extremizer restricted to its support F is an eigenvector of
    M[F, F]; a candidate is accepted when that eigenvector can be signed
    nonnegative.  Returns (value, point) as _best_candidate does: the
    point comes from the lexicographically smallest accepted support whose
    value is the extremum.  Sizes are visited from n down to 1; neither
    the value nor the point depends on that order.

    With ``realizable`` (for a maximum a table from _realizable_supports,
    or the complement of the other side's) only the supports it marks are
    solved, each as in the full enumeration, so an accepted value keeps
    its bits.

    With ``cap`` = k, the rank of a positive semidefinite form K: K = M
    for a minimum (M = A^T A, A with k rows), K = I - M for a maximum (M
    the projector onto W, k = n - dim W).  Every support of more than k
    coordinates meets the kernel of K, so an accepted one would give a
    point of the orthant near that kernel.  The supports of at most k
    coordinates are solved first.  Let x be their best candidate and
    w = K x', where a maximum's x' adds ||K x|| e_i to x for each i with
    M_ii = 0 (there K e_i = e_i), and a minimum's x' = x.
    When min w > GORDAN_MARGIN (||K|| x'^T K x')^(1/2), w > 0 and Gordan's
    alternative keep the kernel of K away from the orthant, so no larger
    support can be accepted (see GORDAN_MARGIN), and x is returned with
    the bits of the full enumeration.  Otherwise the larger sizes are
    solved as well, and the best candidate of every size is returned.

    Both extrema prune by Cauchy interlacing: for T in S, lambda_min(M_T)
    >= lambda_min(M_S) and lambda_max(M_T) <= lambda_max(M_S).  After each
    size, every support it reached whose bound on the extreme eigenvalue
    (lambda_min from below for a minimum, lambda_max from above for a
    maximum) lies beyond the best accepted value by more than ``margin``
    = 2 INTERLACING_MARGIN max(1, ||K||) is marked dominated.  Before each
    size, every support with a dominated one-larger superset is marked
    too and skipped.  A computed eigenvalue errs by about n eps ||M||,
    far below the margin, and the best value only improves, so a
    dominated support's computed value could neither attain nor tie the
    final extremum, and the result keeps its bits.  The dominated table
    is kept apart from the holes of ``realizable``: a hole is skipped but
    bounds nothing, so holes never cascade, and a minimum may take a
    table too.

    Within the cap (with ``cap`` = k, the sizes of at most k
    coordinates), where K_F = M_F for a minimum and I - M_F for a maximum
    is positive definite unless singular, a batch of at least
    SIGN_CERT_MIN_BATCH supports first takes the sign certificate of
    _sign_rejections.  A support it rejects is one whose extreme
    eigenvector eigh would find unsignable, so eigh solves only the
    others, and accepted candidates still come from eigh alone with the
    same bits.  For a rejected support the cascade reads the
    certificate's lower bound on lambda_min(K_F) in place of eigh's
    value: that bound itself for a minimum, 1 minus it for a maximum's
    lambda_max.  Either is a valid bound, so the result keeps its bits.

    ``tally``, a collections.Counter, gains the supports eigh solved
    ("solved"), those the certificate rejected ("rejected") and those the
    cascade skipped that ``realizable`` marks ("pruned").
    """
    n = m_mat.shape[0]
    sym = 0.5 * (m_mat + m_mat.T)
    holes = np.zeros(1 << n, dtype=bool) if realizable is None else ~realizable
    dominated = np.zeros(1 << n, dtype=bool)
    # The cascade compares sign * value, so that a smaller one is better for both extrema.
    sign = -1.0 if maximize else 1.0
    best = np.inf
    # A bound on ||K||: the largest absolute row sum of K = M, or 1 for the
    # projector I - M.
    norm_k = 1.0 if maximize else float(np.abs(sym).sum(axis=1).max())
    margin = 2.0 * INTERLACING_MARGIN * max(1.0, norm_k)
    tally = collections.Counter() if tally is None else tally
    # Accepted (values, supports, vectors) by support size; a 1x1
    # eigenvector can always be signed, so size 1 accepts every row.
    accepted_by_size = {}

    def solve(sizes):
        nonlocal best
        for size in sizes:
            combos, masks, gather, supersets = _support_table(n, size)
            dominated[masks] = dominated[supersets].any(axis=1)
            keep = ~holes[masks]
            reached = keep & ~dominated[masks]
            tally["pruned"] += int(np.count_nonzero(keep)) - int(np.count_nonzero(reached))
            combos, masks, gather = combos[reached], masks[reached], gather[reached]
            if not len(combos):
                continue
            subs = np.take(sym, gather)
            # sign times a bound on the extreme eigenvalue: lambda_min from below for a
            # minimum, lambda_max from above for a maximum.
            bounds = np.empty(len(combos))
            solved = np.ones(len(combos), dtype=bool)
            if cap is not None and size <= cap and len(combos) >= SIGN_CERT_MIN_BATCH:
                rejected, lower = _sign_rejections(subs, maximize)
                solved = ~rejected
                # lower bounds lambda_min(K_F); K_F = I - M_F for a maximum.
                bounds[rejected] = (lower - 1.0 if maximize else lower)[rejected]
                combos, subs = combos[solved], subs[solved]
            lams = np.empty(0)
            if len(combos):
                eigvals, vecs, accepted = _eigh_candidates(subs, maximize)
                bounds[solved] = sign * eigvals[:, size - 1 if maximize else 0]
                lams = eigvals[accepted, size - 1 if maximize else 0]
                accepted_by_size[size] = (lams, combos[accepted], vecs[accepted])
            tally["solved"] += len(combos)
            tally["rejected"] += len(solved) - len(combos)
            best = min(best, float((sign * lams).min(initial=np.inf)))
            dominated[masks[bounds > best + margin]] = True

    def certified(x):
        """Whether w = K x' exceeds GORDAN_MARGIN (||K|| x'^T K x')^(1/2) in every entry."""
        if maximize:
            x = x + np.linalg.norm(x - sym @ x) * (np.diag(sym) == 0.0)
        w = x - sym @ x if maximize else sym @ x
        return float(w.min()) > GORDAN_MARGIN * np.sqrt(max(norm_k * float(x @ w), 0.0))

    first = n if cap is None else min(n, cap)
    solve(range(first, 0, -1))
    result = _best_candidate(accepted_by_size.values(), maximize, n)
    if first < n and (result is None or not certified(result[1])):
        solve(range(n, first, -1))
        result = _best_candidate(accepted_by_size.values(), maximize, n)
    return result


def _sign_rejections(subs, maximize):
    """(rejected, lower) over a batch of principal submatrices M_F, as eigh would see them.

    K_F = M_F for a minimum and I - M_F for a maximum, positive definite
    within the Gordan cap unless singular; eigh reads the lambda_min
    eigenvector of K_F off M_F either way.  rejected marks each support
    whose eigenvector provably has an entry below -SIGNABLE_TOL and one
    above SIGNABLE_TOL, with a margin for eigh's own rounding, so eigh
    would reject it too.  lower bounds lambda_min(K_F) from below
    wherever rejected is set.

    One batched _spd_inverse gives X ~ K^-1, and _inverse_norm_bound a
    bound beta >= ||K^-1||_F from its residual.  2^SIGN_CERT_SQUARINGS
    steps of inverse iteration with X from the ones vector give a unit x,
    its Rayleigh quotient theta >= lambda_1 and the residual r = K x -
    theta x.  Since sum_i lambda_i^-2 = ||K^-1||_F^2 <= beta^2 and theta^-2
    <= lambda_1^-2, lambda_2 >= tau = (beta^2 - theta^-2)^(-1/2).  With
    tau > theta the Davis-Kahan sin theta theorem gives sin angle(x, u)
    <= ||r|| / (tau - theta) for the lambda_1 eigenvector u, so ||u - x||
    <= sqrt(2) times that for the sign of u nearer x, and the
    Kato-Temple inequality gives lambda_1 >= theta - ||r||^2 / (tau -
    theta).  The inverse's error enters only through beta, so x needs no
    accuracy; SIGN_CERT_ROUNDING covers the rest of the rounding: ||r||,
    the gap and eigh's eigenvector error each move by itself times nu, a
    bound on the norms of K_F and M_F.  Only K_F with ||K_F||_F beta <=
    SIGN_CERT_COND_LIMIT are trusted.  A K_F with a pivot that is not
    positive, singular or indefinite, has a NaN inverse and is not
    rejected; the rest of the batch is still screened.
    """
    k_mats = np.eye(subs.shape[-1]) - subs if maximize else subs
    inverse, _ = _spd_inverse(k_mats)
    with np.errstate(all="ignore"):
        k_norm = np.sqrt(np.einsum("bij,bij->b", k_mats, k_mats))
        beta, _ = _inverse_norm_bound(k_mats, inverse, k_norm)
        # K^-(2^s) 1 by s squarings of the scaled inverse, in two buffers.
        power, spare = inverse, np.empty_like(inverse)
        power /= beta[:, None, None]
        for _ in range(SIGN_CERT_SQUARINGS):
            power, spare = np.matmul(power, power, out=spare), power
        # x and the vectors below are (k, batch): reductions over the long axis are faster.
        x = np.einsum("bij->ib", power)
        x /= np.sqrt(np.einsum("ib,ib->b", x, x))
        kx = np.einsum("bij,jb->ib", k_mats, x)
        theta = np.einsum("ib,ib->b", x, kx)
        r = kx - theta * x
        residual = np.sqrt(np.einsum("ib,ib->b", r, r))
        condition = k_norm * beta
        # SIGN_CERT_ROUNDING times nu; a maximum's M_F = P_F has ||P_F|| <= 1.
        round_off = SIGN_CERT_ROUNDING * (np.maximum(k_norm, 1.0) if maximize else k_norm)
        rest = beta ** 2 - theta ** -2.0
        gap = rest ** -0.5 - theta - round_off
        # One round_off for the rounding of r, one for eigh's eigenvector error times the gap.
        residual += 2.0 * round_off
        slack = SIGNABLE_TOL + np.sqrt(2.0) * residual / gap
        rejected = ((condition <= SIGN_CERT_COND_LIMIT) & (theta > 0.0) & (rest > 0.0)
                    & (gap > 0.0) & (x.min(axis=0) < -slack) & (x.max(axis=0) > slack))
        lower = theta - residual ** 2 / gap - round_off
    return rejected, lower


def _eigh_candidates(subs, maximize):
    """(eigvals, vecs, accepted) of a stack of principal submatrices, as the enumeration decides.

    vecs holds each extreme eigenvector (lambda_max for a maximum,
    lambda_min for a minimum), signed so that its entry of largest
    magnitude is nonnegative; accepted marks those that dip at most
    SIGNABLE_TOL below zero.  numpy's eigh solves each matrix of a stack
    by its own LAPACK call, so a support's result does not depend on the
    batch it is solved in.
    """
    eigvals, eigvecs = np.linalg.eigh(subs)
    vecs = eigvecs[:, :, subs.shape[-1] - 1 if maximize else 0]
    lead = np.argmax(np.abs(vecs), axis=1)
    lead_sign = vecs[np.arange(len(vecs)), lead]
    vecs = vecs * np.where(lead_sign < 0.0, -1.0, 1.0)[:, None]
    return eigvals, vecs, vecs.min(axis=1) >= -SIGNABLE_TOL


@functools.lru_cache(maxsize=None)
def _cell_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(masks, sizes, rows) of the nonempty supports of n coordinates, built once, read-only.

    The int32 bitmasks come by size, and within a size in the
    lexicographic order of _support_table; sizes holds each support's
    size and rows its row in that size's table.
    """
    tables = [_support_table(n, size)[1] for size in range(1, n + 1)]
    masks = np.concatenate(tables)
    sizes = np.repeat(np.arange(1, n + 1), [len(t) for t in tables])
    rows = np.concatenate([np.arange(len(t)) for t in tables])
    for index in (masks, sizes, rows):
        index.flags.writeable = False
    return masks, sizes, rows


def _cell_extremum(m_mat, basis, realizable, tally=None):
    """max y^T M y over unit y >= 0 from the r x r matrices of the supports, or None.

    M = B^T B for ``basis`` B (r rows).  Returns (value, point) with the
    bits of _enumerate_orthant_extremum(M, True, realizable), or None
    where the bound below cannot decide.  ``tally``, a
    collections.Counter, gains the matrices eigh solves ("solved"), each
    cell's and each support's solved again.

    For a support P, G_P = B_P B_P^T and M_P = B_P^T B_P share their
    nonzero eigenvalues mu_1 >= mu_2 >= ..., so M_P's second eigenvalue is
    mu_2 (0 where r = 1), and a top eigenvector y of G_P gives M_P's as
    B_P^T y / sqrt(mu_1).  One product of the supports' 0/1 rows with
    the outer products b_i b_i^T forms every G_P, and one batched eigh
    solves them all.

    With rho = CELL_ROUNDING tr G_P, the computed mu_1 lies within 2 rho of
    the top eigenvalue eigh computes from M_P, and where delta = mu_1 -
    mu_2 - 3 rho > 0 the unit vector v = B_P^T y / ||B_P^T y|| lies within
    e = 2 sqrt(2) rho / delta + CELL_ROUNDING of M_P's computed top
    eigenvector, up to sign, in every entry (see CELL_ROUNDING): each
    computed eigenvector errs by at most rho / delta in angle
    (Davis-Kahan), and y -> B_P^T y widens no angle to the top
    eigenvector y*, since B_P^T y* is orthogonal to B_P^T z for z
    orthogonal to y*, and ||B_P^T z|| <= sqrt(mu_1).  So a support is
    surely accepted when v, signed by its entry of largest magnitude, has
    no entry on P below e - SIGNABLE_TOL: M_P's eigenvector, signed alike,
    has none below -SIGNABLE_TOL, and its entry of largest magnitude, at
    least |P|^(-1/2), is then positive, so the enumeration's signing keeps
    that sign.  It is surely rejected when v has an entry above
    SIGNABLE_TOL + e and one below -(SIGNABLE_TOL + e), since then so does
    M_P's eigenvector, whatever its sign.

    The largest mu_1 - 2 rho of a surely accepted support, L, is at most
    the enumeration's maximum.  A support with mu_1 + 2 rho < L cannot
    attain it, nor can a surely rejected one; every other support is
    solved again by the enumeration's own code (np.take of its principal
    submatrix, _eigh_candidates), which gives it the enumeration's bits,
    and _best_candidate picks the winner among them as the enumeration
    does.  None when a computed mu is not finite or no support is surely
    accepted.
    """
    r, n = basis.shape
    masks, sizes, rows = _cell_index(n)
    keep = realizable[masks]
    masks, sizes, rows = masks[keep], sizes[keep], rows[keep]
    # (n, cells) arrays from here on: reductions over the long axis are faster.
    inside = ((masks >> np.arange(n, dtype=np.int32)[:, None]) & 1).astype(bool)
    outer = (basis[:, None, :] * basis[None, :, :]).reshape(r * r, n)   # b_i b_i^T by column
    gram = (outer @ inside).T.reshape(len(masks), r, r)
    mu, ys = np.linalg.eigh(gram)
    tally = collections.Counter() if tally is None else tally
    tally["solved"] += len(gram)
    if not np.all(np.isfinite(mu)):
        return None
    top = mu[:, -1]
    rho = CELL_ROUNDING * np.trace(gram, axis1=1, axis2=2)
    v = np.where(inside, basis.T @ ys[:, :, -1].T, 0.0)
    with np.errstate(all="ignore"):
        v /= np.sqrt(np.einsum("ic,ic->c", v, v))
        lead = v[np.argmax(np.abs(v), axis=0), np.arange(len(masks))]
        delta = top - (mu[:, -2] if r > 1 else 0.0) - 3.0 * rho
        e = 2.0 * np.sqrt(2.0) * rho / delta + CELL_ROUNDING
        low = np.where(inside, v * np.where(lead < 0.0, -1.0, 1.0), np.inf).min(axis=0)
        accepted = (delta > 0.0) & (low >= e - SIGNABLE_TOL)
        bound = SIGNABLE_TOL + e
        rejected = (delta > 0.0) & (v.max(axis=0) > bound) & (v.min(axis=0) < -bound)
    if not accepted.any():
        return None
    floor = float((top - 2.0 * rho)[accepted].max())
    candidates = ~rejected & (top + 2.0 * rho >= floor)
    sym = 0.5 * (m_mat + m_mat.T)
    found = []
    for size in sorted(set(sizes[candidates].tolist())):
        combos, _, gather, _ = _support_table(n, size)
        picked = rows[candidates & (sizes == size)]
        eigvals, vecs, ok = _eigh_candidates(np.take(sym, gather[picked]), True)
        tally["solved"] += len(picked)
        found.append((eigvals[ok, size - 1], combos[picked][ok], vecs[ok]))
    return _best_candidate(found, True, n)


def _best_candidate(accepted, maximize, n):
    """(extremum, point) over accepted (values, supports, vectors), or None if none.

    The point comes from the lexicographically smallest support whose
    value is the extremum.
    """
    accepted = [c for c in accepted if c[0].size]
    if not accepted:
        return None
    values = np.concatenate([lams for lams, _, _ in accepted])
    best_val = float(values.max() if maximize else values.min())
    # Supports come in lexicographic order, so each size's first support
    # attaining the extremum is its smallest.
    firsts = []
    for lams, supports, vecs in accepted:
        firsts.extend((tuple(supports[i].tolist()), vecs[i])
                      for i in np.flatnonzero(lams == best_val)[:1])
    return best_val, _unit_point(*min(firsts, key=lambda c: c[0]), n)


def _unit_point(support, vec, n):
    """The unit vector of R^n with the clipped entries vec on support."""
    point = np.zeros(n)
    point[list(support)] = np.maximum(vec, 0.0)
    point /= np.linalg.norm(point)
    return point


def _projected_extremize(m_mat, cone, x0, maximize):
    """Projected gradient ascent/descent on the cone, renormalized each step.

    A run has converged when no step down to ASCENT_MIN_STEP improves;
    one still improving after ASCENT_MAX_STEPS steps has not.
    """
    sign = 1.0 if maximize else -1.0
    x = np.asarray(x0, dtype=float)
    f = sign * float(x @ m_mat @ x)
    step = 1.0
    for _ in range(ASCENT_MAX_STEPS):
        grad = 2.0 * sign * (m_mat @ x)
        while step > ASCENT_MIN_STEP:
            cand = cone.project(x + step * grad)
            norm = float(np.linalg.norm(cand))
            if norm > ASCENT_MIN_NORM:
                cand = cand / norm
                fc = sign * float(cand @ m_mat @ cand)
                if fc > f + ASCENT_MIN_GAIN * (1.0 + abs(f)):
                    x, f = cand, fc
                    step = min(step * 2.0, 1.0)
                    break
            step *= 0.5
        else:  # no step down to ASCENT_MIN_STEP improved
            return sign * f, x, True
    return sign * f, x, False


def _multistart_extremum(m_mat, cone, maximize, seed, count):
    """The best of ``count`` projected-gradient runs, as (value, point, converged values).

    Every run is ranked, converged or not: each iterate is a unit point of
    the cone, so its value bounds the extremum from one side.  The last
    entry holds the converged runs' values, best first, and may be empty.
    """
    rays = cone.extreme_unit_rays(count // 2)
    starts = [ray for ray in rays]
    index = len(starts)
    while len(starts) < count:
        starts.append(cone.sample_units(_stream(seed, index), 1)[0])
        index += 1
    results = [_projected_extremize(m_mat, cone, x0, maximize) for x0 in starts]
    results.sort(key=lambda r: -r[0] if maximize else r[0])
    values = np.array([val for val, _, converged in results if converged])
    return results[0][0], results[0][1], values


# Default of the private ``_table`` keywords: the route rule builds the table.
_BUILD = object()


def _route_table(cone: Cone, basis: np.ndarray) -> np.ndarray | None:
    """The realizable table of the angle between ``cone`` and the row span of ``basis``, or None.

    The route rule: a sign-orthant of n coordinates, REALIZABLE_MIN_DIM <= n
    <= EXACT_ENUM_LIMIT and 2k <= n for k orthonormal rows in ``basis``.
    primal_dual_angles builds one table per instance, on the smaller side,
    where 2k <= n always holds; the other side (dual C against W_perp)
    reads its complement.  That is safe by Gordan's alternative: with d
    the sign vector of C, a support P of the other side has some z in
    W_perp with d * z < 0 on P and >= 0 off P (KKT), and a cell P of the
    table some w in W with d * w > 0 on P and < 0 off P, which together
    would give <w, z> < 0.  So the complement holds every support the
    other side can accept, and equals that side's own table in general
    position.  Here the rule decides only which side builds; an angle
    solved alone with 2k > n takes no table.
    """
    signs, (k, n) = cone.orthant_signs, basis.shape
    if signs is None or not REALIZABLE_MIN_DIM <= n <= EXACT_ENUM_LIMIT or 2 * k > n:
        return None
    return _realizable_supports(basis * signs)


def extremize_quadratic_over_cone(
    m_mat,
    cone: Cone,
    maximize: bool,
    seed: int = 0,
    multistart_count: int = MULTISTART_COUNT,
    *,
    _table=_BUILD,
    _factor: np.ndarray | None = None,
) -> QuadraticExtremum:
    """Extremize x^T M x over the unit vectors of a cone.

    Exact support enumeration when the cone is sign-isomorphic to an
    orthant (Cone.orthant_signs), multistart for a cone without a sign
    vector.  A sign-orthant of more than EXACT_ENUM_LIMIT coordinates
    raises DimensionError.
    ``_factor`` is an F with M = F^T F (k rows): the matrix A for the
    dual-route minimum, or for a maximum a B with orthonormal rows, so
    that M is the projector onto W = row span of B.  A minimum then stops
    at k coordinates, a maximum at n - k, wherever Gordan's alternative
    certifies that cap (_enumerate_orthant_extremum); a maximum also
    solves only the realizable supports where the route rule takes them
    (_route_table).  ``_table`` is that table, or None, when the caller
    has built it already.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.shape != (cone.dim, cone.dim):
        raise DimensionError(f"matrix shape {m_mat.shape} != cone dimension {cone.dim}")
    signs = cone.orthant_signs
    if signs is not None:
        if cone.dim > EXACT_ENUM_LIMIT:
            raise DimensionError(f"exact orthant enumeration is limited to EXACT_ENUM_LIMIT = "
                                 f"{EXACT_ENUM_LIMIT} coordinates, got {cone.dim}")
        conj = signs[:, None] * m_mat * signs[None, :]
        cap = table = result = None
        tally = collections.Counter()
        if _factor is not None:
            cap = cone.dim - len(_factor) if maximize else len(_factor)
            if maximize:
                table = _route_table(cone, _factor) if _table is _BUILD else _table
        # 2r < n: the smaller side, whose table primal_dual_angles builds from its own basis.
        if (table is not None and len(_factor) <= CELL_ROUTE_MAX_RANK
                and 2 * len(_factor) < cone.dim):
            result = _cell_extremum(conj, _factor * signs, table, tally)
        route = "cells" if result is not None else "enumeration" if table is None else "table"
        if result is None:
            result = _enumerate_orthant_extremum(conj, maximize, table, cap, tally)
        val, y = result
        return QuadraticExtremum(value=val, point=signs * y, method="exact",
                                 converged_values=np.array([val]), route=route,
                                 solved=tally["solved"], rejected=tally["rejected"],
                                 pruned=tally["pruned"])
    val, x, values = _multistart_extremum(m_mat, cone, maximize, seed, multistart_count)
    return QuadraticExtremum(value=val, point=x, method="multistart", converged_values=values,
                             route="multistart", solved=0, rejected=0, pruned=0)


@dataclass(frozen=True)
class ConeAngleResult:
    """The minimal angle between nonzero cone points and a subspace.

    method is "exact" (support enumeration, or the exact zero that
    Gordan's alternative gives a touching side) or "multistart" (the
    best run, converged or not, with no certificate).
    """

    angle: float
    witness: np.ndarray          # unit vector in the cone attaining the angle
    method: str                  # "exact" | "multistart"


def cone_subspace_angle(cone: Cone, w: Subspace, seed: int = 0, *,
                        _table=_BUILD) -> ConeAngleResult:
    """Angle(C, W) = arccos of the max of ||proj_W x|| over unit x in C.

    Zero when the subspace meets the cone nontrivially.  A strict exact
    angle below SMALL_ANGLE is read from the sine ||x - P_W x|| of the
    witness x, whose own eigenvalue is the maximum, where arccos of the
    eigenvalue errs by about eps / angle.
    ``_table`` is the realizable table of this angle, or None, when
    primal_dual_angles has built it already.
    """
    if cone.dim != w.ambient_dim:
        raise DimensionError(f"cone dimension {cone.dim} != ambient {w.ambient_dim}")
    ext = extremize_quadratic_over_cone(w.projector(), cone, maximize=True, seed=seed,
                                        _table=_table, _factor=w.basis)
    angle = _angle_of_cos2(ext.value)
    if ext.method == "exact" and ANGLE_THRESHOLD < angle < SMALL_ANGLE:
        angle = angle_point_subspace(ext.point, w)
    return ConeAngleResult(angle=angle, witness=ext.point, method=ext.method)


def _gordan_zero(cone: Cone, solved_w: Subspace, solved: ConeAngleResult) -> ConeAngleResult | None:
    """The exact zero angle of the side opposite a strict exact one, or None.

    ``solved`` is the exact angle of the other side: its witness y, whose
    own eigenvalue is the maximum, maximizes ||P y|| (P the projector onto
    ``solved_w``) over unit y in the dual of ``cone``, at cos^2 = lam < 1.
    v = P y - y lies in the complement of ``solved_w``, the subspace of
    this side.  By the KKT conditions at y, d * v = (1 - lam) |y| + mu
    with mu >= 0, d the sign vector of ``cone`` (Cone.orthant_signs), so
    v lies in ``cone``.  When min(d * v) / ||v|| > GORDAN_MARGIN, v lies
    in its interior (see GORDAN_MARGIN): this side's subspace meets it,
    and its angle is exactly 0 with witness v / ||v||.  None when
    ``solved`` is not strict or not exact, ``cone`` has no sign vector,
    or v fails the margin.
    """
    signs = cone.orthant_signs
    if solved.method != "exact" or solved.angle <= ANGLE_THRESHOLD or signs is None:
        return None
    v = solved_w.project(solved.witness) - solved.witness
    norm = float(np.linalg.norm(v))
    if not float((signs * v).min()) / norm > GORDAN_MARGIN:
        return None
    return ConeAngleResult(angle=0.0, witness=v / norm, method="exact")


def primal_dual_angles(cone: Cone, w: Subspace,
                       seed: int = 0) -> tuple[ConeAngleResult, ConeAngleResult]:
    """angle(C, W) and angle(dual C, W_perp), solved once each.

    Every feasibility and condition quantity of W derives from this pair.
    One realizable table is built per instance, for the side with the
    smaller subspace (W on a tie), and the other side reads its
    complement (_route_table gives the Gordan argument).  Where that
    table is refused or the route rule takes none, the other side takes
    none either, so an instance builds at most one table: at the tie
    2k = n the other side's own table would be refused too (W and W_perp
    share one arrangement up to Gale duality), and at any other size the
    rule takes none there.  The smaller side is solved first, unless its
    table marks the full support: that side touches, so the other one
    goes first.  When a solved side is exact and strict, the other side
    is exactly 0 wherever Gordan's alternative shows it from that side's
    witness (_gordan_zero); it is solved only when that test fails.  A
    touching side solved first is replaced by that zero when the strict
    side, solved second, proves it, so no angle depends on the order.
    Multistart results and ill-posed instances solve both sides.
    """
    sides = sorted([(cone, w), (dual_cone(cone), complement(w))], key=lambda side: side[1].dim)
    table = _route_table(sides[0][0], sides[0][1].basis)
    tables = [table, None if table is None else ~table]
    if table is not None and table[-1]:
        sides.reverse()
        tables.reverse()
    (first_cone, first_w), (second_cone, second_w) = sides
    first = cone_subspace_angle(first_cone, first_w, seed=seed, _table=tables[0])
    second = _gordan_zero(second_cone, first_w, first)
    if second is None:
        second = cone_subspace_angle(second_cone, second_w, seed=seed, _table=tables[1])
        if first.angle <= ANGLE_THRESHOLD:
            first = _gordan_zero(first_cone, second_w, second) or first
    return (first, second) if first_w is w else (second, first)


class Feasibility(enum.Enum):
    PRIMAL_STRICT = "primal_strict"
    DUAL_STRICT = "dual_strict"
    ILL_POSED = "ill_posed"


@dataclass(frozen=True)
class FeasibilityStatus:
    """Three-way classification of a subspace against a cone.

    primal_angle is angle(C, W); dual_angle is angle(dual C, W_perp).
    Exactly one of them can exceed the threshold.
    """

    tag: Feasibility
    primal_angle: float
    dual_angle: float

    @staticmethod
    def from_angles(primal_angle: float, dual_angle: float) -> "FeasibilityStatus":
        """The status the two angles imply; see classify_feasibility."""
        p_strict, d_strict = primal_angle > ANGLE_THRESHOLD, dual_angle > ANGLE_THRESHOLD
        if p_strict and d_strict:
            raise InconsistentClassification(f"both angles exceed the threshold: primal "
                                             f"{primal_angle:.3e}, dual {dual_angle:.3e}")
        tag = (Feasibility.PRIMAL_STRICT if p_strict
               else Feasibility.DUAL_STRICT if d_strict else Feasibility.ILL_POSED)
        return FeasibilityStatus(tag, primal_angle, dual_angle)


def classify_feasibility(cone: Cone, w: Subspace, seed: int = 0) -> FeasibilityStatus:
    """Classify W as strictly primal feasible, strictly dual feasible, or ill posed.

    Strict primal feasibility means W meets the cone only at the origin,
    so angle(C, W) exceeds ANGLE_THRESHOLD; strict dual feasibility means
    W meets the cone's interior, so angle(dual C, W_perp) exceeds it; ill
    posed means neither angle does and W touches the cone.  Both angles
    above the threshold violate the theorem of alternatives and raise
    InconsistentClassification.
    """
    primal, dual = primal_dual_angles(cone, w, seed=seed)
    return FeasibilityStatus.from_angles(primal.angle, dual.angle)
