"""Shared helpers for the test suite."""

import functools
import itertools
import math
from collections import Counter

import numpy as np

import coniccond.cones
from coniccond import Negated, Orthant, Product, polar_decompose, subspace_from_rowspan
from coniccond.harness import gaussian_matrix, trial_stream
from coniccond.tolerances import (CAP_BOUNDARY_TOL, CAP_TIE_TOL, CENTER_NORM_FLOOR,
                                  GENERAL_POSITION_TOL, SIGNABLE_TOL)


def stream(seed, index=0):
    return trial_stream(seed, index)


def span(*rows):
    return subspace_from_rowspan(np.array(rows, dtype=float))


def orthant_like(blocks):
    """Product of orthants (True) and negated orthants (False) of the given sizes."""
    factors = [Orthant(k) if positive else Negated(Orthant(k)) for positive, k in blocks]
    return factors[0] if len(factors) == 1 else Product(factors)


def row_basis(a):
    """Orthonormal rows spanning the rows of a full-rank a."""
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u @ vh


def near_face(rng, signs, eps):
    """A point of a random face of the sign-orthant {signs * x >= 0}, moved off by eps."""
    n = len(signs)
    face = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.6)
    face[rng.integers(n)] = 1.0
    return signs * face + eps * rng.standard_normal(n)


def random_matrix(rng, m, n):
    return gaussian_matrix(rng, m, n)


def random_balanced(rng, m, n):
    return polar_decompose(gaussian_matrix(rng, m, n)).balanced_part


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(gaussian_matrix(rng, n, n))
    return q * np.sign(np.diag(r))


def random_spd(rng, m, lo=0.5, hi=4.0):
    q = random_orthogonal(rng, m)
    eigs = lo + (hi - lo) * rng.random(m)
    return (q * eigs) @ q.T


def count_decided(monkeypatch, call):
    """call(), and Counters {support size: supports decided} and {support size: eigh matrices}.

    A support is decided when eigh solves it or when the sign certificate
    (cones._sign_rejections) rejects it without a solve, so the first
    Counter shows which supports a route reaches and the second what
    eigh paid for them.  Undoes every monkeypatch of the test on return.
    """
    eigh, certify = np.linalg.eigh, coniccond.cones._sign_rejections
    decided, solved = Counter(), Counter()

    def counted_eigh(subs):
        decided[subs.shape[-1]] += len(subs)
        solved[subs.shape[-1]] += len(subs)
        return eigh(subs)

    def counted_certify(subs, maximize):
        rejected, lower = certify(subs, maximize)
        if rejected.any():
            decided[subs.shape[-1]] += int(rejected.sum())
        return rejected, lower

    monkeypatch.setattr(coniccond.cones.np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(coniccond.cones, "_sign_rejections", counted_certify)
    try:
        return call(), decided, solved
    finally:
        monkeypatch.undo()


@functools.lru_cache(maxsize=None)
def _combinations(n, size):
    return np.array(list(itertools.combinations(range(n), size)))


def reference_decisions(subs, maximize):
    """(accepted, value, vector) per principal submatrix, as full_orthant_extremum decides.

    The extreme eigenvector (lambda_max for a maximum, lambda_min for a
    minimum) is signed by its largest entry and accepted when it dips at
    most SIGNABLE_TOL below zero; value is its eigenvalue.
    """
    eigvals, eigvecs = np.linalg.eigh(subs)
    col = subs.shape[-1] - 1 if maximize else 0
    vecs = eigvecs[:, :, col]
    lead = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
    vecs = np.where(lead[:, None] < 0.0, -vecs, vecs)
    return vecs.min(axis=1) >= -SIGNABLE_TOL, eigvals[:, col], vecs


def full_orthant_extremum(m_mat, maximize=False, max_size=None):
    """Extremum of y^T M y over unit y >= 0, solving every support: no pruning, no cap.

    The reference for the library's enumeration: each support is
    accepted or not by reference_decisions; the value is the best
    accepted eigenvalue and the witness comes from the lexicographically
    smallest support whose eigenvalue is that value.  With ``max_size``
    only the supports of at most that many coordinates are solved.
    Returns (value, witness).
    """
    n = m_mat.shape[0]
    sym = 0.5 * (m_mat + m_mat.T)
    candidates = []
    for size in range(min(n, max_size or n), 0, -1):
        combos = _combinations(n, size)
        ok, lams, vecs = reference_decisions(sym[combos[:, :, None], combos[:, None, :]],
                                             maximize)
        candidates.extend(zip(lams[ok].tolist(), map(tuple, combos[ok].tolist()), vecs[ok]))
    best = (max if maximize else min)(lam for lam, _, _ in candidates)
    _, support, vec = min((c for c in candidates if c[0] == best), key=lambda c: c[1])
    point = np.zeros(n)
    point[list(support)] = np.maximum(vec, 0.0)
    return best, point / np.linalg.norm(point)


def full_orthant_minimum(m_mat, max_size=None):
    """min y^T M y over unit y >= 0 and its witness, by full_orthant_extremum."""
    return full_orthant_extremum(m_mat, False, max_size)


def reference_realizable_supports(basis):
    """The realizable table of ``cones._realizable_supports``, built from cofactor rays.

    The reference for the library's table: for each (r-1)-subset S of
    columns the ray rho is the vector of signed cofactors of B_S, one
    np.linalg.det per coordinate, and the cells around it take the signs
    of B^T rho off S and every sign on S.  None when a ray is shorter than
    GENERAL_POSITION_TOL times the product of its column norms, or an
    off-S entry of B^T rho / ||rho|| is at most GENERAL_POSITION_TOL.
    """
    r, n = basis.shape
    norms = np.linalg.norm(basis, axis=0)
    subsets = np.array(list(itertools.combinations(range(n), r - 1)), dtype=np.intp)
    minors = np.array([np.delete(np.arange(r), j) for j in range(r)], dtype=np.intp)
    columns = basis.T[subsets]                        # (rays, r - 1, r)
    rays = np.linalg.det(np.moveaxis(columns[:, :, minors], 2, 1)) * (-1.0) ** np.arange(r)
    ray_norms = np.linalg.norm(rays, axis=1)
    if np.any(ray_norms <= GENERAL_POSITION_TOL * np.prod(norms[subsets], axis=1)):
        return None
    entries = (rays / ray_norms[:, None]) @ basis
    off = np.ones(entries.shape, dtype=bool)
    off[np.arange(len(subsets))[:, None], subsets] = False
    if np.any(np.abs(entries[off]) <= GENERAL_POSITION_TOL):
        return None
    bits = np.int64(1) << np.arange(n)
    sign_choices = (np.arange(1 << (r - 1))[:, None] >> np.arange(r - 1)) & 1
    on_s = (np.int64(1) << subsets) @ sign_choices.T  # (rays, 2^(r-1)) masks within S
    table = np.zeros(1 << n, dtype=bool)
    for side in (entries > 0.0, entries < 0.0):
        table[((side & off) @ bits)[:, None] | on_s] = True
    return table


def reference_cap(points):
    """(center, radius, support) of the smallest cap, one array per candidate center.

    The reference for ``smallest_enclosing_cap``: the points, then the
    circumcenter and its antipode of every subset of 2..m points with a
    solvable Gram matrix and a center no shorter than CENTER_NORM_FLOOR,
    in ``itertools.combinations`` order, each scored by its own
    ``points @ center``.  A radius within CAP_TIE_TOL of the best is
    taken when it is smaller by more than CAP_TIE_TOL or its boundary
    index set is lexicographically smaller.
    """
    pts = np.asarray(points, dtype=float)
    count, ambient = pts.shape
    candidates = [pts[i] for i in range(count)]
    for size in range(2, min(ambient, count) + 1):
        for subset in itertools.combinations(range(count), size):
            sub = pts[list(subset)]
            gram = sub @ sub.T
            try:
                weights = np.linalg.solve(gram, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            center = sub.T @ weights
            norm = float(np.linalg.norm(center))
            if norm < CENTER_NORM_FLOOR:
                continue
            center /= norm
            candidates.append(center)
            candidates.append(-center)

    best_center = None
    best_radius = math.inf
    best_boundary = ()
    for center in candidates:
        angles = np.arccos(np.clip(pts @ center, -1.0, 1.0))
        radius = float(angles.max())
        if not radius <= best_radius + CAP_TIE_TOL:
            continue
        boundary = tuple(int(i) for i in
                         np.flatnonzero(np.abs(angles - radius) <= CAP_BOUNDARY_TOL))
        if radius < best_radius - CAP_TIE_TOL or boundary < best_boundary:
            best_center = center
            best_radius = radius
            best_boundary = boundary
    assert best_center is not None
    return best_center, best_radius, best_boundary


STRUCTURED_KINDS = ("ternary", "bernoulli", "duplicated", "antiparallel", "zero_column",
                    "ill_posed")
# The factor of the copied column in the column kinds of structured_matrix.
COLUMN_FACTORS = {"duplicated": 1.0, "antiparallel": -1.0, "zero_column": 0.0}


def structured_matrix(rng, m, n, kind):
    """An m x n matrix of rank m, with structure that Gaussian draws never have.

    ``kind`` is one of STRUCTURED_KINDS:
    * ternary: entries drawn from {-1, 0, 1};
    * bernoulli: sparse 0/1 entries, each 1 with probability 0.3;
    * duplicated, antiparallel, zero_column: a ternary matrix with one
      column replaced by a copy of another, by its negation, or by zero;
    * ill_posed: the row e_1 plus ternary rows that vanish at coordinate 1
      and have a zero column or an antiparallel pair of columns.  Their
      span misses the open orthant of the other coordinates, so W holds
      e_1, a boundary point of the orthant, and misses its interior: ill
      posed by construction.
    Columns are then permuted at random, which keeps an ill-posed instance
    ill posed for the orthant.
    """
    while True:
        if kind == "bernoulli":
            a = (rng.random((m, n)) < 0.3).astype(float)
        else:
            a = rng.integers(-1, 2, size=(m, n)).astype(float)
        if kind == "ill_posed":
            a[0] = np.eye(n)[0]
            a[1:, 0] = 0.0
            # n = 2 leaves no row below e_1 (m < n), so j = k does no harm there.
            j, k = rng.choice(np.arange(1, n), 2, replace=n < 3)
            a[1:, k] = 0.0 if rng.random() < 0.5 else -a[1:, j]
        elif kind in COLUMN_FACTORS:
            j, k = rng.choice(n, 2, replace=False)
            a[:, k] = COLUMN_FACTORS[kind] * a[:, j]
        if np.linalg.matrix_rank(a) == m:
            return a[:, rng.permutation(n)]
