"""Shared helpers for the test suite."""

import itertools
import math

import numpy as np

from coniccond import Negated, Orthant, Product, polar_decompose, subspace_from_rowspan
from coniccond.harness import gaussian_matrix, trial_stream
from coniccond.tolerances import (CAP_BOUNDARY_TOL, CAP_TIE_TOL, CENTER_NORM_FLOOR,
                                  SIGNABLE_TOL, TIE_TOL)


def stream(seed, index=0):
    return trial_stream(seed, index)


def span(*rows):
    return subspace_from_rowspan(np.array(rows, dtype=float))


def orthant_like(blocks):
    """Product of orthants (True) and negated orthants (False) of the given sizes."""
    factors = [Orthant(k) if positive else Negated(Orthant(k)) for positive, k in blocks]
    return factors[0] if len(factors) == 1 else Product(factors)


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


def full_orthant_minimum(m_mat, max_size=None):
    """min y^T M y over unit y >= 0, solving every support: no pruning, no certified cap.

    The reference for the library's enumeration: each support's lambda_min
    eigenvector, signed by its largest entry, is accepted when it dips at
    most SIGNABLE_TOL below zero; the value is the least accepted
    eigenvalue and the witness comes from the lexicographically smallest
    support within TIE_TOL of it.  With ``max_size`` only the supports of
    at most that many coordinates are solved.
    """
    n = m_mat.shape[0]
    sym = 0.5 * (m_mat + m_mat.T)
    candidates = []
    for size in range(min(n, max_size or n), 0, -1):
        combos = np.array(list(itertools.combinations(range(n), size)))
        eigvals, eigvecs = np.linalg.eigh(sym[combos[:, :, None], combos[:, None, :]])
        for lam, support, vec in zip(eigvals[:, 0], combos, eigvecs[:, :, 0]):
            if vec[np.argmax(np.abs(vec))] < 0.0:
                vec = -vec
            if vec.min() >= -SIGNABLE_TOL:
                candidates.append((float(lam), tuple(support.tolist()), vec))
    best = min(lam for lam, _, _ in candidates)
    _, support, vec = min((c for c in candidates if abs(c[0] - best) <= TIE_TOL),
                          key=lambda c: c[1])
    point = np.zeros(n)
    point[list(support)] = np.maximum(vec, 0.0)
    return best, point / np.linalg.norm(point)


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
