import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coniccond import (
    EmptyInput,
    NonUnitPoint,
    Orthant,
    ZeroColumn,
    gcc_condition,
    grassmann_condition,
    kappa,
    smallest_enclosing_cap,
    subspace_from_rowspan,
)
from conftest import random_matrix, random_orthogonal, reference_cap, stream

SQ2 = math.sqrt(2.0)


def a_family(eps):
    return np.array([[2 * eps, 1.0, 1.0], [0.0, -1.0, 1.0]])


def a_tilde_family(eps):
    return np.array([[1 + eps, 1 + eps, -1 + eps], [-1.0, -1.0, 1.0]])


def brute_cap_radius_2d(points, grid=400_000):
    """Dense grid over candidate centers on the circle."""
    angles = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    centers = np.column_stack([np.cos(angles), np.sin(angles)])
    radii = np.arccos(np.clip(centers @ points.T, -1.0, 1.0)).max(axis=1)
    best = int(np.argmin(radii))
    return float(radii[best]), centers[best]


class TestSmallestEnclosingCap:
    def test_single_repeated_point(self):
        pts = np.tile([1.0, 0.0], (4, 1))
        cap = smallest_enclosing_cap(pts)
        np.testing.assert_allclose(cap.center, [1.0, 0.0], atol=1e-12)
        assert cap.radius == pytest.approx(0.0, abs=1e-12)

    def test_single_point_as_a_vector(self):
        cap = smallest_enclosing_cap([0.0, 1.0])
        np.testing.assert_array_equal(cap.center, [0.0, 1.0])
        assert cap.radius == 0.0

    def test_reference_triple(self):
        pts = np.array([[1.0, 0.0], [1 / SQ2, -1 / SQ2], [1 / SQ2, 1 / SQ2]])
        cap = smallest_enclosing_cap(pts)
        np.testing.assert_allclose(cap.center, [1.0, 0.0], atol=1e-9)
        assert cap.radius == pytest.approx(math.pi / 4, abs=1e-9)
        assert set(cap.support) >= {1, 2}

    def test_near_antipodal_pair_matches_brute_force(self):
        delta = 0.1
        second = np.array([-1.0, delta])
        second /= np.linalg.norm(second)
        pts = np.vstack([[1.0, 0.0], second])
        cap = smallest_enclosing_cap(pts)
        brute_radius, brute_center = brute_cap_radius_2d(pts)
        assert cap.radius == pytest.approx(brute_radius, abs=1e-4)
        assert cap.radius < math.pi / 2
        assert abs(float(cap.center @ brute_center)) >= math.cos(1e-3)

    def test_random_sets_match_brute_force(self):
        rng = stream(70)
        for _ in range(10):
            pts = random_matrix(rng, 5, 2)
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            cap = smallest_enclosing_cap(pts)
            brute_radius, _ = brute_cap_radius_2d(pts, grid=100_000)
            assert cap.radius == pytest.approx(brute_radius, abs=1e-4)

    def test_wider_than_hemisphere(self):
        # Three spread points force a cap with radius beyond pi/2.
        pts = np.array([[1.0, 0.0], [-0.9, 0.1], [-0.9, -0.1]])
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        cap = smallest_enclosing_cap(pts)
        brute_radius, _ = brute_cap_radius_2d(pts)
        assert cap.radius > math.pi / 2
        assert cap.radius == pytest.approx(brute_radius, abs=1e-4)

    def test_cap_minimality(self):
        rng = stream(71)
        for trial in range(10):
            count = 4 + trial % 3
            pts = random_matrix(rng, count, 3)
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            cap = smallest_enclosing_cap(pts)
            angles = np.arccos(np.clip(pts @ cap.center, -1.0, 1.0))
            assert np.all(angles <= cap.radius + 1e-9)
            # shrinking the cap by 1e-6 must lose at least one point
            assert np.any(angles > cap.radius - 1e-6)

    def test_rotation_equivariance(self):
        rng = stream(72)
        pts = random_matrix(rng, 5, 3)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        cap = smallest_enclosing_cap(pts)
        q = random_orthogonal(rng, 3)
        rotated = smallest_enclosing_cap(pts @ q.T)
        assert rotated.radius == pytest.approx(cap.radius, abs=1e-9)
        assert float(rotated.center @ (q @ cap.center)) >= math.cos(1e-9)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            smallest_enclosing_cap(np.zeros((0, 2)))
        with pytest.raises(NonUnitPoint):
            smallest_enclosing_cap(np.array([[1.0, 1.0]]))

    def test_nan_point_rejected(self):
        with pytest.raises(NonUnitPoint, match="point 0 has norm nan"):
            smallest_enclosing_cap([[math.nan, 0.0]])

    def test_nan_among_unit_points_rejected(self):
        with pytest.raises(NonUnitPoint, match="point 1 has norm nan"):
            smallest_enclosing_cap([[1.0, 0.0], [math.nan, 0.0], [0.0, 1.0]])


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1)[:, None]


def _gaussian_points(rng, count, m):
    return _unit_rows(random_matrix(rng, count, m))


def _point_set(kind, rng, m, count):
    """count unit points in R^m of the given kind."""
    if kind == "gaussian":
        return _gaussian_points(rng, count, m)
    if kind == "duplicated":
        # At least one exact repeat, so some Gram matrices are exactly singular.
        base = _gaussian_points(rng, max(1, count - 1 - int(rng.integers(count))), m)
        rows = np.concatenate([np.arange(len(base)),
                               rng.integers(0, len(base), count - len(base))])
        return base[rng.permutation(rows)]
    if kind == "antipodal":
        base = _gaussian_points(rng, (count + 1) // 2, m)
        return np.vstack([base, -base])[rng.permutation(2 * len(base))[:count]]
    q = random_orthogonal(rng, m)
    t = 2.0 * math.pi * rng.random(count)
    if kind == "great_circle":
        return _unit_rows(np.outer(np.cos(t), q[0]) + np.outer(np.sin(t), q[1]))
    # near_right_angle: equator points around axis q[0], each in an antipodal
    # pair so no smaller cap holds them, lifted off the equator by at most 1e-6.
    equator = _unit_rows(random_matrix(rng, (count + 1) // 2, m - 1) @ q[1:])
    equator = np.vstack([equator, -equator])[:count]
    lift = 1e-6 * (2.0 * rng.random(count) - 1.0)
    return _unit_rows(np.cos(lift)[:, None] * equator + np.outer(np.sin(lift), q[0]))


def _plus_minus_simplex(m):
    """The m + 1 vertices of a regular simplex in R^m, and their antipodes."""
    centered = np.eye(m + 1) - 1.0 / (m + 1)
    basis = np.linalg.svd(centered)[0][:, :m]
    vertices = _unit_rows(centered @ basis)
    return np.vstack([vertices, -vertices])


def _cube_vertices(m):
    return np.array(list(itertools.product((1.0, -1.0), repeat=m))) / math.sqrt(m)


def _assert_matches_reference(pts):
    cap = smallest_enclosing_cap(pts)
    center, radius, support = reference_cap(pts)
    np.testing.assert_array_equal(cap.center, center)
    assert cap.radius == radius
    assert cap.support == support


class TestMatchesReference:
    """The batched candidate scoring gives the per-candidate loop's cap, bit for bit."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["gaussian", "duplicated", "antipodal", "great_circle",
                                 "near_right_angle"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), count=st.integers(1, 10))
    def test_random_point_sets(self, kind, seed, m, count):
        if m == 1 and kind in ("great_circle", "near_right_angle"):
            m = 2
        _assert_matches_reference(_point_set(kind, stream(seed), m, count))

    def test_near_right_angle_caps_are_near_right_angles(self):
        for seed in range(20):
            pts = _point_set("near_right_angle", stream(seed), 2 + seed % 5, 2 + seed % 9)
            assert abs(reference_cap(pts)[1] - math.pi / 2.0) <= 1e-6

    @pytest.mark.parametrize("pts", [
        *(_plus_minus_simplex(m) for m in range(1, 5)),
        *(_cube_vertices(m) for m in range(1, 4)),
        *(_plus_minus_simplex(m) @ random_orthogonal(stream(m), m).T for m in range(2, 5)),
        *(_cube_vertices(m) @ random_orthogonal(stream(m), m).T for m in range(2, 4)),
    ], ids=[*(f"pm-simplex-{m}" for m in range(1, 5)), *(f"cube-{m}" for m in range(1, 4)),
            *(f"rotated-pm-simplex-{m}" for m in range(2, 5)),
            *(f"rotated-cube-{m}" for m in range(2, 4))])
    def test_symmetric_sets_with_tied_radii(self, pts):
        _assert_matches_reference(pts)


class TestGccCondition:
    def test_reference_family(self):
        for eps in (0.5, 0.1, 0.01):
            assert gcc_condition(a_family(eps)).value == pytest.approx(SQ2, abs=1e-9)

    def test_divergent_family(self):
        eps = 1e-3
        value = gcc_condition(a_tilde_family(eps)).value
        assert value * eps / 2.0 == pytest.approx(1.0, abs=1e-2)

    def test_equal_columns(self):
        assert gcc_condition(np.array([[1.0, 2.0], [1.0, 2.0]])).value == pytest.approx(1.0)

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumn):
            gcc_condition(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_column_scaling_invariance(self):
        rng = stream(73)
        a = random_matrix(rng, 2, 5)
        scales = 0.1 + 5.0 * rng.random(5)
        assert gcc_condition(a * scales).value == pytest.approx(
            gcc_condition(a).value, rel=1e-12
        )

    def test_nearly_right_angle_cap(self):
        # The minimal cap's support (columns 1, 2, 3, 5) has a Gram matrix
        # with eigenvalue ratio 4.6e-11; skipping it returned a radius
        # above pi/2 and a GCC of 707, below the Cheung-Cucker lower bound.
        a = np.array([
            [-0.8195813093821286, -1.4733805891871206, 1.0249488750131344, -1.2077504835822739,
             0.17003964369253763, 2.043013804573206, 0.3581553471209221, -1.3307963962246911],
            [0.6141884283307676, 0.626906016733977, 1.5183692939749556, 0.37862650311049456,
             -0.12546919415740312, -0.6867797669965827, -0.13676246651778917, 1.2903800924735687],
            [0.9521866220657321, -1.0598844271019712, -0.0824140049874961, -0.05486012312854377,
             0.7762663329365441, 0.18267071883904026, 0.5494201685348226, -0.971552942745451],
            [1.3245497693513595, 0.7813034091156821, 1.5698814928128237, -0.6380226453535517,
             -0.9817982647929626, 0.9239348809623633, -0.331062372247817, 1.5691077920728391],
        ])
        cap = smallest_enclosing_cap((a / np.linalg.norm(a, axis=0)).T)
        assert cap.radius < math.pi / 2.0
        assert cap.support == (1, 2, 3, 5)
        gcc = gcc_condition(a).value
        assert gcc == pytest.approx(1.0 / 7.37023e-6, rel=1e-4)
        grassmann = grassmann_condition(Orthant(8), subspace_from_rowspan(a)).value
        col_min = float(np.linalg.norm(a, axis=0).min())
        assert gcc >= (col_min / np.linalg.norm(a, 2)) * grassmann

    def test_orthogonal_pair_gives_sqrt2(self):
        # Columns (1,1)/sqrt2 and (-1,1)/sqrt2 are orthogonal: radius pi/4.
        a = np.array([[1.0, -1.0], [1.0, 1.0]])
        assert gcc_condition(a).value == pytest.approx(SQ2, abs=1e-9)

    def test_right_angle_cap_is_infinite(self):
        b = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        # columns e1, -e1, e2: the smallest cap has radius exactly pi/2
        assert gcc_condition(b).value == math.inf


class TestComparisonInequalities:
    def test_sandwich_against_grassmann(self):
        rng = stream(74)
        checked = 0
        for trial in range(60):
            m, n = (2, 4) if trial % 2 else (3, 5)
            a = random_matrix(rng, m, n)
            if np.min(np.linalg.norm(a, axis=0)) < 1e-6:
                continue
            w = subspace_from_rowspan(a)
            grassmann = grassmann_condition(Orthant(n), w).value
            if math.isinf(grassmann):
                continue
            gcc = gcc_condition(a).value
            col_min = float(np.min(np.linalg.norm(a, axis=0)))
            spectral = float(np.linalg.norm(a, 2))
            assert (col_min / spectral) * grassmann <= gcc + 1e-9
            assert gcc <= math.sqrt(n) * kappa(a) * grassmann + 1e-9
            checked += 1
        assert checked >= 50
