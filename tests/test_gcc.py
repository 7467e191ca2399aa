import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from coniccond import (
    EmptyInput,
    Feasibility,
    NonUnitPoint,
    Orthant,
    ZeroColumn,
    analyze,
    condition_report,
    gcc_condition,
    grassmann_condition,
    kappa,
    smallest_enclosing_cap,
    subspace_from_rowspan,
)
from coniccond.condition import json_number
from coniccond import gcc
from coniccond.gcc import _angles, _approximate_centers, _circumcenters, _clearance, _wide_route
from coniccond.harness import gaussian_matrix, trial_stream
from conftest import random_matrix, random_orthogonal, reference_cap, stream, structured_matrix

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


def _assert_matches_reference(pts, wide=False):
    cap = smallest_enclosing_cap(pts, _wide=wide)
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


def _is_wide(pts):
    """0 in the interior of conv(pts), by scipy linprog: the points span R^m and some
    weights lambda >= 1 have sum lambda_i p_i = 0 (Gordan)."""
    count, m = pts.shape
    if np.linalg.matrix_rank(pts) < m:
        return False
    res = linprog(np.zeros(count), A_eq=pts.T, b_eq=np.zeros(m), bounds=(1.0, None),
                  method="highs")
    return res.status == 0


def _route(pts):
    """The wide route's cap, None where it falls back."""
    count, m = pts.shape
    return _wide_route(pts) if 2 <= m < count else None


# The orthant-report benchmark's shapes (m, n).
REPORT_SHAPES = ((2, 6), (3, 6), (4, 6), (3, 8), (4, 8), (6, 8), (3, 10), (5, 10), (7, 10))


@functools.lru_cache(maxsize=None)
def _report_pool():
    """The orthant-report benchmark's seed 1 matrices: 2048 per shape, drawn in shape order."""
    rng = np.random.default_rng([1, 1])
    return {shape: rng.standard_normal((2048, *shape)) for shape in REPORT_SHAPES}


def _report_inputs(m, n, count=100):
    return _report_pool()[(m, n)][:count]


SYMMETRIC_WIDE_SETS = {
    **{f"pm-simplex-{m}": _plus_minus_simplex(m) for m in range(1, 5)},
    **{f"cube-{m}": _cube_vertices(m) for m in range(1, 4)},
    **{f"rotated-pm-simplex-{m}": _plus_minus_simplex(m) @ random_orthogonal(stream(m), m).T
       for m in range(2, 5)},
    **{f"rotated-cube-{m}": _cube_vertices(m) @ random_orthogonal(stream(m), m).T
       for m in range(2, 4)},
}


class TestWideRoute:
    """The size-m route of a wide cap gives the full scan's cap, bit for bit, or falls back."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(kind=st.sampled_from(["gaussian", "duplicated", "antipodal", "great_circle",
                                 "near_right_angle"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), extra=st.integers(1, 6))
    def test_wide_point_sets_match_the_reference(self, kind, seed, m, extra):
        pts = _point_set(kind, stream(seed), m, m + extra)
        assume(_is_wide(pts))
        _assert_matches_reference(pts, wide=True)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(kind=st.sampled_from(["ternary", "duplicated", "antiparallel"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), extra=st.integers(1, 5))
    def test_wide_structured_columns_match_the_reference(self, kind, seed, m, extra):
        a = structured_matrix(stream(seed), m, m + extra, kind)
        norms = np.linalg.norm(a, axis=0)
        assume(np.all(norms > 0.0))
        pts = (a / norms).T
        assume(_is_wide(pts))
        _assert_matches_reference(pts, wide=True)

    @pytest.mark.parametrize("name", list(SYMMETRIC_WIDE_SETS))
    def test_symmetric_sets_fall_back_to_the_full_scan(self, name):
        pts = SYMMETRIC_WIDE_SETS[name]
        assert _is_wide(pts)
        assert _route(pts) is None
        _assert_matches_reference(pts, wide=True)

    @pytest.mark.parametrize("m, n", REPORT_SHAPES)
    def test_the_route_serves_every_gaussian_primal_strict_instance(self, m, n):
        # The orthant-report benchmark's seed 1 inputs, the first 100 of each shape.  The
        # route declines by design where a subset is nearly singular (one 5 x 10 draw of
        # trial_stream(1, 5114) has a 5-subset of condition 5e16), so this guards only
        # against a certificate that refuses ordinary Gaussian caps.
        served = 0
        for trial, a in enumerate(_report_inputs(m, n)):
            if analyze(Orthant(n), None, a=a).status.tag is not Feasibility.PRIMAL_STRICT:
                continue
            pts = (a / np.linalg.norm(a, axis=0)).T
            cap, full = _route(pts), smallest_enclosing_cap(pts)
            assert cap is not None, trial
            np.testing.assert_array_equal(cap.center, full.center)
            assert (cap.radius, cap.support) == (full.radius, full.support)
            served += 1
        assert served > 0


def _angle_between(u, v):
    """Angles between the unit rows of u and v, accurate near 0."""
    return 2.0 * np.arcsin(np.linalg.norm(u - v, axis=-1) / 2.0)


def _exact_center(pts, subset):
    """The unit circumcenter of the points ``subset`` from a rational solve, or None if singular."""
    rows = [[Fraction(float(x)) for x in pts[i]] for i in subset]
    k = len(rows)
    aug = [[sum(p * q for p, q in zip(rows[i], rows[j])) for j in range(k)] + [Fraction(1)]
           for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    weights = [aug[i][k] / aug[i][i] for i in range(k)]
    center = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(rows[0]))]
    scale = max(abs(x) for x in center)
    center = np.array([float(x / scale) for x in center])
    return center / np.linalg.norm(center)


def _assert_approximations_hold(pts):
    """Each approximate center lies within its bound plus the scan's error of the scan's center.

    The least well conditioned subsets are also checked against the exact center:
    the approximate one within its bound, the scan's within its error.
    """
    count, m = pts.shape
    centers, errors, approximation = _approximate_centers(pts)
    scan = _circumcenters(pts, m)
    if len(scan) < 2 * len(centers):
        # The scan dropped a singular subset; its error bound is NaN, so the route declines.
        assert np.isnan(errors).any()
        return
    bounded = np.isfinite(errors) & np.isfinite(approximation)
    for sign in (0, 1):
        rows = centers * (1.0 - 2.0 * sign)
        gap = _angle_between(rows, scan[sign::2])
        assert np.all(gap[bounded] <= approximation[bounded] + errors[bounded])
    subsets = list(itertools.combinations(range(count), m))
    # The rounding of a computed angle between unit vectors is far below either bound.
    for k in np.argsort(-np.where(bounded, approximation, -1.0))[:4]:
        exact = _exact_center(pts, subsets[k])
        if bounded[k] and exact is not None:
            assert _angle_between(centers[k], exact) <= approximation[k]
            assert _angle_between(scan[2 * k], exact) <= errors[k]


def _point_columns(a):
    norms = np.linalg.norm(a, axis=0)
    assume(np.all(norms > 0.0))
    return (a / norms).T


class TestApproximateCenters:
    """The approximate size-m centers lie within their stated bounds of the scan's centers."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["gaussian", "duplicated", "antipodal", "great_circle",
                                 "near_right_angle"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), extra=st.integers(1, 6))
    def test_point_sets(self, kind, seed, m, extra):
        _assert_approximations_hold(_point_set(kind, stream(seed), m, m + extra))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(kind=st.sampled_from(["ternary", "duplicated", "antiparallel"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), extra=st.integers(1, 5))
    def test_structured_columns(self, kind, seed, m, extra):
        _assert_approximations_hold(_point_columns(structured_matrix(stream(seed), m, m + extra,
                                                                     kind)))

    @pytest.mark.parametrize("m, n", REPORT_SHAPES)
    def test_the_route_solves_only_the_winner_and_the_rows_it_cannot_clear(self, m, n,
                                                                          monkeypatch):
        # Every call of the scan's per-subset code during the route, on the
        # orthant-report benchmark's primal strict inputs: first the winner, then
        # in order each other subset whose approximate rows cannot clear check 4.
        solved = []
        original = gcc._circumcenter

        def spy(pts, subset):
            solved.append(tuple(subset))
            return original(pts, subset)

        monkeypatch.setattr(gcc, "_circumcenter", spy)
        subsets = list(itertools.combinations(range(n), m))
        served = 0
        for trial, a in enumerate(_report_inputs(m, n)):
            if analyze(Orthant(n), None, a=a).status.tag is not Feasibility.PRIMAL_STRICT:
                continue
            pts = (a / np.linalg.norm(a, axis=0)).T
            solved.clear()
            cap = _wide_route(pts)
            assert cap is not None, trial
            centers, errors, approximation = _approximate_centers(pts)
            block = np.repeat(centers, 2, axis=0)
            block[1::2] *= -1.0
            radii = _angles(pts, block).max(axis=1)
            unclear = (radii.reshape(-1, 2).min(axis=1)
                       <= _clearance(cap.radius, errors + approximation))
            unclear[subsets.index(cap.support)] = False
            assert solved == [cap.support] + [subsets[k] for k in np.flatnonzero(unclear)], trial
            served += 1
        assert served > 0


class TestNearlySingularSubsets:
    """A wide cap with a nearly or exactly singular m-subset still gets the reference cap."""

    def test_the_near_singular_report_draw(self):
        # Primal strict; one 5-subset of its columns has a Gram matrix of condition 5e16.
        a = gaussian_matrix(trial_stream(1, 5114), 5, 10)
        assert analyze(Orthant(10), None, a=a).status.tag is Feasibility.PRIMAL_STRICT
        pts = (a / np.linalg.norm(a, axis=0)).T
        assert np.isnan(_approximate_centers(pts)[1]).any()
        assert _route(pts) is None
        _assert_matches_reference(pts, wide=True)

    @pytest.mark.parametrize("m, n", [(3, 6), (4, 8), (5, 10)])
    def test_duplicated_columns(self, m, n):
        for trial in range(40):
            a = random_matrix(stream(3, 100 * n + trial), m, n)
            if analyze(Orthant(n), None, a=a).status.tag is Feasibility.PRIMAL_STRICT:
                break
        a = np.column_stack([a, a[:, 0]])
        pts = (a / np.linalg.norm(a, axis=0)).T
        assert _is_wide(pts)
        assert _route(pts) is None
        _assert_matches_reference(pts, wide=True)


class TestReportGcc:
    @pytest.mark.parametrize("m, n", REPORT_SHAPES)
    def test_report_gcc_equals_gcc_condition_bit_for_bit(self, m, n):
        # Until both tags have been seen, and at least 8 reports: a 6 x 8 instance is
        # primal strict about once in 40.
        tags, trial = set(), 0
        while trial < 8 or len(tags) < 2:
            a = random_matrix(stream(2, 1000 * m + 10 * n + trial), m, n)
            report = condition_report(Orthant(n), a)
            tags.add(report["status"])
            assert report["gcc"] == json_number(gcc_condition(a).value), trial
            trial += 1
            assert trial <= 400
        assert tags == {"primal_strict", "dual_strict"}


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
