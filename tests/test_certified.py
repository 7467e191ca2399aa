"""Exact classification: strict angles by enumeration, touching ones exactly 0 by Gordan.

Also the sign certificate of the enumeration: the supports it rejects
without eigh are ones eigh rejects too, so no result changes a bit.
"""

import inspect
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import coniccond.cones
from coniccond import (
    Feasibility,
    Lorentz,
    Orthant,
    analyze,
    angle_point_subspace,
    complement,
    condition_report,
    cone_subspace_angle,
    dual_cone,
    subspace_from_rowspan,
)
from coniccond.cones import (ANGLE_THRESHOLD, GORDAN_MARGIN, _angle_of_cos2,
                             _enumerate_orthant_extremum, _sign_rejections, _spd_inverse,
                             extremize_quadratic_over_cone, primal_dual_angles)
from conftest import (full_orthant_extremum, orthant_like, random_matrix, random_orthogonal,
                      reference_decisions, stream)


@st.composite
def instances(draw):
    """An orthant-like cone with n <= 8 and a subspace W, often near the ill-posed set.

    Near-ill-posed W contain a point on the cone's boundary (a face point
    with at least one zero coordinate), moved off by eps.
    """
    blocks = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 4)), min_size=1, max_size=3)
                  .filter(lambda b: 2 <= sum(k for _, k in b) <= 8))
    cone = orthant_like(blocks)
    n = cone.dim
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, n))
    eps = draw(st.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]))
    if eps is not None:
        face = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.6)
        zero, nonzero = rng.permutation(n)[:2]
        face[zero], face[nonzero] = 0.0, 1.0
        a[0] = cone.orthant_signs * face + eps * rng.standard_normal(n)
    return cone, subspace_from_rowspan(a)


def _same(result, other):
    """Whether two ConeAngleResults agree bit for bit."""
    return (result.method == other.method and result.angle == other.angle
            and np.array_equal(result.witness, other.witness))


def _kkt_vector(solved_w, solved):
    """v = P y - y of a solved side's witness y, P the projector onto its subspace."""
    return solved_w.project(solved.witness) - solved.witness


def _full_enumeration_angle(cone, w):
    """The angle from every support, with no realizable table and no cap."""
    signs = cone.orthant_signs
    value, _ = _enumerate_orthant_extremum(signs[:, None] * w.projector() * signs, True)
    return _angle_of_cos2(value)


def _interior_point(cone, w):
    """A point of W in the cone's interior found by scipy's linprog, or None.

    Maximizes t subject to d * (B^T z) >= t and |z|_inf <= 1, d the cone's
    sign vector and B the basis of W.
    """
    signs, basis = cone.orthant_signs, w.basis
    k, n = basis.shape
    res = linprog(np.r_[np.zeros(k), -1.0], A_ub=np.c_[-(signs[:, None] * basis.T), np.ones(n)],
                  b_ub=np.zeros(n), bounds=[(-1.0, 1.0)] * k + [(None, 1.0)], method="highs")
    assert res.status == 0, res.message
    point = basis.T @ res.x[:k]
    return point if float((signs * point).min()) > 0.0 else None


class TestCertifiedAngles:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances())
    def test_certified_pair_matches_exact_pair(self, instance):
        # Every side either equals its own exact solve bit for bit, or is the
        # zero that the strict side's KKT vector proves; the full enumeration
        # and linprog both confirm that such a side touches, so the
        # classification is that of the two solves.
        cone, w = instance
        sides = ((cone, w), (dual_cone(cone), complement(w)))
        pair = primal_dual_angles(cone, w)
        solved = [cone_subspace_angle(side_cone, side_w) for side_cone, side_w in sides]
        for i, (side_cone, side_w) in enumerate(sides):
            result, other = pair[i], pair[1 - i]
            if _same(result, solved[i]):
                continue
            assert result.method == "exact" and result.angle == 0.0
            assert other.method == "exact" and other.angle > ANGLE_THRESHOLD
            v = _kkt_vector(sides[1 - i][1], other)
            assert np.array_equal(result.witness, v / np.linalg.norm(v))
            assert float((side_cone.orthant_signs * v).min()) / np.linalg.norm(v) > GORDAN_MARGIN
            assert _full_enumeration_angle(side_cone, side_w) <= ANGLE_THRESHOLD
            assert _interior_point(side_cone, side_w) is not None


class TestCertificatePaths:
    def test_primal_strict_certifies_dual_from_witness(self):
        # Two generic directions of R^6 miss the orthant: the dual side
        # comes from the KKT point, not from a second enumeration.
        w = subspace_from_rowspan(np.array([[1.0, -2.0, 0.5, 0.0, 1.0, -1.0],
                                            [0.0, 1.0, -1.5, -0.4, 0.3, 0.2]]))
        primal, dual = primal_dual_angles(Orthant(6), w)
        assert primal.method == "exact" and primal.angle > ANGLE_THRESHOLD
        assert dual.method == "exact" and dual.angle == 0.0
        v = _kkt_vector(w, primal)
        assert np.array_equal(dual.witness, v / np.linalg.norm(v))
        assert np.all(dual.witness < 0.0)
        assert angle_point_subspace(dual.witness, complement(w)) <= ANGLE_THRESHOLD
        assert _interior_point(dual_cone(Orthant(6)), complement(w)) is not None

    def test_dual_strict_certifies_primal_from_witness(self):
        # dim W_perp = 2 < dim W = 4: the dual side is solved first and the
        # primal side comes from its KKT point.
        w = subspace_from_rowspan(np.random.default_rng(0).standard_normal((4, 6)))
        perp = complement(w)
        primal, dual = primal_dual_angles(Orthant(6), w)
        assert dual.method == "exact" and dual.angle > ANGLE_THRESHOLD
        assert _same(dual, cone_subspace_angle(dual_cone(Orthant(6)), perp))
        assert primal.method == "exact" and primal.angle == 0.0
        v = _kkt_vector(perp, dual)
        assert np.array_equal(primal.witness, v / np.linalg.norm(v))
        assert np.all(primal.witness > 0.0)
        assert angle_point_subspace(primal.witness, w) <= ANGLE_THRESHOLD

    @pytest.mark.parametrize("last, accepted", [(-5e-9, False), (-5e-7, True)])
    def test_margin_decides_between_the_zero_and_the_solve(self, last, accepted):
        # W = span(u) misses the orthant at angle 0.0102; its witness is u's
        # positive part, and v = P y - y has entries -c u_i off that support.
        # With u_5 = -5e-9 the smallest, -v_5 / ||v||, is 5.0e-7, positive but
        # below GORDAN_MARGIN: the dual side is solved, bit for bit as alone.
        # With u_5 = -5e-7 it is 5.0e-5 and the zero is accepted.
        u = np.array([0.6, 0.5, 0.6, -1e-2, last])
        w = subspace_from_rowspan((u / np.linalg.norm(u))[None])
        cone = Orthant(5)
        primal, dual = primal_dual_angles(cone, w)
        assert primal.method == "exact" and primal.angle > ANGLE_THRESHOLD
        v = _kkt_vector(w, primal)
        margin = float((-v).min() / np.linalg.norm(v))
        assert 0.0 < margin and (margin > GORDAN_MARGIN) is accepted
        solved = cone_subspace_angle(dual_cone(cone), complement(w))
        zero = np.array_equal(dual.witness, v / np.linalg.norm(v))
        assert zero is accepted and _same(dual, solved) is not accepted
        assert dual.method == "exact" and dual.angle <= ANGLE_THRESHOLD

    def test_failed_certificate_solves_dual(self, monkeypatch):
        monkeypatch.setattr(coniccond.cones, "_gordan_zero", lambda *args: None)
        w = subspace_from_rowspan(np.array([[1.0, -2.0, 0.5, 0.0], [0.0, 1.0, -1.5, -0.4]]))
        primal, dual = primal_dual_angles(Orthant(4), w)
        assert primal.method == "exact" and primal.angle > ANGLE_THRESHOLD
        assert _same(primal, cone_subspace_angle(Orthant(4), w))
        assert _same(dual, cone_subspace_angle(dual_cone(Orthant(4)), complement(w)))
        assert dual.angle <= ANGLE_THRESHOLD

    def test_failed_primal_certificate_solves_primal(self, monkeypatch):
        monkeypatch.setattr(coniccond.cones, "_gordan_zero", lambda *args: None)
        w = subspace_from_rowspan(np.random.default_rng(0).standard_normal((4, 6)))
        primal, dual = primal_dual_angles(Orthant(6), w)
        assert dual.method == "exact" and dual.angle > ANGLE_THRESHOLD
        # The primal side is solved exactly instead.
        assert _same(primal, cone_subspace_angle(Orthant(6), w))
        assert primal.angle <= ANGLE_THRESHOLD

    def test_touching_side_solved_first_prints_zero(self):
        # n = 4 takes no realizable table, so the primal side, solved first
        # (dim W = dim W_perp), is solved in full and touches at a rounding
        # 1.05e-8.  The strict dual side's KKT vector then proves it 0.
        a = np.array([[1.0, 2.0, 0.5, 1.5], [0.3, -1.0, 1.2, 0.4]])
        w = subspace_from_rowspan(a)
        solved = cone_subspace_angle(Orthant(4), w)
        assert 0.0 < solved.angle <= ANGLE_THRESHOLD
        primal, dual = primal_dual_angles(Orthant(4), w)
        assert _same(dual, cone_subspace_angle(dual_cone(Orthant(4)), complement(w)))
        assert dual.angle > ANGLE_THRESHOLD
        assert primal.method == "exact" and primal.angle == 0.0
        v = _kkt_vector(complement(w), dual)
        assert np.array_equal(primal.witness, v / np.linalg.norm(v))
        assert condition_report(Orthant(4), a)["angles"]["primal"] == 0.0

    def test_multistart_is_never_certified(self):
        w = subspace_from_rowspan(np.array([[1.0, 0.0, 0.0, 0.0]]))
        pair = primal_dual_angles(Lorentz(4), w, seed=2)
        assert [r.method for r in pair] == ["multistart", "multistart"]

    def test_the_angle_switch_is_gone(self):
        w = subspace_from_rowspan(np.array([[1.0, 2.0, 0.5, 1.5], [0.3, -1.0, 1.2, 0.4]]))
        with pytest.raises(TypeError):
            analyze(Orthant(4), w, exact_angles=False)
        with pytest.raises(TypeError):
            primal_dual_angles(Orthant(4), w, exact_angles=False)


@st.composite
def gaussian_instances(draw):
    """A sign-orthant cone with 7 <= n <= 12 and a Gaussian m x n matrix, any m < n."""
    blocks = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 6)), min_size=1, max_size=3)
                  .filter(lambda b: 7 <= sum(k for _, k in b) <= 12))
    cone = orthant_like(blocks)
    m = draw(st.integers(1, cone.dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cone, rng.standard_normal((m, cone.dim))


class TestSideOrder:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(gaussian_instances())
    def test_touching_table_side_is_never_enumerated(self, instance):
        # The strict side equals its own exact solve bit for bit, and a side
        # whose realizable table marks the full support (its subspace meets
        # the cone's interior) is not solved.
        cone, a = instance
        w = subspace_from_rowspan(a)
        sides = {"primal": (cone, w), "dual": (dual_cone(cone), complement(w))}
        original = _enumerate_orthant_extremum
        signature = inspect.signature(original)
        tables = []

        def spy(*args, **kwargs):
            tables.append(signature.bind(*args, **kwargs).arguments.get("realizable"))
            return original(*args, **kwargs)

        with mock.patch.object(coniccond.cones, "_enumerate_orthant_extremum", spy):
            analysis = analyze(cone, None, a=a)
        assert tables
        assert not any(table is not None and table[-1] for table in tables)
        for name, (side_cone, side_w) in sides.items():
            result = getattr(analysis, name)
            if result.angle > ANGLE_THRESHOLD:
                assert _same(result, cone_subspace_angle(side_cone, side_w)), name


@st.composite
def sign_batches(draw):
    """(kind, subs, maximize): a batch of the principal submatrices eigh would see.

    The certificate screens K = subs for a minimum and K = I - subs for a
    maximum, formed as the enumeration forms it.  The kinds are the hard
    cases: lambda_1 and lambda_2 clustered, K near singular, a Z-matrix
    (its lambda_min eigenvector is the positive Perron vector of K^-1, so
    eigh accepts every support), and the two forms the enumeration meets,
    Gram matrices A_F^T A_F and projector blocks P_F.
    """
    size = draw(st.integers(2, 12))
    count = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["clustered", "near singular", "z-matrix", "gram", "projector"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "projector":
        n = size + draw(st.integers(1, 4))
        basis = np.linalg.qr(rng.standard_normal((count, n, n - size)))[0]
        proj = basis @ np.swapaxes(basis, 1, 2)
        return kind, 0.5 * (proj + np.swapaxes(proj, 1, 2))[:, :size, :size], True
    if kind == "gram":
        a = rng.standard_normal((count, size + draw(st.integers(0, 3)), size))
        a *= np.exp(draw(st.sampled_from([0.0, 1.5])) * rng.standard_normal((count, 1, size)))
        return kind, np.swapaxes(a, 1, 2) @ a, False
    if kind == "z-matrix":
        off = -np.abs(rng.standard_normal((count, size, size)))
        off = np.triu(off, 1) + np.swapaxes(np.triu(off, 1), 1, 2)
        shift = draw(st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]))
        k = off + (shift - off.sum(axis=2))[:, :, None] * np.eye(size)
        return kind, k, False
    lams = np.sort(np.exp(rng.standard_normal((count, size))), axis=1)
    if kind == "clustered":
        gap = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.3]))
        lams[:, 1] = lams[:, 0] * (1.0 + gap)
    else:
        lams[:, 0] = lams[:, 1] * draw(st.sampled_from([1e-4, 1e-7, 1e-9, 1e-12, 1e-16]))
    q = np.array([random_orthogonal(rng, size) for _ in range(count)])
    k = (q * lams[:, None, :]) @ np.swapaxes(q, 1, 2)
    return kind, 0.5 * (k + np.swapaxes(k, 1, 2)), False


class TestSignCertificate:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sign_batches())
    def test_rejects_only_what_eigh_rejects(self, batch):
        kind, subs, maximize = batch
        rejected, lower = _sign_rejections(subs, maximize)
        accepted, lams, _ = reference_decisions(subs, maximize)
        assert not np.any(rejected & accepted)
        lam1 = 1.0 - lams if maximize else lams
        assert np.all(lower[rejected] <= lam1[rejected])
        if kind == "z-matrix":
            assert not rejected.any()

    def test_rejects_most_gaussian_gram_supports(self):
        # The size-6 supports of a 9 x 12 Gaussian A: a dual-route minimum's batch.
        a = random_matrix(stream(18), 9, 12)
        supports = np.array(list(itertools.combinations(range(12), 6)))
        subs = (a.T @ a)[supports[:, :, None], supports[:, None, :]]
        rejected, lower = _sign_rejections(subs, False)
        accepted, lams, _ = reference_decisions(subs, False)
        assert not np.any(rejected & accepted)
        assert rejected.sum() >= 0.8 * (~accepted).sum()
        assert np.all(lower[rejected] <= lams[rejected])

    def test_singular_batch_rejects_nothing(self):
        subs = np.array([np.diag([1.0, -0.5, 2.0]), np.zeros((3, 3))])
        rejected, _ = _sign_rejections(subs, False)
        assert not rejected.any()

    @pytest.mark.parametrize("bad", ["indefinite", "singular"])
    def test_singular_member_voids_only_itself(self, bad):
        # The size-6 supports of a 9 x 12 Gaussian A, one of them replaced.
        a = random_matrix(stream(18), 9, 12)
        supports = np.array(list(itertools.combinations(range(12), 6)))
        subs = (a.T @ a)[supports[:, :, None], supports[:, None, :]]
        rejected, lower = _sign_rejections(subs, False)
        member = int(np.flatnonzero(rejected)[0])
        spoiled = subs.copy()
        spoiled[member] = np.diag([1.0, -0.5, 2.0, 1.0, 1.0, 1.0]) if bad == "indefinite" else 0.0
        spoiled_rejected, spoiled_lower = _sign_rejections(spoiled, False)
        others = np.arange(len(subs)) != member
        assert not spoiled_rejected[member]
        assert np.array_equal(spoiled_rejected[others], rejected[others])
        assert np.array_equal(spoiled_lower[others], lower[others])
        assert rejected[others].sum() >= 0.5 * len(subs)

    @pytest.mark.parametrize("count", [1, 65])
    def test_kernel_leaves_its_input_unchanged(self, count):
        a = np.random.default_rng(count).standard_normal((count, 9, 7))
        subs = np.swapaxes(a, 1, 2) @ a
        before = subs.copy()
        for maximize, batch in ((False, subs), (True, subs / 100.0)):
            kept = batch.copy()
            _sign_rejections(batch, maximize)
            assert np.array_equal(batch, kept)
        # The kernel works with the batch last; for a batch of one that
        # layout is a contiguous view of the caller's array.
        inverse, det = _spd_inverse(subs)
        assert np.array_equal(subs, before)
        assert np.allclose(inverse, np.linalg.inv(subs), rtol=1e-9, atol=0.0)
        assert np.allclose(det, np.linalg.det(subs), rtol=1e-9, atol=0.0)


class TestSignCertificateSweep:
    """Fixed-seed Gaussian orthant:12 instances, analyzed as a trial analyzes them.

    Every batch the sign certificate screens is checked support by support
    against the reference's own rule (reference_decisions): it rejects
    only supports the reference rejects, and its lower bound is at most
    the reference's lambda_min.  Every 10th instance also solves one
    extremum, in turn the primal angle, the dual angle and the dual-route
    minimum, and compares it bit for bit with full_orthant_extremum, which
    solves all 4095 supports.
    """

    @pytest.mark.parametrize("m", [3, 6, 9])
    def test_sweep_rejects_only_what_the_reference_rejects(self, monkeypatch, m):
        certify = coniccond.cones._sign_rejections
        rejections = []

        def checked(subs, maximize):
            rejected, lower = certify(subs, maximize)
            accepted, lams, _ = reference_decisions(subs, maximize)
            assert not np.any(rejected & accepted)
            lam1 = 1.0 - lams if maximize else lams
            assert np.all(lower[rejected] <= lam1[rejected])
            rejections.append(int(rejected.sum()))
            return rejected, lower

        monkeypatch.setattr(coniccond.cones, "_sign_rejections", checked)
        cone = Orthant(12)
        for i in range(667):
            a = random_matrix(stream(18 + m, i), m, 12)
            analysis = analyze(cone, None, a=a)
            if analysis.status.tag is Feasibility.DUAL_STRICT:
                analysis.dual_minimum
            if i % 10 == 0:
                _assert_reference_extremum(cone, a, (i // 10) % 3)
        assert sum(rejections) > 0


def _assert_reference_extremum(cone, a, kind):
    """One extremum of (cone, A) equals full_orthant_extremum bit for bit.

    kind 0 is the primal angle's maximum, 1 the dual angle's, and 2 the
    dual-route minimum over the dual cone.
    """
    w = subspace_from_rowspan(a)
    side_cone, side_w = (cone, w) if kind == 0 else (dual_cone(cone), complement(w))
    signs = side_cone.orthant_signs
    if kind == 2:
        ext = extremize_quadratic_over_cone(a.T @ a, side_cone, False, _factor=a)
        value, point = full_orthant_extremum(signs[:, None] * (a.T @ a) * signs)
    else:
        proj = side_w.projector()
        ext = extremize_quadratic_over_cone(proj, side_cone, True, _factor=side_w.basis)
        value, point = full_orthant_extremum(signs[:, None] * proj * signs, True)
    assert ext.value == value
    assert np.array_equal(ext.point, signs * point)
