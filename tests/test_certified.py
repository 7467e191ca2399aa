"""Certified classification: exact strict angles, certified touching ones."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coniccond.cones
from coniccond import (
    InconsistentClassification,
    Lorentz,
    Orthant,
    analyze,
    angle_point_subspace,
    classify_feasibility,
    complement,
    dual_cone,
    subspace_from_rowspan,
)
from coniccond.cones import ANGLE_THRESHOLD, _enumerate_orthant_extremum, primal_dual_angles
from conftest import orthant_like


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
            and result.certified_gap == other.certified_gap
            and np.array_equal(result.witness, other.witness))


class TestCertifiedAngles:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances())
    def test_certified_pair_matches_exact_pair(self, instance):
        cone, w = instance
        try:
            tag = classify_feasibility(cone, w).tag
        except InconsistentClassification:
            with pytest.raises(InconsistentClassification):
                analyze(cone, w, exact_angles=False).status
            return
        exact = primal_dual_angles(cone, w)
        certified = primal_dual_angles(cone, w, exact_angles=False)
        assert analyze(cone, w, exact_angles=False).status.tag is tag
        for side, full, cert, side_cone in zip(("primal", "dual"), exact, certified,
                                               (cone, dual_cone(cone))):
            if full.angle > ANGLE_THRESHOLD:
                # The strict side is the full enumeration, bit for bit.
                assert cert.method == "exact", side
                assert cert.angle == full.angle, side
                assert np.array_equal(cert.witness, full.witness), side
            elif cert.method == "exact":
                # Solved in full: no table showed it touching, or the certificate failed.
                assert cert.angle == full.angle <= ANGLE_THRESHOLD, side
                assert np.array_equal(cert.witness, full.witness), side
            else:
                assert cert.method == "certificate", side
                assert cert.angle <= ANGLE_THRESHOLD, side
                gap = 1.0 - math.cos(cert.angle)
                assert cert.certified_gap == pytest.approx(gap, rel=1e-9), side
                assert np.array_equal(side_cone.project(cert.witness), cert.witness), side
                assert np.linalg.norm(cert.witness) == pytest.approx(1.0, abs=1e-12), side


class TestCertificatePaths:
    def test_primal_strict_certifies_dual_from_witness(self):
        # Two generic directions of R^6 miss the orthant: the dual side
        # comes from the KKT point, not from a second enumeration.
        w = subspace_from_rowspan(np.array([[1.0, -2.0, 0.5, 0.0, 1.0, -1.0],
                                            [0.0, 1.0, -1.5, -0.4, 0.3, 0.2]]))
        primal, dual = primal_dual_angles(Orthant(6), w, exact_angles=False)
        assert primal.method == "exact" and primal.angle > ANGLE_THRESHOLD
        assert dual.method == "certificate" and dual.angle <= ANGLE_THRESHOLD
        y = primal.witness
        expected = np.minimum(w.project(y) - y, 0.0)
        assert np.allclose(dual.witness, expected / np.linalg.norm(expected), atol=1e-15)
        assert angle_point_subspace(dual.witness, complement(w)) <= ANGLE_THRESHOLD

    def test_failed_certificate_solves_dual(self, monkeypatch):
        monkeypatch.setattr(coniccond.cones, "_certify_touches", lambda *args: None)
        w = subspace_from_rowspan(np.array([[1.0, -2.0, 0.5, 0.0], [0.0, 1.0, -1.5, -0.4]]))
        primal, dual = primal_dual_angles(Orthant(4), w, exact_angles=False)
        assert primal.method == "exact" and primal.angle > ANGLE_THRESHOLD
        # The dual side is solved exactly instead.
        assert dual.method == "exact" and dual.angle <= ANGLE_THRESHOLD
        assert _same(dual, primal_dual_angles(Orthant(4), w)[1])

    def test_dual_strict_certifies_primal_from_witness(self):
        # dim W_perp = 2 < dim W = 4: the dual side is solved first and the
        # primal side comes from its KKT point.
        w = subspace_from_rowspan(np.random.default_rng(0).standard_normal((4, 6)))
        perp = complement(w)
        primal, dual = primal_dual_angles(Orthant(6), w, exact_angles=False)
        assert dual.method == "exact" and dual.angle > ANGLE_THRESHOLD
        assert primal.method == "certificate" and primal.angle <= ANGLE_THRESHOLD
        y = dual.witness
        expected = np.maximum(perp.project(y) - y, 0.0)
        assert np.allclose(primal.witness, expected / np.linalg.norm(expected), atol=1e-15)
        assert angle_point_subspace(primal.witness, w) <= ANGLE_THRESHOLD
        exact = primal_dual_angles(Orthant(6), w)
        assert dual.angle == exact[1].angle and np.array_equal(dual.witness, exact[1].witness)

    def test_failed_primal_certificate_solves_primal(self, monkeypatch):
        monkeypatch.setattr(coniccond.cones, "_certify_touches", lambda *args: None)
        w = subspace_from_rowspan(np.random.default_rng(0).standard_normal((4, 6)))
        primal, dual = primal_dual_angles(Orthant(6), w, exact_angles=False)
        assert dual.method == "exact" and dual.angle > ANGLE_THRESHOLD
        # The primal side is solved exactly instead.
        assert primal.method == "exact" and primal.angle <= ANGLE_THRESHOLD
        assert _same(primal, primal_dual_angles(Orthant(6), w)[0])

    def test_dual_strict_stops_primal(self):
        # n = 4 takes no realizable table, so nothing shows that the primal side,
        # solved first (dim W = dim W_perp), touches: it is solved in full, and
        # the dual side after it.
        w = subspace_from_rowspan(np.array([[1.0, 2.0, 0.5, 1.5], [0.3, -1.0, 1.2, 0.4]]))
        primal, dual = primal_dual_angles(Orthant(4), w, exact_angles=False)
        assert primal.method == "exact" and primal.angle <= ANGLE_THRESHOLD
        assert dual.method == "exact" and dual.angle > ANGLE_THRESHOLD
        exact = primal_dual_angles(Orthant(4), w)
        assert _same(primal, exact[0]) and _same(dual, exact[1])

    def test_multistart_is_never_certified(self):
        w = subspace_from_rowspan(np.array([[1.0, 0.0, 0.0, 0.0]]))
        for exact_angles in (True, False):
            pair = primal_dual_angles(Lorentz(4), w, seed=2, exact_angles=exact_angles)
            assert [r.method for r in pair] == ["multistart", "multistart"]

    def test_exact_angles_default_keeps_both_exact(self):
        w = subspace_from_rowspan(np.array([[1.0, 2.0, 0.5, 1.5], [0.3, -1.0, 1.2, 0.4]]))
        assert [r.method for r in primal_dual_angles(Orthant(4), w)] == ["exact", "exact"]


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
        # Trials solve the strict side and certify the other one; every number
        # equals that of the exact pair, and a side whose realizable table marks
        # the full support (its subspace meets the cone's interior) is not solved.
        cone, a = instance
        exact = analyze(cone, None, a=a)
        original = _enumerate_orthant_extremum
        signature = inspect.signature(original)
        tables = []

        def spy(*args, **kwargs):
            tables.append(signature.bind(*args, **kwargs).arguments.get("realizable"))
            return original(*args, **kwargs)

        with mock.patch.object(coniccond.cones, "_enumerate_orthant_extremum", spy):
            trial = analyze(cone, None, a=a, exact_angles=False)
        assert tables
        assert not any(table is not None and table[-1] for table in tables)
        assert trial.status.tag is exact.status.tag
        strict = "primal" if exact.status.primal_angle > ANGLE_THRESHOLD else "dual"
        assert _same(getattr(trial, strict), getattr(exact, strict))
        assert trial.grassmann == exact.grassmann
        assert trial.renegar() == exact.renegar()
