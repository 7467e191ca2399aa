"""Dual-route minimum: interlacing prune and certified cap, bit for bit against every support."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from coniccond import Feasibility, Orthant, RankDeficient, analyze, distance_to_primal_feasible
from coniccond.condition import _min_image_over_dual
from coniccond.cones import dual_cone
from coniccond.tolerances import GORDAN_MARGIN
from conftest import count_decided, full_orthant_minimum, orthant_like, random_matrix, stream


def _reference(cone, a):
    """(value, p) of min ||A p|| over unit p in the dual cone, every support solved."""
    signs = dual_cone(cone).orthant_signs
    value, y = full_orthant_minimum(signs[:, None] * (a.T @ a) * signs[None, :])
    return float(np.sqrt(max(value, 0.0))), signs * y


def _certificate_holds(cone, a):
    """Gordan's certificate of the rank cap: K x > GORDAN_MARGIN (||K|| x^T K x)^(1/2).

    K is A^T A in sign-conjugated coordinates, x its minimizer over the
    supports of at most m coordinates, and ||K|| is bounded by the largest
    absolute row sum.
    """
    signs = dual_cone(cone).orthant_signs
    k = signs[:, None] * (a.T @ a) * signs[None, :]
    _, x = full_orthant_minimum(k, max_size=len(a))
    w = k @ x
    return w.min() > GORDAN_MARGIN * math.sqrt(max(np.abs(k).sum(axis=1).max() * (x @ w), 0.0))


@st.composite
def instances(draw):
    """An orthant-like cone with n <= 12 and an m x n matrix, m < n, often near-degenerate."""
    blocks = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 6)), min_size=1, max_size=3)
                  .filter(lambda b: 2 <= sum(k for _, k in b) <= 12))
    cone = orthant_like(blocks)
    n = cone.dim
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, n))
    kind = draw(st.sampled_from(["gaussian", "column scales", "near-opposite columns",
                                 "near-equal rows"]))
    if kind == "column scales":
        a *= np.exp(1.5 * rng.standard_normal(n))
    elif kind == "near-opposite columns":
        i, j = rng.choice(n, 2, replace=False)
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
        a[:, i] = -a[:, j] + eps * rng.standard_normal(m)
    elif kind == "near-equal rows" and m >= 2:
        # kappa(A) near 1e6, or near 1e8, where the rank cap rests on the certificate alone.
        i, j = rng.choice(m, 2, replace=False)
        step = rng.standard_normal(n)
        scale = draw(st.sampled_from([1e-6, 1e-8]))
        a[i] = a[j] + scale * np.linalg.norm(a[j]) * step / np.linalg.norm(step)
    return cone, a


@pytest.fixture
def dual_strict():
    """A Gaussian dual strict (12, 6) instance whose dual-route minimum is capped at m."""
    a = random_matrix(stream(0), 6, 12)
    analysis = analyze(Orthant(12), None, a=a)
    assert analysis.status.tag is Feasibility.DUAL_STRICT
    assert _certificate_holds(Orthant(12), a)
    return a, analysis


class TestAgainstEverySupport:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances())
    def test_dual_minimum_is_the_full_enumeration_bit_for_bit(self, instance):
        cone, a = instance
        try:
            analysis = analyze(cone, None, a=a)
        except RankDeficient:
            assume(False)
        value, p, method = analysis.dual_minimum
        ref_value, ref_p = _reference(cone, a)
        assert method == "exact"
        assert value == ref_value
        assert np.array_equal(p, ref_p)


class TestSolvedSupports:
    def test_capped_minimum_solves_no_support_above_m(self, monkeypatch, dual_strict):
        a, analysis = dual_strict
        (value, p, _), sizes, solved = count_decided(monkeypatch,
                                                     lambda: analysis.dual_minimum)
        assert max(sizes) == 6
        assert sum(sizes.values()) < 2**12 - 1
        # The sign certificate settles most of them without eigh.
        assert sum(solved.values()) < sum(sizes.values())
        ref_value, ref_p = _reference(Orthant(12), a)
        assert value == ref_value
        assert np.array_equal(p, ref_p)

    def test_certificate_holds_at_a_large_condition_and_caps_at_m(self, monkeypatch,
                                                                  dual_strict):
        # kappa(A) does not enter the certificate: a row scaled by 1e-7 leaves
        # the witness's coordinates far above GORDAN_MARGIN R(A).
        a, _ = dual_strict
        a = a.copy()
        a[0] *= 1e-7
        analysis = analyze(Orthant(12), None, a=a)
        assert analysis.status.tag is Feasibility.DUAL_STRICT
        assert analysis.kappa >= 1e7
        assert _certificate_holds(Orthant(12), a)
        (value, p, _), sizes, _ = count_decided(monkeypatch, lambda: analysis.dual_minimum)
        assert max(sizes) == 6
        ref_value, ref_p = _reference(Orthant(12), a)
        assert value == ref_value
        assert np.array_equal(p, ref_p)

    def test_distance_to_primal_feasible_takes_the_certified_cap(self, monkeypatch, dual_strict):
        a, _ = dual_strict
        value, sizes, _ = count_decided(monkeypatch,
                                        lambda: distance_to_primal_feasible(Orthant(12), a))
        assert max(sizes) == 6
        assert sum(sizes.values()) < 2**12 - 1
        assert value == _reference(Orthant(12), a)[0]

    def test_refused_certificate_solves_every_size_above_m(self, monkeypatch):
        # A positive kernel vector: A is primal feasible, at distance 0, and the
        # minimizer's support has more than m coordinates.  Sizes below m may
        # all be pruned under the best size-m value.
        a = random_matrix(stream(0), 6, 12)
        a[:, -1] = -a[:, :-1] @ np.abs(random_matrix(stream(1), 1, 11)[0])
        assert not _certificate_holds(Orthant(12), a)
        (value, p, _), sizes, _ = count_decided(monkeypatch,
                                                lambda: _min_image_over_dual(Orthant(12), a, 0))
        assert all(sizes[size] > 0 for size in range(6, 13))
        assert np.count_nonzero(p) > 6
        ref_value, ref_p = _reference(Orthant(12), a)
        assert value == ref_value
        assert np.array_equal(p, ref_p)
