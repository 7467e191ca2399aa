"""Invariances of the feasibility tag and C(W), on Gaussian instances from hypothesis seeds.

Also that each report's witness is the perturbation whose norm the
report's condition number gives, that R(A) and GCC(A) are invariant
under positive scalings, and the sandwich C(W) <= R(A) <= kappa(A) C(W).
The cones here are orthant-like, so every angle comes from the exact
route and these hold to rounding.  That rounding grows with C(W):
C(W) = 1/sin(angle) is read from cos^2(angle), whose rounding error eps
becomes a relative error of about eps C(W)^2 in C(W) (2.4e-9 at
C(W) = 4652, n = 2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniccond import (Feasibility, Orthant, analyze, complement, condition_report, gcc_condition,
                       subspace_from_rowspan)
from coniccond.tolerances import SANDWICH_SLACK
from conftest import orthant_like, random_matrix, stream

SWAPPED = {
    Feasibility.PRIMAL_STRICT: Feasibility.DUAL_STRICT,
    Feasibility.DUAL_STRICT: Feasibility.PRIMAL_STRICT,
    Feasibility.ILL_POSED: Feasibility.ILL_POSED,
}
EPS = float(np.finfo(float).eps)

seeds = st.integers(0, 2**32 - 1)
shapes = st.integers(2, 8).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n)))


def _tag_and_condition(cone, w):
    analysis = analyze(cone, w)
    return analysis.status.tag, analysis.grassmann.value


def _assert_same_condition(got, expected, condition=None):
    """got == expected within rel 1e-9 + 16 eps C^2, C = ``condition`` or else expected."""
    if math.isinf(expected):
        assert got == expected
    else:
        condition = expected if condition is None else condition
        assert got == pytest.approx(expected, rel=1e-9 + 16.0 * EPS * condition**2)


def _orthant_like(kind: str, n: int):
    blocks = {"orthant": [(True, n)], "negated": [(False, n)],
              "product": [(True, n // 2), (False, n - n // 2)],
              "split": [(True, 1), (False, n - 1)]}
    return orthant_like(blocks[kind])


@settings(max_examples=50, deadline=None)
@given(shape=shapes, seed=seeds, kind=st.sampled_from(["orthant", "negated", "product"]))
def test_duality_symmetry(shape, seed, kind):
    # C_C(W) = C_{dual C}(W_perp), with the primal and dual tags swapped.
    m, n = shape
    cone = _orthant_like(kind, n)
    w = subspace_from_rowspan(random_matrix(stream(seed), m, n))
    tag, value = _tag_and_condition(cone, w)
    dual_tag, dual_value = _tag_and_condition(cone.dual(), complement(w))
    assert dual_tag is SWAPPED[tag]
    _assert_same_condition(dual_value, value)


@settings(max_examples=50, deadline=None)
@given(shape=shapes, seed=seeds)
def test_orthant_coordinate_permutation(shape, seed):
    m, n = shape
    a = random_matrix(stream(seed), m, n)
    perm = stream(seed, 1).permutation(n)
    tag, value = _tag_and_condition(Orthant(n), subspace_from_rowspan(a))
    perm_tag, perm_value = _tag_and_condition(Orthant(n), subspace_from_rowspan(a[:, perm]))
    assert perm_tag is tag
    _assert_same_condition(perm_value, value)


@settings(max_examples=50, deadline=None)
@given(shape=shapes, seed=seeds, kind=st.sampled_from(["orthant", "negated", "product"]))
def test_change_of_basis(shape, seed, kind):
    # The row spans of A and M A are one subspace for invertible M.
    m, n = shape
    cone = _orthant_like(kind, n)
    a = random_matrix(stream(seed), m, n)
    rng = stream(seed, 1)
    basis_change = random_matrix(rng, m, m)
    while np.linalg.cond(basis_change) > 1e3:
        basis_change = random_matrix(rng, m, m)
    tag, value = _tag_and_condition(cone, subspace_from_rowspan(a))
    new_tag, new_value = _tag_and_condition(cone, subspace_from_rowspan(basis_change @ a))
    assert new_tag is tag
    _assert_same_condition(new_value, value)


@settings(max_examples=100, deadline=None)
@given(shape=shapes, seed=seeds, kind=st.sampled_from(["orthant", "negated", "product", "split"]))
def test_witness_norm_is_the_reported_distance(shape, seed, kind):
    # A primal strict report's perturbation of the balanced representative
    # has norm 1/C(W); a dual strict report's perturbation of A has norm
    # sigma_1(A) / R(A), the dual-route minimum.
    m, n = shape
    cone = _orthant_like(kind, n)
    a = random_matrix(stream(seed), m, n)
    report = condition_report(cone, a, include_witnesses=True)
    if report["status"] == Feasibility.ILL_POSED.value:
        return
    (witness,) = report["witnesses"]
    grassmann = report["grassmann"]
    if report["status"] == Feasibility.PRIMAL_STRICT.value:
        _assert_same_condition(witness["frob_norm"] * grassmann, 1.0, grassmann)
    else:
        _assert_same_condition(witness["frob_norm"] * report["renegar"]["value"],
                               float(np.linalg.norm(a, 2)), grassmann)


@settings(max_examples=50, deadline=None)
@given(shape=shapes, seed=seeds, kind=st.sampled_from(["orthant", "negated", "product"]),
       log_scale=st.floats(-3.0, 3.0))
def test_renegar_scale_invariance(shape, seed, kind, log_scale):
    # R(tA) = R(A): ||tA|| and its distance to the ill-posed set both scale
    # by t.  A Gaussian A is not balanced, so tA takes the same route.
    m, n = shape
    cone = _orthant_like(kind, n)
    a = random_matrix(stream(seed), m, n)
    value = analyze(cone, None, a=a).renegar()
    scaled = analyze(cone, None, a=10.0**log_scale * a).renegar()
    assert (scaled.kind, scaled.basis_of_claim) == (value.kind, value.basis_of_claim)
    for got, expected in zip(scaled.bounds(), value.bounds()):
        _assert_same_condition(got, expected, value.bounds()[1])


@settings(max_examples=50, deadline=None)
@given(shape=shapes, seed=seeds)
def test_gcc_column_scaling_invariance(shape, seed):
    # GCC reads the normalized columns, so GCC(AD) = GCC(A) for positive
    # diagonal D.  1/|cos rho| moves by about eps GCC^2 when the
    # normalized columns move by eps, which matters near rho = pi/2.
    m, n = shape
    a = random_matrix(stream(seed), m, n)
    scales = 10.0 ** stream(seed, 1).uniform(-3.0, 3.0, n)
    _assert_same_condition(gcc_condition(a * scales).value, gcc_condition(a).value)


@settings(max_examples=100, deadline=None)
@given(shape=shapes, seed=seeds, kind=st.sampled_from(["orthant", "negated", "product", "split"]))
def test_sandwich(shape, seed, kind):
    # C(W) <= R(A) <= kappa(A) C(W) on every route: balanced, the exact
    # dual route, the primal interval and ill posed.
    m, n = shape
    analysis = analyze(_orthant_like(kind, n), None, a=random_matrix(stream(seed), m, n))
    grassmann, kap = analysis.grassmann.value, analysis.kappa
    lower, upper = analysis.renegar().bounds()
    if math.isinf(grassmann):
        assert math.isinf(lower) and math.isinf(upper)
        return
    assert grassmann <= lower * (1.0 + SANDWICH_SLACK) + SANDWICH_SLACK
    assert lower <= upper <= kap * grassmann * (1.0 + SANDWICH_SLACK) + SANDWICH_SLACK
