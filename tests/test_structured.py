"""Feasibility status on structured inputs, against a scipy linprog oracle.

Every other property test draws Gaussian data, which is in general
position with probability one.  Here the matrices are ternary, sparse,
carry duplicated, antiparallel or zero columns, or are ill posed by
construction (conftest.structured_matrix), and the cones are the
sign-orthants: x lies in C iff d * x >= 0, and the dual cone is -C.
By Gordan's alternative:
* W meets int C (dual strict) iff max t subject to d * (A^T y) >= t,
  |y_i| <= 1 is positive;
* W meets C only at 0 (primal strict) iff some x in ker A lies in
  int(dual C), that is iff max t subject to -d * x >= t, A x = 0,
  |x_i| <= 1 is positive;
* otherwise W is ill posed, and both angles must lie within
  ANGLE_THRESHOLD of 0 and R(A) be infinite.
The data are small integers, so a positive margin is far above the LP's
rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from coniccond import Feasibility, Negated, Orthant, Product, analyze
from coniccond.tolerances import ANGLE_THRESHOLD
from conftest import STRUCTURED_KINDS, structured_matrix, stream

# An LP optimum above this is a positive margin.
LP_MARGIN = 1e-9

seeds = st.integers(0, 2**32 - 1)
shapes = st.integers(2, 8).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n)))


def _cone(kind, n, split):
    if kind == "orthant":
        return Orthant(n)
    if kind == "negated":
        return Negated(Orthant(n))
    return Product([Orthant(split), Negated(Orthant(n - split))])


def _lp_margin(c_rows, a_eq=None):
    """max t subject to c_rows @ v >= t, |v_i| <= 1 and a_eq @ v = 0."""
    count, dim = c_rows.shape
    eq = {} if a_eq is None else dict(A_eq=np.c_[a_eq, np.zeros(len(a_eq))],
                                      b_eq=np.zeros(len(a_eq)))
    # Variables (v, t): minimize -t subject to t - c_rows @ v <= 0.
    res = linprog(np.r_[np.zeros(dim), -1.0], A_ub=np.c_[-c_rows, np.ones(count)],
                  b_ub=np.zeros(count), bounds=[(-1.0, 1.0)] * dim + [(None, None)],
                  method="highs", **eq)
    assert res.status == 0, res.message
    return -float(res.fun)


def lp_status(a, signs):
    """The status of row span(a) against the sign-orthant with sign vector ``signs``."""
    if _lp_margin((a * signs).T) > LP_MARGIN:
        return Feasibility.DUAL_STRICT
    if _lp_margin(-np.diag(signs), a_eq=a) > LP_MARGIN:
        return Feasibility.PRIMAL_STRICT
    return Feasibility.ILL_POSED


@settings(max_examples=200, deadline=None)
@given(shape=shapes, seed=seeds, kind=st.sampled_from(STRUCTURED_KINDS),
       cone_kind=st.sampled_from(["orthant", "negated", "product"]))
def test_status_matches_the_lp_oracle(shape, seed, kind, cone_kind):
    m, n = shape
    rng = stream(seed)
    cone = _cone(cone_kind, n, int(rng.integers(1, n)))
    # Flipping the columns with d maps an instance on the orthant to the
    # same instance on the cone, so ill_posed stays ill posed.
    a = structured_matrix(rng, m, n, kind) * cone.orthant_signs
    expected = lp_status(a, cone.orthant_signs)
    if kind == "ill_posed":
        assert expected is Feasibility.ILL_POSED
    analysis = analyze(cone, None, a=a)
    assert analysis.status.tag is expected
    if expected is Feasibility.ILL_POSED:
        assert analysis.primal.angle <= ANGLE_THRESHOLD
        assert analysis.dual.angle <= ANGLE_THRESHOLD
        assert analysis.renegar().bounds() == (math.inf, math.inf)
