import math

import numpy as np
import pytest

from coniccond import (
    Feasibility,
    Lorentz,
    Negated,
    NotBalanced,
    NotDualFeasible,
    NotPrimalFeasible,
    Orthant,
    XInComplement,
    ZeroVector,
    classify_feasibility,
    complement,
    distance_to_primal_feasible,
    dual_cone,
    grassmann_condition,
    inclusion_radius_check,
    iteration_bound_estimate,
    kappa,
    parse_cone,
    renegar_condition,
    sigma_distances,
    subspace_from_rowspan,
    witness_flip_dual_to_primal,
    witness_image,
    witness_kernel,
)
from coniccond.grassmann import angle_point_subspace
from conftest import random_balanced, random_matrix, random_spd, span, stream

SQ2 = math.sqrt(2.0)


class TestGrassmannCondition:
    def test_diagonal_line(self):
        value = grassmann_condition(Orthant(2), span([1 / SQ2, 1 / SQ2]))
        assert value.is_exact and value.value == pytest.approx(SQ2, rel=1e-12)

    def test_ill_posed_is_infinite(self):
        assert grassmann_condition(Orthant(2), span([1, 0])).value == math.inf

    def test_two_by_three_family(self):
        # W_eps = rowspan([[2e, 1, 1], [0, -1, 1]]) has condition
        # sqrt(1 + 2 e^2) / (e sqrt(2)).
        for eps in (0.1, 0.01):
            a = np.array([[2 * eps, 1.0, 1.0], [0.0, -1.0, 1.0]])
            expected = math.sqrt(1 + 2 * eps * eps) / (eps * SQ2)
            value = grassmann_condition(Orthant(3), subspace_from_rowspan(a)).value
            assert value == pytest.approx(expected, rel=1e-6)

    def test_duality_relation(self):
        # The condition of W against C equals that of W_perp against dual C.
        rng = stream(60)
        for trial in range(20):
            n, m = (5, 2) if trial % 2 else (6, 3)
            w = subspace_from_rowspan(random_matrix(rng, m, n))
            lhs = grassmann_condition(Orthant(n), w).value
            rhs = grassmann_condition(dual_cone(Orthant(n)), complement(w)).value
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_left_multiplication_invariance(self):
        rng = stream(61)
        for _ in range(10):
            a = random_matrix(rng, 2, 5)
            m = random_matrix(rng, 2, 2)
            while abs(np.linalg.det(m)) < 1e-3:
                m = random_matrix(rng, 2, 2)
            w1 = subspace_from_rowspan(a)
            w2 = subspace_from_rowspan(m @ a)
            s1 = classify_feasibility(Orthant(5), w1)
            s2 = classify_feasibility(Orthant(5), w2)
            assert s1.tag is s2.tag
            v1 = grassmann_condition(Orthant(5), w1).value
            v2 = grassmann_condition(Orthant(5), w2).value
            assert v1 == pytest.approx(v2, rel=1e-9)


class TestRenegarCondition:
    def test_balanced_row_agrees_with_dual_route(self):
        b = np.array([[1 / SQ2, 1 / SQ2]])
        value = renegar_condition(Orthant(2), b)
        assert value.is_exact and value.value == pytest.approx(SQ2, rel=1e-12)
        assert distance_to_primal_feasible(Orthant(2), b) == pytest.approx(1 / SQ2, rel=1e-12)

    def test_scale_invariance(self):
        b = np.array([[1 / SQ2, 1 / SQ2]])
        reference = renegar_condition(Orthant(2), b).value
        for c in (0.5, 3.0, 0.1, 7.0):
            assert renegar_condition(Orthant(2), c * b).value == pytest.approx(reference, rel=1e-10)

    def test_touching_matrix_is_infinite(self):
        assert renegar_condition(Orthant(2), np.array([[2.0, 0.0]])).value == math.inf

    def test_rank_deficient_routes(self):
        # Rank deficiency makes the instance dual feasible; here the
        # kernel meets the dual cone so the distance to primal is zero.
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        value = renegar_condition(Orthant(3), a)
        assert value.value == math.inf

    @pytest.mark.parametrize("cone, a, basis, bounds", [
        (Lorentz(4), [[1.0, 0.0, 0.0, 0.0]], "balanced:primal-angle", (SQ2, SQ2)),
        (Lorentz(3), [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], "sandwich", (SQ2, 2.0 * SQ2)),
        (Lorentz(3), [[0.0, 0.0, 2.0]], "dual-route-multistart", (SQ2, SQ2)),
        (Lorentz(3), [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]], "rank-deficient-dual-route-multistart",
         (SQ2, SQ2)),
        (Lorentz(3), [[1.0, 0.0, 1.0]], "ill-posed", (math.inf, math.inf)),
    ], ids=["balanced", "sandwich", "dual_route", "rank_deficient", "ill_posed"])
    def test_multistart_routes_are_heuristic(self, cone, a, basis, bounds):
        # Each route reads a multistart extremum on a Lorentz cone: the
        # angles behind the status and C(W), or the dual-route minimum.
        value = renegar_condition(cone, np.array(a))
        assert (value.kind, value.basis_of_claim, value.value) == ("heuristic", basis, None)
        assert value.bounds() == pytest.approx(bounds, rel=1e-9)
        assert set(value.to_json()) == {"kind", "lower", "upper", "basis"}

    def test_primal_interval_is_sandwich(self):
        rng = stream(62)
        seen = 0
        for trial in range(200):
            a = random_matrix(rng, 2, 4) * np.array([[1.0], [3.0]])
            w = subspace_from_rowspan(a)
            status = classify_feasibility(Orthant(4), w)
            if status.tag is not Feasibility.PRIMAL_STRICT:
                continue
            seen += 1
            value = renegar_condition(Orthant(4), a)
            grassmann = grassmann_condition(Orthant(4), w).value
            assert value.kind == "interval"
            assert value.lower == pytest.approx(grassmann, rel=1e-12)
            assert value.upper == pytest.approx(kappa(a) * grassmann, rel=1e-12)
            if seen >= 10:
                break
        assert seen >= 5


class TestSandwich:
    def test_scaled_balanced_instances(self):
        rng = stream(63)
        for trial in range(100):
            n, m = (5, 2) if trial % 2 else (6, 3)
            b = random_balanced(rng, m, n)
            a = random_spd(rng, m) @ b
            w = subspace_from_rowspan(a)
            grassmann = grassmann_condition(Orthant(n), w).value
            lower, upper = renegar_condition(Orthant(n), a).bounds()
            kap = kappa(a)
            assert grassmann <= lower + 1e-9
            assert upper <= kap * grassmann + 1e-9


class TestWitnessImage:
    def test_hand_example(self):
        b = np.array([[1.0, 0.0, 0.0]])
        x = np.array([1.0, 1.0, 0.0]) / SQ2
        witness = witness_image(b, x)
        np.testing.assert_allclose(witness.delta, [[-0.5, 0.5, 0.0]], atol=1e-12)
        assert witness.frob_norm == pytest.approx(1 / SQ2, abs=1e-12)
        assert witness.residual <= 1e-9
        assert np.linalg.matrix_rank(witness.delta) <= 1

    def test_inside_gives_zero(self):
        rng = stream(64)
        b = random_balanced(rng, 2, 5)
        x = b.T @ np.array([0.3, -0.7])
        witness = witness_image(b, x)
        assert witness.frob_norm <= 1e-9

    def test_norm_is_sine_of_angle(self):
        rng = stream(65)
        for _ in range(50):
            b = random_balanced(rng, 2, 5)
            x = random_matrix(rng, 5, 1)[:, 0]
            alpha = angle_point_subspace(x, subspace_from_rowspan(b))
            witness = witness_image(b, x)
            assert witness.frob_norm == pytest.approx(math.sin(alpha), abs=1e-10)
            assert witness.residual <= 1e-9

    def test_point_of_the_row_span_needs_no_perturbation(self):
        witness = witness_image(np.array([[1.0, 0.0, 0.0]]), np.array([2.0, 0.0, 0.0]))
        assert np.array_equal(witness.delta, np.zeros((1, 3)))
        assert witness.frob_norm == 0.0

    def test_errors(self):
        with pytest.raises(NotBalanced):
            witness_image(np.array([[2.0, 0.0, 0.0]]), np.ones(3))
        with pytest.raises(XInComplement):
            witness_image(np.array([[1.0, 0.0, 0.0]]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ZeroVector):
            witness_image(np.array([[1.0, 0.0, 0.0]]), np.zeros(3))


class TestWitnessKernel:
    def test_hand_example(self):
        b = np.array([[1.0, 0.0, 0.0]])
        x = np.array([1.0, 1.0, 0.0]) / SQ2
        witness = witness_kernel(b, x)
        np.testing.assert_allclose(witness.delta, [[-0.5, -0.5, 0.0]], atol=1e-12)
        assert witness.frob_norm == pytest.approx(1 / SQ2, abs=1e-12)
        assert witness.residual <= 1e-10

    def test_orthogonal_case_is_zero(self):
        b = np.array([[1.0, 0.0, 0.0]])
        witness = witness_kernel(b, np.array([0.0, 0.0, 2.0]))
        assert witness.frob_norm <= 1e-12
        assert witness.residual <= 1e-12

    def test_norm_is_cosine_of_angle(self):
        rng = stream(66)
        for _ in range(50):
            b = random_balanced(rng, 2, 5)
            x = random_matrix(rng, 5, 1)[:, 0]
            alpha = angle_point_subspace(x, subspace_from_rowspan(b))
            witness = witness_kernel(b, x)
            assert witness.frob_norm == pytest.approx(math.cos(alpha), abs=1e-10)
            assert witness.residual <= 1e-12


class TestWitnessFlip:
    def test_hand_example(self):
        a = np.array([[1 / SQ2, 1 / SQ2]])
        witness = witness_flip_dual_to_primal(Orthant(2), a)
        np.testing.assert_allclose(witness.vector, [-1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(witness.delta, [[-1 / SQ2, 0.0]], atol=1e-12)
        assert witness.frob_norm == pytest.approx(1 / SQ2, abs=1e-12)
        assert witness.residual <= 1e-9
        # the perturbed matrix admits the dual-cone kernel direction
        perturbed = a + witness.delta
        assert np.linalg.norm(perturbed @ witness.vector) <= 1e-12

    def test_tie_breaks_to_smallest_support(self):
        # Symmetric instance: both -e1 and -e2 minimize; the first wins.
        a = np.array([[1 / SQ2, 1 / SQ2]])
        witness = witness_flip_dual_to_primal(Orthant(2), a)
        np.testing.assert_allclose(witness.vector, [-1.0, 0.0], atol=1e-12)

    def test_degenerate_plane_reports_infinite(self):
        # rowspan([[1,0,0],[0,1,0]]) touches the cone: the dual-route
        # minimum is zero and the flip witness is refused.
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert distance_to_primal_feasible(Orthant(3), a) <= 1e-12
        assert renegar_condition(Orthant(3), a).value == math.inf
        with pytest.raises(NotDualFeasible):
            witness_flip_dual_to_primal(Orthant(3), a)

    def test_rejects_primal_instances(self):
        with pytest.raises(NotDualFeasible):
            witness_flip_dual_to_primal(Orthant(2), np.array([[1.0, -1.0]]))

    def test_random_dual_instances(self):
        rng = stream(67)
        tried = 0
        for _ in range(100):
            a = random_matrix(rng, 2, 5)
            w = subspace_from_rowspan(a)
            if classify_feasibility(Orthant(5), w).tag is not Feasibility.DUAL_STRICT:
                continue
            tried += 1
            witness = witness_flip_dual_to_primal(Orthant(5), a)
            assert witness.residual <= 1e-9
            assert witness.frob_norm == pytest.approx(
                distance_to_primal_feasible(Orthant(5), a), rel=1e-9
            )
            if tried >= 10:
                break
        assert tried >= 5


class TestWitnessTightness:
    def test_no_smaller_rank_one_reaches_the_span(self):
        # Grid search over rank-one perturbations of a single-row balanced
        # matrix: nothing below sin(alpha) - 0.02 pulls x into the
        # perturbed row span.  For one row the angle to the span has the
        # direct formula arccos(|row . x| / ||row||).
        rng = stream(68)
        b = random_balanced(rng, 1, 3)
        x = random_matrix(rng, 3, 1)[:, 0]
        x /= np.linalg.norm(x)
        alpha = angle_point_subspace(x, subspace_from_rowspan(b))
        target = math.sin(alpha)
        if target <= 0.05:
            pytest.skip("degenerate draw")
        phis = np.linspace(0.0, 2 * math.pi, 180, endpoint=False)
        psis = np.linspace(0.0, 2 * math.pi, 60, endpoint=False)
        phi, psi = np.meshgrid(phis, psis, indexing="ij")
        dirs = np.stack(
            [np.cos(phi), np.sin(phi) * np.cos(psi), np.sin(phi) * np.sin(psi)], axis=-1
        ).reshape(-1, 3)
        norms = np.arange(0.02, target - 0.02, 0.02)
        for sign in (1.0, -1.0):
            # rows shape: (directions, norms, 3)
            rows = b[0][None, None, :] + sign * norms[None, :, None] * dirs[:, None, :]
            row_norms = np.linalg.norm(rows, axis=-1)
            valid = row_norms > 1e-9
            cosines = np.abs(rows @ x) / np.where(valid, row_norms, 1.0)
            angles = np.arccos(np.clip(cosines, 0.0, 1.0))
            assert np.all(angles[valid] > 1e-6)


class TestSigmaDistances:
    def test_ill_posed(self):
        assert sigma_distances(Orthant(2), span([1, 0])) == (0.0, 0.0)

    def test_diagonal_line(self):
        d_p, d_g = sigma_distances(Orthant(2), span([math.cos(math.pi / 4), math.sin(math.pi / 4)]))
        assert d_p == pytest.approx(1 / SQ2, rel=1e-12)
        assert d_g == pytest.approx(math.pi / 4, rel=1e-12)

    def test_family_value(self):
        eps = 0.1
        a = np.array([[2 * eps, 1.0, 1.0], [0.0, -1.0, 1.0]])
        d_p, d_g = sigma_distances(Orthant(3), subspace_from_rowspan(a))
        expected = eps * SQ2 / math.sqrt(1 + 2 * eps * eps)
        assert d_p == pytest.approx(expected, rel=1e-9)
        assert d_g == pytest.approx(math.asin(expected), rel=1e-9)

    def test_round_trip(self):
        rng = stream(69)
        for _ in range(20):
            w = subspace_from_rowspan(random_matrix(rng, 2, 5))
            d_p, d_g = sigma_distances(Orthant(5), w)
            assert abs(math.sin(d_g) - d_p) <= 1e-12


class TestInclusionRadius:
    def test_planar_line(self):
        est, ok = inclusion_radius_check(Orthant(2), span([1, -1]), samples=2000, seed=1)
        assert ok and est == pytest.approx(math.sin(math.pi / 4), rel=0.1)

    def test_line_projects_only_its_two_directions(self, monkeypatch):
        # +-1 is the whole unit sphere of a line: no random direction is drawn.
        rows, original = [], Negated.project

        def counted(self, x):
            if np.ndim(x) == 2:
                rows.append(len(x))
            return original(self, x)

        monkeypatch.setattr(Negated, "project", counted)
        inclusion_radius_check(Orthant(3), span([1, -1, 0]), samples=2000, seed=2)
        assert sum(rows) == 2

    def test_three_dim_line(self):
        est, ok = inclusion_radius_check(Orthant(3), span([1, -1, 0]), samples=2000, seed=2)
        assert ok and est == pytest.approx(math.sin(math.pi / 4), rel=0.1)

    def test_four_dim_subspace_uses_random_directions(self):
        # W is orthogonal to (1, ..., 1), so it meets the orthant only at 0.
        a = random_matrix(stream(66), 4, 6)
        w = subspace_from_rowspan(a - a.mean(axis=1, keepdims=True))
        est, ok = inclusion_radius_check(Orthant(6), w, samples=2000, seed=3)
        assert ok

    def test_rejects_dual_feasible(self):
        with pytest.raises(NotPrimalFeasible):
            inclusion_radius_check(Orthant(2), span([1, 1]), samples=2000)

    # Lorentz instances send the direction stack through the row-wise
    # Lorentz projection.  The cone has axis e_n and half-aperture pi/4, so
    # a primal strict W lies at angle(e_n, W) - pi/4 from it.
    def test_lorentz_line(self):
        est, ok = inclusion_radius_check(Lorentz(3), span([1, 0, 0]), samples=2000, seed=1)
        assert ok is True and est == pytest.approx(math.sin(math.pi / 4), rel=0.1)

    def test_lorentz_plane(self):
        w = span([1, 0, 0, 0], [0, 1, 0, 0.5])
        angle = angle_point_subspace([0, 0, 0, 1], w) - math.pi / 4
        est, ok = inclusion_radius_check(Lorentz(4), w, samples=2000, seed=1)
        assert ok is True and est == pytest.approx(math.sin(angle), rel=0.1)

    def test_product_line(self):
        # For a line, cos angle(C, W) is the larger projection norm of +-v.
        cone = parse_cone("product(orthant:2,lorentz:3)")
        v = np.array([1.0, -1.0, 0.3, 0.2, 0.1])
        v /= np.linalg.norm(v)
        cos = max(np.linalg.norm(cone.project(v)), np.linalg.norm(cone.project(-v)))
        est, ok = inclusion_radius_check(cone, span(v), samples=2000, seed=1)
        assert ok is True and est == pytest.approx(math.sqrt(1.0 - cos * cos), rel=0.1)


class TestIterationBound:
    def test_values(self):
        assert iteration_bound_estimate(10.0, 100) == pytest.approx(10.0 * math.log(1000.0))
        assert iteration_bound_estimate(1.0, 4) == pytest.approx(2.0 * math.log(4.0))
        assert iteration_bound_estimate(math.inf, 4) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            iteration_bound_estimate(0.5, 4)
        with pytest.raises(ValueError):
            iteration_bound_estimate(2.0, 1)
