import math

import numpy as np
import pytest

from coniccond import (
    DimensionError,
    RankDeficient,
    Subspace,
    ZeroVector,
    angle_point_subspace,
    complement,
    distance_to_spaces_containing,
    grassmann_distances,
    principal_angles,
    subspace_from_rowspan,
)
from conftest import random_balanced, random_matrix, random_orthogonal, span, stream

SQ2 = math.sqrt(2.0)


class TestSubspace:
    def test_from_rowspan_examples(self):
        w = subspace_from_rowspan([[2.0, 0, 0], [0, 3.0, 0]])
        assert w.dim == 2 and w.ambient_dim == 3
        assert w.span_equals(span([1, 0, 0], [0, 1, 0]))
        line = subspace_from_rowspan([[1.0, 1.0]])
        np.testing.assert_allclose(np.abs(line.basis), [[1 / SQ2, 1 / SQ2]], atol=1e-12)

    def test_row_span_invariant_under_left_multiplication(self):
        rng = stream(20)
        for _ in range(10):
            a = random_matrix(rng, 2, 5)
            m = random_matrix(rng, 2, 2)
            while abs(np.linalg.det(m)) < 1e-3:
                m = random_matrix(rng, 2, 2)
            assert subspace_from_rowspan(a).span_equals(subspace_from_rowspan(m @ a))

    def test_basis_is_orthonormal(self):
        rng = stream(21)
        w = subspace_from_rowspan(random_matrix(rng, 3, 7))
        assert np.linalg.norm(w.basis @ w.basis.T - np.eye(3)) <= 1e-10

    def test_spans_of_different_dimension_differ(self):
        assert not span([1, 0, 0]).span_equals(span([1, 0, 0], [0, 1, 0]))
        assert not span([1, 0]).span_equals(span([1, 0, 0]))

    def test_repr(self):
        assert repr(span([1, 0, 0])) == "Subspace(dim=1, ambient_dim=3)"

    def test_rejects_bad_inputs(self):
        with pytest.raises(RankDeficient):
            subspace_from_rowspan([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DimensionError):
            subspace_from_rowspan(np.eye(3))
        with pytest.raises(ValueError):
            Subspace([[1.0, 1.0, 0.0]])  # not unit

    def test_projector(self):
        w = span([1, 0, 0], [0, 1, 0])
        np.testing.assert_allclose(w.projector(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(w.project([1.0, 2.0, 3.0]), [1.0, 2.0, 0.0], atol=1e-12)


class TestComplement:
    def test_examples(self):
        assert complement(span([1, 0, 0], [0, 1, 0])).span_equals(span([0, 0, 1]))
        assert complement(span([1, 1])).span_equals(span([1, -1]))

    def test_involution_and_orthogonality(self):
        rng = stream(22)
        for _ in range(10):
            w = subspace_from_rowspan(random_matrix(rng, 2, 6))
            perp = complement(w)
            assert perp.dim == 4
            assert np.linalg.norm(w.basis @ perp.basis.T) <= 1e-10
            assert complement(perp).span_equals(w)


class TestPrincipalAngles:
    def test_identical(self):
        rng = stream(23)
        w = subspace_from_rowspan(random_matrix(rng, 2, 5))
        np.testing.assert_allclose(principal_angles(w, w), [0.0, 0.0], atol=1e-7)

    def test_quarter_turn_pair(self):
        # B1 B2^T = diag(1, 1/sqrt(2)) so the angles are (0, pi/4).
        w1 = span([1, 0, 0], [0, 1, 0])
        w2 = span([1, 0, 0], [0, 1 / SQ2, 1 / SQ2])
        np.testing.assert_allclose(principal_angles(w1, w2), [0.0, math.pi / 4], atol=1e-12)

    def test_orthogonal_directions(self):
        w1 = span([1, 0, 0, 0], [0, 1, 0, 0])
        w2 = span([1, 0, 0, 0], [0, 0, 1, 0])
        np.testing.assert_allclose(principal_angles(w1, w2), [0.0, math.pi / 2], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            principal_angles(span([1, 0, 0]), span([1, 0, 0], [0, 1, 0]))

    def test_small_angle_accuracy(self):
        # Rotate one direction by a tiny angle; the arccos route alone
        # would lose most digits here.
        for tiny in (1e-9, 1e-7, 1e-5):
            w1 = span([1, 0, 0], [0, 1, 0])
            w2 = span([1, 0, 0], [0, math.cos(tiny), math.sin(tiny)])
            angles = principal_angles(w1, w2)
            assert angles[-1] == pytest.approx(tiny, rel=1e-6)

    def test_shared_intersection_construction(self):
        # W1, W2 share an (m-1)-dimensional intersection; the angle
        # spectrum is (0, ..., 0, angle between the leftover lines).
        rng = stream(24)
        for _ in range(10):
            shared = random_balanced(rng, 2, 6)
            perp = np.linalg.svd(shared, full_matrices=True)[2][2:]
            u1 = perp.T @ random_matrix(rng, 4, 1)[:, 0]
            u2 = perp.T @ random_matrix(rng, 4, 1)[:, 0]
            u1 /= np.linalg.norm(u1)
            u2 /= np.linalg.norm(u2)
            w1 = Subspace(np.vstack([shared, u1]))
            w2 = Subspace(np.vstack([shared, u2]))
            theta = math.acos(min(1.0, abs(float(u1 @ u2))))
            angles = principal_angles(w1, w2)
            np.testing.assert_allclose(angles[:2], [0.0, 0.0], atol=1e-9)
            assert angles[2] == pytest.approx(theta, abs=1e-9)
            _, d_g, _ = grassmann_distances(w1, w2)
            assert d_g == pytest.approx(theta, abs=1e-9)


class TestDistances:
    def test_examples(self):
        w1 = span([1, 0, 0], [0, 1, 0])
        assert grassmann_distances(w1, w1) == pytest.approx((0.0, 0.0, 0.0), abs=1e-7)
        w2 = span([1, 0, 0], [0, 1 / SQ2, 1 / SQ2])
        d_p, d_g, d_h = grassmann_distances(w1, w2)
        assert d_p == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert d_g == pytest.approx(math.pi / 4, abs=1e-12)
        assert d_h == pytest.approx(math.pi / 4, abs=1e-12)
        w3 = span([1, 0, 0, 0], [0, 1, 0, 0])
        w4 = span([1, 0, 0, 0], [0, 0, 1, 0])
        assert grassmann_distances(w3, w4)[0] == pytest.approx(1.0, abs=1e-12)

    def test_projector_difference_matches_dp(self):
        rng = stream(25)
        for _ in range(20):
            w1 = subspace_from_rowspan(random_matrix(rng, 2, 6))
            w2 = subspace_from_rowspan(random_matrix(rng, 2, 6))
            direct = np.linalg.norm(w1.projector() - w2.projector(), 2)
            assert grassmann_distances(w1, w2)[0] == pytest.approx(direct, abs=1e-9)

    def test_complement_isometry(self):
        rng = stream(26)
        for _ in range(20):
            w1 = subspace_from_rowspan(random_matrix(rng, 2, 6))
            w2 = subspace_from_rowspan(random_matrix(rng, 2, 6))
            d_p, d_g, _ = grassmann_distances(w1, w2)
            dp_perp, dg_perp, _ = grassmann_distances(complement(w1), complement(w2))
            assert dp_perp == pytest.approx(d_p, abs=1e-9)
            assert dg_perp == pytest.approx(d_g, abs=1e-9)

    def test_orthogonal_invariance(self):
        rng = stream(27)
        for _ in range(10):
            w1 = subspace_from_rowspan(random_matrix(rng, 2, 6))
            w2 = subspace_from_rowspan(random_matrix(rng, 2, 6))
            q = random_orthogonal(rng, 6)
            r1 = Subspace(w1.basis @ q.T)
            r2 = Subspace(w2.basis @ q.T)
            for x, y in zip(grassmann_distances(w1, w2), grassmann_distances(r1, r2)):
                assert x == pytest.approx(y, abs=1e-9)

    def test_metric_axioms_projection_distance(self):
        rng = stream(28)
        for _ in range(20):
            ws = [subspace_from_rowspan(random_matrix(rng, 2, 6)) for _ in range(3)]
            d01 = grassmann_distances(ws[0], ws[1])[0]
            d10 = grassmann_distances(ws[1], ws[0])[0]
            assert d01 == d10
            d02 = grassmann_distances(ws[0], ws[2])[0]
            d12 = grassmann_distances(ws[1], ws[2])[0]
            assert d02 <= d01 + d12 + 1e-12


class TestPointAngles:
    def test_examples(self):
        w12 = span([1, 0, 0], [0, 1, 0])
        assert angle_point_subspace([0, 0, 1.0], w12) == pytest.approx(math.pi / 2)
        assert angle_point_subspace([1.0, 1.0, 0.0], span([1, 0, 0])) == pytest.approx(math.pi / 4)

    def test_inside_is_zero(self):
        rng = stream(29)
        w = subspace_from_rowspan(random_matrix(rng, 2, 5))
        x = w.basis.T @ random_matrix(rng, 2, 1)[:, 0]
        assert angle_point_subspace(x, w) <= 1e-10
        assert w.contains(x)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            angle_point_subspace([0.0, 0.0, 0.0], span([1, 0, 0]))

    def test_distance_to_spaces_containing(self):
        w = span([1, 0, 0])
        d_p, d_g = distance_to_spaces_containing([1.0, 1.0, 0.0], w)
        assert d_p == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert d_g == pytest.approx(math.pi / 4, abs=1e-12)
        d_p, d_g = distance_to_spaces_containing([0, 0, 1.0], span([1, 0, 0], [0, 1, 0]))
        assert (d_p, d_g) == pytest.approx((1.0, math.pi / 2))
        rng = stream(30)
        w = subspace_from_rowspan(random_matrix(rng, 2, 5))
        x = w.basis.T @ np.ones(2)
        assert distance_to_spaces_containing(x, w) == pytest.approx((0.0, 0.0), abs=1e-10)
