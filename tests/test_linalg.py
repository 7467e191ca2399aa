import math

import numpy as np
import pytest

from coniccond import (
    DimensionError,
    RankDeficient,
    is_balanced,
    kappa,
    matrix_norms,
    polar_decompose,
    pseudoinverse,
    rank_deficiency_distance,
    svd_factorize,
)
from conftest import random_balanced, random_matrix, random_orthogonal, stream

DIAG23 = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])


class TestMatrixNorms:
    def test_diagonal(self):
        spectral, frob = matrix_norms(DIAG23)
        assert spectral == pytest.approx(3.0)
        assert frob == pytest.approx(math.sqrt(13.0))

    def test_zero(self):
        assert matrix_norms(np.zeros((2, 3))) == (0.0, 0.0)

    def test_rank_one_norms_agree(self):
        # For x y^T both norms equal ||x|| ||y||.
        x = np.array([1.0, 2.0])
        y = np.array([2.0, 1.0, 2.0])
        spectral, frob = matrix_norms(np.outer(x, y))
        expected = np.linalg.norm(x) * np.linalg.norm(y)
        assert spectral == pytest.approx(expected, abs=1e-12)
        assert frob == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.0 * math.sqrt(5.0))

    def test_spectral_below_frobenius(self):
        rng = stream(1)
        for _ in range(20):
            spectral, frob = matrix_norms(random_matrix(rng, 3, 5))
            assert spectral <= frob + 1e-12


class TestSvd:
    def test_identity(self):
        np.testing.assert_allclose(svd_factorize(np.eye(2)).singular_values, [1.0, 1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(svd_factorize(DIAG23).singular_values, [3.0, 2.0])

    def test_reconstruction_and_orthogonality(self):
        rng = stream(2)
        a = random_matrix(rng, 4, 6)
        fac = svd_factorize(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(fac.reconstruct() - a) <= 1e-10 * scale
        assert np.linalg.norm(fac.left_factor @ fac.left_factor.T - np.eye(4)) <= 1e-10
        assert np.linalg.norm(fac.right_factor @ fac.right_factor.T - np.eye(6)) <= 1e-10
        assert np.all(np.diff(fac.singular_values) <= 0.0)

    def test_rejects_nonfinite(self):
        from coniccond import NumericalFailure

        with pytest.raises(NumericalFailure):
            svd_factorize(np.array([[1.0, np.nan]]))


class TestKappa:
    def test_diagonal(self):
        assert kappa(DIAG23) == pytest.approx(1.5)

    def test_balanced_is_one(self):
        rng = stream(3)
        for _ in range(10):
            assert kappa(random_balanced(rng, 2, 5)) == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_is_inf(self):
        assert kappa(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])) == math.inf

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            kappa(np.array([[1.0], [2.0]]))
        with pytest.raises(DimensionError):
            kappa(np.zeros((0, 3)))


class TestPolar:
    def test_diagonal(self):
        factors = polar_decompose(DIAG23)
        np.testing.assert_allclose(factors.scale, np.diag([2.0, 3.0]), atol=1e-12)
        np.testing.assert_allclose(
            factors.balanced_part, np.array([[1.0, 0, 0], [0, 1.0, 0]]), atol=1e-12
        )

    def test_balanced_fixed_point(self):
        rng = stream(4)
        b = random_balanced(rng, 2, 4)
        factors = polar_decompose(b)
        np.testing.assert_allclose(factors.scale, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(factors.balanced_part, b, atol=1e-10)

    def test_reconstruction_and_norm_transfer(self):
        rng = stream(5)
        for _ in range(20):
            a = random_matrix(rng, 3, 5)
            factors = polar_decompose(a)
            assert np.linalg.norm(a - factors.scale @ factors.balanced_part) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(factors.balanced_part @ factors.balanced_part.T - np.eye(3)) <= 1e-10
            assert np.linalg.norm(factors.scale, 2) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
            assert np.linalg.norm(np.linalg.inv(factors.scale), 2) == pytest.approx(
                np.linalg.norm(pseudoinverse(a), 2), rel=1e-10
            )

    def test_requires_full_rank_and_wide(self):
        with pytest.raises(RankDeficient):
            polar_decompose(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(DimensionError):
            polar_decompose(np.eye(3))


class TestPseudoinverse:
    def test_diagonal(self):
        expected = np.array([[0.5, 0.0], [0.0, 1.0 / 3.0], [0.0, 0.0]])
        np.testing.assert_allclose(pseudoinverse(DIAG23), expected, atol=1e-12)

    def test_balanced_gives_transpose(self):
        rng = stream(6)
        b = random_balanced(rng, 2, 5)
        np.testing.assert_allclose(pseudoinverse(b), b.T, atol=1e-10)

    def test_penrose_identities(self):
        rng = stream(7)
        for _ in range(10):
            a = random_matrix(rng, 3, 4)
            p = pseudoinverse(a)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-9
            assert np.linalg.norm(p @ a @ p - p) <= 1e-9
            assert np.linalg.norm((a @ p).T - a @ p) <= 1e-9
            assert np.linalg.norm((p @ a).T - p @ a) <= 1e-9


class TestRankDeficiencyDistance:
    def test_examples(self):
        assert rank_deficiency_distance(DIAG23) == pytest.approx(2.0)
        assert rank_deficiency_distance(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_is_one(self):
        rng = stream(8)
        assert rank_deficiency_distance(random_balanced(rng, 3, 6)) == pytest.approx(1.0, abs=1e-10)


class TestBalancedProperties:
    def test_transpose_isometry_and_kappa(self):
        rng = stream(9)
        for _ in range(20):
            b = random_balanced(rng, 3, 6)
            y = random_matrix(rng, 3, 1)[:, 0]
            assert np.linalg.norm(b.T @ y) == pytest.approx(np.linalg.norm(y), abs=1e-10)
            assert kappa(b) == pytest.approx(1.0, abs=1e-10)
            assert is_balanced(b)

    def test_more_rows_than_columns_is_not_balanced(self):
        assert not is_balanced(np.ones((3, 2)))

    def test_projector_identity(self):
        rng = stream(10)
        b = random_balanced(rng, 2, 5)
        proj = b.T @ b
        x = random_matrix(rng, 5, 1)[:, 0]
        # b^T b acts as the orthogonal projection onto the row span
        assert np.linalg.norm(proj @ (b.T @ np.ones(2)) - b.T @ np.ones(2)) <= 1e-10
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert np.linalg.norm(proj @ x) <= np.linalg.norm(x) + 1e-12


class TestOrthogonalInvariance:
    def test_norms_and_singular_values(self):
        rng = stream(11)
        a = random_matrix(rng, 3, 5)
        q_left = random_orthogonal(rng, 3)
        q_right = random_orthogonal(rng, 5)
        b = q_left @ a @ q_right
        np.testing.assert_allclose(
            np.linalg.svd(a, compute_uv=False), np.linalg.svd(b, compute_uv=False), atol=1e-10
        )
        assert matrix_norms(a)[0] == pytest.approx(matrix_norms(b)[0], abs=1e-10)
        assert matrix_norms(a)[1] == pytest.approx(matrix_norms(b)[1], abs=1e-10)


class TestEckartYoung:
    def test_truncation_reaches_rank_deficiency(self):
        rng = stream(12)
        a = random_matrix(rng, 3, 5)
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        drop = s[-1] * np.outer(u[:, -1], vh[-1])
        assert np.linalg.norm(drop, 2) == pytest.approx(s[-1], rel=1e-12)
        assert rank_deficiency_distance(a - drop) <= 1e-12

    def test_smaller_perturbations_never_reach(self):
        rng = stream(13)
        a = random_matrix(rng, 3, 5)
        sigma_min = rank_deficiency_distance(a)
        assert sigma_min > 1e-3  # Gaussian draws keep a safe margin
        for _ in range(200):
            u = random_matrix(rng, 3, 1)[:, 0]
            v = random_matrix(rng, 5, 1)[:, 0]
            pert = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            pert *= sigma_min - 1e-6
            assert rank_deficiency_distance(a - pert) > 0.0
