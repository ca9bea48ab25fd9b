import math

import numpy as np
import pytest

from rotinv.linalg import (
    DependentPrefixError,
    DimensionMismatchError,
    NotSymmetricError,
    SquareMatrix,
    Vector,
    determinant,
    gram_schmidt_complete,
    symmetric_eigen_extremes,
)

ROT90 = SquareMatrix([[0.0, -1.0], [1.0, 0.0]])


class TestConstruction:
    def test_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            Vector([1.0, float("nan")])

    def test_vector_rejects_infinity(self):
        with pytest.raises(ValueError):
            Vector([float("inf")])

    def test_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            Vector([])

    def test_vector_is_immutable(self):
        v = Vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.data[0] = 5.0

    def test_matrix_rejects_non_square(self):
        with pytest.raises(ValueError):
            SquareMatrix([[1.0, 2.0]])

    def test_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            SquareMatrix([[1.0, float("nan")], [0.0, 1.0]])

    def test_equality(self):
        assert Vector([1, 2]) == Vector([1.0, 2.0])
        assert SquareMatrix([[1, 0], [0, 1]]) == SquareMatrix(np.eye(2))


class TestDeterminant:
    def test_identity(self):
        for m in range(1, 7):
            assert determinant(SquareMatrix(np.eye(m))) == pytest.approx(1.0, abs=1e-14)

    def test_rot90(self):
        # Closed-form 2x2: 0*0 - (-1)*1 = 1.
        assert determinant(ROT90) == 1.0

    def test_diagonal(self):
        assert determinant(SquareMatrix([[2.0, 0.0], [0.0, 3.0]])) == 6.0

    def test_singular(self):
        assert determinant(SquareMatrix([[1.0, 2.0], [2.0, 4.0]])) == pytest.approx(0.0, abs=1e-14)

    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            a = rng.standard_normal((m, m))
            expected = float(np.linalg.det(a))
            got = determinant(SquareMatrix(a))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_multiplicative(self):
        # Well-conditioned factors: orthogonal times a modest diagonal.
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(2, 9))

            def well_conditioned():
                q, _ = np.linalg.qr(rng.standard_normal((m, m)))
                return q @ np.diag(rng.uniform(0.5, 2.0, size=m))

            a = SquareMatrix(well_conditioned())
            b = SquareMatrix(well_conditioned())
            lhs = determinant(SquareMatrix(a.data @ b.data))
            rhs = determinant(a) * determinant(b)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestGramSchmidt:
    def test_canonical_completion(self):
        basis = gram_schmidt_complete([Vector([1, 0, 0])], 3)
        assert basis == [Vector([1, 0, 0]), Vector([0, 1, 0]), Vector([0, 0, 1])]

    def test_two_dim_completion_up_to_sign(self):
        basis = gram_schmidt_complete([Vector([0.6, 0.8])], 2)
        assert np.allclose(basis[0].data, [0.6, 0.8], atol=1e-15)
        # Orthonormal completion is unique up to sign.
        assert np.allclose(np.abs(basis[1].data), [0.8, 0.6], atol=1e-12)
        assert abs(basis[0].data @ basis[1].data) <= 1e-12

    def test_dependent_prefix(self):
        with pytest.raises(DependentPrefixError):
            gram_schmidt_complete([Vector([1, 0]), Vector([1, 0])], 2)

    def test_completion_skips_covered_canonical_vectors(self):
        # e2 is already spanned, so the completion takes e1 then e3.
        basis = gram_schmidt_complete([Vector([0, 1, 0])], 3)
        assert basis == [Vector([0, 1, 0]), Vector([1, 0, 0]), Vector([0, 0, 1])]

    def test_prefix_too_long(self):
        with pytest.raises(ValueError):
            gram_schmidt_complete([Vector([1, 0])] * 3, 2)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            gram_schmidt_complete([Vector([1, 0, 0])], 2)

    def test_prefix_span_is_preserved(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(5)
        basis = gram_schmidt_complete([Vector(u)], 5)
        # First output vector is parallel to the prefix vector.
        cos = abs(basis[0].data @ u) / np.linalg.norm(u)
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_orthonormality_random_prefixes(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            k = int(rng.integers(0, m + 1))
            prefix = [Vector(rng.standard_normal(m)) for _ in range(k)]
            try:
                basis = gram_schmidt_complete(prefix, m)
            except DependentPrefixError:
                continue  # random prefixes are a.s. independent, but be safe
            g = np.column_stack([b.data for b in basis])
            gram = g.T @ g
            assert np.max(np.abs(gram - np.eye(m))) <= 1e-10


class TestSymmetricEigenExtremes:
    def test_diagonal(self):
        lmin, umin, lmax, umax = symmetric_eigen_extremes(SquareMatrix([[1.0, 0.0], [0.0, 2.0]]))
        assert (lmin, lmax) == (1.0, 2.0)
        assert np.allclose(np.abs(umin.data), [1, 0])
        assert np.allclose(np.abs(umax.data), [0, 1])

    def test_isotropic(self):
        for m in (1, 2, 5):
            alpha = -3.25
            lmin, _, lmax, _ = symmetric_eigen_extremes(SquareMatrix(alpha * np.eye(m)))
            assert lmin == alpha and lmax == alpha

    def test_two_by_two_closed_form(self):
        # Eigenpairs of [[2,1],[1,2]]: 1 with (1,-1)/sqrt(2), 3 with (1,1)/sqrt(2).
        lmin, umin, lmax, umax = symmetric_eigen_extremes(SquareMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert lmin == pytest.approx(1.0, abs=1e-12)
        assert lmax == pytest.approx(3.0, abs=1e-12)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(umin.data), [s, s], atol=1e-12)
        assert umin.data[0] * umin.data[1] < 0
        assert umax.data[0] * umax.data[1] > 0

    def test_rejects_non_symmetric(self):
        # At 1e300 the Frobenius norm overflows, so it cannot scale the check.
        for scale in (1.0, 1e300):
            with pytest.raises(NotSymmetricError):
                symmetric_eigen_extremes(SquareMatrix([[0.0, scale], [0.0, 0.0]]))

    def test_residuals_and_rayleigh_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            raw = rng.standard_normal((m, m))
            s = SquareMatrix(0.5 * (raw + raw.T))
            lmin, umin, lmax, umax = symmetric_eigen_extremes(s)
            fro = np.linalg.norm(s.data)
            assert np.max(np.abs(s.data @ umin.data - lmin * umin.data)) <= 1e-9 * fro
            assert np.max(np.abs(s.data @ umax.data - lmax * umax.data)) <= 1e-9 * fro
            assert abs(umin.norm() - 1.0) <= 1e-12
            assert abs(umax.norm() - 1.0) <= 1e-12
        # Rayleigh quotients of random unit vectors stay inside the extremes.
        raw = rng.standard_normal((6, 6))
        s = SquareMatrix(0.5 * (raw + raw.T))
        lmin, _, lmax, _ = symmetric_eigen_extremes(s)
        for _ in range(1000):
            x = rng.standard_normal(6)
            x /= np.linalg.norm(x)
            val = x @ s.data @ x
            assert lmin - 1e-9 <= val <= lmax + 1e-9

    def test_against_numpy(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            raw = rng.standard_normal((m, m))
            sym = 0.5 * (raw + raw.T)
            lmin, _, lmax, _ = symmetric_eigen_extremes(SquareMatrix(sym))
            ev = np.linalg.eigvalsh(sym)
            assert lmin == pytest.approx(float(ev[0]), rel=1e-10, abs=1e-10)
            assert lmax == pytest.approx(float(ev[-1]), rel=1e-10, abs=1e-10)
