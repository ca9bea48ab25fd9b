import math

import numpy as np
import pytest

from rotinv.linalg import DimensionMismatchError, SquareMatrix, Vector, determinant
from rotinv.rotation import (
    NonUnitVectorError,
    NoProperRotationError,
    NotOrthogonalError,
    ReflectionError,
    haar_sample,
    haar_stack,
    rotation_2d,
    rotation_mapping,
    validate_rotation,
)


def random_unit(m, rng):
    while True:
        u = rng.standard_normal(m)
        n = np.linalg.norm(u)
        if n > 1e-12:
            return Vector(u / n)


class TestValidate:
    def test_identity_is_valid(self):
        for m in (1, 2, 5):
            q = validate_rotation(SquareMatrix(np.eye(m)))
            assert q.order == m

    def test_reflection_reported_distinctly(self):
        with pytest.raises(ReflectionError):
            validate_rotation(SquareMatrix([[1.0, 0.0], [0.0, -1.0]]))

    def test_shear_is_not_orthogonal(self):
        # Q^T Q = [[1, 0.1], [0.1, 1.01]]: residual 0.1 is far beyond tolerance.
        with pytest.raises(NotOrthogonalError):
            validate_rotation(SquareMatrix([[1.0, 0.1], [0.0, 1.0]]))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            validate_rotation(SquareMatrix(np.eye(2)), tol=0.0)


class TestRotation2d:
    def test_zero_angle(self):
        assert rotation_2d(0.0).matrix == SquareMatrix(np.eye(2))

    def test_quarter_turn(self):
        q = rotation_2d(math.pi / 2)
        assert np.max(np.abs(q.data - [[0.0, -1.0], [1.0, 0.0]])) <= 1e-15

    def test_half_turn(self):
        q = rotation_2d(math.pi)
        assert np.max(np.abs(q.data - [[-1.0, 0.0], [0.0, -1.0]])) <= 1e-15

    def test_layout(self):
        # [[cos, -sin], [sin, cos]] with numpy as the independent evaluator.
        for theta in (-2.5, -0.3, 0.7, 3.0):
            q = rotation_2d(theta).data
            assert q[0, 0] == q[1, 1] == pytest.approx(np.cos(theta), abs=1e-15)
            assert q[1, 0] == pytest.approx(np.sin(theta), abs=1e-15)
            assert q[0, 1] == pytest.approx(-np.sin(theta), abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rotation_2d(float("nan"))


class TestRotationMapping:
    def test_fixed_point(self):
        for u in (Vector([1.0]), Vector([0.6, 0.8]), random_unit(4, np.random.default_rng(0))):
            q = rotation_mapping(u, u)
            assert np.max(np.abs(q.apply(u).data - u.data)) <= 1e-10

    def test_e1_to_e2(self):
        q = rotation_mapping(Vector([1, 0]), Vector([0, 1]))
        assert np.max(np.abs(q.data - [[0.0, -1.0], [1.0, 0.0]])) <= 1e-12

    def test_one_dim_identity(self):
        q = rotation_mapping(Vector([1.0]), Vector([1.0]))
        assert q.matrix == SquareMatrix([[1.0]])
        q = rotation_mapping(Vector([-1.0]), Vector([-1.0]))
        assert q.matrix == SquareMatrix([[1.0]])

    def test_one_dim_flip_is_impossible(self):
        with pytest.raises(NoProperRotationError):
            rotation_mapping(Vector([1.0]), Vector([-1.0]))

    def test_antipodal_in_three_dims(self):
        u = Vector([1.0, 0.0, 0.0])
        q = rotation_mapping(u, Vector([-1.0, 0.0, 0.0]))
        assert np.max(np.abs(q.apply(u).data - [-1.0, 0.0, 0.0])) <= 1e-10
        validate_rotation(q.matrix)  # orthogonal, det 1 within 1e-10

    def test_colinear_along_canonical_axis(self):
        rng = np.random.default_rng(21)
        for m in (3, 4, 7):
            u = random_unit(m, rng)
            v = Vector(-u.data)
            q = rotation_mapping(u, v)
            assert np.max(np.abs(q.apply(u).data - v.data)) <= 1e-10
            validate_rotation(q.matrix)

    def test_nearly_colinear_pairs_stay_exact(self):
        # Tiny angles between u and v must not degrade the mapping.
        for eps in (1e-7, 1e-9, 1e-12, 1e-14):
            u = Vector([1.0, 0.0, 0.0])
            raw = np.array([math.cos(eps), math.sin(eps), 0.0])
            v = Vector(raw / np.linalg.norm(raw))
            q = rotation_mapping(u, v)
            assert np.max(np.abs(q.apply(u).data - v.data)) <= 1e-10
            validate_rotation(q.matrix)

    @pytest.mark.parametrize("m", [3, 4, 8, 32, 100])
    def test_colinear_and_canonical_pairs_up_to_m_100(self, m):
        rng = np.random.default_rng(23 + m)
        pairs = []
        for _ in range(10):
            u = random_unit(m, rng).data
            pairs += [(u, u), (u, -u)]
            for eps in (1e-7, 1e-10, 1e-13, 1e-15):
                near = u + eps * random_unit(m, rng).data
                pairs += [(u, near / np.linalg.norm(near)), (u, -near / np.linalg.norm(near))]
        for j in (0, 1, m // 2, m - 1):
            e = np.zeros(m)
            e[j] = 1.0
            other = random_unit(m, rng).data
            pairs += [(e, e), (e, -e), (-e, e), (-e, -e), (e, other), (other, -e)]
        for u, v in pairs:
            q = rotation_mapping(Vector(u), Vector(v))
            assert np.max(np.abs(q.data @ u - v)) <= 1e-10
            validate_rotation(q.matrix)

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitVectorError):
            rotation_mapping(Vector([2.0, 0.0]), Vector([0.0, 1.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rotation_mapping(Vector([1, 0]), Vector([1, 0, 0]))

    def test_random_unit_pairs_map_exactly(self):
        # 100 pairs per dimension here; the acceptance suite runs 1000.
        rng = np.random.default_rng(22)
        for m in range(2, 9):
            for _ in range(100):
                u, v = random_unit(m, rng), random_unit(m, rng)
                q = rotation_mapping(u, v)
                assert np.max(np.abs(q.apply(u).data - v.data)) <= 1e-10
                assert np.max(np.abs(q.data.T @ q.data - np.eye(m))) <= 1e-10
                assert abs(determinant(q.matrix) - 1.0) <= 1e-10


class TestHaarSample:
    def test_one_dim_is_always_identity(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            assert haar_sample(1, rng).matrix == SquareMatrix([[1.0]])

    def test_samples_validate(self):
        rng = np.random.default_rng(31)
        for m in (2, 3, 4, 8):
            for _ in range(25):
                validate_rotation(haar_sample(m, rng).matrix)

    def test_reproducible_bitwise(self):
        a = haar_sample(4, np.random.default_rng(7))
        b = haar_sample(4, np.random.default_rng(7))
        assert np.array_equal(a.data, b.data)

    def test_sphere_image_is_centered(self):
        # Columns of Haar rotations are uniform on the sphere, so the
        # image of e1 averages to zero; 0.05 is over eight sigma out.
        rng = np.random.default_rng(32)
        total = np.zeros(3)
        n = 10_000
        for _ in range(n):
            total += haar_sample(3, rng).data[:, 0]
        assert np.all(np.abs(total / n) < 0.05)

    def test_stack_samples_validate(self):
        rng = np.random.default_rng(35)
        for m in (2, 3, 4, 8):
            stack = haar_stack(m, 50, rng)
            assert stack.shape == (50, m, m)
            for q in stack:
                validate_rotation(SquareMatrix(q))
        assert np.array_equal(haar_stack(1, 3, rng), np.ones((3, 1, 1)))

    def test_stack_first_columns_are_centered(self):
        # As for haar_sample: the image of e1 is uniform on the sphere.
        q = haar_stack(3, 10_000, np.random.default_rng(36))
        assert np.all(np.abs(q[:, :, 0].mean(axis=0)) < 0.05)

    def test_group_closure(self):
        rng = np.random.default_rng(33)
        for m in (2, 3, 6):
            q1 = haar_sample(m, rng)
            q2 = haar_sample(m, rng)
            validate_rotation(SquareMatrix(q1.data @ q2.data), tol=1e-9)

    def test_norm_preservation(self):
        rng = np.random.default_rng(34)
        for m in (2, 3, 5, 8):
            q = haar_sample(m, rng)
            for _ in range(50):
                x = Vector(rng.standard_normal(m) * rng.uniform(0.01, 100.0))
                qx = q.apply(x)
                assert abs(qx.norm() - x.norm()) <= 1e-12 * max(1.0, x.norm())
