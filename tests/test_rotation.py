import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotinv.linalg import DimensionMismatchError, SquareMatrix, Vector, determinant
from rotinv.rotation import (
    DEFAULT_TOL,
    NonUnitVectorError,
    NoProperRotationError,
    NotOrthogonalError,
    ReflectionError,
    haar_sample,
    haar_stack,
    rotation_2d,
    rotation_mapping,
    validate_rotation,
    _effective_tol,
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

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_canonical_pairs_are_exact(self, m):
        # From +/- e_i onto +/- e_j, c and s are 0 or +/-1, so no entry rounds.
        eye = np.eye(m)
        for i, j in itertools.product(range(m), repeat=2):
            for a, b in itertools.product((1.0, -1.0), repeat=2):
                q = rotation_mapping(Vector(a * eye[i]), Vector(b * eye[j]))
                assert set(q.data.flat) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_colinear_pairs_turn_by_exactly_zero_or_pi(self, m):
        # u.u may round above 1, but v = +/- u fixes the angle at 0 or pi.
        rng = np.random.default_rng(24 + m)
        for _ in range(200):
            u = random_unit(m, rng)
            assert np.array_equal(rotation_mapping(u, u).data, np.eye(m))
            q = rotation_mapping(u, Vector(-u.data))
            validate_rotation(q.matrix)
            assert np.max(np.abs(q.apply(u).data + u.data)) <= 1e-10

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


PAIR_KINDS = ("random", "same", "antipodal", "axis", "near_above", "near_below", "tiny")


def _mapping_pair(m, kind, seed, scale):
    # A unit pair (u, v) of the given kind; scale, in (0, 1), sets the
    # residual of v against u for the last three kinds.
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    if kind == "random":
        v = rng.standard_normal(m)
    elif kind == "same":
        v = u.copy()
    elif kind == "antipodal":
        v = -u
    elif kind == "axis":
        i, j = rng.integers(m, size=2)
        u, v = np.zeros(m), np.zeros(m)
        u[i], v[j] = rng.choice((-1.0, 1.0), size=2)
    else:
        # |v - (u.v)u| is factor * 1e-13 up to roundoff near 1e-16: the
        # colinear fork's threshold sits between the two "near" kinds, and
        # "tiny" spans 1e-16 to 1e-9.
        w = rng.standard_normal(m)
        w -= (u @ w) * u
        w /= np.linalg.norm(w)
        factor = {"near_above": 1.0 + scale, "near_below": 1.0 - scale / 2,
                  "tiny": 10.0 ** (7.0 * scale - 3.0)}[kind]
        v = rng.choice((-1.0, 1.0)) * u + factor * 1e-13 * w
    return u, v / np.linalg.norm(v)


# rotation_mapping's bits over 2,000 seeded pairs of every kind, recorded
# before it stopped validating its own output: that change must not move them.
Q_DIGEST = "b6d074161f66b1acf4615e7825cc2f60c6bad09d9bfbdd67396e76c77728c53d"


class TestRotationMappingIsProper:
    """rotation_mapping returns its closed form unchecked; these tests
    make the check validate_rotation would have made, and more."""

    @settings(max_examples=100, deadline=None)
    @given(
        # One example in eight runs past m = 64, up to 1000.
        m=st.integers(0, 7).flatmap(lambda k: st.integers(65, 1000) if k == 0 else st.integers(2, 64)),
        kind=st.sampled_from(PAIR_KINDS),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 0.99),
    )
    @example(m=100, kind="near_below", seed=1, scale=0.5)
    @example(m=1000, kind="random", seed=2, scale=0.5)
    @example(m=1000, kind="antipodal", seed=3, scale=0.5)
    def test_output_is_a_proper_rotation_carrying_u_onto_v(self, m, kind, seed, scale):
        u, v = _mapping_pair(m, kind, seed, scale)
        q = rotation_mapping(Vector(u), Vector(v))
        d = q.data
        eff = _effective_tol(DEFAULT_TOL, m)
        assert np.max(np.abs(d.T @ d - np.eye(m))) <= eff
        assert abs(np.linalg.det(d) - 1.0) <= eff
        validate_rotation(q.matrix)
        assert np.linalg.norm(d @ u - v) <= 1e-10

    def test_near_colinear_pairs_straddle_the_fork(self):
        for kind, colinear in (("near_above", False), ("near_below", True)):
            u, v = _mapping_pair(8, kind, 5, 0.5)
            residual = np.linalg.norm(v - (u @ v) * u)
            assert bool(residual < 1e-13) is colinear

    def test_bits_match_the_recorded_digest(self):
        h = hashlib.sha256()
        dims = (2, 3, 5, 8, 32, 100)
        for k in range(2000):
            kind = PAIR_KINDS[k // len(dims) % len(PAIR_KINDS)]
            u, v = _mapping_pair(dims[k % len(dims)], kind, k, (k % 97 + 1) / 98)
            h.update(rotation_mapping(Vector(u), Vector(v)).data.tobytes())
        assert h.hexdigest() == Q_DIGEST


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

    def test_one_dim_stack_takes_the_general_path(self):
        # Every draw gives exactly +1.0, and each consumes one normal.
        rng, reference = np.random.default_rng(37), np.random.default_rng(37)
        stack = haar_stack(1, 10_000, rng)
        assert np.array_equal(stack, np.ones((10_000, 1, 1))) and not np.signbit(stack).any()
        reference.standard_normal((10_000, 1, 1))
        assert rng.bit_generator.state == reference.bit_generator.state

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
