"""Proper rotations: validation, construction, and Haar sampling.

A proper rotation of order m is a real m-by-m matrix Q with Q^T Q = I
and det Q = 1. Reflections (det = -1) are rejected, never silently
repaired. All functions are pure; the random source for sampling is
passed explicitly and owned by the caller.
"""

from __future__ import annotations

import math

import numpy as np

# gram_schmidt_complete is not called here; the benchmark's tracer
# (perfbench/layers.py) wraps it under this module's name.
from .linalg import (  # noqa: F401
    DimensionMismatchError,
    SquareMatrix,
    Vector,
    _Value,
    gram_schmidt_complete,
)

__all__ = [
    "RotationMatrix",
    "RotationError",
    "NotOrthogonalError",
    "WrongDeterminantError",
    "ReflectionError",
    "NonUnitVectorError",
    "NoProperRotationError",
    "validate_rotation",
    "rotation_2d",
    "rotation_mapping",
    "haar_sample",
    "haar_stack",
]

DEFAULT_TOL = 1e-10

# Unit-norm slack accepted by rotation_mapping on its input vectors.
UNIT_TOL = 1e-10


class RotationError(ValueError):
    """A matrix failed to qualify as a proper rotation."""


class NotOrthogonalError(RotationError):
    """Q^T Q differs from the identity beyond tolerance."""


class WrongDeterminantError(RotationError):
    """The determinant is not 1 within tolerance."""


class ReflectionError(WrongDeterminantError):
    """The determinant is near -1: an orthogonal reflection, not a rotation."""


class NonUnitVectorError(ValueError):
    """An input vector was required to have unit norm."""


class NoProperRotationError(ValueError):
    """No proper rotation performs the requested mapping (only possible for m = 1)."""


def _effective_tol(tol: float, m: int) -> float:
    # Residuals accumulate with order; loosen proportionally past m = 16.
    return tol if m <= 16 else tol * (m / 16.0)


class RotationMatrix(_Value):
    """A proper rotation. validate_rotation checks a matrix from a caller
    or a file; rotation_2d, rotation_mapping and haar_sample are proper
    rotations by construction and return theirs unchecked, and their
    tests make that check instead.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: SquareMatrix):
        self._matrix = validate_rotation(matrix)._matrix

    @classmethod
    def _trusted(cls, matrix: SquareMatrix) -> "RotationMatrix":
        # Internal fast path for matrices that satisfy the invariants by
        # construction.
        self = object.__new__(cls)
        self._matrix = matrix
        return self

    @property
    def matrix(self) -> SquareMatrix:
        return self._matrix

    @property
    def data(self) -> np.ndarray:
        return self._matrix.data

    @property
    def order(self) -> int:
        return self._matrix.order

    def apply(self, x: Vector) -> Vector:
        """Rotate x (norm is preserved up to roundoff)."""
        if self._matrix.order != x.dim:
            raise DimensionMismatchError(
                f"cannot apply order {self._matrix.order} rotation to dimension {x.dim} vector"
            )
        # A rotation of a finite vector stays finite; skip revalidation.
        return Vector._trusted(self._matrix.data @ x.data)


def validate_rotation(q: SquareMatrix, tol: float = DEFAULT_TOL) -> RotationMatrix:
    """Check Q^T Q = I and det Q = 1 within tol and wrap the matrix.

    A determinant near -1 raises ReflectionError, distinct from generic
    determinant failure, since a reflection is the telltale near-miss.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    d = q.data
    eff = _effective_tol(tol, q.order)
    gram = d.T @ d
    gram.flat[:: q.order + 1] -= 1.0
    residual = float(np.abs(gram, out=gram).max())
    if residual > eff:
        raise NotOrthogonalError(f"orthogonality residual {residual:.3e} exceeds tolerance {eff:.3e}")
    det = float(np.linalg.det(d))
    if abs(det + 1.0) <= 0.5:
        raise ReflectionError(f"determinant {det:.6f} is near -1: reflection, not a proper rotation")
    if abs(det - 1.0) > eff:
        raise WrongDeterminantError(f"determinant {det!r} differs from 1 beyond tolerance {eff:.3e}")
    return RotationMatrix._trusted(q)


def rotation_2d(theta: float) -> RotationMatrix:
    """The plane rotation [[cos t, -sin t], [sin t, cos t]]."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return RotationMatrix._trusted(SquareMatrix([[c, -s], [s, c]]))


def _orthogonal_axis(u: np.ndarray) -> np.ndarray:
    # e_j - (u.e_j)u, unnormalized, for the first e_j not parallel to the
    # unit vector u (e_j is parallel to u only when u = +/- e_j).
    for j in range(u.size):
        if abs(u[j]) < 1.0 - 1e-8:
            e = np.zeros(u.size)
            e[j] = 1.0
            e -= (u @ e) * u
            return e
    raise AssertionError("unreachable: a unit vector is parallel to at most one canonical axis")


def rotation_mapping(u: Vector, v: Vector) -> RotationMatrix:
    """Construct a proper rotation Q with Qu = v for unit vectors u, v.

    For m >= 2 it is the rotation in the plane spanned by u and a unit w
    orthogonal to it, fixing the orthogonal complement, in closed form:

        Q = I + (c - 1)(u u^T + w w^T) + s(w u^T - u w^T),

    with (c, s) the coordinates of v in the (u, w) plane. w is the
    normalized residual of v against u. When u and v are colinear the
    plane is under-determined and w comes from the first canonical basis
    vector not parallel to u, so the output is deterministic; the angle
    is then exactly 0 or pi, so u onto u gives exactly I. +/- e_i onto
    +/- e_j gives entries exactly in {-1, 0, 1}.

    For m = 1 the only proper rotation is [1], so u = -v is impossible
    and raises NoProperRotationError.
    """
    if u.dim != v.dim:
        raise DimensionMismatchError(f"u has dimension {u.dim}, v has dimension {v.dim}")
    m = u.dim
    un, vn = u.norm(), v.norm()
    if abs(un - 1.0) > UNIT_TOL or abs(vn - 1.0) > UNIT_TOL:
        raise NonUnitVectorError(f"u and v must be unit vectors (norms {un!r}, {vn!r})")
    ud = u.data / un
    vd = v.data / vn
    if m == 1:
        if ud[0] * vd[0] < 0.0:
            raise NoProperRotationError(
                "impossible in dimension 1: det Q = 1 leaves [1] as the only proper rotation, "
                "and [1] cannot map u to -u"
            )
        return RotationMatrix._trusted(SquareMatrix([[1.0]]))
    c = float(ud @ vd)
    w = vd - c * ud
    colinear = math.sqrt(w @ w) < 1e-13
    if colinear:
        w = _orthogonal_axis(ud)
    # A second projection restores the orthogonality to u that
    # cancellation costs a short residual.
    w -= (ud @ w) * ud
    w /= math.sqrt(w @ w)
    # Colinear, v = +/- u: the plane angle is exactly 0 or pi.
    c, s = (math.copysign(1.0, c), 0.0) if colinear else (c, float(vd @ w))
    # With P = [u w], the formula is I + P^T [[c-1, -s], [s, c-1]] P.
    p = np.array([ud, w])
    q = p.T @ (np.array([[c - 1.0, -s], [s, c - 1.0]]) @ p)
    q.flat[:: m + 1] += 1.0
    return RotationMatrix._trusted(SquareMatrix._trusted(q))


def _sign_fixed(z: np.ndarray) -> np.ndarray:
    # QR of Gaussian matrices stacked on the leading axes, each Q column
    # multiplied by the sign of the matching diagonal entry of R (Haar
    # over O(m)), and a determinant of -1 folded into SO(m) by negating
    # the last column. det(Q diag(s)) = det(Q) prod(s), so the fold is
    # one more sign on the last column; LAPACK's det gives that cheaply.
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    signs[..., -1] *= np.sign(np.linalg.det(q)) * np.prod(signs, axis=-1)
    return q * signs[..., None, :]


def haar_stack(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count Haar-uniform samples from SO(m) as a (count, m, m) array.

    Standard-normal fill, one stacked QR factorization, then each column
    of an orthogonal factor is multiplied by the sign of the corresponding
    diagonal entry of its triangular factor (making the distribution Haar
    over O(m)); a determinant of -1 is folded into SO(m) by negating the
    last column, which for m = 1 leaves exactly [[1.0]]. Reproducible:
    the same generator state yields a bitwise-identical stack.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _sign_fixed(rng.standard_normal((count, m, m)))


def haar_sample(m: int, rng: np.random.Generator) -> RotationMatrix:
    """Draw one Haar-uniform sample from SO(m), as haar_stack(m, 1, rng)."""
    return RotationMatrix._trusted(SquareMatrix._trusted(haar_stack(m, 1, rng)[0]))
