"""Dense linear algebra for small dimensions.

Everything here is sized for matrices of order up to a few hundred:
plain O(m^3) textbook algorithms, dense row-major storage, no attempt
at sparsity or blocking. Values are immutable after construction and
all operations are pure functions, so concurrent use is safe.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Vector",
    "SquareMatrix",
    "DimensionMismatchError",
    "DependentPrefixError",
    "NotSymmetricError",
    "determinant",
    "gram_schmidt_complete",
    "symmetric_eigen_extremes",
]

# Residual norm below which a vector is treated as linearly dependent
# during Gram-Schmidt. Fixed (not configurable) so that basis completion
# is reproducible.
DEPENDENCE_TOL = 1e-8

# Off-diagonal Frobenius mass, relative to the input's Frobenius norm,
# at which the Jacobi sweep stops.
JACOBI_TOL = 1e-12

_JACOBI_MAX_SWEEPS = 64


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class DependentPrefixError(ValueError):
    """The prefix handed to Gram-Schmidt is linearly dependent."""


class NotSymmetricError(ValueError):
    """A symmetric matrix was required."""


def _freeze(data: np.ndarray) -> np.ndarray:
    data.setflags(write=False)
    return data


class _Value:
    """Immutable numeric value: entries read through data, and equality,
    hash and repr by entries, each only against its own type."""

    __slots__ = ()

    @property
    def data(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._data

    def tolist(self) -> list:
        return self.data.tolist()

    def __getitem__(self, key: int | tuple[int, int]) -> float:
        return float(self.data[key])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(self.data, other.data))

    def __hash__(self) -> int:
        return hash((type(self), self.data.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.data.tolist()!r})"


class Vector(_Value):
    """Immutable real vector of dimension m >= 1, treated as an m-by-1 column.

    Entries must all be finite; NaN or infinity is rejected at construction.
    """

    __slots__ = ("_data", "_sq")

    def __init__(self, entries: Iterable[float] | np.ndarray):
        data = np.array(entries, dtype=float)
        if data.ndim != 1 or data.size < 1:
            raise ValueError(f"vector must be one-dimensional with length >= 1, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("vector entries must be finite")
        self._data, self._sq = _freeze(data), None

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "Vector":
        # Fast path for freshly computed arrays that are finite by
        # construction (rotations and scalings of validated vectors).
        self = object.__new__(cls)
        self._data, self._sq = _freeze(data), None
        return self

    @property
    def dim(self) -> int:
        return self._data.size

    def squared_norm(self) -> float:
        """x.x, computed once: the vector is immutable."""
        if self._sq is None:
            # vdot, unlike the matmul ufunc, raises no warning where x.x overflows.
            self._sq = float(np.vdot(self._data, self._data))
        return self._sq

    def norm(self) -> float:
        """Euclidean norm sqrt(x.x), without np.linalg.norm's dispatch overhead.
        Where x.x overflows (some entry exceeds 2^500) it is taken on a copy
        scaled by 2^-600, and where x.x < 2^-900 (every entry is below
        2^-450) on a copy scaled by 2^600."""
        sq = self.squared_norm()
        if 2.0**-900 <= sq < math.inf:
            return math.sqrt(sq)
        scale = 2.0**-600 if sq == math.inf else 2.0**600
        y = self._data * scale
        return math.sqrt(np.vdot(y, y)) / scale

    def __len__(self) -> int:
        return self._data.size

    def __iter__(self) -> Iterator[float]:
        return iter(self._data.tolist())


class SquareMatrix(_Value):
    """Immutable real square matrix of order m >= 1, stored dense row-major."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Iterable[float]] | np.ndarray):
        data = np.array(rows, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] < 1:
            raise ValueError(f"matrix must be square of order >= 1, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("matrix entries must be finite")
        self._data = _freeze(np.ascontiguousarray(data))

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "SquareMatrix":
        # Fast path for freshly computed square, C-contiguous arrays that
        # are finite by construction.
        self = object.__new__(cls)
        self._data = _freeze(data)
        return self

    @property
    def order(self) -> int:
        return self._data.shape[0]


def determinant(a: SquareMatrix) -> float:
    return float(np.linalg.det(a.data))


def _orthonormalize_against(w: np.ndarray, basis: list[np.ndarray]) -> tuple[np.ndarray, float]:
    # Modified Gram-Schmidt: project against each basis vector in turn,
    # updating the residual as we go.
    for b in basis:
        w = w - (b @ w) * b
    n = float(np.linalg.norm(w))
    return w, n


def gram_schmidt_complete(prefix: Sequence[Vector], m: int) -> list[Vector]:
    """Complete a linearly independent prefix to an orthonormal basis of R^m.

    The first len(prefix) output vectors span the same subspace as the
    prefix (modified Gram-Schmidt). The remaining ones come from
    orthonormalizing the canonical basis vectors e_1, e_2, ... in index
    order, skipping any whose residual norm falls below 1e-8.

    Raises DependentPrefixError if the prefix is (numerically) dependent.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(prefix) > m:
        raise ValueError(f"prefix of {len(prefix)} vectors cannot fit in dimension {m}")
    basis: list[np.ndarray] = []
    for k, v in enumerate(prefix):
        if v.dim != m:
            raise DimensionMismatchError(f"prefix vector {k} has dimension {v.dim}, expected {m}")
        w, n = _orthonormalize_against(v.data.copy(), basis)
        if n < DEPENDENCE_TOL:
            raise DependentPrefixError(f"prefix vector {k} is linearly dependent on its predecessors")
        basis.append(w / n)
    for j in range(m):
        if len(basis) == m:
            break
        e = np.zeros(m)
        e[j] = 1.0
        w, n = _orthonormalize_against(e, basis)
        if n < DEPENDENCE_TOL:
            continue
        basis.append(w / n)
    if len(basis) != m:
        # Unreachable for an orthonormal partial basis; guards against
        # a prefix that barely cleared the dependence threshold.
        raise DependentPrefixError("canonical completion failed to produce a full basis")
    return [Vector(b) for b in basis]


def symmetric_eigen_extremes(s: SquareMatrix) -> tuple[float, Vector, float, Vector]:
    """Extreme eigenpairs (lambda_min, u_min, lambda_max, u_max) of a symmetric matrix.

    Cyclic Jacobi rotations, swept until the off-diagonal Frobenius mass
    drops to 1e-12 times the Frobenius norm of the input. Jacobi is
    deterministic and untroubled by repeated eigenvalues (a scalar
    multiple of the identity converges in zero sweeps), which is exactly
    the degenerate case the callers care about. Eigenvectors are returned
    unit-norm; their sign is not pinned down.
    """
    d = s.data
    m = s.order
    # Relative to the largest entry, which cannot overflow the way the
    # Frobenius norm does at large scale.
    top = float(np.max(np.abs(d)))
    if float(np.max(np.abs(d - d.T))) > 1e-12 * top:
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative")
    # Jacobi squares entries, so it works on a copy scaled by the power of
    # two that brings the largest entry into [0.5, 1): the scaling is exact,
    # and the largest squares neither overflow nor underflow.
    k = math.frexp(top)[1]
    d = np.ldexp(d, -k)
    fro = float(np.linalg.norm(d))
    a = 0.5 * (d + d.T)  # exactly symmetric work copy
    v = np.eye(m)
    threshold = JACOBI_TOL * fro
    for _ in range(_JACOBI_MAX_SWEEPS):
        # Sum off-diagonal squares directly: subtracting the diagonal
        # mass from the total cancels catastrophically near convergence.
        off2 = np.square(a)
        np.fill_diagonal(off2, 0.0)
        if float(np.sqrt(np.sum(off2))) <= threshold:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                tau = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if abs(tau) >= 1e150:
                    t = 1.0 / (2.0 * tau)  # asymptotic root; tau*tau would overflow
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sn = t * c
                app, aqq = a[p, p], a[q, q]
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - sn * colq
                a[:, q] = sn * colp + c * colq
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = c * c * app - 2.0 * sn * c * apq + sn * sn * aqq
                a[q, q] = sn * sn * app + 2.0 * sn * c * apq + c * c * aqq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                v[:, p] = c * vp - sn * v[:, q]
                v[:, q] = sn * vp + c * v[:, q]
    else:
        raise ArithmeticError("Jacobi iteration failed to converge")
    eigvals = np.diag(a)
    imin = int(np.argmin(eigvals))
    imax = int(np.argmax(eigvals))
    u_min = v[:, imin] / np.linalg.norm(v[:, imin])
    u_max = v[:, imax] / np.linalg.norm(v[:, imax])
    return math.ldexp(eigvals[imin], k), Vector(u_min), math.ldexp(eigvals[imax], k), Vector(u_max)
