"""Deciding and testing rotational invariance of sets and functions.

A set is objective when every proper rotation maps it into itself; a
function is objective when rotations never change its value. For
radially described sets and for quadratic forms x^T H x the decision is
exact; for black-box functions it is a seeded Monte-Carlo test that can
refute invariance (with a concrete witness) but never certify it, so
the clean outcome there is "inconclusive" rather than "objective".
The exceptions are cases settled by theory: dimension one, where the
only proper rotation is the identity, and exact constructions.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from .linalg import DimensionMismatchError, SquareMatrix, Vector, symmetric_eigen_extremes
# haar_sample is not called here; the benchmark's tracer
# (perfbench/layers.py) wraps it under this module's name.
from .rotation import (  # noqa: F401
    UNIT_TOL,
    NonUnitVectorError,
    RotationMatrix,
    _orthogonal_axis,
    haar_sample,
    haar_stack,
    rotation_mapping,
)

__all__ = [
    "Verdict",
    "Method",
    "Witness",
    "ObjectivityReport",
    "RadialSet",
    "RadialProfile",
    "QuadraticForm",
    "NonFiniteValueError",
    "ProfileEvaluationError",
    "DomainSampler",
    "radial_membership",
    "sample_radius",
    "radial_sampler",
    "radial_set_closure_check",
    "finite_set_objectivity",
    "extract_profile",
    "test_function_objectivity",
    "symmetric_part",
    "quadratic_objectivity",
    "quadratic_vs_montecarlo_oracle",
]

# Tolerance for radius membership at interval endpoints and isolated
# points, relative to the radius: rotation roundoff grows with the
# radius, so it never reads as an escape, and scaling a set and its
# radii by a power of two leaves membership unchanged. Subnormal radii
# have lost that relative precision and take the smallest normal's slack.
MEMBERSHIP_TOL = 1e-12

# Trials per block in the Monte-Carlo loops, and a cap on the entries of
# one block's arrays, which keeps a block within a few megabytes at
# large m.
_BLOCK = 256
_BLOCK_ENTRIES = 1 << 18

# Default relative tolerance for Monte-Carlo value comparisons; absorbs
# rotation-application roundoff.
DEFAULT_FUNCTION_TOL = 1e-9

# Default tolerance for the exact quadratic decision, relative to the
# largest entry of the symmetric part.
DEFAULT_QUADRATIC_TOL = 1e-10


class Verdict(str, Enum):
    OBJECTIVE = "objective"
    NOT_OBJECTIVE = "not_objective"
    INCONCLUSIVE = "inconclusive"


class Method(str, Enum):
    EXACT_QUADRATIC = "exact_quadratic"
    RADIAL_REPRESENTATION = "radial_representation"
    MONTE_CARLO = "monte_carlo"


class NonFiniteValueError(ValueError):
    """A function under test returned NaN or infinity."""


class ProfileEvaluationError(ValueError):
    """Profile extraction failed at a specific radius."""

    def __init__(self, radius: float, reason: str):
        super().__init__(f"profile evaluation failed at radius {radius!r}: {reason}")
        self.radius = radius


@dataclass(frozen=True)
class Witness:
    """A concrete refutation: a point x and rotation q with f(qx) != f(x).

    For set (rather than function) checks, f_x and f_qx are membership
    indicators: 1.0 for "x in the set", 0.0 for "qx escaped".
    """

    x: Vector
    q: RotationMatrix
    f_x: float
    f_qx: float


@dataclass(frozen=True)
class ObjectivityReport:
    verdict: Verdict
    method: Method
    trials: int
    tolerance: float
    alpha: float | None = None
    witness: Witness | None = None

    def __post_init__(self):
        if self.verdict is Verdict.NOT_OBJECTIVE:
            if self.witness is None:
                raise ValueError("a not_objective verdict requires a witness")
            if not abs(self.witness.f_x - self.witness.f_qx) > self.tolerance:
                raise ValueError("witness values do not separate beyond the tolerance")
        elif self.witness is not None:
            raise ValueError("only not_objective verdicts carry a witness")
        if self.verdict is Verdict.INCONCLUSIVE and self.method is not Method.MONTE_CARLO:
            raise ValueError("only Monte-Carlo testing can end inconclusive")


@dataclass(frozen=True)
class RadialSet:
    """A rotation-closed set described by its radii: all points of R^m whose
    norm lies in a radius set made of closed intervals and isolated points.

    The radius data is normalized at construction: intervals sorted and
    merged where they overlap or touch, degenerate intervals demoted to
    points, points deduplicated and dropped when an interval already
    covers them. The radius set must be nonempty.
    """

    dimension: int
    intervals: tuple[tuple[float, float], ...] = ()
    points: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        ivs: list[tuple[float, float]] = []
        pts: list[float] = []
        for lo, hi in self.intervals:
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("interval endpoints must be finite")
            if lo < 0.0 or hi < lo:
                raise ValueError(f"invalid radius interval [{lo}, {hi}]")
            if lo == hi:
                pts.append(lo)
            else:
                ivs.append((lo, hi))
        for p in self.points:
            p = float(p)
            if not math.isfinite(p) or p < 0.0:
                raise ValueError(f"invalid radius point {p!r}")
            pts.append(p)
        ivs.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        keep = sorted(
            {p for p in pts if not any(lo <= p <= hi for lo, hi in merged)}
        )
        if not merged and not keep:
            raise ValueError("the radius set must be nonempty")
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "points", tuple(keep))

    def contains_radius(self, t: float) -> bool:
        return bool(self.contains_radii(t))

    def contains_radii(self, t: np.ndarray) -> np.ndarray:
        """Elementwise membership of radii, with slack MEMBERSHIP_TOL * max(t, 2^-1022)."""
        t = np.asarray(t, dtype=float)
        slack = MEMBERSHIP_TOL * np.maximum(t, sys.float_info.min)
        inside = np.zeros(t.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (lo - slack <= t) & (t <= hi + slack)
        for p in self.points:
            inside |= np.abs(t - p) <= slack
        return inside & np.isfinite(t)


@dataclass(frozen=True)
class RadialProfile:
    """The one-dimensional trace of a function along a fixed unit direction:
    a sampled (radius, value) table with exact lookup and no interpolation."""

    samples: tuple[tuple[float, float], ...]
    gamma: RadialSet | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple((float(t), float(v)) for t, v in self.samples))
        if self.gamma is not None:
            for t, _ in self.samples:
                if not self.gamma.contains_radius(t):
                    raise ValueError(f"sampled radius {t!r} lies outside the radius set")

    def value(self, t: float) -> float:
        for radius, val in self.samples:
            if radius == t:
                return val
        raise KeyError(f"radius {t!r} was not sampled (lookup is exact, no interpolation)")


@dataclass(frozen=True)
class QuadraticForm:
    """The scalar function f(x) = x^T h x; h need not be symmetric."""

    h: SquareMatrix

    @property
    def order(self) -> int:
        return self.h.order

    def value(self, x: Vector) -> float:
        if x.dim != self.order:
            raise DimensionMismatchError(f"point has dimension {x.dim}, form has order {self.order}")
        return float(x.data @ self.h.data @ x.data)


class DomainSampler(Protocol):
    """Draws n radii of the domain as an array of shape (n,). The domain
    of an objectivity test is a union of spheres, so the directions are
    always uniform and only the radii are sampled."""

    def __call__(self, rng: np.random.Generator, n: int = 1) -> np.ndarray: ...


def radial_membership(a: RadialSet, x: Vector) -> bool:
    """Whether x belongs to the set, i.e. its norm lies in the radius set."""
    if x.dim != a.dimension:
        raise DimensionMismatchError(f"point has dimension {x.dim}, set lives in dimension {a.dimension}")
    return a.contains_radius(x.norm())


def radial_sampler(a: RadialSet) -> DomainSampler:
    """Default domain sampler for a radial set: radii uniform over total
    interval length; isolated points are atoms weighted like the mean
    interval length (or 1 when there are no intervals).

    n radii take one rng.random((2, n)): the first row, scaled by the
    total weight, picks the piece whose cumulative weight first reaches
    it; the second places the radius at lo + (hi - lo) * u in that piece.
    Raises OverflowError when the total weight exceeds the double range.
    """
    lengths = [hi - lo for lo, hi in a.intervals]
    atom = (sum(lengths) / len(lengths)) if lengths else 1.0
    cumulative = list(itertools.accumulate(lengths + [atom] * len(a.points)))
    if not math.isfinite(cumulative[-1]):
        raise OverflowError("total radius weight exceeds the double range")
    pieces = list(a.intervals) + [(p, p) for p in a.points]
    total, cumulative = cumulative[-1], np.array(cumulative)
    low = np.array([lo for lo, _ in pieces])
    width = np.array([hi - lo for lo, hi in pieces])

    def sample(rng: np.random.Generator, n: int = 1) -> np.ndarray:
        u = rng.random((2, n))
        # u < 1, so total * u[0] rounds to at most total: the index stays
        # below len(low).
        index = cumulative.searchsorted(total * u[0])
        return low[index] + width[index] * u[1]

    return sample


def sample_radius(a: RadialSet, rng: np.random.Generator) -> float:
    """Draw one radius from the set, as radial_sampler(a)(rng) does."""
    return float(radial_sampler(a)(rng)[0])


def _to_spheres(z: np.ndarray, radii: np.ndarray) -> np.ndarray:
    # Normalize the Gaussian rows of z, of shape (..., n, m), and scale
    # them to the n radii in place: uniform points on the spheres. A
    # Gaussian row is nonzero with probability 1; the chance that one is
    # exactly zero is below 2^-50 even at m = 1, so none is redrawn.
    z *= (radii / np.sqrt(np.add.reduce(z * z, -1)))[..., None]
    return z


def radial_set_closure_check(
    a: RadialSet, trials: int, rng: np.random.Generator
) -> ObjectivityReport:
    """Monte-Carlo sanity check that the radial set really is closed under
    rotation: sample points of the set and rotations, and confirm each
    rotated point still belongs.

    Trials run in blocks: radii come from radial_sampler(a), directions
    are normalized Gaussians (uniform on the sphere), and Haar rotations
    come from one stacked QR (haar_stack). A row that leaves the set is
    checked again through radial_membership and its scalar rotation
    before it is reported, and the report's trials is the 1-based index
    of that trial.

    By the radial characterization this cannot fail; the membership
    slack grows with the radius as rotation roundoff does, so a
    reported escape means an implementation bug.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = a.dimension
    sampler = radial_sampler(a)
    block = max(1, min(_BLOCK, _BLOCK_ENTRIES // (m * m)))
    done = 0
    while done < trials:
        n = min(block, trials - done)
        radii = sampler(rng, n)
        x = _to_spheres(rng.standard_normal((n, m)), radii)
        q = haar_stack(m, n, rng)
        # The norms are taken on the block scaled exactly by 2^-e, which
        # brings the largest radius into [0.5, 1): their squares neither
        # overflow nor underflow at extreme radii.
        e = math.frexp(float(radii.max()))[1]
        qx = np.ldexp(np.einsum("nij,nj->ni", q, x), -e)
        norms = np.ldexp(np.linalg.norm(qx, axis=1), e)
        for k in np.flatnonzero(~a.contains_radii(norms)):
            xk = Vector(x[k])
            qk = RotationMatrix._trusted(SquareMatrix(q[k]))
            if not radial_membership(a, qk.apply(xk)):
                return ObjectivityReport(
                    verdict=Verdict.NOT_OBJECTIVE,
                    method=Method.RADIAL_REPRESENTATION,
                    trials=done + int(k) + 1,
                    tolerance=MEMBERSHIP_TOL,
                    witness=Witness(x=xk, q=qk, f_x=1.0, f_qx=0.0),
                )
        done += n
    return ObjectivityReport(
        verdict=Verdict.OBJECTIVE,
        method=Method.RADIAL_REPRESENTATION,
        trials=trials,
        tolerance=MEMBERSHIP_TOL,
    )


def finite_set_objectivity(points: Sequence[Vector], m: int) -> ObjectivityReport:
    """Exact decision for a finite point set.

    In dimension one every set is objective. For m >= 2 a rotation orbit
    of any nonzero point is a whole sphere, so a finite set is objective
    only when every point is the zero vector; otherwise a rotation
    carries a point p of largest norm r more than 1e-9*r from every
    point. It is found on the set scaled by the power of two that brings
    r into [0.5, 1), so the verdict does not depend on the units.
    """
    if not points:
        raise ValueError("the point set must be nonempty")
    for k, p in enumerate(points):
        if p.dim != m:
            raise DimensionMismatchError(f"point {k} has dimension {p.dim}, expected {m}")
    p = max(points, key=lambda v: v.norm())
    if m == 1 or not p.data.any():
        return ObjectivityReport(
            verdict=Verdict.OBJECTIVE,
            method=Method.RADIAL_REPRESENTATION,
            trials=0,
            tolerance=MEMBERSHIP_TOL,
        )
    e = math.frexp(p.norm())[1]
    scaled = [np.ldexp(q.data, -e) for q in points]
    x = np.ldexp(p.data, -e)
    r = math.sqrt(x @ x)
    u = x / r
    w = _orthogonal_axis(u)
    w /= math.sqrt(w @ w)
    # Distinct directions in the (u, w) plane; the set is finite, so by
    # pigeonhole one of len(points) + 1 candidates carries p off it.
    for k in range(1, len(points) + 2):
        theta = k * math.pi / (len(points) + 2)
        rot = rotation_mapping(Vector(u), Vector(math.cos(theta) * u + math.sin(theta) * w))
        moved = rot.data @ x
        if all(np.linalg.norm(moved - q) > 1e-9 * r for q in scaled):
            witness = Witness(x=p, q=rot, f_x=1.0, f_qx=0.0)
            return ObjectivityReport(
                verdict=Verdict.NOT_OBJECTIVE,
                method=Method.RADIAL_REPRESENTATION,
                trials=0,
                tolerance=MEMBERSHIP_TOL,
                witness=witness,
            )
    raise RuntimeError("no free direction found; the candidate sweep should make this unreachable")


def extract_profile(
    f: Callable[[Vector], float],
    gamma: RadialSet,
    u0: Vector,
    grid: Sequence[float],
) -> RadialProfile:
    """Sample the radial profile phi(t) = f(t * u0) over a grid of radii
    drawn from the radius set. u0 must be a unit vector."""
    if abs(u0.norm() - 1.0) > UNIT_TOL:
        raise NonUnitVectorError(f"u0 must be a unit vector (norm {u0.norm()!r})")
    samples: list[tuple[float, float]] = []
    for t in grid:
        t = float(t)
        if not gamma.contains_radius(t):
            raise ValueError(f"grid radius {t!r} lies outside the radius set")
        try:
            val = float(f(Vector(t * u0.data)))
        except ProfileEvaluationError:
            raise
        except Exception as exc:
            raise ProfileEvaluationError(t, str(exc)) from exc
        if not math.isfinite(val):
            raise ProfileEvaluationError(t, f"non-finite value {val!r}")
        samples.append((t, val))
    return RadialProfile(samples=tuple(samples), gamma=gamma)


def _checked_value(f: Callable[[Vector], float], x: Vector) -> float:
    val = float(f(x))
    if not math.isfinite(val):
        raise NonFiniteValueError(f"function returned non-finite value {val!r} at {x!r}")
    return val


def test_function_objectivity(
    f: Callable[[Vector], float],
    m: int,
    sampler: DomainSampler,
    trials: int,
    tol: float = DEFAULT_FUNCTION_TOL,
    rng: np.random.Generator | None = None,
    *,
    pinned: Sequence[tuple[Vector, RotationMatrix]] = (),
) -> ObjectivityReport:
    """Monte-Carlo invariance test for a black-box scalar function.

    By the characterization, f is objective exactly when it is constant
    on every sphere, so each sampled point x with radius r is compared
    against two points of its own sphere: a direct check against f(r*u)
    for u uniform on the unit sphere, and a profile check against
    f(r*e1), which an invariant function must match since some rotation
    carries x onto the e1 ray. The direct check is the classical f(Qx)
    test for a Haar-random rotation Q without drawing Q: for m >= 2 and
    x != 0, Qx is uniformly distributed on the sphere of radius r, so
    f(r*u) has the same distribution as f(Qx). Points of radius below the
    smallest normal double, whose subnormal coordinates cannot be
    normalized within UNIT_TOL, are evaluated but not compared; so
    scaling every radius above it by 2^k leaves the report unchanged.

    The sampler gives the radii (see DomainSampler); the directions of x
    and u are uniform. Trials run in blocks of 1, 2, 4, ..., 256 trials,
    fewer where the block's (2n, m) Gaussians would exceed _BLOCK_ENTRIES.
    A block of n trials makes one call sampler(rng, n) and one (2n, m)
    Gaussian draw, whose rows are normalized and scaled to the radii: x
    for trial k is row k, r*u is row n + k. A refutation in trial 1 thus
    draws no more than that trial uses. Radii of the wrong shape, or a
    negative or non-finite radius, raise ValueError.

    Violations are judged relative to max(1, |f(x)|). When a comparison
    point y violates, the rotation q = rotation_mapping(x/r, y/r) is built
    and f(qx) is evaluated again; the trial refutes only if that value
    still separates from f(x), so the witness (x, q, f(x), f(qx)) replays
    bit for bit through f. The first refutation ends the test with a
    not_objective verdict whose trials is the 1-based index of the
    refuting trial; surviving the whole budget is merely "inconclusive",
    since sampling cannot certify invariance. Dimension one is the
    exception: there the identity is the only proper rotation, so the
    verdict is objective outright.

    `pinned` trials, pairs (x, q) checked before any random sampling,
    let a caller guarantee that a known suspect direction is covered:
    each compares f(qx) with f(x) for its own q, then runs the profile
    check.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and > 0")
    if rng is None:
        raise ValueError("an explicitly seeded random generator is required")
    if m == 1:
        return ObjectivityReport(
            verdict=Verdict.OBJECTIVE,
            method=Method.MONTE_CARLO,
            trials=0,
            tolerance=tol,
        )
    e1 = np.zeros(m)
    e1[0] = 1.0
    performed = 0

    def refuted(witness: Witness) -> ObjectivityReport:
        return ObjectivityReport(
            verdict=Verdict.NOT_OBJECTIVE,
            method=Method.MONTE_CARLO,
            trials=performed,
            tolerance=tol,
            witness=witness,
        )

    def sphere_witness(x: Vector, fx: float, threshold: float, r: float, y: np.ndarray) -> Witness | None:
        # Compare f(x) with f(y), y a point of the sphere of radius r that
        # x lies on; confirm a violation through the rotation carrying x
        # onto y. x may be a row view of a block, so the witness copies it.
        y = Vector._trusted(y)
        fy = _checked_value(f, y)
        if abs(fx - fy) <= threshold:
            return None
        q = rotation_mapping(Vector._trusted(x.data / r), Vector._trusted(y.data / r))
        fqx = _checked_value(f, q.apply(x))
        if abs(fx - fqx) <= threshold:
            return None
        return Witness(x=Vector._trusted(x.data.copy()), q=q, f_x=fx, f_qx=fqx)

    for x, q in pinned:
        performed += 1
        fx = _checked_value(f, x)
        threshold = tol * max(1.0, abs(fx))
        fqx = _checked_value(f, q.apply(x))
        if abs(fx - fqx) > threshold:
            return refuted(Witness(x=x, q=q, f_x=fx, f_qx=fqx))
        r = x.norm()
        if r >= sys.float_info.min:
            witness = sphere_witness(x, fx, threshold, r, r * e1)
            if witness is not None:
                return refuted(witness)
    cap = max(1, min(_BLOCK, _BLOCK_ENTRIES // (2 * m)))
    block, done = 1, 0
    while done < trials:
        n = min(block, trials - done)
        radii = np.asarray(sampler(rng, n), dtype=float)
        if radii.shape != (n,):
            raise ValueError(f"the sampler returned radii of shape {radii.shape}, expected ({n},)")
        # Trial k compares the sampled point z[0, k] with the direct-check
        # point z[1, k], then with the profile point t*e1, all of radius t.
        z = _to_spheres(rng.standard_normal((2, n, m)), radii)
        for k, t in enumerate(radii.tolist()):
            if not 0.0 <= t < math.inf:
                raise ValueError(f"the sampler returned the radius {t!r}")
            performed += 1
            x = Vector._trusted(z[0, k])
            fx = _checked_value(f, x)
            if t < sys.float_info.min:
                continue
            threshold = tol * max(1.0, abs(fx))
            witness = (sphere_witness(x, fx, threshold, t, z[1, k])
                       or sphere_witness(x, fx, threshold, t, t * e1))
            if witness is not None:
                return refuted(witness)
        done += n
        block = min(2 * block, cap)
    return ObjectivityReport(
        verdict=Verdict.INCONCLUSIVE,
        method=Method.MONTE_CARLO,
        trials=performed,
        tolerance=tol,
    )


# The name matches pytest's collection pattern; this is library code.
test_function_objectivity.__test__ = False  # type: ignore[attr-defined]


def symmetric_part(h: SquareMatrix) -> SquareMatrix:
    """(h + h^T) / 2, exactly symmetric since mirror entries are averaged."""
    d = h.data
    with np.errstate(over="ignore"):
        s = 0.5 * (d + d.T)
    if np.isinf(s).any():  # halving first is exact only where the sum overflows; it rounds subnormals
        s = np.where(np.isinf(s), 0.5 * d + 0.5 * d.T, s)
    return SquareMatrix._trusted(s)


def quadratic_objectivity(
    qf: QuadraticForm, tol: float = DEFAULT_QUADRATIC_TOL
) -> ObjectivityReport:
    """Exact objectivity decision for f(x) = x^T H x.

    The form is invariant under every proper rotation precisely when the
    symmetric part of H is a scalar multiple alpha of the identity (the
    antisymmetric part never contributes to x^T H x). alpha is estimated
    as trace/m, the least-squares optimum, so the decision reduces to
    one residual check. A failing form ships a maximally separated
    witness built from the extreme eigenpairs of the symmetric part: the
    rotation carrying the minimizing direction onto the maximizing one
    changes the value by the whole spectral gap.

    The tolerance is tol * max|H_s| with no absolute floor, so the
    verdict does not depend on the scale of H and the zero form is
    objective. The fit, the residual check and the eigensolver share one
    copy of H_s scaled by a power of two so that its largest entry lies
    in [0.5, 1): nothing computed on it overflows, and H and 2^j H are
    decided on the same array. In dimension one alpha is h_00 and the
    residual is zero, so m = 1 always passes. tol must lie in (0, 1): a
    tol of 1 or more would accept diag(1, -1), and tol < 1 keeps the
    reported tolerance finite.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    hs = symmetric_part(qf.h)
    eff_tol = tol * (top := float(abs(hs.data).max()))
    k = math.frexp(top)[1]
    d = np.ldexp(hs.data, -k)
    alpha = float(d.trace()) / len(d)
    r = d.copy()
    r.flat[:: len(d) + 1] -= alpha
    if float(np.abs(r, out=r).max()) <= math.ldexp(eff_tol, -k):
        return ObjectivityReport(
            verdict=Verdict.OBJECTIVE,
            method=Method.EXACT_QUADRATIC,
            trials=0,
            tolerance=eff_tol,
            alpha=math.ldexp(alpha, k),
        )
    _, u_min, _, u_max = symmetric_eigen_extremes(SquareMatrix._trusted(d))
    q = rotation_mapping(u_min, u_max)
    # x = 2^-j u_min, j >= 0 least with f(x), f(qx) finite: they differ by the gap times 4^-j.
    for j in itertools.count():
        x = Vector._trusted(np.ldexp(u_min.data, -j))
        with np.errstate(over="ignore", invalid="ignore"):
            f_x, f_qx = qf.value(x), qf.value(q.apply(x))
        if math.isfinite(f_x) and math.isfinite(f_qx):
            break
    return ObjectivityReport(
        verdict=Verdict.NOT_OBJECTIVE,
        method=Method.EXACT_QUADRATIC,
        trials=0,
        tolerance=eff_tol,
        witness=Witness(x=x, q=q, f_x=f_x, f_qx=f_qx),
    )


def quadratic_vs_montecarlo_oracle(
    qf: QuadraticForm,
    trials: int,
    rng: np.random.Generator,
    tol: float = DEFAULT_FUNCTION_TOL,
) -> bool:
    """Cross-validate the exact quadratic decision against the Monte-Carlo
    tester on the same form.

    Agreement means: exact "objective" and no violation sampled, or
    exact "not_objective" and a violation found within the budget. The
    Monte-Carlo run is seeded with the exact test's witness pair, so a
    genuine non-objective form cannot slip through on sampling luck.
    The exact test is the sharper instrument; forms whose anisotropy
    sits between the two tolerances can disagree by construction.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    exact = quadratic_objectivity(qf)
    m = qf.order
    sampler = radial_sampler(RadialSet(m, intervals=((0.5, 2.0),)))
    pinned = ((exact.witness.x, exact.witness.q),) if exact.witness is not None else ()
    mc = test_function_objectivity(
        qf.value, m, sampler, trials, tol, rng, pinned=pinned
    )
    exact_invariant = exact.verdict is Verdict.OBJECTIVE
    mc_clean = mc.verdict is not Verdict.NOT_OBJECTIVE
    return exact_invariant == mc_clean
