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

import bisect
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .expr import EvalContext, Expression, evaluate, references_point
from .linalg import (
    DimensionMismatchError,
    SquareMatrix,
    Vector,
    gram_schmidt_complete,
    symmetric_eigen_extremes,
)
# haar_sample is not called here; the benchmark's tracer
# (perfbench/layers.py) wraps it under this module's name.
from .rotation import (  # noqa: F401
    UNIT_TOL,
    NonUnitVectorError,
    RotationMatrix,
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
# points: absolute up to radius 1, relative beyond, so that rotation
# roundoff, which grows with the radius, never reads as an escape.
MEMBERSHIP_TOL = 1e-12

# Trials per block in radial_set_closure_check, and a cap on the entries
# of one block of rotations, which keeps a block within a few megabytes
# at large m.
_CLOSURE_BLOCK = 256
_CLOSURE_BLOCK_ENTRIES = 1 << 18

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
        """Elementwise membership of radii, with slack MEMBERSHIP_TOL * max(1, t)."""
        t = np.asarray(t, dtype=float)
        slack = MEMBERSHIP_TOL * np.maximum(1.0, t)
        inside = np.zeros(t.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (lo - slack <= t) & (t <= hi + slack)
        for p in self.points:
            inside |= np.abs(t - p) <= slack
        return inside & np.isfinite(t)


@dataclass(frozen=True)
class RadialProfile:
    """The one-dimensional trace of a function along a fixed unit direction:
    either a sampled (radius, value) table with exact lookup and no
    interpolation, or a closed-form unary expression in t."""

    samples: tuple[tuple[float, float], ...] | None = None
    expression: Expression | None = None
    gamma: RadialSet | None = None

    def __post_init__(self):
        if (self.samples is None) == (self.expression is None):
            raise ValueError("provide exactly one of samples or expression")
        if self.expression is not None and references_point(self.expression):
            raise ValueError("a profile expression may reference only t")
        if self.samples is not None:
            object.__setattr__(
                self, "samples", tuple((float(t), float(v)) for t, v in self.samples)
            )
            if self.gamma is not None:
                for t, _ in self.samples:
                    if not self.gamma.contains_radius(t):
                        raise ValueError(f"sampled radius {t!r} lies outside the radius set")

    def value(self, t: float) -> float:
        if self.expression is not None:
            return evaluate(self.expression, EvalContext.at_radius(t))
        assert self.samples is not None
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


DomainSampler = Callable[[np.random.Generator], Vector]


def radial_membership(a: RadialSet, x: Vector) -> bool:
    """Whether x belongs to the set, i.e. its norm lies in the radius set."""
    if x.dim != a.dimension:
        raise DimensionMismatchError(f"point has dimension {x.dim}, set lives in dimension {a.dimension}")
    return a.contains_radius(x.norm())


def _cumulative_weights(a: RadialSet) -> list[float]:
    # Intervals weigh their length; isolated points are atoms weighted
    # like the mean interval length (or 1 when there are no intervals).
    lengths = [hi - lo for lo, hi in a.intervals]
    atom = (sum(lengths) / len(lengths)) if lengths else 1.0
    return list(itertools.accumulate(lengths + [atom] * len(a.points)))


def _draw_radius(a: RadialSet, cumulative: list[float], rng: np.random.Generator) -> float:
    pick = rng.uniform(0.0, cumulative[-1])
    index = min(bisect.bisect_left(cumulative, pick), len(cumulative) - 1)
    if index < len(a.intervals):
        lo, hi = a.intervals[index]
        return float(rng.uniform(lo, hi))
    return a.points[index - len(a.intervals)]


def sample_radius(a: RadialSet, rng: np.random.Generator) -> float:
    """Draw a radius from the set, uniform over total interval length;
    isolated points are atoms weighted like the mean interval length
    (or 1 when there are no intervals)."""
    return _draw_radius(a, _cumulative_weights(a), rng)


def _random_unit(m: int, rng: np.random.Generator) -> np.ndarray:
    # Normalized Gaussian: uniform on the sphere.
    while True:
        u = rng.standard_normal(m)
        n = math.sqrt(u @ u)
        if n > 1e-12:
            return u / n


def _random_units(count: int, m: int, rng: np.random.Generator) -> np.ndarray:
    # Rows of normalized Gaussians; a row too short to normalize is redrawn.
    z = rng.standard_normal((count, m))
    norms = np.linalg.norm(z, axis=1)
    while (short := norms <= 1e-12).any():
        z[short] = rng.standard_normal((int(short.sum()), m))
        norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None]


def radial_sampler(a: RadialSet) -> DomainSampler:
    """Default domain sampler for a radial set: radius from sample_radius,
    direction uniform on the sphere. The draws are those of sample_radius
    followed by a normalized Gaussian direction."""
    cumulative = _cumulative_weights(a)
    m = a.dimension

    def sample(rng: np.random.Generator) -> Vector:
        t = _draw_radius(a, cumulative, rng)
        return Vector._trusted(t * _random_unit(m, rng))

    return sample


def radial_set_closure_check(
    a: RadialSet, trials: int, rng: np.random.Generator
) -> ObjectivityReport:
    """Monte-Carlo sanity check that the radial set really is closed under
    rotation: sample points of the set and rotations, and confirm each
    rotated point still belongs.

    Trials run in blocks: radii are drawn with sample_radius's weighting,
    directions as normalized Gaussians (uniform on the sphere), and
    Haar rotations with one stacked QR (haar_stack). A row that leaves
    the set is checked again through radial_membership and its scalar
    rotation before it is reported, and the report's trials is the
    1-based index of that trial.

    By the radial characterization this cannot fail; the membership
    slack grows with the radius as rotation roundoff does, so a
    reported escape means an implementation bug.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = a.dimension
    cumulative = np.array(_cumulative_weights(a))
    low = np.array([lo for lo, _ in a.intervals] + list(a.points))
    high = np.array([hi for _, hi in a.intervals] + list(a.points))
    block = max(1, min(_CLOSURE_BLOCK, _CLOSURE_BLOCK_ENTRIES // (m * m)))
    done = 0
    while done < trials:
        n = min(block, trials - done)
        picks = rng.uniform(0.0, cumulative[-1], n)
        index = np.minimum(np.searchsorted(cumulative, picks), cumulative.size - 1)
        radii = rng.uniform(low[index], high[index])
        x = radii[:, None] * _random_units(n, m, rng)
        q = haar_stack(m, n, rng)
        qx = np.einsum("nij,nj->ni", q, x)
        for k in np.flatnonzero(~a.contains_radii(np.linalg.norm(qx, axis=1))):
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
    only when every point is the origin; otherwise some rotation moves a
    point off the set, and one is constructed as a witness.
    """
    if not points:
        raise ValueError("the point set must be nonempty")
    for k, p in enumerate(points):
        if p.dim != m:
            raise DimensionMismatchError(f"point {k} has dimension {p.dim}, expected {m}")
    nonzero = [p for p in points if p.norm() > MEMBERSHIP_TOL]
    if m == 1 or not nonzero:
        return ObjectivityReport(
            verdict=Verdict.OBJECTIVE,
            method=Method.RADIAL_REPRESENTATION,
            trials=0,
            tolerance=MEMBERSHIP_TOL,
        )
    p = max(nonzero, key=lambda v: v.norm())
    r = p.norm()
    u = p.data / r
    basis = gram_schmidt_complete([Vector(u)], m)
    g2 = basis[1].data
    # Distinct directions in the (u, g2) plane; the set is finite, so by
    # pigeonhole one of len(points) + 1 candidates misses it.
    separation = 1e-9 * max(1.0, r)
    for k in range(1, len(points) + 2):
        theta = k * math.pi / (len(points) + 2)
        v = math.cos(theta) * u + math.sin(theta) * g2
        v = v / np.linalg.norm(v)
        target = r * v
        if all(np.linalg.norm(target - q.data) > separation for q in points):
            rot = rotation_mapping(Vector(u), Vector(v))
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
    on every sphere, so each sampled point x with r = |x| is compared
    against two points of its own sphere: a direct check against f(r*u)
    for u uniform on the unit sphere, and a profile check against
    f(r*e1), which an invariant function must match since some rotation
    carries x onto the e1 ray. The direct check is the classical f(Qx)
    test for a Haar-random rotation Q without drawing Q: for m >= 2 and
    x != 0, Qx is uniformly distributed on the sphere of radius r, so
    f(r*u) has the same distribution as f(Qx). Points within
    MEMBERSHIP_TOL of the origin, which every rotation fixes, are
    evaluated but not compared.

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
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
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

    def sphere_witness(x: Vector, fx: float, r: float, threshold: float, u: np.ndarray) -> Witness | None:
        # Compare f(x) with f at r*u, u a unit vector; confirm a violation
        # through the rotation carrying x onto that point.
        fy = _checked_value(f, Vector._trusted(r * u))
        if abs(fx - fy) <= threshold:
            return None
        q = rotation_mapping(Vector._trusted(x.data / r), Vector._trusted(u))
        fqx = _checked_value(f, q.apply(x))
        if abs(fx - fqx) <= threshold:
            return None
        return Witness(x=x, q=q, f_x=fx, f_qx=fqx)

    for x, q in pinned:
        performed += 1
        fx = _checked_value(f, x)
        threshold = tol * max(1.0, abs(fx))
        fqx = _checked_value(f, q.apply(x))
        if abs(fx - fqx) > threshold:
            return refuted(Witness(x=x, q=q, f_x=fx, f_qx=fqx))
        r = x.norm()
        if r > MEMBERSHIP_TOL:
            witness = sphere_witness(x, fx, r, threshold, e1)
            if witness is not None:
                return refuted(witness)
    for _ in range(trials):
        performed += 1
        x = sampler(rng)
        fx = _checked_value(f, x)
        r = x.norm()
        if r <= MEMBERSHIP_TOL:
            continue
        threshold = tol * max(1.0, abs(fx))
        for u in (_random_unit(m, rng), e1):
            witness = sphere_witness(x, fx, r, threshold, u)
            if witness is not None:
                return refuted(witness)
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
    return SquareMatrix(0.5 * (d + d.T))


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
    verdict does not depend on the scale of H (exactly so under
    power-of-two scaling) and the zero form is objective. In dimension
    one alpha is h_00 and the residual is zero, so m = 1 always passes.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    hs = symmetric_part(qf.h)
    m = qf.order
    alpha = float(np.trace(hs.data)) / m
    eff_tol = tol * float(np.max(np.abs(hs.data)))
    residual = float(np.max(np.abs(hs.data - alpha * np.eye(m))))
    if residual <= eff_tol:
        return ObjectivityReport(
            verdict=Verdict.OBJECTIVE,
            method=Method.EXACT_QUADRATIC,
            trials=0,
            tolerance=eff_tol,
            alpha=alpha,
        )
    lam_min, u_min, lam_max, u_max = symmetric_eigen_extremes(hs)
    q = rotation_mapping(u_min, u_max)
    f_x = qf.value(u_min)
    f_qx = qf.value(q.apply(u_min))
    return ObjectivityReport(
        verdict=Verdict.NOT_OBJECTIVE,
        method=Method.EXACT_QUADRATIC,
        trials=0,
        tolerance=eff_tol,
        witness=Witness(x=u_min, q=q, f_x=f_x, f_qx=f_qx),
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
