import bisect
import hashlib
import itertools
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotinv import objectivity
from rotinv.expr import EvalContext, ExpressionError, evaluate, parse
from rotinv.linalg import DimensionMismatchError, SquareMatrix, Vector
from rotinv.objectivity import (
    Method,
    NonFiniteValueError,
    ObjectivityReport,
    ProfileEvaluationError,
    QuadraticForm,
    RadialProfile,
    RadialSet,
    Verdict,
    Witness,
    extract_profile,
    finite_set_objectivity,
    quadratic_objectivity,
    quadratic_vs_montecarlo_oracle,
    radial_membership,
    radial_sampler,
    radial_set_closure_check,
    sample_radius,
    symmetric_part,
    test_function_objectivity,
)
from rotinv.rotation import (
    NonUnitVectorError,
    RotationMatrix,
    haar_stack,
    rotation_2d,
    rotation_mapping,
    validate_rotation,
)

E1_2 = Vector([1.0, 0.0])
_BIG = sys.float_info.max

# The benchmark's radial and coordinate expression templates, and a cap
# around the x2 axis that sampling finds only after some trials.
PINNED_TEMPLATES = (
    "{a}*norm(x)^2 + sin({b}*norm(x))",
    "exp(-{a}*norm(x)) + {b}*dot(x,x)",
    "{a}/(1 + norm(x)^2) + cos({b}*norm(x))",
    "sqrt({a} + norm(x))*log({b} + norm(x))",
    "{a}*x1 + norm(x)",
    "x1*x2 + {b}",
    "sin({a}*x1) + dot(x,x)",
    "exp({a}*x2/norm(x))",
    "x1^2 - {b}*x2^2",
    "dot(x,x) - {a}*x1",
    "{a}*norm(x) + exp(-200*(x2/norm(x) - 1)^2)",
)
PINNED_RADII = ({"points": (0.0,)}, {"points": (1e-310,)}, {"points": (1.0,)}, {"intervals": ((1.0, 1.5),)},
                {"points": (1e300,)}, {"intervals": ((1e300, 1.5e300),)})
# Recorded before the trial loop compared f's values itself instead of through
# a helper per comparison point: that change must not move a bit.
REPORT_DIGEST = "482de16f1a6c2c199487067a68b97462338d5963f655c9e3508b080ec82e3155"


class TestRadialSet:
    def test_touching_intervals_merge(self):
        a = RadialSet(2, intervals=((1.0, 2.0), (2.0, 3.0)))
        assert a.intervals == ((1.0, 3.0),)

    def test_nested_intervals_merge(self):
        a = RadialSet(2, intervals=((1.0, 5.0), (2.0, 3.0)))
        assert a.intervals == ((1.0, 5.0),)

    def test_degenerate_interval_becomes_point(self):
        a = RadialSet(2, intervals=((2.0, 2.0),))
        assert a.intervals == () and a.points == (2.0,)

    def test_point_inside_interval_dropped(self):
        a = RadialSet(2, intervals=((1.0, 2.0),), points=(1.5, 4.0))
        assert a.points == (4.0,)

    def test_points_deduplicated_and_sorted(self):
        a = RadialSet(2, points=(3.0, 1.0, 3.0))
        assert a.points == (1.0, 3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RadialSet(2)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            RadialSet(2, points=(-1.0,))
        with pytest.raises(ValueError):
            RadialSet(2, intervals=((-1.0, 2.0),))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            RadialSet(0, points=(1.0,))


class TestMembership:
    def test_interval_member(self):
        assert radial_membership(RadialSet(2, intervals=((1.0, 2.0),)), Vector([1.0, 0.0]))

    def test_origin_with_zero_radius(self):
        a = RadialSet(2, intervals=((1.0, 2.0),), points=(0.0,))
        assert radial_membership(a, Vector([0.0, 0.0]))

    def test_norm_five_not_in_one_two(self):
        assert not radial_membership(RadialSet(2, intervals=((1.0, 2.0),)), Vector([3.0, 4.0]))

    def test_endpoint_tolerance(self):
        a = RadialSet(1, intervals=((1.0, 2.0),))
        assert a.contains_radius(2.0 + 5e-13)
        assert not a.contains_radius(2.0 + 1e-11)
        b = RadialSet(1, points=(2.0,))
        assert b.contains_radius(2.0 - 5e-13)

    def test_slack_grows_with_the_radius(self):
        a = RadialSet(3, intervals=((0.5, 1e5),), points=(1e7,))
        assert a.contains_radius(1e5 + 5e-8)
        assert not a.contains_radius(1e5 + 1e-6)
        assert a.contains_radius(1e7 - 5e-6)
        assert not a.contains_radius(1e7 + 1e-4)
        assert a.contains_radius(0.5 - 5e-13)
        assert not a.contains_radius(0.5 - 2e-12)

    def test_slack_is_relative_below_radius_one(self):
        a = RadialSet(2, intervals=((2e-13, 3e-13),))
        assert a.contains_radii(np.array([0.0, 1e-13, 1.2e-12, 2.5e-13])).tolist() == [
            False, False, False, True]
        assert a.contains_radius(3e-13 + 2e-25) and not a.contains_radius(3e-13 + 1e-24)

    @settings(max_examples=200, deadline=None)
    @given(
        intervals=st.lists(
            st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)).map(sorted), max_size=3
        ),
        points=st.lists(st.just(0.0) | st.floats(1e-6, 1e6), max_size=3),
        offsets=st.lists(st.floats(-3e-12, 3e-12), min_size=1, max_size=8),
        k=st.integers(-900, 900),
    )
    def test_membership_does_not_depend_on_the_units(self, intervals, points, offsets, k):
        # Radii on both sides of every endpoint's slack, then the set and
        # the radii scaled by 2^k, which is exact for all of them, also with
        # each scaled radius t judged as s * 2^e for (s, e) = frexp(t).
        if not intervals and not points:
            points = [1.0]
        a = RadialSet(2, intervals=tuple(map(tuple, intervals)), points=tuple(points))
        ends = [t for iv in a.intervals for t in iv] + list(a.points)
        radii = np.array([e * (1.0 + o) for e in ends for o in offsets] + [0.0])
        scaled = RadialSet(2, intervals=tuple((math.ldexp(lo, k), math.ldexp(hi, k)) for lo, hi in a.intervals),
                           points=tuple(math.ldexp(p, k) for p in a.points))
        assert scaled.contains_radii(np.ldexp(radii, k)).tolist() == a.contains_radii(radii).tolist()
        assert scaled._contains_scaled(*np.frexp(np.ldexp(radii, k))).tolist() == a.contains_radii(radii).tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_rotated_points_at_the_double_maximum_belong(self, m):
        # Their norms round past the double maximum about a quarter of the
        # time; membership is judged in units of the largest entry's exponent.
        a = RadialSet(m, points=(_BIG,))
        rng = np.random.default_rng(58)
        x = objectivity._to_spheres(rng.standard_normal((200, m)), np.full(200, _BIG))
        for xk, qk in zip(x, haar_stack(m, 200, rng)):
            assert radial_membership(a, Vector(xk))
            assert radial_membership(a, Vector._trusted(qk @ xk))

    def test_array_membership_matches_scalar(self):
        a = RadialSet(2, intervals=((1.0, 2.0),), points=(0.0, 1e5))
        radii = np.array([0.0, 1e-13, 0.5, 1.0 - 5e-13, 1.5, 2.0 + 3e-12, 1e5 + 5e-8, 1e5 + 1e-6,
                          math.inf, math.nan])
        assert a.contains_radii(radii).tolist() == [a.contains_radius(float(t)) for t in radii]
        assert not a.contains_radius(math.inf) and not a.contains_radius(math.nan)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            radial_membership(RadialSet(3, points=(1.0,)), Vector([1.0, 0.0]))


class TestSampling:
    def test_samples_stay_in_the_set(self):
        rng = np.random.default_rng(40)
        a = RadialSet(3, intervals=((0.5, 1.0), (2.0, 4.0)), points=(7.0,))
        for _ in range(500):
            t = sample_radius(a, rng)
            assert a.contains_radius(t)

    def test_atoms_and_intervals_both_drawn(self):
        rng = np.random.default_rng(41)
        a = RadialSet(2, intervals=((0.0, 1.0),), points=(5.0,))
        draws = [sample_radius(a, rng) for _ in range(1000)]
        n_atom = sum(1 for t in draws if t == 5.0)
        # Atom weight equals the mean interval length, so about half.
        assert 350 < n_atom < 650

    @staticmethod
    def _reference_radii(a, rng, n):
        # The documented draw, in Python floats: one rng.random((2, n)); the
        # first row, times the total weight, picks a piece by bisection over
        # the cumulative weights, the second places the radius in it.
        lengths = [hi - lo for lo, hi in a.intervals]
        atom = (sum(lengths) / len(lengths)) if lengths else 1.0
        cumulative = list(itertools.accumulate(lengths + [atom] * len(a.points)))
        pieces = list(a.intervals) + [(p, p) for p in a.points]
        radii = []
        for pick, place in zip(*rng.random((2, n)).tolist()):
            index = min(bisect.bisect_left(cumulative, cumulative[-1] * pick), len(pieces) - 1)
            lo, hi = pieces[index]
            radii.append(lo + (hi - lo) * place)
        return radii

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 1e300)).map(sorted), max_size=4
        ),
        points=st.lists(st.floats(0.0, 1e300), max_size=3),
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=4),
        seed=st.integers(0, 2**32),
    )
    def test_radii_and_generator_state_match_the_documented_draw(self, bounds, points, sizes, seed):
        assume(bounds or points)
        a = RadialSet(3, intervals=tuple(bounds), points=tuple(points))
        sampler = radial_sampler(a)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in sizes:
            radii = sampler(rng, n)
            expected = self._reference_radii(a, reference, n)
            assert radii.shape == (n,) and radii.dtype == np.float64
            assert [float.hex(t) for t in radii.tolist()] == [float.hex(t) for t in expected]
            assert rng.bit_generator.state == reference.bit_generator.state
            assert a.contains_radii(radii).all()
        t, (expected,) = sample_radius(a, rng), self._reference_radii(a, reference, 1)
        assert float.hex(t) == float.hex(expected)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert len(sampler(rng)) == 1

    def test_total_weight_beyond_the_double_range_is_rejected(self):
        a = RadialSet(2, intervals=((0.0, 1.5e308),), points=(1.6e308,))
        with pytest.raises(OverflowError):
            sample_radius(a, np.random.default_rng(0))
        with pytest.raises(OverflowError):
            radial_sampler(a)

    def test_radii_belong(self):
        rng = np.random.default_rng(42)
        a = RadialSet(4, intervals=((1.0, 2.0), (3.0, 3.5)), points=(0.0, 9.0))
        sampler = radial_sampler(a)
        for n in (1, 2, 7, 256, 1000):
            radii = sampler(rng, n)
            assert radii.shape == (n,)
            assert all(a.contains_radius(t) for t in radii.tolist())


class TestClosureCheck:
    def test_unit_circle(self):
        report = radial_set_closure_check(RadialSet(2, points=(1.0,)), 500, np.random.default_rng(50))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.method is Method.RADIAL_REPRESENTATION

    def test_wide_slab(self):
        a = RadialSet(3, intervals=((0.0, 1e6),))
        report = radial_set_closure_check(a, 500, np.random.default_rng(51))
        assert report.verdict is Verdict.OBJECTIVE

    def test_one_dimensional(self):
        report = radial_set_closure_check(RadialSet(1, points=(2.0,)), 100, np.random.default_rng(52))
        assert report.verdict is Verdict.OBJECTIVE

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            radial_set_closure_check(RadialSet(2, points=(1.0,)), 0, np.random.default_rng(0))

    def test_the_budget_must_be_an_integer(self):
        # 2.5 is refused before the generator moves; a numpy integer is a count.
        a = RadialSet(3, intervals=((0.5, 2.0),))
        rng = np.random.default_rng(53)
        state = rng.bit_generator.state
        with pytest.raises(TypeError):
            radial_set_closure_check(a, 2.5, rng)
        assert rng.bit_generator.state == state
        report = radial_set_closure_check(a, np.int64(7), rng)
        assert report.verdict is Verdict.OBJECTIVE and report.trials == 7 and type(report.trials) is int

    def test_large_isolated_radius_does_not_escape(self):
        report = radial_set_closure_check(RadialSet(3, points=(1e5,)), 2000, np.random.default_rng(0))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.trials == 2000

    def test_escape_reports_its_trial_and_witness(self, monkeypatch):
        # Stretch one rotation of the second block so that its point leaves
        # the unit circle; the report names that trial, 1-based.
        def stretched(m, count, rng):
            q = haar_stack(m, count, rng)
            if stretched.blocks == 1:
                q[5] *= 2.0
            stretched.blocks += 1
            return q

        stretched.blocks = 0
        monkeypatch.setattr(objectivity, "haar_stack", stretched)
        report = radial_set_closure_check(RadialSet(2, points=(1.0,)), 1000, np.random.default_rng(53))
        assert report.verdict is Verdict.NOT_OBJECTIVE
        assert report.trials == objectivity._BLOCK + 6
        w = report.witness
        assert abs(w.x.norm() - 1.0) <= 1e-12
        assert abs(w.q.apply(w.x).norm() - 2.0) <= 1e-12
        assert (w.f_x, w.f_qx) == (1.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=6),
        intervals=st.lists(
            st.tuples(st.floats(0.0, 1e8), st.floats(0.0, 1e8)).map(sorted), max_size=3
        ),
        points=st.lists(st.floats(0.0, 1e8), max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_closure_never_fails(self, m, intervals, points, seed):
        if not intervals and not points:
            points = [1.0]
        a = RadialSet(m, intervals=tuple(map(tuple, intervals)), points=tuple(points))
        report = radial_set_closure_check(a, 300, np.random.default_rng(seed))
        assert report.verdict is Verdict.OBJECTIVE

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("r", [1e-300, 1e-200, 1e-100, 1e-13, 1.0])
    def test_tiny_radii_do_not_escape(self, m, r):
        for a in (RadialSet(m, intervals=((r, 2 * r),)), RadialSet(m, points=(r, 3 * r))):
            report = radial_set_closure_check(a, 300, np.random.default_rng(54))
            assert report.verdict is Verdict.OBJECTIVE

    @pytest.mark.parametrize("r", [1e-300, 1e300])
    def test_extreme_radii_need_no_scalar_recheck(self, monkeypatch, r):
        # The block norms are taken on a power-of-two-scaled copy, so no
        # row falls to the scalar path and numpy warns of no overflow
        # (warnings are errors in this suite).
        rechecks = []

        def spy(a, x):
            rechecks.append(x)
            return radial_membership(a, x)

        monkeypatch.setattr(objectivity, "radial_membership", spy)
        report = radial_set_closure_check(RadialSet(3, points=(r,)), 1000, np.random.default_rng(55))
        assert report.verdict is Verdict.OBJECTIVE
        assert rechecks == []


    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("r", [1e308, 1.7e308, 1.79e308])
    def test_radii_near_the_double_maximum_stay_in_the_set(self, m, r):
        report = radial_set_closure_check(RadialSet(m, points=(r,)), 500, np.random.default_rng(57))
        assert report.verdict is Verdict.OBJECTIVE

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("a", [
        {"points": (_BIG,)},
        {"intervals": ((1e308, _BIG),)},
    ], ids=["point", "interval"])
    def test_the_double_maximum_stays_in_the_set(self, m, a):
        # Rotated norms there round past the double maximum; they are
        # judged in units of 2^-e, with no overflow warning.
        report = radial_set_closure_check(RadialSet(m, **a), 500, np.random.default_rng(1))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.trials == 500


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 1000),
    n=st.integers(1, 8),
    r=st.one_of(st.floats(1e-290, _BIG), st.sampled_from([1e307, 1e308, 1.79e308, _BIG])),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_points_are_finite_and_on_their_sphere(m, n, r, seed):
    # Norms are compared on copies scaled by the power of two that brings r
    # into [0.5, 1), where no square overflows; numpy warns of nothing
    # (warnings are errors in this suite).
    z = np.random.default_rng(seed).standard_normal((2, n, m))
    x = objectivity._to_spheres(z, np.full(n, r))
    assert np.isfinite(x).all()
    e = math.frexp(r)[1]
    norms = np.linalg.norm(np.ldexp(x, -e), axis=-1)
    assert np.all(np.abs(norms - math.ldexp(r, -e)) <= 1e-14 * math.ldexp(r, -e))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 100),
    n=st.integers(1, 256),
    bounds=st.tuples(st.floats(2.2e-308, 1.79e308), st.floats(2.2e-308, 1.79e308)).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=256, bounds=[1e200, 1.79e308], seed=0)
def test_batched_squares_match_each_rows_vdot(m, n, bounds, seed):
    # A block's x.x from one batched product equals, bit for bit and inf
    # included, what Vector.squared_norm computes row by row; a profile
    # row t*e1 has x.x = t*t exactly. Radii are log-uniform between the bounds.
    rng = np.random.default_rng(seed)
    radii = np.exp2(rng.uniform(*np.log2(bounds), n))
    z = objectivity._to_spheres(rng.standard_normal((2, n, m)), radii)
    rows = [float(np.vdot(row, row)) for side in z for row in side]
    assert objectivity._squared_norms(z).tobytes() == np.array(rows).tobytes()
    profile = np.zeros((n, m))
    profile[:, 0] = radii
    assert [float(np.vdot(p, p)) for p in profile] == [t * t for t in radii.tolist()]


class TestFiniteSets:
    def test_origin_only_is_objective(self):
        report = finite_set_objectivity([Vector([0.0, 0.0, 0.0])], 3)
        assert report.verdict is Verdict.OBJECTIVE

    def test_single_direction_is_not(self):
        points = [E1_2]
        report = finite_set_objectivity(points, 2)
        assert report.verdict is Verdict.NOT_OBJECTIVE
        w = report.witness
        validate_rotation(w.q.matrix)
        moved = w.q.apply(w.x)
        # The rotated point genuinely left the set.
        assert all(np.linalg.norm(moved.data - p.data) > 1e-9 for p in points)
        assert (w.f_x, w.f_qx) == (1.0, 0.0)

    def test_any_one_dimensional_set_is_objective(self):
        report = finite_set_objectivity([Vector([-1.0]), Vector([5.0]), Vector([7.0])], 1)
        assert report.verdict is Verdict.OBJECTIVE

    def test_sphere_samples_still_finite_hence_not_objective(self):
        rng = np.random.default_rng(60)
        points = [Vector(u / np.linalg.norm(u)) for u in rng.standard_normal((8, 3))]
        report = finite_set_objectivity(points, 3)
        assert report.verdict is Verdict.NOT_OBJECTIVE
        moved = report.witness.q.apply(report.witness.x)
        assert all(np.linalg.norm(moved.data - p.data) > 1e-9 for p in points)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=5),
        directions=st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5), min_size=1, max_size=12
        ),
        exponents=st.lists(st.floats(-6.0, 6.0), min_size=12, max_size=12),
    )
    def test_witness_carries_a_point_off_the_set(self, m, directions, exponents):
        rows = [np.array(d[:m]) for d in directions]
        assume(all(np.linalg.norm(d) > 1e-3 for d in rows))
        points = [Vector(10.0**e * d / np.linalg.norm(d)) for d, e in zip(rows, exponents)]
        report = finite_set_objectivity(points, m)
        assert report.verdict is Verdict.NOT_OBJECTIVE
        w = report.witness
        validate_rotation(w.q.matrix)
        separation = 1e-9 * max(1.0, w.x.norm())
        moved = w.q.apply(w.x).data
        assert all(np.linalg.norm(moved - p.data) > separation for p in points)

    def test_scaled_sets_are_decided_alike(self):
        # Only the zero vector is the origin, and images are separated in
        # units of the largest norm, at every scale whose entries are normal.
        base = [np.array([1.0, 0.5, 0.0]), np.array([0.0, -0.75, 0.5]), np.array([0.25, 0.0, -1.0])]
        for k in range(-1020, 1021):
            points = [Vector(np.ldexp(p, k)) for p in base]
            report = finite_set_objectivity(points, 3)
            assert report.verdict is Verdict.NOT_OBJECTIVE, k
            w = report.witness
            moved = w.q.apply(w.x).data
            assert all(math.hypot(*(moved - p.data)) >= 1e-9 * w.x.norm() for p in points), k
        for x in (1e-13, 1e-11, 1e-300, 5e-324):
            assert finite_set_objectivity([Vector([x, 0.0])], 2).verdict is Verdict.NOT_OBJECTIVE
        assert finite_set_objectivity([Vector([0.0, 0.0])] * 2, 2).verdict is Verdict.OBJECTIVE

    def test_dimension_mismatch_inside_list(self):
        with pytest.raises(DimensionMismatchError):
            finite_set_objectivity([Vector([1.0, 0.0]), Vector([1.0])], 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            finite_set_objectivity([], 2)


class TestExtractProfile:
    def test_norm_squared(self):
        gamma = RadialSet(3, points=(0.0, 1.0, 2.0))
        profile = extract_profile(lambda x: x.norm() ** 2, gamma, Vector([1.0, 0.0, 0.0]), [0.0, 1.0, 2.0])
        assert profile.samples == ((0.0, 0.0), (1.0, 1.0), (2.0, 4.0))

    def test_profile_exists_for_non_objective_function(self):
        # f(x) = x1 along u0 = e2 gives a flat zero profile; the failure
        # of reconstruction is what flags non-objectivity, not extraction.
        gamma = RadialSet(2, points=(1.0,))
        profile = extract_profile(lambda x: float(x.data[0]), gamma, Vector([0.0, 1.0]), [1.0])
        assert profile.samples == ((1.0, 0.0),)

    def test_non_finite_value_names_radius(self):
        gamma = RadialSet(2, points=(0.0, 1.0))
        with pytest.raises(ProfileEvaluationError) as info:
            extract_profile(lambda x: math.inf if x.norm() == 0.0 else 1.0, gamma, E1_2, [1.0, 0.0])
        assert info.value.radius == 0.0

    def test_exception_propagates_with_radius(self):
        gamma = RadialSet(2, points=(2.0,))
        with pytest.raises(ProfileEvaluationError) as info:
            extract_profile(lambda x: math.log(1.0 - x.norm()), gamma, E1_2, [2.0])
        assert info.value.radius == 2.0

    def test_requires_unit_direction(self):
        gamma = RadialSet(2, points=(1.0,))
        with pytest.raises(NonUnitVectorError):
            extract_profile(lambda x: 0.0, gamma, Vector([2.0, 0.0]), [1.0])

    def test_grid_must_lie_in_radius_set(self):
        gamma = RadialSet(2, points=(1.0,))
        with pytest.raises(ValueError):
            extract_profile(lambda x: 0.0, gamma, E1_2, [3.0])

    def test_grid_radii_fail_in_grid_order(self):
        # A radius outside the set is reported where the grid reaches it,
        # after the evaluations before it and before those after it.
        def f(x):
            raise ArithmeticError("no value")

        gamma = RadialSet(2, intervals=((0.0, 2.0),))
        with pytest.raises(ProfileEvaluationError, match="radius 1.0"):
            extract_profile(f, gamma, E1_2, [1.0, 3.0])
        with pytest.raises(ValueError, match="grid radius 3.0 lies outside"):
            extract_profile(f, gamma, E1_2, [3.0, 1.0])


class TestRadialProfile:
    def test_exact_lookup_only(self):
        profile = RadialProfile(samples=((1.0, 5.0), (2.0, 8.0)))
        assert profile.value(2.0) == 8.0
        with pytest.raises(KeyError):
            profile.value(1.5)

    def test_samples_checked_against_gamma(self):
        gamma = RadialSet(2, points=(1.0,))
        with pytest.raises(ValueError):
            RadialProfile(samples=((2.0, 0.0),), gamma=gamma)


class TestFunctionObjectivity:
    def test_radial_function_is_inconclusive(self):
        f = lambda x: math.sin(x.norm()) + x.norm() ** 3
        sampler = radial_sampler(RadialSet(3, intervals=((0.1, 10.0),)))
        report = test_function_objectivity(f, 3, sampler, 500, rng=np.random.default_rng(70))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.trials == 500

    def test_coordinate_sum_is_refuted(self):
        f = lambda x: float(x.data[0] + x.data[1])
        sampler = radial_sampler(RadialSet(2, intervals=((0.1, 10.0),)))
        report = test_function_objectivity(f, 2, sampler, 1000, rng=np.random.default_rng(71))
        assert report.verdict is Verdict.NOT_OBJECTIVE
        w = report.witness
        validate_rotation(w.q.matrix)
        assert abs(w.f_x - w.f_qx) > report.tolerance
        # The witness is replayable.
        assert f(w.x) == pytest.approx(w.f_x, rel=1e-12)
        assert f(w.q.apply(w.x)) == pytest.approx(w.f_qx, rel=1e-12)

    def test_dimension_one_is_objective_outright(self):
        f = lambda x: float(x.data[0] ** 3)
        sampler = radial_sampler(RadialSet(1, intervals=((0.1, 10.0),)))
        report = test_function_objectivity(f, 1, sampler, 100, rng=np.random.default_rng(72))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.trials == 0

    def test_pinned_pair_is_checked_first(self):
        f = lambda x: float(x.data[0])
        sampler = radial_sampler(RadialSet(2, intervals=((1.0, 1.0),)))
        report = test_function_objectivity(
            f, 2, sampler, 100, rng=np.random.default_rng(73),
            pinned=((E1_2, rotation_2d(math.pi)),),
        )
        assert report.verdict is Verdict.NOT_OBJECTIVE
        assert report.trials == 1
        assert report.witness.f_x == pytest.approx(1.0)
        assert report.witness.f_qx == pytest.approx(-1.0)

    def test_non_finite_values_raise(self):
        f = lambda x: math.inf
        sampler = radial_sampler(RadialSet(2, points=(1.0,)))
        with pytest.raises(NonFiniteValueError):
            test_function_objectivity(f, 2, sampler, 10, rng=np.random.default_rng(74))

    def test_requires_rng_and_budget(self):
        sampler = radial_sampler(RadialSet(2, points=(1.0,)))
        with pytest.raises(ValueError):
            test_function_objectivity(lambda x: 0.0, 2, sampler, 0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            test_function_objectivity(lambda x: 0.0, 2, sampler, 10, rng=None)
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be finite and > 0"):
                test_function_objectivity(lambda x: 0.0, 2, sampler, 10, tol, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [
        lambda rng, n=1: np.ones(n + 1),
        lambda rng, n=1: np.ones((n, 1)),
        lambda rng, n=1: 1.0,
        lambda rng, n=1: np.full(n, -1.0),
        lambda rng, n=1: np.full(n, math.nan),
        lambda rng, n=1: np.full(n, math.inf),
    ], ids=["long", "column", "scalar", "negative", "nan", "inf"])
    def test_malformed_radii_are_rejected(self, bad):
        with pytest.raises(ValueError, match="the sampler returned"):
            test_function_objectivity(lambda x: 0.0, 2, bad, 10, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("m", range(2, 9))
    @pytest.mark.parametrize("pieces", [{"intervals": ((0.1, 10.0),)},
                                        {"intervals": ((0.1, 10.0), (12.0, 13.0)), "points": (20.0,)}])
    def test_first_trial_refutation_draws_one_radius_and_one_gaussian_pair(self, m, pieces):
        # A refutation in trial 1 costs one radius draw with n = 1 and one
        # (2, m) Gaussian draw, and nothing drawn up front for later trials.
        f = lambda x: float(x.data[0])
        sampler = radial_sampler(RadialSet(m, **pieces))
        for seed in range(5):
            rng, reference = np.random.default_rng([seed, m]), np.random.default_rng([seed, m])
            report = test_function_objectivity(f, m, sampler, 1000, rng=rng)
            assert report.verdict is Verdict.NOT_OBJECTIVE and report.trials == 1
            reference.random((2, 1))
            reference.standard_normal((2, m))
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("m", (2, 5, 1000))
    def test_trials_run_in_doubling_blocks(self, m):
        # 1 + 2 + ... + 256 = 511 trials, then blocks of 256, with a block's
        # (2n, m) Gaussians capped at _BLOCK_ENTRIES doubles (n = 131 at
        # m = 1000).
        trials = 1000
        sampler = radial_sampler(RadialSet(m, intervals=((0.5, 2.0),)))
        rng, reference = np.random.default_rng(80), np.random.default_rng(80)
        report = test_function_objectivity(lambda x: x.norm(), m, sampler, trials, rng=rng)
        assert report.verdict is Verdict.INCONCLUSIVE and report.trials == trials
        cap = min(objectivity._BLOCK, objectivity._BLOCK_ENTRIES // (2 * m))
        block, done = 1, 0
        while done < trials:
            n = min(block, trials - done)
            sampler(reference, n)
            reference.standard_normal((2 * n, m))
            done, block = done + n, min(2 * block, cap)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("k", (1, 2, 3, 4, 7, 8, 100, 511, 512, 700))
    def test_trials_is_the_index_of_the_refuting_trial(self, k):
        # Radius 0 until trial k: the origin is evaluated but not compared,
        # so x1 is refuted exactly at trial k, wherever the blocks split.
        drawn = 0

        def sampler(rng, n=1):
            nonlocal drawn
            radii = np.where(np.arange(drawn, drawn + n) < k - 1, 0.0, 1.0)
            drawn += n
            return radii

        f = lambda x: float(x.data[0])
        report = test_function_objectivity(f, 3, sampler, 1000, rng=np.random.default_rng(81))
        assert report.verdict is Verdict.NOT_OBJECTIVE and report.trials == k
        w = report.witness
        assert f(w.x) == w.f_x and f(w.q.apply(w.x)) == w.f_qx
        # The witness owns its m entries rather than viewing its block.
        assert w.x.data.base is None and w.x.data.size == 3

    def test_sphere_comparison_point_is_uniform(self):
        # For a radial f the calls of each trial are f(x), f(r*u), f(r*e1);
        # the middle one carries the comparison direction u, whose mean is
        # 0 and whose second moment E[u u^T] is I/m on the uniform sphere.
        # Both bounds are over eight sigma out at this sample size.
        m, n = 3, 10_000
        calls = []

        def f(x):
            calls.append(x.data)
            return x.norm()

        sampler = radial_sampler(RadialSet(m, intervals=((0.5, 2.0),)))
        report = test_function_objectivity(f, m, sampler, n, rng=np.random.default_rng(76))
        assert report.verdict is Verdict.INCONCLUSIVE
        points = np.array(calls[1::3])
        u = points / np.linalg.norm(points, axis=1)[:, None]
        assert np.all(np.abs(u.mean(axis=0)) < 0.05)
        assert np.max(np.abs(u.T @ u / n - np.eye(m) / m)) < 0.03

    def test_points_at_the_origin_are_not_compared(self):
        # Every rotation fixes the origin, so no comparison point exists.
        f = lambda x: float(x.data[0])
        sampler = radial_sampler(RadialSet(2, points=(0.0,)))
        report = test_function_objectivity(f, 2, sampler, 50, rng=np.random.default_rng(77))
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.trials == 50

    @settings(max_examples=60, deadline=None)
    @given(
        template=st.sampled_from([
            "x1", "x1*x2+{a}", "sin({a}*x1)+dot(x,x)", "exp({a}*x2/norm(x))",
            "x1^2-{a}*x2^2", "dot(x,x)-{a}*x1", "{a}*x1+norm(x)^3", "abs(x2)",
        ]),
        a=st.floats(0.5, 2.0),
        m=st.integers(min_value=2, max_value=6),
        low=st.floats(0.01, 5.0),
        width=st.floats(0.0, 20.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pin=st.booleans(),
    )
    def test_every_witness_replays_exactly(self, template, a, m, low, width, seed, pin):
        # Pinning the identity at a sampled point leaves the refutation to
        # the profile check, whose witness must replay as well.
        e = parse(template.format(a=repr(a)))
        f = lambda x: evaluate(e, EvalContext.at_point(x))
        gamma = RadialSet(m, intervals=((low, low + width),)) if width > 0.0 else RadialSet(m, points=(low,))
        sampler = radial_sampler(gamma)
        rng = np.random.default_rng(seed)
        pinned = ()
        if pin:
            u = rng.standard_normal(m)
            pinned = ((Vector(sampler(rng)[0] * u / np.linalg.norm(u)), validate_rotation(SquareMatrix(np.eye(m)))),)
        tol = 1e-9
        report = test_function_objectivity(f, m, sampler, 200, tol, rng, pinned=pinned)
        if report.verdict is not Verdict.NOT_OBJECTIVE:
            return
        w = report.witness
        assert 1 <= report.trials <= 200 + len(pinned)
        validate_rotation(w.q.matrix)
        assert f(w.x) == w.f_x
        assert f(w.q.apply(w.x)) == w.f_qx
        assert abs(w.f_x - w.f_qx) > tol * max(1.0, abs(w.f_x))

    def test_reports_do_not_depend_on_the_scale(self):
        # Every radius at or above the smallest normal double is compared,
        # and norm(x) keeps its bits where x.x under- or overflows, so
        # radii scaled by 2^k give the k = 0 report.
        e = parse("x3/norm(x) - x1/norm(x)")
        f = lambda x: evaluate(e, EvalContext.at_point(x))

        def outcome(k):
            gamma = RadialSet(3, intervals=((math.ldexp(0.1, k), math.ldexp(10.0, k)),))
            report = test_function_objectivity(f, 3, radial_sampler(gamma), 1000, rng=np.random.default_rng(5))
            w = report.witness
            return report.verdict, report.trials, w.q.matrix.data.tobytes(), w.f_x, w.f_qx

        expected = outcome(0)
        assert expected[0] is Verdict.NOT_OBJECTIVE
        for k in range(-1015, 1001):
            assert outcome(k) == expected, k

    def test_reports_reproduce_under_a_seed(self):
        f = lambda x: float(x.data[0] * x.data[1])
        sampler = radial_sampler(RadialSet(3, intervals=((0.1, 10.0),)))
        a = test_function_objectivity(f, 3, sampler, 200, rng=np.random.default_rng(75))
        b = test_function_objectivity(f, 3, sampler, 200, rng=np.random.default_rng(75))
        assert a == b

    def test_seeded_reports_match_the_recorded_digest(self):
        # Every point f is asked for, in order, with its value, and every
        # report or error, over the benchmark's radial and coordinate
        # templates and a hidden cap, unpinned, pinned with the identity
        # (the profile check refutes) and pinned with a random rotation.
        h = hashlib.sha256()
        runs = itertools.product(PINNED_TEMPLATES, (2, 3, 8, 32), PINNED_RADII, (None, "identity", "random"))
        for seed, (template, m, radii, pin) in enumerate(runs):
            e = parse(template.format(a=1.3, b=0.7))

            def f(x):
                h.update(x.data.tobytes())
                value = evaluate(e, EvalContext.at_point(x))
                h.update(struct.pack("<d", value))
                return value

            sampler = radial_sampler(RadialSet(m, **radii))
            rng = np.random.default_rng(seed)
            pinned = ()
            if pin:
                u, v = (w / np.linalg.norm(w) for w in rng.standard_normal((2, m)))
                q = rotation_mapping(Vector(u), Vector(u if pin == "identity" else v))
                pinned = ((Vector(sampler(rng)[0] * u), q),)
            try:
                report = test_function_objectivity(f, m, sampler, 300, rng=rng, pinned=pinned)
            except (ExpressionError, NonFiniteValueError) as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            h.update(f"{report.verdict.value} {report.trials}".encode())
            if (w := report.witness) is not None:
                h.update(w.x.data.tobytes() + w.q.data.tobytes() + struct.pack("<2d", w.f_x, w.f_qx))
        assert h.hexdigest() == REPORT_DIGEST

    @pytest.mark.parametrize("m", (2, 3, 8))
    @pytest.mark.parametrize("source", ["exp(-norm(x))", "1/(1 + norm(x))"])
    def test_radial_values_past_the_squared_double_maximum_raise_no_warning(self, m, source):
        # t*t overflows for every radius here; 20 trials reach blocks of 2, 4 and 8.
        e = parse(source)
        f = lambda x: evaluate(e, EvalContext.at_point(x))
        sampler = radial_sampler(RadialSet(m, intervals=((1e300, 1.5e300),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = test_function_objectivity(f, m, sampler, 20, rng=np.random.default_rng(84))
        assert report.verdict is Verdict.INCONCLUSIVE and report.trials == 20

    def test_the_budget_must_be_an_integer(self):
        # 2.5 is refused before f is called or the generator moves; a numpy integer is a count.
        calls = []
        f = lambda x: calls.append(x) or 0.0
        sampler = radial_sampler(RadialSet(3, intervals=((0.5, 2.0),)))
        rng = np.random.default_rng(85)
        state = rng.bit_generator.state
        with pytest.raises(TypeError):
            test_function_objectivity(f, 3, sampler, 2.5, rng=rng)
        assert calls == [] and rng.bit_generator.state == state
        report = test_function_objectivity(f, 3, sampler, np.int64(7), rng=rng)
        assert report.verdict is Verdict.INCONCLUSIVE and report.trials == 7 and len(calls) == 21

    def test_blocks_of_two_or_more_trials_take_no_vdot(self, monkeypatch):
        # Blocks of 1, 2 and 4 trials of a radial f: only the single trial
        # takes x.x lazily, for x and for its direct-check point; the
        # profile point's is t*t.
        calls = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(a.size) or vdot(a, b))
        e = parse("norm(x)^2 + sin(norm(x))")
        f = lambda x: evaluate(e, EvalContext.at_point(x))
        sampler = radial_sampler(RadialSet(3, intervals=((0.5, 2.0),)))
        report = test_function_objectivity(f, 3, sampler, 7, rng=np.random.default_rng(82))
        assert report.verdict is Verdict.INCONCLUSIVE and report.trials == 7
        assert calls == [3, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        template=st.sampled_from([
            "norm(x)^2 + sin(norm(x))", "dot(x,x)/(1 + norm(x))", "exp(-{a}*norm(x))",
            "x1", "x1*x2 + {a}", "{a}*x1 + norm(x)^3", "x2/norm(x) - dot(x,x)", "sin({a}*x1) + dot(x,x)",
        ]),
        a=st.floats(0.5, 2.0),
        m=st.integers(2, 40),
        low=st.floats(0.01, 5.0),
        width=st.floats(0.0, 20.0),
        k=st.integers(-1000, 1000),
        seed=st.integers(0, 2**32 - 1),
        pin=st.booleans(),
    )
    def test_batched_squares_leave_every_report_unchanged(self, template, a, m, low, width, k, seed, pin):
        # The same seeded run with every block row's x.x computed lazily
        # gives the same values of f in the same order, the same verdict,
        # trials and witness bytes, or the same error where x.x overflows.
        # Radii span 2^k units.
        e = parse(template.format(a=repr(a)))
        values = []

        def f(x):
            values.append(value := evaluate(e, EvalContext.at_point(x)))
            return value

        lo, hi = math.ldexp(low, k), math.ldexp(low + width, k)
        sampler = radial_sampler(RadialSet(m, intervals=((lo, hi),)) if hi > lo else RadialSet(m, points=(lo,)))

        def outcome():
            values.clear()
            rng = np.random.default_rng(seed)
            pinned = ()
            if pin:
                u = rng.standard_normal(m)
                q = RotationMatrix._trusted(SquareMatrix._trusted(haar_stack(m, 1, rng)[0]))
                pinned = ((Vector(sampler(rng)[0] * u / np.linalg.norm(u)), q),)
            try:
                report = test_function_objectivity(f, m, sampler, 300, rng=rng, pinned=pinned)
            except (ExpressionError, NonFiniteValueError) as exc:
                return type(exc), str(exc), list(map(float.hex, values))
            w = report.witness
            return report.verdict, report.trials, list(map(float.hex, values)), w and (
                float.hex(w.f_x), float.hex(w.f_qx), w.x.data.tobytes(), w.q.data.tobytes())

        batched = outcome()
        wrap = objectivity._wrap
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(objectivity, "_wrap", lambda data, sq=None: wrap(data))
            assert outcome() == batched


class TestSymmetricPart:
    def test_symmetric_fixed_point(self):
        h = SquareMatrix([[2.0, 1.0], [1.0, 3.0]])
        assert symmetric_part(h) == h

    def test_shear(self):
        assert symmetric_part(SquareMatrix([[1.0, 2.0], [0.0, 1.0]])) == SquareMatrix([[1.0, 1.0], [1.0, 1.0]])

    def test_antisymmetric_vanishes(self):
        assert symmetric_part(SquareMatrix([[0.0, 5.0], [-5.0, 0.0]])) == SquareMatrix(np.zeros((2, 2)))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            hs = symmetric_part(SquareMatrix(rng.standard_normal((m, m))))
            assert np.array_equal(hs.data, hs.data.T)

    def test_mirror_sum_beyond_the_double_maximum(self):
        # 1.7e308 + 1.5e308 overflows; the average 1.6e308 does not.
        hs = symmetric_part(SquareMatrix([[1.7e308, 1.7e308], [1.5e308, -1.7e308]]))
        assert hs == SquareMatrix([[1.7e308, 1.6e308], [1.6e308, -1.7e308]])

    def test_subnormal_mirror_entries_are_kept(self):
        # Halving first would round 5e-324 / 2 to zero on both sides.
        h = SquareMatrix([[0.0, 5e-324], [5e-324, 0.0]])
        assert symmetric_part(h) == h

    def test_quadratic_values_agree(self):
        # x^T H x only sees the symmetric part.
        rng = np.random.default_rng(81)
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            qf = QuadraticForm(SquareMatrix(rng.standard_normal((m, m))))
            qs = QuadraticForm(symmetric_part(qf.h))
            x = Vector(rng.standard_normal(m))
            fx, fsx = qf.value(x), qs.value(x)
            assert abs(fx - fsx) <= 1e-12 * max(1.0, abs(fx))


class TestQuadraticObjectivity:
    def test_isotropic(self):
        report = quadratic_objectivity(QuadraticForm(SquareMatrix(3.0 * np.eye(3))))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.method is Method.EXACT_QUADRATIC
        assert report.alpha == 3.0

    def test_antisymmetric_form_is_identically_zero(self):
        report = quadratic_objectivity(QuadraticForm(SquareMatrix([[0.0, 5.0], [-5.0, 0.0]])))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.alpha == 0.0
        assert report.tolerance == 0.0  # relative to max|H_s| = 0, with no floor

    def test_diagonal_one_two(self):
        report = quadratic_objectivity(QuadraticForm(SquareMatrix([[1.0, 0.0], [0.0, 2.0]])))
        assert report.verdict is Verdict.NOT_OBJECTIVE
        w = report.witness
        assert w.f_x == pytest.approx(1.0, abs=1e-12)
        assert w.f_qx == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(np.abs(w.x.data), [1.0, 0.0])
        validate_rotation(w.q.matrix)

    def test_tiny_anisotropic_form_is_not_objective(self):
        # diag(1, 2) is not objective, so no scale of it may be.
        qf = QuadraticForm(SquareMatrix(1e-300 * np.diag([1.0, 2.0])))
        report = quadratic_objectivity(qf)
        assert report.verdict is Verdict.NOT_OBJECTIVE
        w = report.witness
        assert abs(w.f_x - w.f_qx) > report.tolerance
        assert qf.value(w.q.apply(w.x)) == w.f_qx

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=5),
        entries=st.lists(st.integers(min_value=-8, max_value=8), min_size=25, max_size=25),
        k=st.integers(min_value=-1000, max_value=1020),
    )
    # 8 * 2^1020 is 2^1023: the eigenvalue 5 * 2^1023 overflows.
    @example(m=5, entries=[8] * 25, k=1020)
    def test_power_of_two_scaling_keeps_the_verdict(self, m, entries, k):
        # Scaling by 2^k is exact, so the verdicts must be equal, not just
        # close, and a scaled witness must still separate and replay.
        h = np.array(entries[: m * m], dtype=float).reshape(m, m)
        base = quadratic_objectivity(QuadraticForm(SquareMatrix(h)))
        qf = QuadraticForm(SquareMatrix(np.ldexp(h, k)))
        scaled = quadratic_objectivity(qf)
        assert scaled.verdict is base.verdict
        if scaled.witness is not None:
            w = scaled.witness
            assert abs(w.f_x - w.f_qx) > scaled.tolerance
            assert qf.value(w.x) == w.f_x and qf.value(w.q.apply(w.x)) == w.f_qx
        if abs(k) > 900:
            return
        # Both forms are decided on the same scaled copy of H_s, so the whole
        # report scales by 2^k. Eigenvalues stay below 40 * 2^900, so neither
        # witness is halved, and every value stays a normal double.
        assert scaled.tolerance == math.ldexp(base.tolerance, k)
        if base.alpha is not None:
            assert scaled.alpha == math.ldexp(base.alpha, k)
        if base.witness is not None:
            w, b = scaled.witness, base.witness
            assert w.x.data.tobytes() == b.x.data.tobytes() and w.q.data.tobytes() == b.q.data.tobytes()
            assert (w.f_x, w.f_qx) == (math.ldexp(b.f_x, k), math.ldexp(b.f_qx, k))

    def test_shear_witness_spans_the_gap(self):
        # H_s = [[1,1],[1,1]] has eigenvalues 0 and 2.
        report = quadratic_objectivity(QuadraticForm(SquareMatrix([[1.0, 2.0], [0.0, 1.0]])))
        assert report.verdict is Verdict.NOT_OBJECTIVE
        assert report.witness.f_x == pytest.approx(0.0, abs=1e-9)
        assert report.witness.f_qx == pytest.approx(2.0, abs=1e-9)

    def test_dimension_one_always_objective(self):
        report = quadratic_objectivity(QuadraticForm(SquareMatrix([[-5.0]])))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.alpha == -5.0

    def test_near_isotropic_within_tolerance(self):
        report = quadratic_objectivity(QuadraticForm(SquareMatrix([[1.0, 0.0], [0.0, 1.0 + 1e-14]])))
        assert report.verdict is Verdict.OBJECTIVE

    def test_tolerance_scales_with_magnitude(self):
        report = quadratic_objectivity(QuadraticForm(SquareMatrix(1e6 * np.eye(2) + 1e-6 * np.diag([1.0, -1.0]))))
        assert report.verdict is Verdict.OBJECTIVE  # residual 1e-6 under 1e-10 * 1e6

    def test_trace_beyond_the_double_maximum(self):
        # The trace 3 * 8e307 overflows; alpha is refitted on a scaled copy.
        report = quadratic_objectivity(QuadraticForm(SquareMatrix(8e307 * np.eye(3))))
        assert report.verdict is Verdict.OBJECTIVE
        assert report.alpha == 8e307 and report.tolerance == 1e-10 * 8e307

    def test_deviation_beyond_the_double_maximum(self):
        # alpha = -1.7e308 / 3, so 1.7e308 - alpha overflows.
        qf = QuadraticForm(SquareMatrix(np.diag([1.7e308, -1.7e308, -1.7e308])))
        report = quadratic_objectivity(qf)
        assert report.verdict is Verdict.NOT_OBJECTIVE
        w = report.witness
        assert qf.value(w.x) == w.f_x and qf.value(w.q.apply(w.x)) == w.f_qx

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            quadratic_objectivity(QuadraticForm(SquareMatrix([[1.0]])), tol=0.0)
        # tol >= 1 would accept diag(1, -1); the zero form once met inf * 0.
        for h in ([[1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]):
            for tol in (1.0, 10.0, math.inf, math.nan):
                with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
                    quadratic_objectivity(QuadraticForm(SquareMatrix(h)), tol=tol)


class TestOracle:
    def test_isotropic_agrees(self):
        for alpha in (1.0, -2.5, 0.0):
            qf = QuadraticForm(SquareMatrix(alpha * np.eye(3)))
            assert quadratic_vs_montecarlo_oracle(qf, 200, np.random.default_rng(90))

    def test_diagonal_agrees(self):
        qf = QuadraticForm(SquareMatrix([[1.0, 0.0], [0.0, 2.0]]))
        assert quadratic_vs_montecarlo_oracle(qf, 200, np.random.default_rng(91))

    def test_random_forms_agree(self):
        rng = np.random.default_rng(92)
        for m in (2, 3):
            for _ in range(10):
                h = SquareMatrix(rng.uniform(-1.0, 1.0, size=(m, m)))
                assert quadratic_vs_montecarlo_oracle(QuadraticForm(h), 150, rng)

    def test_boundary_case_agrees(self):
        qf = QuadraticForm(SquareMatrix([[1.0, 0.0], [0.0, 1.0 + 1e-14]]))
        assert quadratic_vs_montecarlo_oracle(qf, 100, np.random.default_rng(93))

    def test_requires_minimum_budget(self):
        with pytest.raises(ValueError):
            quadratic_vs_montecarlo_oracle(QuadraticForm(SquareMatrix([[1.0]])), 50, np.random.default_rng(0))


class TestReportInvariants:
    def test_not_objective_requires_witness(self):
        with pytest.raises(ValueError):
            ObjectivityReport(Verdict.NOT_OBJECTIVE, Method.MONTE_CARLO, trials=1, tolerance=1e-9)

    def test_witness_values_must_separate(self):
        w = Witness(x=E1_2, q=rotation_2d(0.0), f_x=1.0, f_qx=1.0)
        with pytest.raises(ValueError):
            ObjectivityReport(Verdict.NOT_OBJECTIVE, Method.MONTE_CARLO, trials=1, tolerance=1e-9, witness=w)

    def test_witness_only_on_refutation(self):
        w = Witness(x=E1_2, q=rotation_2d(0.0), f_x=1.0, f_qx=5.0)
        with pytest.raises(ValueError):
            ObjectivityReport(Verdict.OBJECTIVE, Method.MONTE_CARLO, trials=1, tolerance=1e-9, witness=w)

    def test_inconclusive_is_monte_carlo_only(self):
        with pytest.raises(ValueError):
            ObjectivityReport(Verdict.INCONCLUSIVE, Method.EXACT_QUADRATIC, trials=1, tolerance=1e-9)
