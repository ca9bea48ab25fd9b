"""Radius lookups by search, per-row scaling in the closure check, and the
read-only rows the Monte-Carlo trial loop hands to the function."""

import sys

import numpy as np
import pytest

from rotinv import objectivity
from rotinv.linalg import Vector
from rotinv.objectivity import (
    MEMBERSHIP_TOL,
    RadialProfile,
    RadialSet,
    Verdict,
    radial_membership,
    radial_set_closure_check,
    test_function_objectivity,
)


def _loop_contains(a: RadialSet, t: np.ndarray) -> np.ndarray:
    # The linear membership test that contains_radii replaced: one pass
    # per interval and per isolated point.
    slack = MEMBERSHIP_TOL * np.maximum(t, sys.float_info.min)
    inside = np.zeros(t.shape, dtype=bool)
    for lo, hi in a.intervals:
        inside |= (lo - slack <= t) & (t <= hi + slack)
    for p in a.points:
        inside |= np.abs(t - p) <= slack
    return inside & np.isfinite(t)


def _random_set(rng: np.random.Generator, pieces: int, scale: float) -> RadialSet:
    ends = np.sort(rng.uniform(0.0, 100.0, 2 * pieces)) * scale
    return RadialSet(3, intervals=tuple(zip(ends[::2], ends[1::2])),
                     points=tuple(rng.uniform(0.0, 100.0, pieces) * scale))


@pytest.mark.parametrize("pieces", [1, 3, 1000])
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200])
def test_search_matches_the_loop(pieces, scale):
    rng = np.random.default_rng(pieces)
    a = _random_set(rng, pieces, scale)
    edges = np.array([*(t for iv in a.intervals for t in iv), *a.points])
    factors = np.array([1.0, 1 - 5e-13, 1 + 5e-13, 1 - 2e-12, 1 + 2e-12])
    t = np.concatenate([rng.uniform(0.0, 110.0, 10_000) * scale, np.outer(edges, factors).ravel(),
                        [0.0, -1.0, np.inf, -np.inf, np.nan]])
    assert np.array_equal(a.contains_radii(t), _loop_contains(a, t))


def test_a_point_just_past_an_interval_is_found():
    # 2 + 1.5e-12 lies within the slack of both pieces, 2 + 4e-12 of the point only.
    a = RadialSet(2, intervals=((1.0, 2.0),), points=(2.0 + 3e-12,))
    t = np.array([2.0 + 1.5e-12, 2.0 + 4e-12, 2.0 + 8e-12])
    assert a.contains_radii(t).tolist() == _loop_contains(a, t).tolist() == [True, True, False]


def test_profile_lookup_keeps_the_first_sample():
    profile = RadialProfile(samples=((1.0, 2.0), (-0.0, 5.0), (1.0, 3.0), (0.0, 7.0), (float("nan"), 1.0)))
    assert profile.value(1.0) == 2.0
    assert profile.value(0.0) == profile.value(-0.0) == 5.0
    for t in (float("nan"), 1.5):
        with pytest.raises(KeyError):
            profile.value(t)


def test_radii_far_apart_in_one_set_need_no_scalar_recheck(monkeypatch):
    rechecks = []

    def spy(a, x):
        rechecks.append(x)
        return radial_membership(a, x)

    monkeypatch.setattr(objectivity, "radial_membership", spy)
    report = radial_set_closure_check(RadialSet(3, points=(1e-300, 1e300)), 5000, np.random.default_rng(56))
    assert report.verdict is Verdict.OBJECTIVE
    assert rechecks == []


def test_trial_points_are_read_only_rows_and_profile_points():
    seen = []

    def f(x: Vector) -> float:
        seen.append(x.data)
        return 1.0

    report = test_function_objectivity(f, 3, lambda rng, n: np.full(n, 1.5), 40, rng=np.random.default_rng(8))
    assert report.verdict is Verdict.INCONCLUSIVE and len(seen) == 3 * 40
    assert not any(d.flags.writeable for d in seen)
    assert all(d.tolist() == [1.5, 0.0, 0.0] for d in seen[2::3])
