"""Self-tests of the benchmark: span arithmetic, outcome accounting, tails.

Run with the library on the path: PYTHONPATH=src python -m pytest perfbench
"""

import numpy as np
import pytest

import harness
import layers
import workloads
from rotinv import objectivity
from rotinv.objectivity import RadialSet, Verdict
from spans import NO_PARENT, Tracer


def test_self_time_subtracts_only_direct_children():
    t = Tracer()
    root = t.add("root", 0.0, 10.0)
    a = t.add("a", 1.0, 4.0, parent=root)
    t.add("b", 5.0, 7.0, parent=root)
    t.add("grandchild", 2.0, 3.0, parent=a)
    assert t.self_times() == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    t = Tracer()
    root = t.add("root", 0.0, 10.0)
    t.add("c1", 1.0, 4.0, parent=root)
    t.add("c2", 3.0, 6.0, parent=root)
    t.add("c3", 9.0, 12.0, parent=root)
    assert t.self_times()[root] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrapped_calls_nest_under_their_operation():
    t = Tracer()
    inner = t.wrap("inner", lambda x: x + 1, size=lambda x: x)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8  # no operation open: nothing is recorded
    assert len(t) == 0
    t.open_op("demo")
    outer(3)
    t.close_op()
    op_span, outer_span, inner_span = range(3)
    assert t.names[t.name[op_span]] == "op.demo"
    assert t.parent[op_span] == NO_PARENT
    assert t.parent[outer_span] == op_span
    assert t.parent[inner_span] == outer_span
    assert t.size[inner_span] == 3
    assert set(t.op) == {0}


def _refute_op(expected):
    gamma = RadialSet(2, intervals=((0.1, 10.0),))
    return workloads.function_op(workloads.Api(), "demo", "x1*x2", 2, gamma, 50, expected, [0])


def test_wrong_expected_verdict_is_a_failure():
    samples = harness.measure([[_refute_op(Verdict.INCONCLUSIVE)]], seconds=0.0)
    summary = harness.summarize(samples)
    assert summary["attempted"] == 1
    assert summary["failed"] == 1
    assert summary["failed_ratio"] == 1.0
    assert "expected inconclusive" in summary["first_failures"][0]


def test_right_expected_verdict_passes_and_counts_trials():
    summary = harness.summarize(harness.measure([[_refute_op(Verdict.NOT_OBJECTIVE)]], seconds=0.0))
    assert summary["failed"] == 0
    assert summary["trials"] >= 1


def test_exception_and_failing_check_are_failures():
    def boom():
        raise RuntimeError("boom")

    ops = [
        harness.Op("raises", boom, lambda: (), lambda r: None),
        harness.Op("bad", lambda: 1, lambda: (), lambda r: "wrong"),
        harness.Op("good", lambda: 1, lambda: (), lambda r: None),
    ]
    summary = harness.summarize(harness.measure([ops], seconds=0.0))
    assert (summary["attempted"], summary["failed"]) == (3, 2)
    assert summary["failed_ratio"] == pytest.approx(2 / 3)


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert harness.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0, 10)
    assert harness.tail([float(v) for v in range(1, 201)]) == (95.0, 190.0, 10)
    assert harness.tail([float(v) for v in range(1, 101)]) == (75.0, 75.0, 25)
    percentile, value, beyond = harness.tail([float(v) for v in range(1, 16)])
    assert (percentile, value, beyond) == (50.0, 8.0, 7)


def test_traced_restores_every_wrapped_name():
    original = objectivity.haar_sample
    api = workloads.Api()
    t = Tracer()
    with layers.traced(api, t) as wrapped:
        assert objectivity.haar_sample is not original
        assert "rotinv.objectivity.haar_sample" in wrapped
        t.open_op("demo")
        api.evaluate(workloads.parse("x1"), workloads.EvalContext.at_point(workloads.Vector([2.0])))
        t.close_op()
    assert objectivity.haar_sample is original
    assert api.evaluate is workloads.evaluate
    assert t.durations("expr.evaluate")


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.build("exact_dense", 5, tmp_path)
    again = workloads.build("exact_dense", 5, tmp_path)
    (qf_a,), (qf_b,) = first.rounds[0][0].args(), again.rounds[0][0].args()
    assert np.array_equal(qf_a.h.data, qf_b.h.data)


def test_traced_skips_a_layer_function_the_library_no_longer_has(monkeypatch):
    from rotinv import rotation

    monkeypatch.delattr(rotation, "gram_schmidt_complete")
    with layers.traced(workloads.Api(), Tracer()) as wrapped:
        assert "absent: rotinv.rotation.gram_schmidt_complete" in wrapped
        assert not hasattr(rotation, "gram_schmidt_complete")
