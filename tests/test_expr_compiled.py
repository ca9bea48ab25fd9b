"""The compiled evaluation path of rotinv.expr.evaluate against the
per-node interpreter it must match bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import expr
from rotinv.expr import (
    MAX_DEPTH,
    BinaryOp,
    Call,
    EvalContext,
    Literal,
    Variable,
    evaluate,
    parse,
    unparse,
)
from rotinv.linalg import Vector
from test_expr import LEVELS, _tower, random_ast


def _outcome(run):
    try:
        return "value", float.hex(run())
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# Entries from 1e-300 to 1e300 in magnitude, zero included.
_entries = st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.integers(-300, 300),
    st.floats(0.0, 9.99),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(_entries, min_size=1, max_size=5))
def test_plans_match_the_interpreter(seed, entries):
    # parse(unparse(...)) gives the nodes real source offsets.
    e = parse(unparse(random_ast(np.random.default_rng(seed), depth=6)))
    ctx = EvalContext.at_point(Vector(entries))
    reference = _outcome(lambda: e._eval(ctx))
    assert _outcome(lambda: evaluate(e, ctx)) == reference
    try:
        fast = e._plan(ctx.point)
    except Exception:
        fast = None
    if fast is not None:
        assert reference == ("value", float.hex(fast))


def test_one_template_shares_one_compiled_function():
    sources = [f"{a}*norm(x)^2 + sin({b}*norm(x))" for a, b in ((1.3, 0.7), (2.5, 0.1), (0.9, 1.9))]
    trees = [parse(source) for source in sources]
    point = EvalContext.at_point(Vector([0.3, -0.4, 1.2]))
    for e in trees:
        assert float.hex(evaluate(e, point)) == float.hex(e._eval(point))
    assert len({id(e._plan.__code__) for e in trees}) == 1
    assert len({e._plan.__defaults__ for e in trees}) == 3


def test_the_compile_cache_stays_at_its_bound():
    bound = expr._compile.cache_info().maxsize
    point = EvalContext.at_point(Vector([1.5]))
    for k in range(bound + 40):  # distinct shapes
        e = parse("+".join(["x1"] * (k % 100 + 1)) + "*norm(x)" * (k // 100 + 1))
        assert evaluate(e, point) == e._eval(point)
    info = expr._compile.cache_info()
    assert info.currsize == bound == info.maxsize


@pytest.mark.parametrize("field, value, make", [
    ("op", "**", lambda: BinaryOp("+", Literal(2.0), Literal(3.0))),
    ("op", ")\nimport os\n(", lambda: BinaryOp("*", Variable(1), Literal(3.0))),
    ("name", "len", lambda: Call("norm", None)),
    ("name", "exit", lambda: Call("sin", Literal(0.5))),
])
def test_a_node_outside_the_tables_is_interpreted(monkeypatch, field, value, make):
    sources = []
    compile_source = expr._compile

    def spy(source):
        sources.append(source)
        return compile_source(source)

    monkeypatch.setattr(expr, "_compile", spy)
    inner = make()
    object.__setattr__(inner, field, value)
    ctx = EvalContext.at_point(Vector([2.0, 1.0]))
    for e in (inner, BinaryOp("-", inner, Variable(2))):
        assert _outcome(lambda: evaluate(e, ctx)) == _outcome(lambda: e._eval(ctx))
        assert e._plan is None
    assert sources == []


@pytest.mark.parametrize("shape", LEVELS)
def test_trees_at_the_limit_get_a_plan(shape):
    ctx = EvalContext(Vector([1.5]))
    at_limit = _tower(shape, MAX_DEPTH)
    assert float.hex(evaluate(at_limit, ctx)) == float.hex(at_limit._eval(ctx)) and at_limit._plan is not None


def test_the_plan_is_not_part_of_the_value():
    e, twin = parse("x1*norm(x) + 2"), parse("x1*norm(x) + 2")
    evaluate(e, EvalContext.at_point(Vector([1.0, 2.0])))
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
