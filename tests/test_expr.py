import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotinv.expr import (
    MAX_DEPTH,
    ArityError,
    BinaryOp,
    Call,
    DomainError,
    EvalContext,
    Expression,
    ExpressionError,
    LexicalError,
    Literal,
    Negate,
    NonFiniteResultError,
    ParseError,
    UnboundVariableError,
    UnknownFunctionError,
    Variable,
    evaluate,
    parse,
    unparse,
    variable_indices,
)
from rotinv.linalg import Vector
from rotinv.objectivity import RadialSet, Verdict, radial_sampler, test_function_objectivity


def ev(source, *point):
    return evaluate(parse(source), EvalContext.at_point(Vector(point)))


class TestGrammar:
    def test_precedence(self):
        assert ev("2+3*4", 1) == 14.0
        assert ev("(2+3)*4", 1) == 20.0
        assert ev("2*3^2", 1) == 18.0

    def test_power_is_right_associative(self):
        assert ev("2^3^2", 1) == 512.0

    def test_left_associative_chains(self):
        assert ev("6/3/2", 1) == 1.0
        assert ev("2-3-4", 1) == -5.0

    def test_unary_minus_binds_before_power(self):
        # factor := unary ('^' factor)?, so -2^2 is (-2)^2.
        assert ev("-2^2", 1) == 4.0
        assert ev("2^-1", 1) == 0.5

    def test_double_negation(self):
        assert ev("--2", 1) == 2.0

    def test_whitespace_insensitive(self):
        assert parse("x1 + x2") == parse("x1+x2") == parse("  x1\t+\nx2 ")

    def test_norm_power_shape(self):
        assert parse("norm(x)^2") == BinaryOp("^", Call("norm", None), Literal(2.0))

    def test_mixed_shape(self):
        expected = BinaryOp(
            "+",
            BinaryOp("*", Variable(1), Variable(2)),
            Call("sin", Call("norm", None)),
        )
        assert parse("x1*x2 + sin(norm(x))") == expected

    def test_number_forms(self):
        assert ev("0.5", 1) == 0.5
        assert ev(".25", 1) == 0.25
        assert ev("1e-06", 1) == 1e-06
        assert ev("2.5E+2", 1) == 250.0

    def test_dot_accepts_optional_space(self):
        assert parse("dot(x,x)") == parse("dot( x , x )") == Call("dot", None)


MALFORMED = [
    ("x0", ParseError, 0),
    ("2^", ParseError, 2),
    ("(2+3", ParseError, 4),
    ("sin()", ArityError, 4),
    ("sin(1,2)", ArityError, 5),
    ("norm(x1)", ArityError, 5),
    ("dot(x)", ParseError, 5),
    ("foo(1)", UnknownFunctionError, 0),
    ("2..5", LexicalError, 2),
    ("@", LexicalError, 0),
    ("x + 1", ParseError, 0),
    ("2 3", ParseError, 2),
    ("1e", LexicalError, 2),
    ("", ParseError, 0),
    ("2 + )", ParseError, 4),
    # Numbers are ASCII digits only, and a literal must fit in a double.
    ("x1+²", LexicalError, 3),
    ("٣*x1", LexicalError, 0),
    ("1e999", LexicalError, 0),
    # t is an ordinary identifier, and no function or variable has its name.
    ("2*t^2", UnknownFunctionError, 2),
]


class TestErrors:
    @pytest.mark.parametrize("source,kind,position", MALFORMED)
    def test_malformed_inputs_carry_positions(self, source, kind, position):
        with pytest.raises(kind) as info:
            parse(source)
        assert info.value.position == position

    def test_every_error_is_an_expression_error(self):
        for source, _, _ in MALFORMED:
            with pytest.raises(ExpressionError):
                parse(source)

    @settings(max_examples=1000, deadline=None)
    @given(st.text())
    def test_any_text_parses_or_raises_an_expression_error(self, source):
        try:
            result = parse(source)
        except ExpressionError:
            return
        assert isinstance(result, Expression)

    @settings(max_examples=1000, deadline=None)
    @given(st.tuples(st.text("0123456789.eE+-*/^(), \tx1norms"), st.text()).map("".join))
    def test_error_positions_stop_at_the_first_non_ascii_character(self, source):
        # The first non-ASCII character ends tokenizing, so no error lies
        # past its UTF-8 offset (the whole text's, when there is none).
        limit = len(source.encode("utf-8"))
        for i, ch in enumerate(source):
            if not ch.isascii():
                limit = len(source[:i].encode("utf-8"))
                break
        try:
            parse(source)
        except ExpressionError as exc:
            assert exc.position <= limit

    def test_non_ascii_position_is_a_byte_offset(self):
        with pytest.raises(LexicalError) as info:
            parse("2 + π")
        assert info.value.position == 4


class TestEvaluation:
    def test_norm(self):
        assert ev("norm(x)^2", 3, 4) == pytest.approx(25.0)
        assert ev("dot(x,x)", 3, 4) == 25.0

    def test_coordinates(self):
        assert ev("x1*x2", 2, 3) == 6.0

    def test_sqrt_of_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            ev("sqrt(0-1)", 1)

    def test_log_of_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            ev("log(0)", 1)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/(x1-1)", 1)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            ev("0^-1", 1)

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            ev("(-2)^0.5", 1)

    def test_overflow_is_non_finite_error(self):
        with pytest.raises(NonFiniteResultError):
            ev("exp(1000)", 1)
        with pytest.raises(NonFiniteResultError):
            ev("1e300*1e300", 1)

    def test_index_out_of_range(self):
        with pytest.raises(UnboundVariableError) as info:
            ev("x3", 1, 2)
        assert info.value.position == 0

    def test_domain_error_carries_position(self):
        with pytest.raises(DomainError) as info:
            ev("1 + sqrt(0-9)", 1)
        assert info.value.position == 4

    def test_context_binds_a_point(self):
        assert EvalContext(Vector([2.0])).point == Vector([2.0])
        with pytest.raises(TypeError):
            EvalContext(None)
        with pytest.raises(TypeError):
            EvalContext([1.0])

    def test_deterministic(self):
        e = parse("sin(x1)*exp(x2)+norm(x)^3")
        ctx = EvalContext.at_point(Vector([0.3, -1.7]))
        assert evaluate(e, ctx) == evaluate(e, ctx)


# Sources of n nesting levels in each shape, with the offset at which one
# level more is rejected: the innermost operand for prefix nesting, the
# MAX_DEPTH-th operator for a chain.
NESTINGS = {
    "parentheses": (lambda n: "(" * (n - 1) + "x1" + ")" * (n - 1), MAX_DEPTH),
    "negations": (lambda n: "-" * (n - 1) + "x1", MAX_DEPTH),
    "calls": (lambda n: "abs(" * (n - 1) + "x1" + ")" * (n - 1), 4 * MAX_DEPTH),
    "powers": (lambda n: "1^" * (n - 1) + "x1", 2 * MAX_DEPTH - 1),
    "sums": (lambda n: "x1+" * (n - 1) + "x1", 3 * MAX_DEPTH - 1),
}

# Frames taken before the deepest expression is parsed and evaluated, on
# top of the test runner's own: room left for a caller.
HEADROOM = 200


def _below(frames, fn):
    return fn() if frames == 0 else _below(frames - 1, fn)


class TestNestingLimit:
    @pytest.mark.parametrize("shape", NESTINGS)
    def test_the_limit_parses_and_evaluates_inside_the_monte_carlo_test(self, shape):
        source = NESTINGS[shape][0](MAX_DEPTH)

        def check():
            e = parse(source)
            f = lambda x: evaluate(e, EvalContext.at_point(x))
            sampler = radial_sampler(RadialSet(2, intervals=((0.5, 2.0),)))
            return test_function_objectivity(f, 2, sampler, 20, rng=np.random.default_rng(3))

        report = _below(HEADROOM, check)
        assert report.trials >= 1

    @pytest.mark.parametrize("shape", NESTINGS)
    def test_one_level_more_is_a_positioned_parse_error(self, shape):
        make, position = NESTINGS[shape]
        with pytest.raises(ParseError) as info:
            parse(make(MAX_DEPTH + 1))
        assert info.value.position == position
        assert str(info.value) == f"expression nests deeper than {MAX_DEPTH} levels (at offset {position})"

    @pytest.mark.parametrize("source", [
        "(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "2^" * 3000 + "1", "x1+" * 3000 + "x1",
        "sin(" * 600 + "1" + ")" * 600,
    ])
    def test_deep_input_is_an_expression_error(self, source):
        with pytest.raises(ParseError):
            parse(source)


def _left_chain(terms):
    # x1 + x1 + ... + x1 built from the node classes, as parse would give
    # it; the root's offset is that of its '+'.
    e = Variable(1, pos=0)
    for k in range(1, terms):
        e = BinaryOp("+", e, Variable(1, pos=3 * k), pos=3 * k - 1)
    return e


# One level more on a tree, by the node class that adds it: the tree grows
# on the left or the right of a '+', under a negation, or inside a call.
LEVELS = {
    "left": lambda e: BinaryOp("+", e, Variable(1)),
    "right": lambda e: BinaryOp("+", Variable(1), e),
    "negate": Negate,
    "call": lambda e: Call("abs", e),
}


def _tower(shape, height):
    e = Variable(1)
    for _ in range(height - 1):
        e = LEVELS[shape](e)
    return e


class TestUnboundedTrees:
    @pytest.mark.parametrize("shape", LEVELS)
    def test_one_level_over_the_limit_cannot_be_built(self, shape):
        e = _tower(shape, MAX_DEPTH)
        assert e.height == MAX_DEPTH
        with pytest.raises(ValueError, match=f"expression trees are at most {MAX_DEPTH} levels tall"):
            LEVELS[shape](e)

    @pytest.mark.parametrize("shape", LEVELS)
    def test_a_tree_at_the_limit_is_refuted_inside_the_monte_carlo_test(self, shape):
        e = _tower(shape, MAX_DEPTH)
        f = lambda x: evaluate(e, EvalContext.at_point(x))
        sampler = radial_sampler(RadialSet(2, intervals=((0.5, 2.0),)))
        report = _below(HEADROOM, lambda: test_function_objectivity(f, 2, sampler, 20, rng=np.random.default_rng(4)))
        assert report.verdict is Verdict.NOT_OBJECTIVE  # every shape depends on x1 alone

    def test_a_tree_below_the_limit_still_evaluates(self):
        assert evaluate(_left_chain(MAX_DEPTH), EvalContext(Vector([1.5]))) == 1.5 * MAX_DEPTH


class TestIntrospection:
    def test_variable_indices(self):
        assert variable_indices(parse("x1*x2 + sin(x7)")) == {1, 2, 7}
        assert variable_indices(parse("norm(x)^2")) == set()


class TestUnparse:
    def test_power_chain_canonical_form(self):
        assert unparse(parse("2^3^2")) == "(2^(3^2))"

    def test_round_trip_fixed_point(self):
        e = parse("x1 + x2 * x3")
        assert parse(unparse(e)) == e
        assert unparse(parse(unparse(e))) == unparse(e)

    def test_negative_literal_rejected(self):
        # Negative constants must be Negate nodes for exact round trips.
        with pytest.raises(ValueError):
            Literal(-1.0)

    def test_literal_rendering(self):
        assert unparse(Literal(512.0)) == "512"
        assert unparse(Literal(0.5)) == "0.5"
        assert unparse(Literal(1e-06)) == "1e-06"


def random_ast(rng: np.random.Generator, depth: int):
    leaf_kinds = ("literal", "variable", "norm", "dot")
    inner_kinds = ("negate", "binop", "call")
    if depth <= 0 or rng.random() < 0.3:
        kind = leaf_kinds[rng.integers(len(leaf_kinds))]
        if kind == "literal":
            return Literal(float(rng.choice([0.0, 1.0, 2.0, 0.5, 1e-9, 3.25, float(rng.uniform(0, 1e6))])))
        if kind == "variable":
            return Variable(int(rng.integers(1, 6)))
        return Call("norm" if kind == "norm" else "dot", None)
    kind = inner_kinds[rng.integers(len(inner_kinds))]
    if kind == "negate":
        return Negate(random_ast(rng, depth - 1))
    if kind == "binop":
        op = ("+", "-", "*", "/", "^")[rng.integers(5)]
        return BinaryOp(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    name = ("sin", "cos", "exp", "sqrt", "abs", "log")[rng.integers(6)]
    return Call(name, random_ast(rng, depth - 1))


class TestRoundTrip:
    def test_seeded_random_asts(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            e = random_ast(rng, depth=6)
            assert parse(unparse(e)) == e


def _longest_path(e):
    # Nodes on the longest downward path, counted by recursion over the children.
    children = [getattr(e, name, None) for name in ("operand", "left", "right", "arg")]
    return 1 + max((_longest_path(c) for c in children if isinstance(c, Expression)), default=0)


_COPIES = {
    "pickle": lambda e: pickle.loads(pickle.dumps(e)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,  # rebuilt through __init__
}


class TestHeight:
    @pytest.mark.parametrize("shape", LEVELS)
    def test_walks_at_the_limit_leave_a_caller_its_headroom(self, shape):
        e, twin = _tower(shape, MAX_DEPTH), _tower(shape, MAX_DEPTH)
        ctx = EvalContext.at_point(Vector([1.5]))

        def walk():
            return (evaluate(e, ctx), e._eval(ctx), unparse(e), repr(e), hash(e), e == twin)

        value, interpreted, text, rendering, digest, equal = _below(HEADROOM, walk)
        assert float.hex(value) == float.hex(interpreted)
        assert text == unparse(twin) and rendering == repr(twin) and digest == hash(twin) and equal

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_height_is_the_longest_path(self, seed, depth):
        e = random_ast(np.random.default_rng(seed), depth)
        assert e.height == _longest_path(e) <= depth + 1

    def test_parentheses_still_count_against_the_parse_limit(self):
        # The tree is 61 levels tall, but parse counts the 150 groups too.
        source = "(" * 150 + "x1" + ")" * 150 + "+x1" * 60
        with pytest.raises(ParseError) as info:
            parse(source)
        assert info.value.position == 449
        assert str(info.value) == f"expression nests deeper than {MAX_DEPTH} levels (at offset 449)"

    @pytest.mark.parametrize("how", _COPIES)
    @pytest.mark.parametrize("e", [parse("-sin(x1)^2 + norm(x)*3"), parse("x2 - (x1 + dot(x,x))/2"), _tower("right", 100)])
    def test_copies_keep_height_and_value(self, how, e):
        twin = _COPIES[how](e)
        assert twin == e and hash(twin) == hash(e) and repr(twin) == repr(e)
        assert twin.height == e.height == _longest_path(e)
        assert Negate(twin).height == e.height + 1

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    @pytest.mark.parametrize("shape", LEVELS)
    def test_copies_at_the_limit_leave_a_caller_its_headroom(self, how, shape):
        # A node is immutable, so its copies are the node itself; a walk
        # copying every level would take four frames a level.
        e = _tower(shape, MAX_DEPTH)
        twin = _below(HEADROOM, lambda: how(e))
        assert twin is e and twin == e and twin.height == MAX_DEPTH

    def test_deepcopy_of_a_parsed_tree_at_the_limit(self):
        e = parse("-" * (MAX_DEPTH - 1) + "x1")
        twin = _below(HEADROOM, lambda: copy.deepcopy([e, e]))
        assert twin[0] is e and twin[1] is e

    def test_replace_recomputes_the_height(self):
        e = BinaryOp("*", Variable(1), Literal(2.0))
        assert dataclasses.replace(e, left=_tower("negate", 10)).height == 11
        with pytest.raises(ValueError):
            dataclasses.replace(e, right=_tower("call", MAX_DEPTH))

    @pytest.mark.parametrize("e", [Negate(Variable(1)), BinaryOp("+", Variable(1), Literal(1.0)), Call("sin", Variable(1))])
    def test_height_is_not_part_of_the_value(self, e):
        assert "height" not in repr(e)
        height = {f.name: f for f in dataclasses.fields(e)}["height"]
        assert not (height.init or height.compare or height.repr) and height.hash is None


_literals = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)
_leaves = st.one_of(
    st.builds(Literal, _literals),
    st.builds(Variable, st.integers(min_value=1, max_value=9)),
    st.builds(Call, st.just("norm"), st.none()),
    st.builds(Call, st.just("dot"), st.none()),
)
_expressions = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(Negate, sub),
        st.builds(BinaryOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs", "log"]), sub),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=8))
@example([1e-200, -3e-201])
@example([5e-324, 5e-324, -1e-310])
def test_norm_and_dot_are_the_vector_norms(entries):
    # dot(x,x) is the rounded x.x, underflow and all; norm(x) is its
    # square root only where x.x >= 2^-900, and keeps its bits below.
    d = np.array(entries)
    v = Vector(entries)
    ctx = EvalContext.at_point(v)
    sq = float(d @ d)
    norm = evaluate(parse("norm(x)"), ctx)
    assert float.hex(evaluate(parse("dot(x,x)"), ctx)) == float.hex(sq) == float.hex(v.squared_norm())
    assert float.hex(norm) == float.hex(v.norm())
    if sq >= 2.0**-900:
        assert float.hex(norm) == float.hex(math.sqrt(sq))
    else:
        assert abs(norm - math.hypot(*entries)) <= 2 * math.ulp(math.hypot(*entries))


def test_vector_functions_beyond_the_double_range_are_non_finite_results():
    big = Vector([1e200, 0.0])
    assert evaluate(parse("norm(x)"), EvalContext.at_point(big)) == 1e200
    for source, point in (("dot(x,x)", big), ("norm(x)", Vector([1.7e308, 1.7e308]))):
        with pytest.raises(NonFiniteResultError) as info:
            evaluate(parse(source), EvalContext.at_point(point))
        assert info.value.position == 0


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_unparse_parse_round_trip(e):
    assert parse(unparse(e)) == e
