import math

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
    EvaluationError,
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
from rotinv.objectivity import RadialSet, radial_sampler, test_function_objectivity


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
    # it but far deeper than MAX_DEPTH; the root's offset is that of its '+'.
    e = Variable(1, pos=0)
    for k in range(1, terms):
        e = BinaryOp("+", e, Variable(1, pos=3 * k), pos=3 * k - 1)
    return e


class TestUnboundedTrees:
    def test_deep_tree_is_a_positioned_evaluation_error(self):
        e = _left_chain(3000)
        with pytest.raises(EvaluationError) as info:
            evaluate(e, EvalContext(Vector([1.0, 2.0])))
        assert info.value.position == e.pos == 3 * 2999 - 1

    def test_deep_tree_is_an_evaluation_error_inside_the_monte_carlo_test(self):
        e = _left_chain(3000)
        f = lambda x: evaluate(e, EvalContext.at_point(x))
        sampler = radial_sampler(RadialSet(2, intervals=((0.5, 2.0),)))
        with pytest.raises(EvaluationError):
            test_function_objectivity(f, 2, sampler, 20, rng=np.random.default_rng(4))

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
