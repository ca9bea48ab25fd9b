import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv.expr import (
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
    RadiusVar,
    UnboundVariableError,
    UnknownFunctionError,
    Variable,
    evaluate,
    parse,
    references_point,
    references_radius,
    unparse,
    variable_indices,
)
from rotinv.linalg import Vector


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

    def test_radius_mode(self):
        ctx = EvalContext.at_radius(3.0)
        assert evaluate(parse("t^2+1"), ctx) == 10.0

    def test_radius_not_bound_in_point_mode(self):
        with pytest.raises(UnboundVariableError):
            ev("t", 1)

    def test_point_not_bound_in_radius_mode(self):
        ctx = EvalContext.at_radius(1.0)
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x1"), ctx)
        with pytest.raises(UnboundVariableError):
            evaluate(parse("norm(x)"), ctx)

    def test_domain_error_carries_position(self):
        with pytest.raises(DomainError) as info:
            ev("1 + sqrt(0-9)", 1)
        assert info.value.position == 4

    def test_context_requires_exactly_one_binding(self):
        with pytest.raises(ValueError):
            EvalContext()
        with pytest.raises(ValueError):
            EvalContext(point=Vector([1.0]), radius=1.0)

    def test_deterministic(self):
        e = parse("sin(x1)*exp(x2)+norm(x)^3")
        ctx = EvalContext.at_point(Vector([0.3, -1.7]))
        assert evaluate(e, ctx) == evaluate(e, ctx)


class TestIntrospection:
    def test_variable_indices(self):
        assert variable_indices(parse("x1*x2 + sin(x7)")) == {1, 2, 7}
        assert variable_indices(parse("norm(x)^2")) == set()

    def test_references(self):
        assert references_radius(parse("t^2"))
        assert not references_radius(parse("x1"))
        assert references_point(parse("norm(x)"))
        assert references_point(parse("dot(x,x)"))
        assert not references_point(parse("t+1"))


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
    leaf_kinds = ("literal", "variable", "radius", "norm", "dot")
    inner_kinds = ("negate", "binop", "call")
    if depth <= 0 or rng.random() < 0.3:
        kind = leaf_kinds[rng.integers(len(leaf_kinds))]
        if kind == "literal":
            return Literal(float(rng.choice([0.0, 1.0, 2.0, 0.5, 1e-9, 3.25, float(rng.uniform(0, 1e6))])))
        if kind == "variable":
            return Variable(int(rng.integers(1, 6)))
        if kind == "radius":
            return RadiusVar()
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
    st.builds(RadiusVar),
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
@given(_expressions)
def test_unparse_parse_round_trip(e):
    assert parse(unparse(e)) == e
