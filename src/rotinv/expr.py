"""A small arithmetic expression language for scalar functions on R^m.

Grammar (whitespace insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' factor)?          # '^' is RIGHT-associative
    unary   := '-' unary | primary
    primary := number | variable | call | '(' expr ')'

Variables are ``x1 ... xm`` (1-based); ``t`` is the reserved profile
argument. Scalar functions: sin, cos, exp, sqrt, abs, log. The
whole-vector symbol ``x`` is valid only as the argument of ``norm(x)``
or ``dot(x, x)``.

Note the right-associative power: ``2^3^2`` is ``2^(3^2)`` = 512, not 64.
Under this grammar ``-2^2`` parses as ``(-2)^2`` = 4, because unary
minus binds before the power operator.

Domain errors (sqrt or log of a negative, division by zero, non-finite
results) are raised as exceptions carrying the byte offset of the
offending subexpression; they never propagate as NaN.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .linalg import Vector

__all__ = [
    "Expression",
    "Literal",
    "Variable",
    "RadiusVar",
    "Negate",
    "BinaryOp",
    "Call",
    "EvalContext",
    "ExpressionError",
    "LexicalError",
    "ParseError",
    "UnknownFunctionError",
    "ArityError",
    "EvaluationError",
    "DomainError",
    "NonFiniteResultError",
    "UnboundVariableError",
    "parse",
    "evaluate",
    "unparse",
    "variable_indices",
    "references_radius",
    "references_point",
]

SCALAR_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": abs,
    "log": math.log,
}
VECTOR_FUNCTIONS = ("norm", "dot")

# Left and right binding powers of the binary operators (Pratt, "Top Down
# Operator Precedence", 1973). A left-associative operator binds more
# tightly on its right; '^' binds more tightly on its left, which makes it
# right-associative. Unary minus binds before all of them.
_BINDING_POWER = {"+": (1, 2), "-": (1, 2), "*": (3, 4), "/": (3, 4), "^": (6, 5)}
_NEGATE_POWER = 7


class ExpressionError(Exception):
    """Base for all expression-language errors; carries a byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class LexicalError(ExpressionError):
    pass


class ParseError(ExpressionError):
    pass


class UnknownFunctionError(ParseError):
    pass


class ArityError(ParseError):
    pass


class EvaluationError(ExpressionError):
    pass


class DomainError(EvaluationError):
    """sqrt/log of a negative, division by zero, or similar."""


class NonFiniteResultError(EvaluationError):
    pass


class UnboundVariableError(EvaluationError):
    pass


class Expression:
    """Base class for AST nodes. Nodes are immutable and freely shareable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    value: float
    pos: int = field(default=0, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0.0:
            # Negative constants are Negate(Literal(...)); this keeps
            # unparse/parse round trips structurally exact.
            raise ValueError("literals must be finite and nonnegative")


@dataclass(frozen=True, slots=True)
class Variable(Expression):
    """Coordinate variable x<index>, 1-based."""

    index: int
    pos: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable indices are 1-based")


@dataclass(frozen=True, slots=True)
class RadiusVar(Expression):
    """The reserved profile argument t."""

    pos: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Negate(Expression):
    operand: Expression
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression
    pos: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.op not in _BINDING_POWER:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Call(Expression):
    """Function application. The vector functions norm/dot take the
    whole-vector symbol x implicitly, so their arg is None."""

    name: str
    arg: Expression | None
    pos: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.name in SCALAR_FUNCTIONS:
            if self.arg is None:
                raise ValueError(f"{self.name} takes one scalar argument")
        elif self.name in VECTOR_FUNCTIONS:
            if self.arg is not None:
                raise ValueError(f"{self.name} takes only the whole-vector symbol x")
        else:
            raise ValueError(f"unknown function {self.name!r}")


# --- lexer -----------------------------------------------------------------

# One token after optional whitespace, in ASCII classes only: a non-ASCII
# digit or letter is an unexpected character. Every other non-whitespace
# character starts a match, so matches leave no gap. A number matches
# greedily and is checked after: a point or exponent needs a digit next.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<number>(?=[0-9.])[0-9]*(?P<fraction>\.[0-9]*)?(?:[eE][+-]?(?P<exponent>[0-9]*))?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<punct>[-+*/^(),])"
    r"|(?P<other>[^ \t\r\n]))"
)

_EOF = "end of input"


class _Token(NamedTuple):
    kind: str
    text: str
    value: float
    pos: int


def _tokenize(source: str) -> list[_Token]:
    is_ascii = source.isascii()

    def byte_offset(i: int) -> int:
        return i if is_ascii else len(source[:i].encode("utf-8"))

    tokens: list[_Token] = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        pos = byte_offset(m.start(kind))
        value = 0.0
        if kind == "other":
            raise LexicalError(f"unexpected character {text!r}", pos)
        if kind == "number":
            if m["fraction"] == ".":
                raise LexicalError("expected a digit after the decimal point", byte_offset(m.end("fraction")))
            if m["exponent"] == "":
                raise LexicalError("expected a digit in the exponent", byte_offset(m.end("exponent")))
            value = float(text)
            if value == math.inf:
                raise LexicalError("number is too large for a double", pos)
        tokens.append(_Token(kind, text, value, pos))
    tokens.append(_Token(_EOF, "", 0.0, byte_offset(len(source))))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.advance()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or tok.kind!r}", tok.pos)

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok.kind != _EOF:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self, min_power: int = 0) -> Expression:
        """Parse operands joined by operators whose left binding power is at
        least min_power."""
        tok = self.advance()
        if tok.text == "-":
            left = Negate(self.expr(_NEGATE_POWER), pos=tok.pos)
        elif tok.text == "(":
            left = self.expr()
            self.expect(")")
        elif tok.kind == "number":
            left = Literal(tok.value, pos=tok.pos)
        elif tok.kind == "ident":
            left = self.identifier(tok)
        else:
            found = tok.text or tok.kind
            raise ParseError(f"expected a number, variable, function call, or '(', found {found!r}", tok.pos)
        while True:
            op = self.peek()
            powers = _BINDING_POWER.get(op.text)
            if powers is None or powers[0] < min_power:
                return left
            self.i += 1
            left = BinaryOp(op.text, left, self.expr(powers[1]), pos=op.pos)

    def identifier(self, tok: _Token) -> Expression:
        name = tok.text
        if name == "t":
            return RadiusVar(pos=tok.pos)
        if name == "x":
            raise ParseError("the whole-vector symbol x is only valid inside norm(x) or dot(x, x)", tok.pos)
        if name[0] == "x" and name[1:].isdigit():
            index = int(name[1:])
            if index < 1:
                raise ParseError("variable indices are 1-based: x1 is the first coordinate", tok.pos)
            return Variable(index, pos=tok.pos)
        if name in SCALAR_FUNCTIONS:
            self.expect("(")
            if self.peek().text == ")":
                raise ArityError(f"{name} takes exactly one argument", self.peek().pos)
            arg = self.expr()
            if self.peek().text == ",":
                raise ArityError(f"{name} takes exactly one argument", self.peek().pos)
            self.expect(")")
            return Call(name, arg, pos=tok.pos)
        if name in VECTOR_FUNCTIONS:
            self.expect("(")
            for follow in (",", ")") if name == "dot" else (")",):
                symbol = self.advance()
                if symbol.text != "x":
                    found = symbol.text or symbol.kind
                    raise ArityError(f"{name} takes the whole-vector symbol x, found {found!r}", symbol.pos)
                self.expect(follow)
            return Call(name, None, pos=tok.pos)
        raise UnknownFunctionError(f"unknown function or variable {name!r}", tok.pos)


def parse(source: str) -> Expression:
    """Parse source text into an AST.

    Raises LexicalError, ParseError, UnknownFunctionError, or ArityError,
    each carrying the byte offset of the problem.
    """
    return _Parser(source).parse()


# --- evaluation ------------------------------------------------------------


class EvalContext:
    """Bindings for evaluation: either a point of R^m or a scalar radius t."""

    __slots__ = ("point", "radius")

    def __init__(self, point: Vector | None = None, radius: float | None = None):
        if (point is None) == (radius is None):
            raise ValueError("bind exactly one of point (coordinate mode) or radius (profile mode)")
        if radius is not None and not math.isfinite(radius):
            raise ValueError("radius binding must be finite")
        self.point = point
        self.radius = radius

    @classmethod
    def at_point(cls, point: Vector) -> "EvalContext":
        return cls(point=point)

    @classmethod
    def at_radius(cls, radius: float) -> "EvalContext":
        return cls(radius=radius)


def _check_finite(value: float, pos: int) -> float:
    if not math.isfinite(value):
        raise NonFiniteResultError("result is not finite", pos)
    return value


def evaluate(e: Expression, ctx: EvalContext) -> float:
    """Evaluate an AST at the context's binding. Deterministic: identical
    (expression, context) pairs give bitwise-identical results."""
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Variable):
        p = ctx.point
        if p is None:
            raise UnboundVariableError(f"x{e.index} is not bound in profile mode", e.pos)
        if e.index > p.dim:
            raise UnboundVariableError(f"x{e.index} is out of range for dimension {p.dim}", e.pos)
        return float(p.data[e.index - 1])
    if isinstance(e, RadiusVar):
        if ctx.radius is None:
            raise UnboundVariableError("t is only bound in profile mode", e.pos)
        return ctx.radius
    if isinstance(e, BinaryOp):
        left = evaluate(e.left, ctx)
        right = evaluate(e.right, ctx)
        op = e.op
        if op == "+":
            return _check_finite(left + right, e.pos)
        if op == "-":
            return _check_finite(left - right, e.pos)
        if op == "*":
            return _check_finite(left * right, e.pos)
        if op == "/":
            if right == 0.0:
                raise DomainError("division by zero", e.pos)
            return _check_finite(left / right, e.pos)
        try:
            return _check_finite(math.pow(left, right), e.pos)
        except ValueError:
            raise DomainError(f"{left!r} ^ {right!r} is undefined over the reals", e.pos) from None
        except OverflowError:
            raise NonFiniteResultError("power overflows", e.pos) from None
    if isinstance(e, Negate):
        return -evaluate(e.operand, ctx)
    if isinstance(e, Call):
        if e.arg is None:
            p = ctx.point
            if p is None:
                raise UnboundVariableError(f"{e.name}(x) is not available in profile mode", e.pos)
            sq = float(p.data @ p.data)
            return math.sqrt(sq) if e.name == "norm" else sq
        value = evaluate(e.arg, ctx)
        try:
            return _check_finite(SCALAR_FUNCTIONS[e.name](value), e.pos)
        except ValueError:
            raise DomainError(f"{e.name}({value!r}) is undefined", e.pos) from None
        except OverflowError:
            raise NonFiniteResultError(f"{e.name}({value!r}) overflows", e.pos) from None
    raise TypeError(f"not an expression node: {e!r}")


# --- unparse ---------------------------------------------------------------


def _render_literal(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def unparse(e: Expression) -> str:
    """Canonical fully parenthesized rendering; parse(unparse(e)) is
    structurally identical to e."""
    if isinstance(e, Literal):
        return _render_literal(e.value)
    if isinstance(e, Variable):
        return f"x{e.index}"
    if isinstance(e, RadiusVar):
        return "t"
    if isinstance(e, Negate):
        return f"(-{unparse(e.operand)})"
    if isinstance(e, BinaryOp):
        return f"({unparse(e.left)}{e.op}{unparse(e.right)})"
    if isinstance(e, Call):
        if e.arg is None:
            return "norm(x)" if e.name == "norm" else "dot(x,x)"
        return f"{e.name}({unparse(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _nodes(e: Expression) -> Iterator[Expression]:
    """The nodes of the tree in pre-order, without recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Negate):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack += (node.right, node.left)
        elif isinstance(node, Call) and node.arg is not None:
            stack.append(node.arg)


def variable_indices(e: Expression) -> set[int]:
    """All coordinate indices referenced by the expression."""
    return {node.index for node in _nodes(e) if isinstance(node, Variable)}


def references_radius(e: Expression) -> bool:
    """True when the expression mentions the profile argument t."""
    return any(isinstance(node, RadiusVar) for node in _nodes(e))


def references_point(e: Expression) -> bool:
    """True when the expression needs a point binding (coordinates, norm, dot)."""
    return any(
        isinstance(node, Variable) or (isinstance(node, Call) and node.arg is None)
        for node in _nodes(e)
    )
