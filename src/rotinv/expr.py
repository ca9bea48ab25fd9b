"""A small arithmetic expression language for scalar functions on R^m.

Grammar (whitespace insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' factor)?          # '^' is RIGHT-associative
    unary   := '-' unary | primary
    primary := number | variable | call | '(' expr ')'

Variables are ``x1 ... xm`` (1-based), bound to the coordinates of the
point an expression is evaluated at. Scalar functions: sin, cos, exp,
sqrt, abs, log. The whole-vector symbol ``x`` is valid only as the
argument of ``norm(x)`` or ``dot(x, x)``.

Each operator, call, parenthesized group, literal and variable takes a
level; input nested deeper than MAX_DEPTH levels is a ParseError at the
token that crosses the limit. No tree, parsed or built, is taller than
MAX_DEPTH levels, so tree walks stay off the interpreter's recursion limit.

Note the right-associative power: ``2^3^2`` is ``2^(3^2)`` = 512, not 64.
Under this grammar ``-2^2`` parses as ``(-2)^2`` = 4, because unary
minus binds before the power operator.

Domain errors (sqrt or log of a negative, division by zero, non-finite
results) are raised as exceptions carrying the byte offset of the
offending subexpression; they never propagate as NaN.
"""

from __future__ import annotations

import functools
import math
import re
import types
from dataclasses import dataclass, field
from typing import NamedTuple

from .linalg import Vector

__all__ = [
    "Expression",
    "Literal",
    "Variable",
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

# Levels input may nest and a tree may stand. parse, evaluate, unparse, ==,
# hash and repr take at most three frames a level, which leaves a caller 200;
# copy and deepcopy return the node itself.
MAX_DEPTH = 200


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
    """Base class for AST nodes. Nodes are immutable and freely shareable.
    A node's height, 1 for a leaf and otherwise 1 + its tallest child's, is
    set when it is built and is not part of its value; building a node
    taller than MAX_DEPTH raises ValueError."""

    __slots__ = ("_plan",)  # set by evaluate; no dataclass field, so out of ==, hash and repr
    height = 1  # a leaf's; the inner node classes keep theirs in a field

    def _set_height(self, height: int) -> None:
        if height > MAX_DEPTH:
            raise ValueError(f"expression trees are at most {MAX_DEPTH} levels tall")
        object.__setattr__(self, "height", height)

    def __copy__(self) -> Expression:
        return self  # immutable: a copy could only be an equal twin

    def __deepcopy__(self, memo: dict) -> Expression:
        return self


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    value: float
    pos: int = field(default=0, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0.0:
            # Negative constants are Negate(Literal(...)); this keeps
            # unparse/parse round trips structurally exact.
            raise ValueError("literals must be finite and nonnegative")

    def _eval(self, ctx: EvalContext) -> float:
        return self.value


@dataclass(frozen=True, slots=True)
class Variable(Expression):
    """Coordinate variable x<index>, 1-based."""

    index: int
    pos: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable indices are 1-based")

    def _eval(self, ctx: EvalContext) -> float:
        p = ctx.point
        if self.index > p.dim:
            raise UnboundVariableError(f"x{self.index} is out of range for dimension {p.dim}", self.pos)
        return float(p.data[self.index - 1])


@dataclass(frozen=True, slots=True)
class Negate(Expression):
    operand: Expression
    pos: int = field(default=0, compare=False)
    height: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._set_height(self.operand.height + 1)

    def _eval(self, ctx: EvalContext) -> float:
        return -self.operand._eval(ctx)


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression
    pos: int = field(default=0, compare=False)
    height: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in _BINDING_POWER:
            raise ValueError(f"unknown operator {self.op!r}")
        self._set_height(max(self.left.height, self.right.height) + 1)

    def _eval(self, ctx: EvalContext) -> float:
        left = self.left._eval(ctx)
        right = self.right._eval(ctx)
        op = self.op
        if op == "*":
            value = left * right
        elif op == "+":
            value = left + right
        elif op == "-":
            value = left - right
        elif op == "/":
            if right == 0.0:
                raise DomainError("division by zero", self.pos)
            value = left / right
        else:
            try:
                value = math.pow(left, right)
            except ValueError:
                raise DomainError(f"{left!r} ^ {right!r} is undefined over the reals", self.pos) from None
            except OverflowError:
                raise NonFiniteResultError("power overflows", self.pos) from None
        if not math.isfinite(value):
            raise NonFiniteResultError("result is not finite", self.pos)
        return value


@dataclass(frozen=True, slots=True)
class Call(Expression):
    """Function application. The vector functions norm/dot take the
    whole-vector symbol x implicitly, so their arg is None."""

    name: str
    arg: Expression | None
    pos: int = field(default=0, compare=False)
    height: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.name in SCALAR_FUNCTIONS:
            if self.arg is None:
                raise ValueError(f"{self.name} takes one scalar argument")
        elif self.name in VECTOR_FUNCTIONS:
            if self.arg is not None:
                raise ValueError(f"{self.name} takes only the whole-vector symbol x")
        else:
            raise ValueError(f"unknown function {self.name!r}")
        self._set_height(1 if self.arg is None else self.arg.height + 1)

    def _eval(self, ctx: EvalContext) -> float:
        if self.arg is None:
            value = ctx.point.norm() if self.name == "norm" else ctx.point.squared_norm()
        else:
            arg = self.arg._eval(ctx)
            try:
                value = SCALAR_FUNCTIONS[self.name](arg)
            except ValueError:
                raise DomainError(f"{self.name}({arg!r}) is undefined", self.pos) from None
            except OverflowError:
                raise NonFiniteResultError(f"{self.name}({arg!r}) overflows", self.pos) from None
        if not math.isfinite(value):
            raise NonFiniteResultError("result is not finite", self.pos)
        return value


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
    # The first non-ASCII character is an "other" token and ends
    # tokenizing, so every position reached is a character index with
    # only ASCII before it: equal to its UTF-8 byte offset.
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        pos = m.start(kind)
        value = 0.0
        if kind == "other":
            raise LexicalError(f"unexpected character {text!r}", pos)
        if kind == "number":
            if m["fraction"] == ".":
                raise LexicalError("expected a digit after the decimal point", m.end("fraction"))
            if m["exponent"] == "":
                raise LexicalError("expected a digit in the exponent", m.end("exponent"))
            value = float(text)
            if value == math.inf:
                raise LexicalError("number is too large for a double", pos)
        tokens.append(_Token(kind, text, value, pos))
    tokens.append(_Token(_EOF, "", 0.0, len(source)))
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

    def expr(self, depth: int, min_power: int = 0) -> tuple[Expression, int]:
        """Parse operands joined by operators whose left binding power is at
        least min_power, at nesting level depth; return the tree and the
        number of levels it spans, keeping depth + levels - 1 <= MAX_DEPTH."""
        tok = self.advance()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.pos)
        if tok.text == "-":
            operand, levels = self.expr(depth + 1, _NEGATE_POWER)
            left = Negate(operand, pos=tok.pos)
        elif tok.text == "(":
            left, levels = self.expr(depth + 1)
            self.expect(")")
        elif tok.kind == "number":
            left, levels = Literal(tok.value, pos=tok.pos), 0
        elif tok.kind == "ident":
            left, levels = self.identifier(tok, depth)
        else:
            found = tok.text or tok.kind
            raise ParseError(f"expected a number, variable, function call, or '(', found {found!r}", tok.pos)
        levels += 1
        while True:
            op = self.peek()
            powers = _BINDING_POWER.get(op.text)
            if powers is None or powers[0] < min_power:
                return left, levels
            # The operator node sits above left, one level further down.
            if depth + levels > MAX_DEPTH:
                raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", op.pos)
            self.i += 1
            right, right_levels = self.expr(depth + 1, powers[1])
            left, levels = BinaryOp(op.text, left, right, pos=op.pos), max(levels, right_levels) + 1

    def identifier(self, tok: _Token, depth: int) -> tuple[Expression, int]:
        name = tok.text
        if name == "x":
            raise ParseError("the whole-vector symbol x is only valid inside norm(x) or dot(x, x)", tok.pos)
        if name[0] == "x" and name[1:].isdigit():
            index = int(name[1:])
            if index < 1:
                raise ParseError("variable indices are 1-based: x1 is the first coordinate", tok.pos)
            return Variable(index, pos=tok.pos), 0
        if name in SCALAR_FUNCTIONS:
            self.expect("(")
            if self.peek().text == ")":
                raise ArityError(f"{name} takes exactly one argument", self.peek().pos)
            arg, levels = self.expr(depth + 1)
            if self.peek().text == ",":
                raise ArityError(f"{name} takes exactly one argument", self.peek().pos)
            self.expect(")")
            return Call(name, arg, pos=tok.pos), levels
        if name in VECTOR_FUNCTIONS:
            self.expect("(")
            for follow in (",", ")") if name == "dot" else (")",):
                symbol = self.advance()
                if symbol.text != "x":
                    found = symbol.text or symbol.kind
                    raise ArityError(f"{name} takes the whole-vector symbol x, found {found!r}", symbol.pos)
                self.expect(follow)
            return Call(name, None, pos=tok.pos), 0
        raise UnknownFunctionError(f"unknown function or variable {name!r}", tok.pos)


def parse(source: str) -> Expression:
    """Parse source text into an AST.

    Raises LexicalError, ParseError, UnknownFunctionError, or ArityError,
    each carrying the byte offset of the problem; input nested deeper
    than MAX_DEPTH levels is a ParseError.
    """
    parser = _Parser(source)
    e, _ = parser.expr(1)
    tok = parser.peek()
    if tok.kind != _EOF:
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return e


# --- evaluation ------------------------------------------------------------


class EvalContext:
    """The binding for evaluation: the point x of R^m."""

    __slots__ = ("point",)

    def __init__(self, point: Vector):
        if not isinstance(point, Vector):
            raise TypeError(f"the point must be a Vector, got {point!r}")
        self.point = point

    @classmethod
    def at_point(cls, point: Vector) -> "EvalContext":
        self = object.__new__(cls)  # skips __init__'s type check: the hot path passes a Vector
        self.point = point
        return self


def evaluate(e: Expression, ctx: EvalContext) -> float:
    """Evaluate an AST at the context's binding. Deterministic: identical
    (expression, context) pairs give bitwise-identical results: a root is
    compiled on its first evaluation to straight-line code, shared by its
    shape and bound to its constants, with the per-node interpreter's
    float operations in its order.
    The interpreter evaluates what that code cannot: any error, raised
    with its offset."""
    if not isinstance(e, Expression):
        raise TypeError(f"not an expression node: {e!r}")
    try:
        plan = e._plan
    except AttributeError:
        plan = _build_plan(e)
        object.__setattr__(e, "_plan", plan)
    if plan is not None:
        try:
            value = plan(ctx.point)
        except Exception:  # every error is raised by the interpreter below
            value = None
        if value is not None:
            return value
    return e._eval(ctx)


# Source templates of compiled plans. Node data never enters the source:
# operators and function names only select a template, and literals and
# variable indices are the plan's constants, so the source is the shape's.
_BINARY_SOURCE = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "^": "pow({}, {})"}
_CALL_SOURCE = {name: name + "({})" for name in SCALAR_FUNCTIONS}
_VECTOR_SOURCE = {"norm": ("n", "n = p.norm()"), "dot": ("s", "s = p.squared_norm()")}
_PLAN_GLOBALS = {"__builtins__": {}, "pow": math.pow, **SCALAR_FUNCTIONS}


def _build_plan(e: Expression) -> types.FunctionType | None:
    """plan, where plan(point) is e's value at the point, or None if an
    intermediate is not finite; e's constants are the defaults of plan's
    parameters c0, c1, .... None for a node outside the tables above.
    checked lists each value the interpreter checks is finite, and stack
    the operand source of each pending subtree."""
    constants, reads, lines, checked, stack = [], {}, [], [], []
    for node in _postorder(e):
        kind = type(node)
        if kind is Literal:
            operand = f"c{len(constants)}"
            constants.append(node.value)
        elif kind is Variable:
            reads["v"] = "v = p.data.item"
            operand = f"v(c{len(constants)})"
            constants.append(node.index - 1)
        elif kind is Call and node.arg is None and node.name in _VECTOR_SOURCE:
            operand, reads[operand] = _VECTOR_SOURCE[node.name]
            checked.append(operand)
        else:
            template = ("-{}" if kind is Negate
                        else _BINARY_SOURCE.get(node.op) if kind is BinaryOp
                        else _CALL_SOURCE.get(node.name) if kind is Call and node.arg is not None else None)
            if template is None:
                return None
            args = stack[-template.count("{}"):]
            del stack[-len(args):]
            operand = f"t{len(lines)}"
            lines.append(f"{operand} = " + template.format(*args))
            checked.append(operand)
        stack.append(operand)
    # 0 * t is 0 for finite t and NaN otherwise.
    source = (f"def plan({', '.join(['p', *(f'c{k}' for k in range(len(constants)))])}):\n"
              + "".join(f"    {line}\n" for line in [*reads.values(), *lines])
              + f"    if {' * '.join(['0.0', *checked])} == 0.0:\n        return {stack[0]}\n")
    return types.FunctionType(_compile(source), _PLAN_GLOBALS, "plan", tuple(constants))


@functools.lru_cache(maxsize=256)
def _compile(source: str) -> types.CodeType:
    """The code of the one function the source defines, shared by every tree of its shape."""
    namespace = {}
    exec(compile(source, "<expression plan>", "exec"), _PLAN_GLOBALS, namespace)
    return namespace["plan"].__code__


# --- unparse ---------------------------------------------------------------


def unparse(e: Expression) -> str:
    """Canonical fully parenthesized rendering of any tree; parse(unparse(e))
    is structurally identical to e for a tree of at most MAX_DEPTH // 2
    levels (each operator's parentheses add a level)."""
    if isinstance(e, Literal):  # nonnegative by construction
        return str(int(e.value)) if e.value == int(e.value) and e.value < 1e16 else repr(e.value)
    if isinstance(e, Variable):
        return f"x{e.index}"
    if isinstance(e, Negate):
        return f"(-{unparse(e.operand)})"
    if isinstance(e, BinaryOp):
        return f"({unparse(e.left)}{e.op}{unparse(e.right)})"
    if isinstance(e, Call):
        if e.arg is None:
            return "norm(x)" if e.name == "norm" else "dot(x,x)"
        return f"{e.name}({unparse(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _postorder(e: Expression) -> list[Expression]:
    """The nodes under e, children first and left to right, without recursion."""
    order, stack = [], [e]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Negate):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack += (node.left, node.right)
        elif isinstance(node, Call) and node.arg is not None:
            stack.append(node.arg)
    order.reverse()
    return order


def variable_indices(e: Expression) -> set[int]:
    """All coordinate indices referenced by the expression, found without recursion."""
    return {node.index for node in _postorder(e) if isinstance(node, Variable)}
