"""Parser and evaluator for the textual symbol-expression language.

Expressions are real-valued functions of the torus variables x1..xn,
the frequency variables xi1..xin and, inside angular parts, the unit
direction variables theta1..thetan.  Grammar, lexed by one pattern
(_TOKEN) tried at each offset, with whitespace between tokens skipped:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom ('^' factor)?
    atom   := number | 'pi' | variable
            | func '(' expr ')' | '(' expr ')' | '|xi|' | '<xi>'
    number := (digit+ ('.' digit*)? | '.' digit+) ([eE] [+-]? digit+)?
    name   := letter+ digit*      (a variable, a func or 'pi')

'^' is right associative and binds tighter than unary minus, so
``-x1^2`` means -(x1^2) while ``(-x1)^2`` needs the parentheses.
Each binary operator is defined in one place, its row in _OPS, which
the parser, eval_expr and unparse all read.  An expression nests at
most MAX_NESTING levels; deeper input is a ParseError at the token
that opens the first level past it.
Functions: cos, sin, exp, abs.  ``|xi|`` is the euclidean norm of the
frequency vector and ``<xi>`` the bracket (1+|xi|^2)^(1/2).  There is
no implicit multiplication.  A digit is any unicode decimal digit, and
the unicode minus sign reads as '-', in an exponent too.  An unmatched
character is a ParseError at its offset that expects '|xi|' for '|',
'<xi>' for '<' and "expression character" otherwise.  A numeral that
is no decimal digit (``²``, ``½``) lexes as a letter, so no input
holding one parses.

Evaluation is plain double precision and numpy-broadcasting: variables
may be bound to arrays (last axis = coordinate axis) and the result
broadcasts accordingly.  Complex-valued symbols are entered as two
real expressions (re, im); conjugation is supplied by the flip map,
not by the grammar.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Union

import numpy as np

from .errors import UsageError
from .record import Record
from .symbols import ClassicalTerm, Symbol

FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}
VAR_KINDS = ("x", "xi", "theta")


class _Op(Record):
    prec: int  # binding strength: a higher one binds tighter
    apply: Callable
    reason: str  # what a non-finite result means


# '+ - *' apply Python's own operators: np.add and its kin would make
# a constant subtree of Python floats a numpy.float64
_OPS = {
    "+": _Op(1, operator.add, "non-finite result"),
    "-": _Op(1, operator.sub, "non-finite result"),
    "*": _Op(2, operator.mul, "non-finite result"),
    "/": _Op(2, np.divide, "division by zero"),
    "^": _Op(4, np.power, "invalid power (zero or negative base)"),
}
_NEG, _ATOM = 3, 5  # binding strengths of a unary minus and of an atom

# Levels an expression may nest: a parenthesized group, a call, a unary
# minus and an operator each stand one level above what they enclose.
# parse, eval_expr, unparse and the x-degree walks each recurse a few
# Python frames a level, parse the most (four a call), so this bound
# keeps them all well inside the interpreter's default recursion limit
# of 1000 frames.
MAX_NESTING = 100


class ParseError(Exception):
    """Raised for any malformed input; never lets a panic escape.

    offset is the character offset into the source (equal to the byte
    offset for ASCII input) and satisfies 0 <= offset <= len(source).
    """

    def __init__(self, offset: int, expected: str, source: str):
        self.offset = offset
        self.expected = expected
        lo, hi = max(0, offset - 12), min(len(source), offset + 12)
        self.excerpt = source[lo:hi]
        super().__init__(f"expected {expected} at offset {offset}: {self.excerpt!r}")


class DimensionError(ParseError):
    """A variable index exceeds the declared dimension."""


class EvalError(ArithmeticError):
    """Evaluation produced a non-finite value (division by zero,
    0^negative, overflow).  Carries the offending subexpression."""

    def __init__(self, subexpr: str, reason: str):
        self.subexpr = subexpr
        super().__init__(f"{reason} in {subexpr!r}")


# ---------------------------------------------------------------------------
# AST


class Num(Record):
    value: float


class Pi(Record):
    pass


class Var(Record):
    kind: str  # "x", "xi" or "theta"
    index: int  # 1-based


class FreqNorm(Record):
    """|xi|"""


class Bracket(Record):
    """<xi> = (1+|xi|^2)^(1/2)"""


class Neg(Record):
    arg: "SymbolExpr"


class BinOp(Record):
    op: str  # one of + - * / ^
    left: "SymbolExpr"
    right: "SymbolExpr"


class Call(Record):
    fn: str
    arg: "SymbolExpr"


SymbolExpr = Union[Num, Pi, Var, FreqNorm, Bracket, Neg, BinOp, Call]


def walk(e: SymbolExpr):
    """Yield every node of the tree."""
    yield e
    if isinstance(e, Neg):
        yield from walk(e.arg)
    elif isinstance(e, BinOp):
        yield from walk(e.left)
        yield from walk(e.right)
    elif isinstance(e, Call):
        yield from walk(e.arg)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN = re.compile(
    r"(?P<NUM>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+−]?\d+)?)"
    r"|(?P<NAME>[^\W\d_]+\d*)"
    r"|(?P<NORM>\|xi\|)"
    r"|(?P<BRACKET><xi>)"
    r"|(?P<OP>[-−+*/^()])"
    r"|(?P<SPACE>\s+)"
)
_UNMATCHED = {"|": "'|xi|'", "<": "'<xi>'"}


class _Token(Record):
    kind: str  # NUM NAME OP NORM BRACKET EOF
    text: str
    pos: int
    value: float = 0.0


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(i, _UNMATCHED.get(text[i], "expression character"), text)
        kind, tok = m.lastgroup, m.group()
        if kind == "NUM":
            toks.append(_Token(kind, tok, i, float(tok.replace("−", "-"))))
        elif kind != "SPACE":
            toks.append(_Token(kind, tok.replace("−", "-"), i))
        i = m.end()
    toks.append(_Token("EOF", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Recursive-descent parser


class _Parser:
    """Recursive descent.  Each parse method returns its node and leaves
    the node's height in self.height: its levels of nesting, 0 for an
    atom and one more for each group, call, minus or operator above it.
    self.open counts the levels open around the cursor, and no node may
    reach past MAX_NESTING levels in all."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.toks = _tokenize(text)
        self.i = 0
        self.open = 0
        self.height = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.peek()
        if t.kind == "OP" and t.text == op:
            return self.take()
        raise ParseError(t.pos, f"'{op}'", self.text)

    def at_op(self, *ops: str) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.text in ops

    def fits(self, t: _Token, height: int) -> None:
        """A construct of height levels opened at t fits under the open
        levels, or a ParseError at t."""
        if self.open + height > MAX_NESTING:
            raise ParseError(t.pos, f"at most {MAX_NESTING} levels of nesting", self.text)

    def enter(self, t: _Token) -> None:
        """Open one level at t, before parsing what it encloses."""
        self.fits(t, 1)
        self.open += 1

    def parse(self) -> SymbolExpr:
        e = self.expr()
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(t.pos, "end of input", self.text)
        return e

    def expr(self, level: int = 1) -> SymbolExpr:
        """Factors joined left to right by operators binding at level or
        tighter, each right operand one level tighter ('^' is factor's)."""
        e = self.factor()
        while self.at_op(*_OPS) and (row := _OPS[self.peek().text]).prec >= level:
            e = self.binop(e, lambda: self.expr(row.prec + 1))
        return e

    def binop(self, left: SymbolExpr, operand) -> BinOp:
        """The operator at the cursor applied to left, the node just
        parsed, and to the right operand that operand() parses."""
        left_height = self.height
        op = self.take()
        self.enter(op)
        right = operand()
        self.open -= 1
        self.height = 1 + max(left_height, self.height)
        self.fits(op, self.height)  # a long chain deepens its left operand
        return BinOp(op.text, left, right)

    def factor(self) -> SymbolExpr:
        # '-'? atom ('^' factor)?   with '^' binding tighter than the minus
        neg = self.take() if self.at_op("-") else None
        if neg:
            self.enter(neg)
        e = self.atom()
        if self.at_op("^"):
            e = self.binop(e, self.factor)
        if neg:
            self.open -= 1
            self.height += 1
            return Neg(e)
        return e

    def atom(self) -> SymbolExpr:
        t = self.take()
        self.height = 0
        if t.kind == "NUM":
            return Num(t.value)
        if t.kind == "NORM":
            return FreqNorm()
        if t.kind == "BRACKET":
            return Bracket()
        if t.kind == "OP" and t.text == "(":
            return self.group(t)
        if t.kind == "NAME" and t.text in FUNCTIONS:
            return Call(t.text, self.group(self.expect_op("(")))
        if t.kind == "NAME":
            return self.name_atom(t)
        raise ParseError(t.pos, "expression", self.text)

    def group(self, t: _Token) -> SymbolExpr:
        """The expression up to the ')' that closes the level opened at t."""
        self.enter(t)
        e = self.expr()
        self.expect_op(")")
        self.open -= 1
        self.height += 1
        return e

    def name_atom(self, t: _Token) -> SymbolExpr:
        name = t.text
        if name == "pi":
            return Pi()
        for kind in ("theta", "xi", "x"):  # longest prefix first
            if name.startswith(kind) and name[len(kind) :].isdecimal():  # int() reads these
                idx = int(name[len(kind) :])
                if not 1 <= idx <= self.n:
                    raise DimensionError(t.pos, f"variable index <= {self.n}", self.text)
                return Var(kind, idx)
        raise ParseError(t.pos, "variable, 'pi' or function name", self.text)


def parse(text: str, n: int) -> SymbolExpr:
    """Parse an expression over dimension n; raises ParseError on any
    malformed input (never aborts)."""
    if n < 1:
        raise UsageError(f"dimension must be >= 1, got {n}")
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _vec(arr):
    a = np.asarray(arr, dtype=float)
    return a[None] if a.ndim == 0 else a  # bare scalar acts as a 1-vector


def _coord(arr, index: int, what: str):
    if arr is None:
        raise EvalError(what, "variable not available in this context")
    return _vec(arr)[..., index - 1]


def eval_expr(e: SymbolExpr, first, x, theta=None):
    """Evaluate over frequency-like first argument, torus point x and
    optional unit direction theta.  Arguments broadcast; the last axis
    is the coordinate axis."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return np.pi
    if isinstance(e, Var):
        if e.kind == "x":
            return _coord(x, e.index, "x")
        if e.kind == "xi":
            return _coord(first, e.index, "xi")
        return _coord(theta, e.index, "theta")
    if isinstance(e, FreqNorm):
        if first is None:
            raise EvalError("|xi|", "variable not available in this context")
        return np.sqrt(np.sum(_vec(first) ** 2, axis=-1))
    if isinstance(e, Bracket):
        if first is None:
            raise EvalError("<xi>", "variable not available in this context")
        return np.sqrt(1.0 + np.sum(_vec(first) ** 2, axis=-1))
    if isinstance(e, Neg):
        return -eval_expr(e.arg, first, x, theta)
    if isinstance(e, Call):
        with np.errstate(over="ignore", invalid="ignore"):
            out = FUNCTIONS[e.fn](eval_expr(e.arg, first, x, theta))
        _check_finite(out, e)
        return out
    # BinOp
    lv = eval_expr(e.left, first, x, theta)
    rv = eval_expr(e.right, first, x, theta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _OPS[e.op].apply(lv, rv)
    _check_finite(out, e)
    return out


def _check_finite(out, node):
    if not np.all(np.isfinite(out)):
        reason = _OPS[node.op].reason if isinstance(node, BinOp) else "non-finite result"
        raise EvalError(unparse(node), reason)


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through parse)

def _operand(e: SymbolExpr, need: int) -> str:
    """e in a slot that reads what binds at strength need or tighter,
    parenthesized when it binds looser."""
    strength = _OPS[e.op].prec if isinstance(e, BinOp) else _NEG if isinstance(e, Neg) else _ATOM
    return f"({unparse(e)})" if strength < need else unparse(e)


def unparse(e: SymbolExpr) -> str:
    """Render the tree; parse(unparse(parse(t))) == parse(t)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return f"{e.kind}{e.index}"
    if isinstance(e, FreqNorm):
        return "|xi|"
    if isinstance(e, Bracket):
        return "<xi>"
    if isinstance(e, Call):
        return f"{e.fn}({unparse(e.arg)})"
    if isinstance(e, Neg):  # the minus takes an atom with its powers
        return f"-{_operand(e.arg, _NEG + 1)}"
    # a left operand binds as tight as its operator, an atom under '^',
    # the one operator tighter than the minus; a right operand binds one
    # level tighter, up to a factor's strength, the tightest slot
    p = _OPS[e.op].prec
    return f"{_operand(e.left, p if p < _NEG else _ATOM)}{e.op}{_operand(e.right, min(p + 1, _NEG))}"


def references(e: SymbolExpr, kinds: tuple[str, ...]) -> bool:
    """True if the tree uses any variable of the given kinds (with
    'xi' covering |xi| and <xi> as well)."""
    for node in walk(e):
        if isinstance(node, Var) and node.kind in kinds:
            return True
        if isinstance(node, (FreqNorm, Bracket)) and "xi" in kinds:
            return True
    return False


# ---------------------------------------------------------------------------
# x-bandwidth


def x_bandwidth(e: SymbolExpr) -> float:
    """Largest x-Fourier degree over the axes (see _x_degrees), at
    least 1 for a tree that references x, so the result is 0 exactly
    when x is absent."""
    degrees = _x_degrees(e)
    return max(1, *degrees.values()) if degrees else 0


def _x_degrees(e: SymbolExpr) -> dict[int, float]:
    """{j: degree in x_j} over the axes j the tree references: |m_j| for
    cos/sin of sum_j 2*pi*m_j*x_j plus an x-free offset (m_j integer);
    per axis, the max over '+' and '-' and the sum over '*'; unchanged
    by an x-free divisor, times k under a constant power k >= 0; inf
    (not band-limited) on every referenced axis for anything else."""
    axes = {node.index for node in walk(e) if isinstance(node, Var) and node.kind == "x"}
    if not axes:
        return {}
    if isinstance(e, Neg):
        return _x_degrees(e.arg)
    if isinstance(e, Call) and e.fn in ("cos", "sin"):
        degrees = _character_degrees(e.arg)
        if degrees is not None:
            return degrees
    if isinstance(e, BinOp):
        left, right = _x_degrees(e.left), _x_degrees(e.right)
        if e.op in "+-":
            return {j: max(left.get(j, 0), right.get(j, 0)) for j in axes}
        if e.op == "*":
            return {j: left.get(j, 0) + right.get(j, 0) for j in axes}
        if e.op == "/" and not right:
            return left
        if e.op == "^":
            k = _constant(e.right)
            if k is not None and k >= 0 and k.is_integer():
                return {j: d * int(k) if k else 0 for j, d in left.items()}
    # bare x_j, exp/abs of x, x in a divisor or an exponent
    return dict.fromkeys(axes, math.inf)


def _character_degrees(arg: SymbolExpr) -> dict[int, int] | None:
    """{j: |m_j|} when arg = sum_j 2*pi*m_j*x_j plus an x-free offset
    with every m_j an integer, else None."""
    coeffs = _linear_in_x(arg)
    if coeffs is None:
        return None
    degrees = {}
    for j, c in coeffs.items():
        m = c / (2 * math.pi)
        if abs(m - round(m)) > 1e-12 * max(1.0, abs(m)):
            return None
        degrees[j] = abs(round(m))
    return degrees


def _linear_in_x(e: SymbolExpr) -> dict[int, float] | None:
    """The coefficients {j: c_j} when e = sum_j c_j*x_j plus an x-free
    offset with constant c_j, else None."""
    if not references(e, ("x",)):
        return {}
    if isinstance(e, Var):
        return {e.index: 1.0}
    if isinstance(e, Neg):
        inner = _linear_in_x(e.arg)
        return None if inner is None else {j: -c for j, c in inner.items()}
    if not isinstance(e, BinOp):
        return None
    if e.op in "+-":
        left, right = _linear_in_x(e.left), _linear_in_x(e.right)
        if left is None or right is None:
            return None
        sign = 1.0 if e.op == "+" else -1.0
        return {j: left.get(j, 0.0) + sign * right.get(j, 0.0) for j in left.keys() | right.keys()}
    if e.op not in "*/":
        return None
    scale_side, linear_side = e.left, e.right
    if e.op == "/" or references(e.left, ("x",)):
        scale_side, linear_side = e.right, e.left
    c, inner = _constant(scale_side), _linear_in_x(linear_side)
    if c is None or inner is None or (e.op == "/" and c == 0):
        return None
    scale = c if e.op == "*" else 1.0 / c
    return {j: scale * v for j, v in inner.items()}


def _constant(e: SymbolExpr) -> float | None:
    """The finite value of a tree that references no variable, else None."""
    if references(e, VAR_KINDS):
        return None
    try:
        value = float(eval_expr(e, None, None))
    except EvalError:
        return None
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# Expression -> Symbol assembly


def _as_ast(expr, n: int) -> SymbolExpr:
    return parse(expr, n) if isinstance(expr, str) else expr


def to_symbol(
    main,
    *,
    n: int,
    order: float,
    rho: float = 1.0,
    main_im=None,
    classical_terms=(),
    side: str = "discrete",
):
    """Assemble a Symbol from expression text (or parsed trees).

    classical_terms is a sequence of (degree, angular_expr) pairs, ()
    when none is declared; Symbol checks that term j has degree
    order - j and that the order is finite.  Angular expressions use
    theta1..thetan and x1..xn (no xi).  The main expression may be
    complex-valued via the optional imaginary part main_im.  The
    x_bandwidth is the largest over main, main_im and every term.
    """
    main_ast = _as_ast(main, n)
    im_ast = _as_ast(main_im, n) if main_im is not None else None
    for ast in (main_ast, im_ast):
        if ast is not None and references(ast, ("theta",)):
            raise UsageError("main expression must not reference theta variables")

    def func(first, x):
        real = eval_expr(main_ast, first, x)
        if im_ast is None:
            return real
        return real + 1j * eval_expr(im_ast, first, x)

    terms, asts = [], [ast for ast in (main_ast, im_ast) if ast is not None]
    for degree, angular_expr in classical_terms:
        ast = _as_ast(angular_expr, n)
        if references(ast, ("xi",)):
            raise UsageError("angular parts must use theta, not xi")
        terms.append(ClassicalTerm(float(degree), _angular_fn(ast)))
        asts.append(ast)

    bandwidth = max(x_bandwidth(ast) for ast in asts)
    return Symbol(func, float(order), float(rho), side, tuple(terms), bandwidth)


def _angular_fn(ast: SymbolExpr):
    def angular(x, theta):
        return eval_expr(ast, None, x, theta)

    return angular
