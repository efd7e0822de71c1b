import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab.dsl import (
    FUNCTIONS,
    MAX_NESTING,
    BinOp,
    Bracket,
    Call,
    DimensionError,
    EvalError,
    FreqNorm,
    Neg,
    Num,
    ParseError,
    Pi,
    Var,
    _coord,
    _Parser,
    _Token,
    _tokenize,
    _vec,
    eval_expr,
    parse,
    to_symbol,
    unparse,
    x_bandwidth,
)
from nclab.errors import UsageError

X = np.array([0.0])


def ev(text, n=1, first=None, x=None, theta=None):
    return eval_expr(parse(text, n), first, x, theta)


def test_bracket_at_zero():
    assert ev("(1+|xi|^2)^(-1/2)", first=np.array([0.0])) == pytest.approx(1.0)


def test_power_binds_tighter_than_times():
    assert ev("2*xi1^2", first=np.array([3.0])) == pytest.approx(18.0)


def test_unclosed_call_position():
    with pytest.raises(ParseError) as err:
        parse("cos(", 1)
    assert err.value.offset == 4


def test_bracket_value():
    assert ev("<xi>^(-1)", first=np.array([1.0])) == pytest.approx(1 / math.sqrt(2))


def test_torus_expression():
    assert ev("1 + 0.5*cos(2*pi*x1)", x=np.array([0.0])) == pytest.approx(1.5)


def test_division_by_zero_is_eval_error():
    with pytest.raises(EvalError):
        ev("|xi|^(-1)", first=np.array([0.0]))
    with pytest.raises(EvalError):
        ev("1/x1", x=np.array([0.0]))


def test_power_right_associative():
    assert ev("2^3^2") == pytest.approx(512.0)


def test_unary_minus_below_power():
    assert ev("-x1^2", x=np.array([3.0])) == pytest.approx(-9.0)
    assert ev("(-x1)^2", x=np.array([3.0])) == pytest.approx(9.0)


def test_power_negative_exponent():
    assert ev("2^-2") == pytest.approx(0.25)


def test_dimension_error():
    with pytest.raises(DimensionError):
        parse("xi2", 1)
    parse("xi2", 2)  # fine at n=2


def test_unknown_name():
    with pytest.raises(ParseError):
        parse("tan(x1)", 1)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("1 2", 1)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x1", 1)


def test_unicode_minus():
    assert ev("3 − 1") == pytest.approx(2.0)


# twenty hand-coded expressions, evaluated against direct host arithmetic
_CASES = [
    ("1+2*3", lambda xi, x: 1 + 2 * 3),
    ("(1+2)*3", lambda xi, x: 9.0),
    ("2^10", lambda xi, x: 1024.0),
    ("xi1", lambda xi, x: xi[0]),
    ("x1", lambda xi, x: x[0]),
    ("-xi1+x1", lambda xi, x: -xi[0] + x[0]),
    ("xi1*x1", lambda xi, x: xi[0] * x[0]),
    ("xi1/2", lambda xi, x: xi[0] / 2),
    ("cos(2*pi*x1)", lambda xi, x: math.cos(2 * math.pi * x[0])),
    ("sin(2*pi*x1)", lambda xi, x: math.sin(2 * math.pi * x[0])),
    ("exp(-xi1^2)", lambda xi, x: math.exp(-xi[0] ** 2)),
    ("abs(xi1)", lambda xi, x: abs(xi[0])),
    ("|xi|", lambda xi, x: abs(xi[0])),
    ("<xi>", lambda xi, x: math.sqrt(1 + xi[0] ** 2)),
    ("<xi>^(-1)", lambda xi, x: 1 / math.sqrt(1 + xi[0] ** 2)),
    ("(1+0.5*cos(2*pi*x1))*<xi>^(-1)", lambda xi, x: (1 + 0.5 * math.cos(2 * math.pi * x[0])) / math.sqrt(1 + xi[0] ** 2)),
    ("1+xi1+xi1^2/2", lambda xi, x: 1 + xi[0] + xi[0] ** 2 / 2),
    ("2^-xi1^2", lambda xi, x: 2.0 ** -(xi[0] ** 2)),
    ("x1-x1^2", lambda xi, x: x[0] - x[0] ** 2),
    ("pi*xi1", lambda xi, x: math.pi * xi[0]),
]


def test_eval_agrees_with_host_at_random_points():
    rng = np.random.default_rng(7)
    for text, fn in _CASES:
        ast = parse(text, 1)
        for _ in range(100):
            xi = rng.uniform(0.2, 3.0, size=1)
            x = rng.uniform(0.0, 1.0, size=1)
            got = eval_expr(ast, xi, x)
            want = fn(xi, x)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14), text


def test_roundtrip_corpus():
    from expr_corpus import CORPUS

    assert len(CORPUS) >= 50
    for text in CORPUS:
        ast = parse(text, 2)
        printed = unparse(ast)
        assert parse(printed, 2) == ast, f"{text!r} -> {printed!r}"


@given(st.text(max_size=60))
@settings(max_examples=300)
def test_parser_never_panics(text):
    try:
        parse(text, 2)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)


# each at MAX_NESTING levels: groups, calls, minus-groups, a '^' chain,
# a sum chain, a product whose first factor sits deepest
NESTED_AT_THE_LIMIT = {
    "groups": "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING,
    "calls": "cos(" * (MAX_NESTING - 2) + "2*pi*x1" + ")" * (MAX_NESTING - 2),
    "minus": "-(" * (MAX_NESTING // 2) + "x1" + ")" * (MAX_NESTING // 2),
    "powers": "^".join(["x1"] * (MAX_NESTING + 1)),
    "sum": "+".join(["x1"] * (MAX_NESTING + 1)),
    "product": "*".join(["cos(2*pi*x1)"] * (MAX_NESTING - 2)),
}


@pytest.mark.parametrize("text", list(NESTED_AT_THE_LIMIT.values()), ids=list(NESTED_AT_THE_LIMIT))
def test_nesting_at_the_limit_parses_evaluates_and_round_trips(text):
    ast = parse(text, 1)
    assert np.all(np.isfinite(eval_expr(ast, np.array([0.5]), np.array([0.25]))))
    assert parse(unparse(ast), 1) == ast
    assert x_bandwidth(ast) >= 1


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 400 + "x1" + ")" * 400, MAX_NESTING),  # the first '(' past the limit
        ("cos(" * 300 + "x1" + ")" * 300, 4 * MAX_NESTING + 3),
        ("+".join(["x1"] * (MAX_NESTING + 2)), 3 * MAX_NESTING + 2),  # the operator deepening the chain
        ("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING + "^2", 2 * MAX_NESTING + 2),
    ],
    ids=["groups", "calls", "sum", "powered-groups"],
)
def test_nesting_past_the_limit_is_a_parse_error(text, offset):
    with pytest.raises(ParseError, match=f"at most {MAX_NESTING} levels of nesting") as err:
        parse(text, 1)
    assert err.value.offset == offset


@pytest.mark.parametrize("text", ["x\u00b2", "xi1\u00b2", "theta\u00b9"])
def test_superscript_digit_index_is_a_parse_error(text):
    # str.isdigit() accepts superscripts, which int() refuses
    with pytest.raises(ParseError):
        parse(text, 2)


def test_zero_to_negative_power_is_eval_error():
    with pytest.raises(EvalError, match="power"):
        ev("0^(-1)")


@given(st.binary(max_size=40))
@settings(max_examples=200)
def test_parser_survives_bytes(data):
    text = data.decode("utf-8", errors="replace")
    try:
        parse(text, 1)
    except ParseError:
        pass


def _reference_tokenize(text: str) -> list[_Token]:
    """The hand-written character scanner that _TOKEN replaced."""
    minus = {"-", "−"}  # ASCII hyphen and unicode minus
    toks: list[_Token] = []
    i, L = 0, len(text)
    while i < L:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in minus:
            toks.append(_Token("OP", "-", i))
            i += 1
            continue
        if c in "+*/^()":
            toks.append(_Token("OP", c, i))
            i += 1
            continue
        if c == "|":
            if text[i : i + 4] == "|xi|":
                toks.append(_Token("NORM", "|xi|", i))
                i += 4
                continue
            raise ParseError(i, "'|xi|'", text)
        if c == "<":
            if text[i : i + 4] == "<xi>":
                toks.append(_Token("BRACKET", "<xi>", i))
                i += 4
                continue
            raise ParseError(i, "'<xi>'", text)
        if c.isdigit() or (c == "." and i + 1 < L and text[i + 1].isdigit()):
            j = i
            while j < L and text[j].isdigit():
                j += 1
            if j < L and text[j] == ".":
                j += 1
                while j < L and text[j].isdigit():
                    j += 1
            # optional exponent, only if it is actually followed by digits
            if j < L and text[j] in "eE":
                k = j + 1
                if k < L and (text[k] in "+-" or text[k] in minus):
                    k += 1
                if k < L and text[k].isdigit():
                    while k < L and text[k].isdigit():
                        k += 1
                    j = k
            try:
                val = float(text[i:j].replace("−", "-"))
            except ValueError:
                raise ParseError(i, "number", text) from None
            toks.append(_Token("NUM", text[i:j], i, val))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < L and text[j].isalpha():
                j += 1
            while j < L and text[j].isdigit():
                j += 1
            toks.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(i, "expression character", text)
    toks.append(_Token("EOF", "", L))
    return toks


def _lexed(tokenize, text):
    """(kind, text, pos, value) of every token, or the ParseError's
    (offset, expected)."""
    try:
        return [(t.kind, t.text, t.pos, t.value) for t in tokenize(text)]
    except ParseError as err:
        return (err.offset, err.expected)


# grammar characters, ASCII and Arabic-Indic digits, the number letters,
# the unicode minus, a non-ASCII letter, tab, em space and characters
# outside the grammar; whole tokens are drawn too, so that inputs parse
_LEX_CHARS = "+-*/^()|<>xithapcosnb" "0123456789" "٠١٢٣٤٥٦٧٨٩" ".eE−é" "\t\u2003_!#"
_LEX_PIECES = ["xi1", "x2", "theta1", "pi", "cos(", "exp(", "|xi|", "<xi>", "2.5e−1", ".5", "1.", "3e+2"]


@given(st.lists(st.sampled_from(list(_LEX_CHARS) + _LEX_PIECES), max_size=20).map("".join))
@settings(max_examples=500)
def test_token_pattern_lexes_as_the_reference_scanner(text):
    assert _lexed(_tokenize, text) == _lexed(_reference_tokenize, text)


@pytest.mark.parametrize(
    "text, offset, expected",
    [
        # numerals that are no decimal digit lex inside a name; the old
        # scanner read "2²" as a bad number and "½" as a bad character
        ("2²", 1, "end of input"),
        ("½", 0, "variable, 'pi' or function name"),
        ("x²", 0, "variable, 'pi' or function name"),
    ],
)
def test_non_decimal_numerals_are_refused(text, offset, expected):
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert (err.value.offset, err.value.expected) == (offset, expected)


class _ReferenceParser(_Parser):
    """The parser with one method per precedence level that the _OPS
    table replaced; factor and atom are unchanged and call this expr."""

    def expr(self):
        e = self.term()
        while self.at_op("+", "-"):
            op = self.take().text
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.at_op("*", "/"):
            op = self.take().text
            e = BinOp(op, e, self.factor())
        return e


def _reference_eval(e, first, x, theta=None):
    """eval_expr with one branch per operator, as before the _OPS table."""
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
        return -_reference_eval(e.arg, first, x, theta)
    if isinstance(e, Call):
        with np.errstate(over="ignore", invalid="ignore"):
            out = FUNCTIONS[e.fn](_reference_eval(e.arg, first, x, theta))
        _reference_check_finite(out, e)
        return out
    lv = _reference_eval(e.left, first, x, theta)
    rv = _reference_eval(e.right, first, x, theta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if e.op == "+":
            out = lv + rv
        elif e.op == "-":
            out = lv - rv
        elif e.op == "*":
            out = lv * rv
        elif e.op == "/":
            out = np.divide(lv, rv)
        else:
            out = np.power(lv, rv)
    _reference_check_finite(out, e)
    return out


def _reference_check_finite(out, node):
    if not np.all(np.isfinite(out)):
        if isinstance(node, BinOp) and node.op == "/":
            reason = "division by zero"
        elif isinstance(node, BinOp) and node.op == "^":
            reason = "invalid power (zero or negative base)"
        else:
            reason = "non-finite result"
        raise EvalError(_reference_unparse(node), reason)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "NEG": 3, "^": 4, "ATOM": 5}


def _prec(e):
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["NEG"]
    return _PREC["ATOM"]


def _reference_unparse(e):
    """unparse with a parenthesis rule per operator, as before the _OPS table."""
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
        return f"{e.fn}({_reference_unparse(e.arg)})"
    if isinstance(e, Neg):
        inner = _reference_unparse(e.arg)
        if isinstance(e.arg, (BinOp,)) and e.arg.op != "^":
            inner = f"({inner})"
        elif isinstance(e.arg, Neg):
            inner = f"({inner})"
        return f"-{inner}"
    left, right = _reference_unparse(e.left), _reference_unparse(e.right)
    if e.op == "^":
        if _prec(e.left) < _PREC["ATOM"]:
            left = f"({left})"
        if isinstance(e.right, BinOp) and e.right.op != "^":
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(e.left) < _PREC[e.op]:
        left = f"({left})"
    if _prec(e.right) <= _PREC[e.op]:
        right = f"({right})"
    return f"{left}{e.op}{right}"


def _outcomes(parser, evaluate, printer, text):
    """The AST, its printed text and its values (by type, dtype, shape
    and bytes, or the EvalError's message) with variables bound to
    arrays, bound to single points and unbound; or the ParseError's
    (type, offset, expected)."""
    try:
        ast = parser(text, 2).parse()
    except ParseError as err:
        return (type(err), err.offset, err.expected)
    values = []
    for args in [(_FIRST, _X, _THETA), (_FIRST[1], _X[1], _THETA[1]), (None, None, None)]:
        try:
            out = evaluate(ast, *args)
            values.append((type(out), np.asarray(out).dtype, np.shape(out), np.asarray(out).tobytes()))
        except EvalError as err:
            values.append(str(err))
    return ast, printer(ast), values


# row 0 puts |xi| at its pole, and 1e200 overflows when squared
_FIRST = np.array([[0.0, 0.0], [1.5, -2.0], [3.0, 0.25]])
_X = np.array([[0.0, 0.0], [0.25, 0.75], [0.5, 0.1]])
_THETA = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]])
_ATOMS = ["0", "1", "2", "0.5", "3", "1e200", "x1", "x2", "xi1", "xi2", "theta1", "pi", "|xi|", "<xi>"]
# a binary operator, with a unary minus after it or not; operands are
# joined without parentheses, so precedence and associativity decide
_JOINS = ["+", "-", "*", "/", "^", "+-", "−", "*-", "/-", "^-", "--"]
_WRAPS = [("-", ""), ("(", ")"), ("-(", ")"), ("cos(", ")"), ("exp(", ")"), ("abs(", ")")]
_expressions = st.recursive(
    st.sampled_from(_ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(_JOINS), inner).map("".join),
        st.tuples(st.sampled_from(_WRAPS), inner).map(lambda t: t[0][0] + t[1] + t[0][1]),
    ),
    max_leaves=10,
)
# malformed inputs as well: tokens in any order
_token_soup = st.lists(st.sampled_from(_ATOMS + _JOINS + ["(", ")", "cos(", " "]), max_size=12).map("".join)


@given(st.one_of(_expressions, _token_soup))
@settings(max_examples=500)
def test_operator_table_parses_prints_and_evaluates_as_the_reference(text):
    assert _outcomes(_Parser, eval_expr, unparse, text) == _outcomes(
        _ReferenceParser, _reference_eval, _reference_unparse, text
    )


def test_to_symbol_with_declared_term():
    s = to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")])
    assert s.classical
    term = s.term(-1.0)
    assert term is not None
    assert term.angular(np.array([0.3]), np.array([1.0])) == pytest.approx(1.0)


def test_to_symbol_x_dependent_term():
    s = to_symbol(
        "(1+0.5*cos(2*pi*x1))*<xi>^(-1)",
        n=1,
        order=-1,
        classical_terms=[(-1, "1+0.5*cos(2*pi*x1)")],
    )
    got = s.classical[0].angular(np.array([0.0]), np.array([-1.0]))
    assert got == pytest.approx(1.5)


def test_to_symbol_band_covers_the_declared_terms():
    # main is x-free but the term is not: the residue must average the
    # term over the torus (mean 1, so 2), not read it at x = 0 (2, so 4)
    from nclab.residue import dixmier_trace_formula

    s = to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1+cos(2*pi*x1)")])
    assert s.x_bandwidth == 1
    assert dixmier_trace_formula(s, 1).value == pytest.approx(2.0, abs=1e-12)
    # a consistent classical symbol keeps its main expression's band
    assert to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1")]).x_bandwidth == 0
    im = "0.5*cos(2*pi*2*x1)*<xi>^(-1)"
    assert to_symbol("<xi>^(-1)", main_im=im, n=1, order=-1, classical_terms=[(-1, "1")]).x_bandwidth == 2


def test_to_symbol_ladder_violation():
    with pytest.raises(UsageError):
        to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "1"), (-3, "1")])


@pytest.mark.parametrize("order, degree", [(-1, math.nan), (math.nan, -1)], ids=["degree", "order"])
def test_to_symbol_ladder_refuses_nan(order, degree):
    # every comparison with nan is false, so `abs(d - e) > tol` let it through
    with pytest.raises(UsageError, match="ladder"):
        to_symbol("<xi>^(-1)", n=1, order=order, classical_terms=[(degree, "1")])


@pytest.mark.parametrize("order", [math.nan, math.inf])
def test_to_symbol_refuses_a_non_finite_order_without_terms(order):
    # without declared terms no ladder comparison sees the order
    with pytest.raises(UsageError, match="order must be finite"):
        to_symbol("<xi>^(-1)", n=1, order=order)


def test_to_symbol_complex_pair():
    s = to_symbol("cos(2*pi*x1)", main_im="-xi1", n=1, order=1)
    got = s(np.array([2.0]), np.array([0.25]))
    assert got == pytest.approx(math.cos(math.pi / 2) - 2j)


def test_angular_cannot_use_xi():
    with pytest.raises(UsageError):
        to_symbol("<xi>^(-1)", n=1, order=-1, classical_terms=[(-1, "<xi>")])


def test_main_cannot_use_theta():
    with pytest.raises(UsageError):
        to_symbol("theta1", n=1, order=0)


@pytest.mark.parametrize(
    "main, main_im, want",
    [
        ("(1+|xi|^2)^(-1)", None, 0),  # x-free
        ("cos(2*pi*3*x1+xi1)", None, 3),  # character of 2*pi*m*x_j, xi in the offset
        ("sin(-2*pi*2*x2)", None, 2),
        ("cos(2*pi*(x1-3*x2))", None, 3),
        ("-cos(2*pi*x1)", None, 1),
        ("cos(0*x1)", None, 1),  # floor of 1 for a tree that references x
        ("cos(-(2*pi*x1))", None, 1),  # negated, scaled on the right, divided by a constant
        ("cos(x1*2*pi)", None, 1),
        ("cos(2*pi*x1/1)", None, 1),
        ("cos(x1/(1/(2*pi)))", None, 1),
        ("cos(pi*x1)", None, math.inf),  # non-integer multiple
        ("cos(2*pi*x1)+sin(2*pi*3*x2)", None, 3),  # max
        ("cos(2*pi*x1)-sin(2*pi*3*x2)", None, 3),
        ("cos(2*pi*x1)*sin(2*pi*2*x1)", None, 3),  # sum on one axis
        ("cos(2*pi*x1)*sin(2*pi*2*x2)", None, 2),  # max over the axes
        ("cos(2*pi*x1)*cos(2*pi*x2)", None, 1),
        ("(1+0.5*cos(2*pi*x1))*(1+0.5*cos(2*pi*x2))*(1+|xi|^2)^(-1)", None, 1),
        ("cos(2*pi*x1)^2*cos(2*pi*x2)", None, 2),
        ("(1+cos(2*pi*2*x1))/<xi>", None, 2),  # x-free divisor
        ("(1+cos(2*pi*x1))^3", None, 3),  # non-negative integer power
        ("(1+cos(2*pi*x1))^0", None, 1),
        ("(1+cos(2*pi*x1))^0.5", None, math.inf),
        ("(2+cos(2*pi*x1))^(-1)", None, math.inf),
        ("(1+cos(2*pi*x1))^xi1", None, math.inf),
        ("x1", None, math.inf),  # bare x
        ("exp(cos(2*pi*x1))", None, math.inf),
        ("abs(cos(2*pi*x1))", None, math.inf),
        ("1/(2+cos(2*pi*x1))", None, math.inf),  # x-dependent divisor
        ("cos(2*pi*xi1*x1)", None, math.inf),  # coefficient on x depends on xi
        ("cos(2*pi*x1/0)", None, math.inf),  # division by zero
        ("cos(x1^2)", None, math.inf),  # x under a power or abs is not linear
        ("cos(abs(x1))", None, math.inf),
        ("cos(2*pi*x1+x1^2)", None, math.inf),
        ("(1+cos(2*pi*x1))^(1/0)", None, math.inf),  # exponent that is not a finite constant
        ("cos(1e400*x1)", None, math.inf),  # non-finite constants
        ("(1+cos(2*pi*x1))^1e400", None, math.inf),
        ("<xi>^(-1)", "cos(2*pi*2*x1)*<xi>^(-2)", 2),  # main_im counts
        ("cos(2*pi*x1)", "x2", math.inf),
    ],
)
def test_x_bandwidth_rules(main, main_im, want):
    s = to_symbol(main, n=2, order=0, main_im=main_im)
    assert s.x_bandwidth == want
