import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab.dsl import (
    DimensionError,
    EvalError,
    ParseError,
    _Token,
    _tokenize,
    eval_expr,
    parse,
    to_symbol,
    unparse,
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
