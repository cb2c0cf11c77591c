"""One grammar for jets and expressions.

jetring._Parser holds the only sum/product/factor rules; the jet parser
builds a jetring._Poly through them and the expression parser builds
trees through symfun's smart constructors.  The two copies of the rules
they replaced are kept in tests/scalar_reference.py (PolyParser with its
own dict arithmetic, and ExprParser).  On every text drawn from the
grammar, jet_parse must give the reference's jet, with the nonzero
coefficients of the reference's own dict polynomial (so that a fault in
the Jet constructor, which both parsers share, shows too), or raise the
same error with the same message; expr_parse must give an equal tree,
or raise the same error (its position may differ: see
test_exponent_errors_point_at_the_exponent).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from jetideals.errors import DomainError, ParseError
from jetideals.jetring import RingSignature, jet_parse, variable_names
from jetideals.symfun import expr_parse

# " " and "" juxtapose: "2x" and "x(x + y)" are products
JOINS = (" + ", " - ", "*", " / ", "/", " ", "")


def _text(rng, names, depth=4):
    """A random text of the grammar over `names`: numbers (integers, a
    literal 0, decimals, p/q), names, chains of operands joined by
    + - * / or juxtaposition ("2x", "x(x + y)"), parentheses, unary
    minus, and ^k for k in -2..4 (of the last factor before it)."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice([
            rng.choice(names), rng.choice(names), "0", str(rng.randint(0, 12)),
            f"{rng.randint(0, 9)}.{rng.randint(0, 99)}",
            f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"])
    if r < 0.6:
        out = _text(rng, names, depth - 1)
        for _ in range(rng.randint(1, 3)):
            out += rng.choice(JOINS) + _text(rng, names, depth - 1)
        return out
    sub = _text(rng, names, depth - 1)
    if r < 0.75:
        return f"({sub})"
    if r < 0.85:
        return f"-{sub}"
    return f"{sub}^{rng.randint(-2, 4)}"


def _outcome(parse, *args):
    try:
        return parse(*args)
    except Exception as exc:        # the class and message must agree
        return type(exc), str(exc)


def _unplaced(outcome):
    """outcome without the position of an exponent error: a bad exponent
    after '-' ("x^-1.5") is now reported at the '-', where the exponent
    starts, as a jet reports it."""
    if isinstance(outcome, tuple) and outcome[1].startswith("exponent"):
        return outcome[0], "exponent must be an integer"
    return outcome


@settings(max_examples=600, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4),
       n=st.integers(1, 3), truncate=st.booleans())
def test_jets_parse_as_the_reference_parser(seed, m, n, truncate):
    text = _text(random.Random(seed), variable_names(n))
    sig = RingSignature(m, n)
    got = _outcome(jet_parse, text, sig, truncate)
    want = _outcome(ref.jet_parse, text, sig, truncate)
    assert got == want
    if not isinstance(want, tuple):
        poly = ref.PolyParser(text, n).parse()
        assert got.coeffs == {k: v for k, v in poly.items()
                              if v and sum(k) <= m}


@settings(max_examples=600, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3))
def test_expressions_parse_as_the_reference_parser(seed, n):
    # the expression grammar's names as well, on the first coordinate
    names = variable_names(n) + ("norm(x)", "abs2()", "theta(x, 1/4)")
    text = _text(random.Random(seed), names)
    assert (_unplaced(_outcome(expr_parse, text, n))
            == _unplaced(_outcome(ref.expr_parse, text, n)))


@pytest.mark.parametrize("text,message", [
    ("x^-1", "exponent must be a non-negative integer (at position 2)"),
    ("x^1.5", "exponent must be a non-negative integer (at position 2)"),
    ("x/y", "division by a non-constant polynomial (at position 1)"),
    ("x/0", "division by zero (at position 1)"),
    ("x/(y - y)", "division by zero (at position 1)"),
    ("norm(x)", "unknown variable 'norm' (at position 0)")])
def test_jet_rules(text, message):
    sig = RingSignature(2, 2)
    for parse in (jet_parse, ref.jet_parse):
        with pytest.raises(ParseError) as info:
            parse(text, sig)
        assert str(info.value) == message


def test_juxtaposition_and_literal_zero_keep_the_reference_order():
    sig = RingSignature(3, 2)
    y_plus_1 = {(0, 0): 1, (0, 1): 1}
    for text, coeffs in (("2x(x + y)", {(2, 0): 2, (1, 1): 2}),
                         ("0 + (y + 1)", y_plus_1),
                         ("-0 + (y + 1)", y_plus_1),
                         ("0/2 + (y + 1)", y_plus_1),
                         ("0^1 + (y + 1)", y_plus_1),
                         ("x^0", {(0, 0): 1})):
        got = jet_parse(text, sig)
        # a literal 0 adds no term, and juxtaposition multiplies
        assert got == ref.jet_parse(text, sig) and got.coeffs == coeffs
    assert jet_parse("2x", sig) == jet_parse("2*x", sig)


@pytest.mark.parametrize("text", ["x^-1.5", "x^-y", "x^y", "x^"])
def test_exponent_errors_point_at_the_exponent(text):
    # the exponent starts at position 2 in both grammars
    with pytest.raises(ParseError, match="at position 2"):
        expr_parse(text, 2)
    with pytest.raises(ParseError, match="at position 2"):
        jet_parse(text, RingSignature(2, 2))


def test_expression_rules():
    # an expression divides by anything, and a power may be negative;
    # dividing by the constant 0 is rejected as the tree is built
    assert expr_parse("x^-1", 1) == ref.expr_parse("x^-1", 1)
    assert expr_parse("x/y", 2) == ref.expr_parse("x/y", 2)
    for parse in (expr_parse, ref.expr_parse):
        with pytest.raises(DomainError, match="division by constant zero"):
            parse("x/0", 1)
        with pytest.raises(ParseError, match="exponent must be an integer"):
            parse("x^1.5", 1)
        # no name of the grammar refers to a gauge
        with pytest.raises(ParseError) as info:
            parse("gauge(sqrt, x)", 2)
        assert str(info.value) == "unknown name 'gauge' (at position 0)"


def test_decimal_literals_parse_exactly():
    # a decimal was rounded to a denominator of at most 10^12, so a
    # literal with 13 places read 0 (and a cutoff scale of 0 raised)
    jet = jet_parse("0.0000000000001*x + y", RingSignature(2, 2))
    assert jet.coeffs == {(1, 0): Fraction(1, 10 ** 13), (0, 1): 1}
    cutoff = expr_parse("theta(norm(x,y), 0.0000000000005)", 2)
    assert cutoff.scale == Fraction(1, 2 * 10 ** 12)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.text(alphabet="0123456789", min_size=1, max_size=40))
def test_every_decimal_literal_is_its_exact_value(whole, places):
    text = f"{whole}.{places}"
    value = whole + Fraction(int(places), 10 ** len(places))
    assert jet_parse(f"{text}*x", RingSignature(1, 1)).coeffs.get((1,)) \
        == (value or None)
    assert expr_parse(f"{text}*x", 1) == expr_parse(f"{value}*x", 1)
