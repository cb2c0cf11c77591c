"""One exact zero test for the identity residuals.

symbolic_residual_zero, the C branch of check_annulus_condition and the
rescaled identity of C* / C** all decide p - sum S_l Q_l - F = 0 with
verifier._identity_zero.  A rational residual is decided in a polynomial
ring over QQ: zero iff the numerator of its terms' sum is 0.  A residual
with a square root (a Norm node outside any cutoff) goes to
verifier._residual_zero, which tests the numerator of together() when it
is a polynomial and otherwise calls sympy.simplify."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from jetideals import verifier
from jetideals.corpus import _intro_annulus_inputs, case_by_id, run_case
from jetideals.directions import jet_to_sympy
from jetideals.geometry import Direction
from jetideals.ideal import JetIdeal
from jetideals.errors import DomainError
from jetideals.jetring import Jet, RingSignature, jet_parse
from jetideals.symfun import (DEFAULT_CUTOFF, Const, Coord, Cutoff, Gauge,
                              add, div, expr_parse, ipow, mul)
from jetideals.verifier import (ImplicationCertificate, _identity_zero,
                                _residual_zero, check_annulus_condition,
                                check_strong_directional, expr_to_sympy,
                                symbolic_residual_zero)

N = 2
SIG = RingSignature(3, N)
SYMS = sympy.symbols(f"x0:{N}", real=True)


# ---------------------------------------------------------------------------
# Random rational residuals: the numerator test agrees with simplify.
# ---------------------------------------------------------------------------

small = st.fractions(-3, 3, max_denominator=4)
coords = st.builds(Coord, st.integers(0, N - 1))
# denominators that are not identically zero
dens = st.one_of(
    st.builds(Const, small.filter(lambda c: c != 0)),
    coords,
    st.builds(lambda c, k: add(mul(c, c), Const(k)), coords,
              st.integers(1, 3)))


def _extend(children):
    pairs = st.lists(children, min_size=2, max_size=3)
    return st.one_of(st.builds(lambda ts: add(*ts), pairs),
                     st.builds(lambda fs: mul(*fs), pairs),
                     st.builds(div, children, dens))


trees = st.recursive(st.one_of(st.builds(Const, small), coords), _extend,
                     max_leaves=6)
jets = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), small,
    max_size=3).map(lambda coeffs: Jet(SIG, coeffs))


def _sym(e):
    return expr_to_sympy(e, SYMS)


def _two_ways(a, b, c, d, jet):
    """Residuals that are zero, written as two different trees."""
    ja = jet_to_sympy(jet, SYMS)
    return [
        _sym(mul(a, add(b, c))) - (_sym(mul(a, b)) + _sym(mul(a, c))),
        _sym(add(div(a, d), div(b, d))) - _sym(div(add(a, b), d)),
        ja * _sym(d) / _sym(d) - ja,
        _sym(div(mul(a, d), d)) - _sym(a),
    ]


@settings(max_examples=40, deadline=None)
@given(trees, trees, trees, dens, jets, jets, st.integers(0, 4))
def test_numerator_test_agrees_with_simplify(a, b, c, d, p, q, pick):
    candidates = _two_ways(a, b, c, d, p) + [
        # most of these are not zero
        jet_to_sympy(p, SYMS) - _sym(mul(a, b)) * jet_to_sympy(q, SYMS),
    ]
    residual = candidates[pick]
    want = sympy.simplify(sympy.together(residual)) == 0
    assert _residual_zero(residual, SYMS) == want
    if pick < 4:
        assert want


@pytest.mark.parametrize("residual,zero", [
    (SYMS[0] / (SYMS[1] ** 2 + 1) - SYMS[0] * (SYMS[1] ** 2 + 1) ** -1,
     True),
    ((SYMS[0] + 1) ** 2 / SYMS[1] - (SYMS[0] ** 2 + 2 * SYMS[0] + 1)
     / SYMS[1], True),
    (SYMS[0] / SYMS[1] - SYMS[1] / SYMS[0], False),
    (sympy.Rational(1, 3) * SYMS[0] ** 2, False),
])
def test_rational_residuals_skip_simplify(monkeypatch, residual, zero):
    monkeypatch.setattr(verifier, "sympy", _SympyWithoutSimplify())
    assert _residual_zero(residual, SYMS) is zero


class _SympyWithoutSimplify:
    """sympy as the verifier module sees it, less simplify (the allowed
    sets of directions.py still use it)."""

    def __getattr__(self, name):
        if name == "simplify":
            raise AssertionError("sympy.simplify called by the verifier")
        return getattr(sympy, name)


# ---------------------------------------------------------------------------
# The ring decision agrees with _residual_zero on rational residuals.
# ---------------------------------------------------------------------------

# cutoffs read at their plateau: 1 for theta, 0 for its derivatives
plateau_cutoffs = st.builds(lambda i, order: Cutoff(DEFAULT_CUTOFF, Coord(i),
                                                    1, order),
                            st.integers(0, N - 1), st.integers(0, 2))
ring_trees = st.recursive(
    st.one_of(st.builds(Const, small), coords, plateau_cutoffs), _extend,
    max_leaves=6)
scales = st.fractions(Fraction(1, 9), 3, max_denominator=9)


def _jet_expr(p, rho):
    """p(rho x) as an expression tree."""
    return add(*(mul(Const(c * rho ** sum(alpha)),
                     *(ipow(Coord(i), k) for i, k in enumerate(alpha)))
                 for alpha, c in p.coeffs.items()))


def _sympy_residual(p, pairs, F, rho, f_scale, s_scale):
    residual = jet_to_sympy(p, SYMS, rho) \
        - sympy.Rational(f_scale) * expr_to_sympy(F, SYMS)
    for Q, S in pairs:
        residual -= sympy.Rational(s_scale) * expr_to_sympy(S, SYMS) \
            * jet_to_sympy(Q, SYMS, rho)
    return residual


@settings(max_examples=60, deadline=None)
@given(ring_trees, ring_trees, ring_trees, dens, jets, jets, scales, scales,
       scales, st.integers(0, 2))
def test_ring_decision_agrees_with_residual_zero(a, b, c, d, p, q, rho,
                                                 f_scale, s_scale, pick):
    S = div(add(a, b), d)
    # p(rho x) - s_scale S q(rho x), with S split into a/d + b/d: zero
    # by construction once divided by f_scale, but not as written
    split = add(_jet_expr(p, rho),
                mul(Const(-s_scale), add(div(a, d), div(b, d)),
                    _jet_expr(q, rho)))
    F = [mul(Const(1 / f_scale), split),
         mul(Const(1 / f_scale), add(split, mul(c, Coord(0)))),
         c][pick]
    want = _residual_zero(
        _sympy_residual(p, [(q, S)], F, rho, f_scale, s_scale), SYMS)
    assert _identity_zero(p, [(q, S)], F, rho, f_scale, s_scale) is want
    if pick == 0:
        assert want


@pytest.mark.parametrize("F", ["1/(x - x)", "x^2 + (x - x)/(y - y)",
                               # sympy reads x/zoo as 0, so the sympy
                               # residual of this F is zero
                               "x^2 + x/(1/(y - y))",
                               # the same with a Norm node, which sends
                               # the residual to _residual_zero
                               "x^2 + norm(x,y) - norm(x,y) + x/(1/(y - y))",
                               "x^2 + x/(1/(norm(x,y) - norm(x,y)))"])
def test_identically_zero_denominator_fails(F):
    sig = RingSignature(2, N)
    ideal = JetIdeal(sig, [jet_parse("y", sig)])
    cert = ImplicationCertificate(ideal, jet_parse("x^2", sig), [],
                                  expr_parse(F, N))
    assert symbolic_residual_zero(cert.target, [], cert.F) is False
    report = check_strong_directional(cert, Direction((1.0, 0.0)))
    assert report["identity_residual_zero"] is False
    assert report["verdict"] == "fail"


@pytest.mark.parametrize("wrap,zero", [
    ("x^2 + {}", True),
    ("x^2*theta({}, 1)", False),
    ("x^2*theta(norm(x,y), 1) + theta(x*y + {}, 2)", False),
    ("x^2*gauge(sqrt, {})", False),
    ("x^2*gauge(sqrt, x^2 + {0}) + y/(x*{0})", True)])
def test_divides_by_zero_stops_at_cutoffs_and_gauges(wrap, zero):
    # a cutoff sits on its plateau and a gauge has no symbolic form, so
    # only a division outside both of them is tested
    g = Gauge.from_function("sqrt", math.sqrt, per_octave=8)
    F = expr_parse(wrap.format("x/(y - y)"), N, gauges={"sqrt": g})
    assert verifier._divides_by_zero(F, SYMS) is zero


def test_gauge_node_has_no_symbolic_form():
    g = Gauge.from_function("sqrt", math.sqrt, per_octave=8)
    F = expr_parse("x^2*gauge(sqrt, y)", N, gauges={"sqrt": g})
    with pytest.raises(DomainError, match="GaugeRef has no symbolic form"):
        symbolic_residual_zero(jet_parse("x^2", SIG), [], F)


# ---------------------------------------------------------------------------
# Norm nodes outside any cutoff: decided by the simplify fallback.
# ---------------------------------------------------------------------------

def _counting_simplify(monkeypatch):
    calls = []
    simplify = sympy.simplify

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simplify(*args, **kwargs)

    monkeypatch.setattr(sympy, "simplify", counted)
    return calls


def test_norm_outside_a_cutoff_goes_to_simplify(monkeypatch):
    calls = _counting_simplify(monkeypatch)
    p = jet_parse("x^2 + y^2", RingSignature(2, N))
    # |x|(|x| + x) - x|x| = |x|^2: zero, but only once expanded
    F = expr_parse("norm(x,y)*(norm(x,y) + x) - x*norm(x,y)", N)
    assert symbolic_residual_zero(p, [], F) is True
    assert len(calls) == 1
    G = expr_parse("norm(x,y)*(norm(x,y) + x)", N)
    assert symbolic_residual_zero(p, [], G) is False
    assert len(calls) == 2


def test_norm_of_one_coordinate_is_not_minus_that_coordinate():
    # x^2 is not implied by <y> in the direction (1, 0): it is x^2 on the
    # x-axis.  F = (x^2 - x|x|)/2 is 0 for x > 0 and x^2 for x < 0, so F
    # is negligible near (1, 0) and the claim x^2 = F is false there.
    # Symbols declared real and not positive made sympy read |x| as -x
    # and F as x^2, which passed the identity.
    sig = RingSignature(2, N)
    ideal = JetIdeal(sig, [jet_parse("y", sig)])
    F = expr_parse("(x^2 - x*norm(x))/2", N)
    cert = ImplicationCertificate(ideal, jet_parse("x^2", sig), [], F)
    assert symbolic_residual_zero(cert.target, [], F) is False
    report = check_strong_directional(cert, Direction((1.0, 0.0)))
    assert report["negligibility"]["verdict"] == "pass"
    assert report["identity_residual_zero"] is False
    assert report["verdict"] == "fail"


# ---------------------------------------------------------------------------
# The corpus identities never need simplify.
# ---------------------------------------------------------------------------

def _golden(case_id):
    golden = Path(__file__).parent / "data" / "corpus_run_all.json"
    results = json.loads(golden.read_text())["results"]
    return next(r for r in results if r["id"] == case_id)


def _annulus(variant):
    inputs = _intro_annulus_inputs()
    sig = RingSignature(inputs["m"], inputs["n"])
    n = inputs["n"]
    return check_annulus_condition(
        variant, inputs["params"], jet_parse(inputs["p"], sig),
        [jet_parse(q, sig) for q in inputs["Q"]],
        expr_parse(inputs["F"], n), [expr_parse(s, n) for s in inputs["S"]],
        inputs["omegas"], seed=0)


@pytest.mark.parametrize("variant", ["C", "C*"])
def test_annulus_intro_identity_without_simplify(monkeypatch, variant):
    with_simplify = _annulus(variant)
    monkeypatch.setattr(verifier, "sympy", _SympyWithoutSimplify())
    report = _annulus(variant)
    assert report == with_simplify
    assert report["identity"] == {"method": "plateau-certified symbolic",
                                  "zero": True}
    assert report["verdict"] == "pass"
    if variant == "C":
        assert report == _golden("annulus-intro")["outputs"]


def test_strong_xy_without_simplify(monkeypatch):
    monkeypatch.setattr(verifier, "sympy", _SympyWithoutSimplify())
    result = json.loads(json.dumps(run_case(case_by_id("strong-xy"))))
    golden = _golden("strong-xy")
    assert result["verdict"] == golden["verdict"] == "pass"
    assert result == golden


def test_scaled_jet_to_sympy():
    p = jet_parse("x^2 - 3*x*y + y/2", RingSignature(3, N))
    assert jet_to_sympy(p, SYMS, 1) == jet_to_sympy(p, SYMS)
    assert sympy.srepr(jet_to_sympy(p, SYMS, 1)) == sympy.srepr(
        jet_to_sympy(p, SYMS))
    rho = Fraction(1, 7)
    want = jet_to_sympy(p, SYMS).subs(
        {s: sympy.Rational(1, 7) * s for s in SYMS}, simultaneous=True)
    assert sympy.expand(jet_to_sympy(p, SYMS, rho) - want) == 0
