"""One exact zero test for the identity residuals.

symbolic_residual_zero and the one annulus identity of
check_annulus_condition, C's for all three variants, decide
p - sum S_l Q_l - F = 0 with verifier._identity_zero, in one polynomial
ring over QQ: the residual is zero iff the numerator of its terms' sum
is 0.  A Norm over k >= 2 coordinates outside every cutoff is a ring
generator r with r^2 = the sum of its squared coordinates, reduced away
before each zero test; a one-coordinate norm |x_i| is read as x_i and
as -x_i, once per orthant.  Cutoffs are read at the values the caller
passes; here at their 1-plateau (_plateau_zero), while
symbolic_residual_zero leaves a tree with a cutoff undecided (None).
No sympy.simplify call is made.  The sympy test that this replaced,
expr_to_sympy and residual_zero, is kept in tests/scalar_reference.py
as the reference the random residuals are compared against, with its
sympy.simplify fallback replaced by an exact reduction.  The ring is
the package's own (jetring._Poly, which the jet parser builds too); the
sympy PolyRing it replaced is kept as scalar_reference.identity_zero,
which must reach the same decision on random trees, norms and
identically zero denominators included.  Identities at a scale rho
(p(rho x) = f F(x) + s sum S_l(x) Q_l(rho x)) enter as jets at rho x
and Const factors on the trees, and the decision must not change under
x -> rho x (expr_scale_coords): the annulus variants C* and C** rely on
that to decide C's identity."""

import contextlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import Phase, assume, given, settings, strategies as st

from jetideals import verifier
from jetideals.corpus import _intro_annulus_inputs, case_by_id, run_case
from jetideals.geometry import Direction
from jetideals.ideal import JetIdeal
from jetideals.jetring import Jet, RingSignature, jet_parse
from jetideals.symfun import (DEFAULT_CUTOFF, Const, Coord, Cutoff, Norm,
                              add, collect_cutoffs, div, expr_parse, ipow,
                              mul)
from jetideals.verifier import (ImplicationCertificate, _identity_zero,
                                check_annulus_condition,
                                check_strong_directional, expr_scale_coords,
                                symbolic_residual_zero)
from scalar_reference import (expr_to_sympy, identity_zero, jet_to_sympy,
                              residual_zero)

N = 2
SIG = RingSignature(3, N)
SYMS = sympy.symbols(f"x0:{N}", real=True)
ZERO_JET = Jet(SIG, {})


@contextlib.contextmanager
def _simplify_calls():
    """The sympy.simplify calls made inside the block."""
    calls = []
    simplify = sympy.simplify

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simplify(*args, **kwargs)

    sympy.simplify = counted
    try:
        yield calls
    finally:
        sympy.simplify = simplify


def _identity_calls(monkeypatch):
    """One list per call of verifier._identity_zero: the sympy.simplify
    calls made inside it."""
    record = []
    identity_zero = verifier._identity_zero

    def recorded(*args, **kwargs):
        with _simplify_calls() as calls:
            result = identity_zero(*args, **kwargs)
        record.append(calls)
        return result

    monkeypatch.setattr(verifier, "_identity_zero", recorded)
    return record


# ---------------------------------------------------------------------------
# Random rational residuals: the ring decision agrees with simplify.
# ---------------------------------------------------------------------------

small = st.fractions(-3, 3, max_denominator=4)
coords = st.builds(Coord, st.integers(0, N - 1))
# denominators that are not identically zero
dens = st.one_of(
    st.builds(Const, small.filter(lambda c: c != 0)),
    coords,
    st.builds(lambda c, k: add(mul(c, c), Const(k)), coords,
              st.integers(1, 3)))


def _extender(dens):
    def extend(children):
        pairs = st.lists(children, min_size=2, max_size=3)
        return st.one_of(st.builds(lambda ts: add(*ts), pairs),
                         st.builds(lambda fs: mul(*fs), pairs),
                         st.builds(div, children, dens))
    return extend


trees = st.recursive(st.one_of(st.builds(Const, small), coords),
                     _extender(dens), max_leaves=6)
jets = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), small,
    max_size=3).map(lambda coeffs: Jet(SIG, coeffs))


def _plateau_zero(p, pairs, F):
    """verifier._identity_zero with every cutoff at its 1-plateau value."""
    trees = [F] + [S for _, S in pairs]
    return _identity_zero(p, pairs, F, {cut: int(cut.order == 0)
                                        for cut in collect_cutoffs(trees)})


def _minus(a, b):
    return add(a, mul(Const(-1), b))


def _jet_expr(p, rho):
    """p(rho x) as an expression tree."""
    return add(*(mul(Const(c * rho ** sum(alpha)),
                     *(ipow(Coord(i), k) for i, k in enumerate(alpha)))
                 for alpha, c in p.coeffs.items()))


def _two_ways(a, b, c, d, jet):
    """Residuals that are zero, written as two different trees."""
    ja = _jet_expr(jet, 1)
    return [
        _minus(mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
        _minus(add(div(a, d), div(b, d)), div(add(a, b), d)),
        _minus(div(mul(ja, d), d), ja),
        _minus(div(mul(a, d), d), a),
    ]


@settings(max_examples=40, deadline=None)
@given(trees, trees, trees, dens, jets, jets, st.integers(0, 4))
def test_numerator_test_agrees_with_simplify(a, b, c, d, p, q, pick):
    candidates = _two_ways(a, b, c, d, p) + [
        # most of these are not zero
        _minus(_jet_expr(p, 1), mul(a, b, _jet_expr(q, 1))),
    ]
    residual = candidates[pick]
    want = sympy.simplify(sympy.together(expr_to_sympy(residual, SYMS))) == 0
    with _simplify_calls() as calls:
        assert symbolic_residual_zero(ZERO_JET, [], residual) is want
    assert calls == []
    if pick < 4:
        assert want


@pytest.mark.parametrize("residual,zero", [
    (expr_parse("x/(y^2 + 1) - x*(1/(y^2 + 1))", N), True),
    (expr_parse("(x + 1)^2/y - (x^2 + 2*x + 1)/y", N), True),
    (expr_parse("x/y - y/x", N), False),
    (expr_parse("x^2/3", N), False),
])
def test_rational_residuals_skip_simplify(residual, zero):
    with _simplify_calls() as calls:
        assert symbolic_residual_zero(ZERO_JET, [], residual) is zero
    assert calls == []


# ---------------------------------------------------------------------------
# The ring decision agrees with the sympy reference, norms included.
# ---------------------------------------------------------------------------

# three coordinates, so that two distinct norms over k >= 2 coordinates
# (and one over all three) can meet in one residual
N3 = 3
SIG3 = RingSignature(3, N3)
SYMS3 = sympy.symbols(f"x0:{N3}", real=True)
coords3 = st.builds(Coord, st.integers(0, N3 - 1))
norms3 = st.sampled_from([Norm((0,)), Norm((2,)), Norm((0, 1)), Norm((1, 2)),
                          Norm((0, 1, 2))])
# denominators that are not identically zero in any orthant
dens3 = st.one_of(
    st.builds(Const, small.filter(lambda c: c != 0)),
    coords3,
    st.builds(lambda c, k: add(mul(c, c), Const(k)), coords3,
              st.integers(1, 3)),
    norms3,
    st.builds(lambda r, c: add(r, Const(c)), norms3, small))
# cutoffs read at their plateau: 1 for theta, 0 for its derivatives
plateau_cutoffs = st.builds(lambda i, order: Cutoff(DEFAULT_CUTOFF, Coord(i),
                                                    1, order),
                            st.integers(0, N3 - 1), st.integers(0, 2))
ring_trees = st.recursive(
    st.one_of(st.builds(Const, small), coords3, norms3, plateau_cutoffs),
    _extender(dens3), max_leaves=6)
jets3 = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    small, max_size=3).map(lambda coeffs: Jet(SIG3, coeffs))
scales = st.fractions(Fraction(1, 9), 3, max_denominator=9)


def _jet_at(p, rho):
    """p(rho x): each coefficient times rho^|alpha|."""
    return Jet(p.sig, {alpha: c * rho ** sum(alpha)
                       for alpha, c in p.coeffs.items()})


def _at_scale(p, pairs, F, rho, f_scale, s_scale):
    """The identity p(rho x) = f_scale F(x) + s_scale sum S_l(x) Q_l(rho x)
    as the inputs (p, pairs, F) of an unscaled one: the jets at rho x,
    the scales Const factors on the trees."""
    return (_jet_at(p, rho),
            [(_jet_at(Q, rho), mul(Const(s_scale), S)) for Q, S in pairs],
            mul(Const(f_scale), F))


def _sympy_residual(p, pairs, F):
    residual = jet_to_sympy(p, SYMS3) - expr_to_sympy(F, SYMS3)
    for Q, S in pairs:
        residual -= expr_to_sympy(S, SYMS3) * jet_to_sympy(Q, SYMS3)
    return residual


@settings(max_examples=60, deadline=None)
@given(ring_trees, ring_trees, ring_trees, dens3, jets3, jets3, scales,
       scales, scales, st.integers(0, 2))
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
    case = _at_scale(p, [(q, S)], F, rho, f_scale, s_scale)
    residual = _sympy_residual(*case)
    want = residual_zero(residual, SYMS3)
    got = _plateau_zero(*case)
    assert got is want, _at_a_point(residual)
    if pick == 0:
        assert want


def _at_a_point(residual):
    """The residual at a point off every coordinate plane: nonzero means
    the identity is false (the reference is right if it said False)."""
    point = dict(zip(SYMS3, (sympy.Rational(3, 7), sympy.Rational(-5, 11),
                             sympy.Rational(2, 13))))
    value = residual.subs(point).evalf(30)
    return f"residual {residual} = {value} at {point}"


# ---------------------------------------------------------------------------
# The package's own exact ring decides as sympy's PolyRing did.
# ---------------------------------------------------------------------------

MULTI_NORMS = [Norm((0, 1)), Norm((1, 2)), Norm((0, 1, 2))]
ONE_COORD_NORMS = [Norm((0,)), Norm((1,)), Norm((2,))]


def _same_decision(p, pairs, F):
    """verifier._identity_zero decides as the PolyRing reference
    (scalar_reference.identity_zero); returns the decision."""
    want = identity_zero(p, pairs, F)
    assert _plateau_zero(p, pairs, F) is want
    return want


def _relation(r):
    """norm^2 - (sum of its squared coordinates): zero, by r^2 = s alone
    for a norm over k >= 2 coordinates."""
    return add(ipow(r, 2), *(mul(Const(-1), ipow(Coord(i), 2))
                             for i in r.indices))


def _norm_trees(pool):
    """(trees, denominators that are not identically zero in any
    orthant), the norm leaves drawn from pool."""
    norms = st.sampled_from(pool)
    dens = st.one_of(
        st.builds(Const, small.filter(lambda c: c != 0)),
        coords3,
        st.builds(lambda c, k: add(mul(c, c), Const(k)), coords3,
                  st.integers(1, 3)),
        norms,
        st.builds(lambda r, c: add(r, Const(c)), norms, small))
    trees = st.recursive(
        st.one_of(st.builds(Const, small), coords3, norms, plateau_cutoffs),
        _extender(dens), max_leaves=6)
    return trees, dens


def _norm_tree_case(data, pool):
    """A drawn identity (p, pairs, F), drawn at a scale rho with the
    scales f_scale and s_scale (_at_scale), and whether it holds by
    construction."""
    trees, dens = _norm_trees(pool)
    a, b, c = (data.draw(trees) for _ in range(3))
    d = data.draw(dens)
    p, q = data.draw(jets3), data.draw(jets3)
    rho, f_scale, s_scale = (data.draw(scales) for _ in range(3))
    r = data.draw(st.sampled_from(pool))
    pick = data.draw(st.integers(0, 3))
    S = div(add(a, b), d)
    split = add(_jet_expr(p, rho),
                mul(Const(-s_scale), add(div(a, d), div(b, d)),
                    _jet_expr(q, rho)))
    F = [split,
         add(split, mul(c, _relation(r))),
         add(split, mul(c, Coord(0))),
         mul(Const(f_scale), c)][pick]
    return _at_scale(p, [(q, S)], mul(Const(1 / f_scale), F), rho, f_scale,
                     s_scale), pick < 2


@settings(max_examples=40, deadline=None)
@given(trees, trees, trees, dens, jets, jets, st.integers(0, 4))
def test_exact_ring_agrees_with_polyring_on_rational_trees(a, b, c, d, p, q,
                                                          pick):
    candidates = _two_ways(a, b, c, d, p) + [
        _minus(_jet_expr(p, 1), mul(a, b, _jet_expr(q, 1)))]
    zero = _same_decision(ZERO_JET, [], candidates[pick])
    if pick < 4:
        assert zero
    _same_decision(p, [(q, div(add(a, b), d))], c)


@pytest.mark.parametrize("pool", [MULTI_NORMS, ONE_COORD_NORMS],
                         ids=["multi-coordinate", "one-coordinate"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_ring_agrees_with_polyring_on_norm_trees(pool, data):
    # one-coordinate norms run once per orthant
    case, zero = _norm_tree_case(data, pool)
    decision = _same_decision(*case)
    if zero:
        assert decision


@pytest.mark.parametrize("pool", [MULTI_NORMS, ONE_COORD_NORMS],
                         ids=["multi-coordinate", "one-coordinate"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_identity_decision_is_invariant_under_rescaling(pool, data):
    # x -> rho x is a ring automorphism: a norm becomes rho times it,
    # cutoffs keep their plateau values and zero denominators stay zero
    (p, [(q, S)], F), _ = _norm_tree_case(data, pool)
    rho = data.draw(scales)
    decision = _plateau_zero(p, [(q, S)], F)
    assert _plateau_zero(
        _jet_at(p, rho), [(_jet_at(q, rho), expr_scale_coords(S, rho))],
        expr_scale_coords(F, rho)) is decision


@settings(max_examples=30, deadline=None)
@given(ring_trees, jets3, st.sampled_from(MULTI_NORMS + ONE_COORD_NORMS),
       st.integers(0, 2))
def test_exact_ring_agrees_with_polyring_on_zero_denominators(a, p, r, pick):
    zero_den = [_relation(r), _minus(a, a), _minus(Norm((0,)), Coord(0))][pick]
    assume(not isinstance(zero_den, Const))
    F = add(_jet_expr(p, 1), div(add(a, Coord(0)), zero_den))
    assert _same_decision(p, [], F) is False


def test_a_ring_without_the_square_reduction_fails_the_comparison(
        monkeypatch):
    monkeypatch.setattr(verifier._Poly, "rem", lambda self, squares: self)
    p = jet_parse("x^2", SIG3)
    for F in ["x^2 + norm(x,y)^2 - x^2 - y^2",
              "x^2 + (x - x)/(norm(x,y,z)^2 - x^2 - y^2 - z^2)"]:
        with pytest.raises(AssertionError):
            _same_decision(p, [], expr_parse(F, N3))

    # derandomized: the same 40 draws on every run, among them residuals
    # that only the square reduction decides
    @settings(max_examples=40, deadline=None, database=None,
              phases=[Phase.generate], derandomize=True)
    @given(data=st.data())
    def compare(data):
        _same_decision(*_norm_tree_case(data, MULTI_NORMS)[0])

    with pytest.raises(AssertionError):
        compare()


@pytest.mark.parametrize("F,zero", [
    ("x^2 + norm(x,y)^2 - x^2 - y^2", True),
    ("x^2 + norm(x,y)*norm(y,z) - norm(y,z)*norm(x,y)", True),
    ("x^2*norm(x,y)^3/(norm(x,y)*(x^2 + y^2))", True),
    ("x^2*(norm(x,y,z) + z)*(norm(x,y,z) - z)/(x^2 + y^2)", True),
    ("x^2*norm(x,y)*norm(y,z)/(norm(x,y)*norm(y,z))", True),
    ("x^2*norm(x,y)/norm(y,z)", False),
    ("x^2*(norm(x,y) + norm(y,z))/(norm(x,y) + norm(y,z))", True),
    ("norm(x)^2", True),
    ("norm(x)*norm(x)", True),
    ("x*norm(x)", False),
    ("norm(x)*norm(y)*norm(x)*norm(y)/y^2", True),
    ("x^2*(norm(x) + norm(y))/(norm(x) + norm(y))", True),
    ("x^2*(norm(x) + y)/(norm(x) + y)", True),
    # denominators that vanish identically, in some orthants for |x|
    ("x^2 + 1/(norm(x,y)^2 - x^2 - y^2)", False),
    ("x^2 + (norm(x,y) - x)/(norm(x,y)*norm(y,z) - norm(y,z)*norm(x,y))",
     False),
    ("x^2*(norm(x,y) - norm(x,y))/(norm(x,y,z)^2 - x^2 - y^2 - z^2)", False),
    ("x^2*(norm(x) + x)/(norm(x) - x)", False),
    ("x^2*(norm(x) - x)/(norm(x) - x)", False),
])
def test_norm_identities_in_the_ring(F, zero):
    # p = x^2; each F is a function of x, y, z, and the identity holds
    # iff F = x^2 wherever F is defined (a term defined nowhere in an
    # open set fails it)
    p = jet_parse("x^2", SIG3)
    with _simplify_calls() as calls:
        assert symbolic_residual_zero(p, [], expr_parse(F, N3)) is zero
    assert calls == []


@pytest.mark.parametrize("F", ["1/(x - x)", "x^2 + (x - x)/(y - y)",
                               "x^2 + x/(1/(y - y))",
                               "x^2 + norm(x,y) - norm(x,y) + x/(1/(y - y))",
                               "x^2 + x/(1/(norm(x,y) - norm(x,y)))",
                               # 0/0 wherever x > 0
                               "x^2 + (norm(x) - x)/(norm(x) - x) - 1"])
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
    ("x^2*theta(norm(x,y), 1) + theta(x*y + {}, 2)", False)])
def test_divides_by_zero_stops_at_cutoffs_and_gauges(wrap, zero):
    # `zero`: the tree divides by zero outside every cutoff.  A division
    # outside fails the identity.  A cutoff's value near 0 is not
    # certified, so a tree with a cutoff is left undecided (None) and no
    # division in it is tested
    F = expr_parse(wrap.format("x/(y - y)"), N)
    p = jet_parse("x^2 + 1" if wrap.count("theta") == 2 else "x^2", SIG)
    if "theta" in wrap:
        assert symbolic_residual_zero(p, [], F) is None
    else:
        assert symbolic_residual_zero(p, [], F) is not zero


# ---------------------------------------------------------------------------
# Norm nodes outside any cutoff: decided in the ring as well.
# ---------------------------------------------------------------------------

def test_norm_outside_a_cutoff_is_decided_in_the_ring():
    p = jet_parse("x^2 + y^2", RingSignature(2, N))
    # |x|(|x| + x) - x|x| = |x|^2: zero, but only once expanded
    F = expr_parse("norm(x,y)*(norm(x,y) + x) - x*norm(x,y)", N)
    G = expr_parse("norm(x,y)*(norm(x,y) + x)", N)
    with _simplify_calls() as calls:
        assert symbolic_residual_zero(p, [], F) is True
        assert symbolic_residual_zero(p, [], G) is False
    assert calls == []


def test_norm_of_one_coordinate_is_not_minus_that_coordinate():
    # x^2 is not implied by <y> in the direction (1, 0): it is x^2 on the
    # x-axis.  F = (x^2 - x|x|)/2 is 0 for x > 0 and x^2 for x < 0, so F
    # is negligible near (1, 0) and the claim x^2 = F is false there.
    # Reading |x| as -x alone would make F = x^2 and pass the identity.
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


def _annulus(variant, F=None):
    inputs = _intro_annulus_inputs()
    sig = RingSignature(inputs["m"], inputs["n"])
    n = inputs["n"]
    return check_annulus_condition(
        variant, inputs["params"], jet_parse(inputs["p"], sig),
        [jet_parse(q, sig) for q in inputs["Q"]],
        expr_parse(F or inputs["F"], n),
        [expr_parse(s, n) for s in inputs["S"]], inputs["omegas"], seed=0)


@pytest.mark.parametrize("variant", ["C", "C*"])
def test_annulus_intro_identity_without_simplify(monkeypatch, variant):
    identity_calls = _identity_calls(monkeypatch)
    report = _annulus(variant)
    assert identity_calls == [[]]
    assert report["identity"] == {"method": "plateau-certified symbolic",
                                  "zero": True}
    assert report["verdict"] == "pass"
    if variant == "C":
        assert report == _golden("annulus-intro")["outputs"]


@pytest.mark.parametrize("variant", ["C", "C*"])
def test_annulus_intro_with_an_undefined_factor_fails(variant):
    # (|z| - z)/(|z| - z) is 0/0 for z > 0: that F is defined nowhere on
    # the half of the region around (0, 0, 1), so no identity holds there
    inputs = _intro_annulus_inputs()
    report = _annulus(variant, f"({inputs['F']})*(norm(z) - z)/(norm(z) - z)")
    assert report["identity"] == {"method": "plateau-certified symbolic",
                                  "zero": False}
    assert report["verdict"] == "fail"
    # the bound row of F counts the samples where it does not evaluate
    assert report["bounds"][0]["name"] in ("F", "Ftilde")
    assert report["bounds"][0]["skipped"] > 0


def test_strong_xy_without_simplify(monkeypatch):
    identity_calls = _identity_calls(monkeypatch)
    result = json.loads(json.dumps(run_case(case_by_id("strong-xy"))))
    assert identity_calls and all(c == [] for c in identity_calls)
    golden = _golden("strong-xy")
    assert result["verdict"] == golden["verdict"] == "pass"
    assert result == golden


def test_scaled_jet_to_sympy():
    # p(rho x) is p at the scaled symbols rho * x_i, as the reference
    # residual writes it
    p = jet_parse("x^2 - 3*x*y + y/2", RingSignature(3, N))
    x, y = SYMS
    rho = sympy.Rational(1, 7)
    scaled = jet_to_sympy(p, [rho * s for s in SYMS])
    assert sympy.expand(scaled) == x ** 2 / 49 - 3 * x * y / 49 + y / 14
