"""Outward-rounded interval arithmetic: containment soundness."""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from jetideals.algebraic import evaluate
from jetideals.errors import DomainError
from jetideals.interval import Interval, _down, _up, box_norm
from jetideals.symfun import DEFAULT_CUTOFF, expr_enclose, expr_parse

import scalar_reference as ref

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def iv_pair(rng, span=10.0):
    a, b = sorted(rng.uniform(-span, span) for _ in range(2))
    return Interval(a, b)


@given(finite, finite, finite, finite)
def test_add_mul_sub_contain_true_value(a, b, c, d):
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d))
    for px in (x.lo, x.hi, 0.5 * (x.lo + x.hi)):
        for py in (y.lo, y.hi, 0.5 * (y.lo + y.hi)):
            assert (x + y).contains(px + py)
            assert (x - y).contains(px - py)
            assert (x * y).contains(px * py)


def test_division_sound_and_guarded():
    rng = random.Random(5)
    for _ in range(500):
        x = iv_pair(rng)
        y = iv_pair(rng)
        if y.contains(0.0):
            with pytest.raises(DomainError):
                x / y
            continue
        z = x / y
        for px in (x.lo, x.mid, x.hi):
            for py in (y.lo, y.mid, y.hi):
                assert z.contains(px / py)


def test_abs_pow_sqrt():
    rng = random.Random(6)
    for _ in range(300):
        x = iv_pair(rng)
        for px in (x.lo, x.mid, x.hi):
            assert abs(x).contains(abs(px))
            assert x.ipow(2).contains(px * px)
            assert x.ipow(3).contains(px ** 3)
            if x.lo >= 0:
                assert x.sqrt().contains(math.sqrt(px))


def test_negative_power_of_underflowing_interval_is_half_unbounded():
    # the cube of 2.18e-134 underflows to 0, but the interval excludes 0
    x = Interval(2.18e-134, 1.0)
    r = x.ipow(-3)
    assert r.hi == math.inf and r.lo <= 1.0 and r.contains(2.0 ** 300)
    for k in (-3, -4):
        neg = Interval(-1.0, -2.18e-134).ipow(k)
        exact = Fraction(-1) ** k
        assert neg.lo <= exact <= neg.hi
        assert (neg.lo == -math.inf) if k % 2 else (neg.hi == math.inf)
    # a power that underflows entirely still gives a sound enclosure
    tiny = Interval(1e-200, 1e-199).ipow(-2)
    assert tiny.hi == math.inf and tiny.lo > 0.0
    with pytest.raises(DomainError):
        Interval(-1.0, 1.0).ipow(-1)
    # results that never underflowed keep their old value
    x = Interval(2.0, 4.0)
    assert x.ipow(-2) == Interval(1.0, 1.0) / x.ipow(2)


def test_even_power_tight_at_zero():
    # the square of an interval straddling zero starts at zero, not at
    # the product of endpoints
    x = Interval(-2.0, 3.0)
    sq = x.ipow(2)
    assert sq.lo == 0.0 and sq.contains(9.0)


def test_box_norm():
    box = [Interval(3.0, 3.0), Interval(4.0, 4.0)]
    assert box_norm(box).contains(5.0)
    box = [Interval(-1.0, 2.0), Interval(0.5, 0.5)]
    nb = box_norm(box)
    for px in (-1.0, 0.0, 2.0):
        assert nb.contains(math.hypot(px, 0.5))


def test_intersect_and_split():
    x = Interval(0.0, 2.0)
    y = Interval(1.0, 3.0)
    z = x.intersect(y)
    assert z.lo == 1.0 and z.hi == 2.0
    a, b = x.split()
    assert a.lo == 0.0 and b.hi == 2.0 and a.hi == b.lo


# -- containment properties, checked against exact rational values ------

def _iv(a, b):
    return Interval(min(a, b), max(a, b))


def _inside(iv, t):
    """A float of iv at relative position t in [0, 1]."""
    return min(max(iv.lo + t * (iv.hi - iv.lo), iv.lo), iv.hi)


def _encloses(iv, exact):
    return iv.lo <= exact <= iv.hi


wide = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0)


@given(wide, wide, wide, wide, unit, unit)
def test_arithmetic_encloses_exact_results(a, b, c, d, s, t):
    x, y = _iv(a, b), _iv(c, d)
    px, py = Fraction(_inside(x, s)), Fraction(_inside(y, t))
    assert _encloses(x + y, px + py)
    assert _encloses(x - y, px - py)
    assert _encloses(x * y, px * py)
    if y.contains_zero():
        with pytest.raises(DomainError):
            x / y
    else:
        assert _encloses(x / y, px / py)


@given(finite, finite, unit, st.integers(min_value=-4, max_value=7))
def test_ipow_abs_sqrt_enclose_exact_results(a, b, s, k):
    x = _iv(a, b)
    p = _inside(x, s)
    assert _encloses(abs(x), abs(Fraction(p)))
    try:
        assert _encloses(x.ipow(k), Fraction(p) ** k)
    except DomainError:
        # a negative power of an interval that contains zero
        assert k < 0 and x.contains_zero()
    if x.hi >= 0.0 and p >= 0.0:
        r = x.sqrt()
        assert r.lo <= 0.0 or Fraction(r.lo) ** 2 <= Fraction(p)
        assert Fraction(r.hi) ** 2 >= Fraction(p)


def _theta_exact(spec, v, order):
    v = Fraction(v)
    if v <= spec.a:
        return Fraction(1 if order == 0 else 0)
    if v >= spec.b:
        return Fraction(0)
    u = (v - spec.a) / spec.width
    val = evaluate(spec._polys[order], u) / spec.width ** order
    return 1 - val if order == 0 else -val


@given(st.floats(min_value=0.0, max_value=12.0),
       st.floats(min_value=0.0, max_value=12.0), unit,
       st.integers(min_value=0, max_value=3))
def test_cutoff_interval_encloses_exact_values(a, b, s, order):
    v = _iv(a, b)
    enc = DEFAULT_CUTOFF.eval_interval(v, order)
    assert _encloses(enc, _theta_exact(DEFAULT_CUTOFF, _inside(v, s), order))


ends = st.one_of(finite, st.sampled_from([math.inf, -math.inf, 0.0]))


@given(ends, ends, ends, ends)
def test_no_result_has_a_nan_endpoint(a, b, c, d):
    x, y = _iv(a, b), _iv(c, d)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y,
               lambda: x / y, lambda: abs(x), lambda: x.ipow(2)):
        try:
            r = op()
        except DomainError:
            continue
        assert r.lo == r.lo and r.hi == r.hi


def test_nan_endpoint_raises_domain_error():
    nan = math.nan
    for lo, hi in ((nan, 1.0), (0.0, nan), (nan, nan)):
        with pytest.raises(DomainError):
            Interval(lo, hi)
    with pytest.raises(DomainError):
        Interval(math.inf) + Interval(-math.inf)


def test_zero_times_infinity_is_zero():
    # set-based convention (IEEE 1788-2015): {0 * y : y real} = {0}
    z = Interval(0.0, 0.0) * Interval(-math.inf, math.inf)
    assert z.contains(0.0) and z.width < 1e-300
    half = Interval(0.0, 1.0) * Interval(0.0, math.inf)
    assert half.lo <= 0.0 < 1e-300 and half.hi == math.inf
    assert (Interval(-1.0, 1.0) * Interval(-math.inf, math.inf)).width \
        == math.inf


def _guarded_down(x):
    if x == -math.inf or x != x:
        return x
    return math.nextafter(x, -math.inf)


def _guarded_up(x):
    if x == math.inf or x != x:
        return x
    return math.nextafter(x, math.inf)


@given(st.one_of(st.integers(-2 ** 80, 2 ** 80),
                st.integers(2 ** 53 - 4, 2 ** 53 + 4).map(lambda k: k * 3),
                st.integers(2 ** 900, 2 ** 1000)))
def test_an_int_that_no_double_holds_is_widened(x):
    # float(10**17 + 1) is 1e17, and the point interval [1e17, 1e17]
    # missed the value
    for iv in (Interval.exact(x), Interval(x), Interval(x, x)):
        assert iv.lo <= x <= iv.hi       # int-float comparison is exact
    if float(x) == x:
        assert Interval.exact(x) == Interval(x) == Interval(float(x))
    enc = expr_enclose(expr_parse("x + 1", 1), [Interval.exact(x)])
    assert enc.lo <= x + 1 <= enc.hi


def _bits(x):
    return "nan" if x != x else struct.pack("<d", x)


EDGES = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.0, -1.0, 1.7976931348623157e308,
         -1.7976931348623157e308]


@given(st.one_of(st.sampled_from(EDGES), st.floats()))
def test_rounding_steps_equal_the_guarded_definitions(x):
    # nextafter already keeps -inf down, +inf up and NaN as they are
    assert _bits(_down(x)) == _bits(_guarded_down(x))
    assert _bits(_up(x)) == _bits(_guarded_up(x))


# -- operators equal their reference definitions ---------------------------

big = st.one_of(st.floats(allow_nan=False),
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e200,
                                 -1e200, 5e-324, 1e-160]))
operand = st.one_of(
    st.builds(lambda a, b: _iv(a, b), big, big),
    st.fractions(max_denominator=10 ** 6), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False))


def _outcome(op):
    try:
        r = op()
    except Exception as exc:           # the type is compared
        return type(exc)
    return (_bits(r.lo), _bits(r.hi))


@given(st.builds(lambda a, b: _iv(a, b), big, big), operand,
       st.integers(min_value=-5, max_value=9))
def test_operators_equal_the_reference_definitions(x, y, k):
    cases = [(lambda: x + y, lambda: ref.interval_add(x, y)),
             (lambda: y + x, lambda: ref.interval_add(x, y)),
             (lambda: x * y, lambda: ref.interval_mul(x, y)),
             (lambda: y * x, lambda: ref.interval_mul(x, y)),
             (lambda: x / y, lambda: ref.interval_truediv(x, y)),
             (lambda: -x, lambda: ref.interval_neg(x)),
             (lambda: abs(x), lambda: ref.interval_abs(x)),
             (lambda: x.ipow(k), lambda: ref.interval_ipow(x, k))]
    for new, old in cases:
        assert _outcome(new) == _outcome(old)


def test_operator_edge_cases_equal_the_reference_definitions():
    inf = math.inf
    zero, whole = Interval(0.0, 0.0), Interval(-inf, inf)
    assert _outcome(lambda: zero * whole) \
        == _outcome(lambda: ref.interval_mul(zero, whole))
    assert _outcome(lambda: Interval(inf) + Interval(-inf)) is DomainError
    assert _outcome(lambda: Interval(1e200, 2e200).ipow(3)) is OverflowError
    assert _outcome(lambda: ref.interval_ipow(Interval(1e200, 2e200), 3)) \
        is OverflowError


SPECIAL = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -3.0,
           1.7976931348623157e308, -1e-200)
special = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))


def _hex_outcome(op):
    try:
        r = op()
    except DomainError:
        return DomainError
    return (r.lo.hex(), r.hi.hex())


@given(special, special, special, special)
@example(math.inf, math.inf, -math.inf, -1.0)      # inf / -inf first
@example(1.0, math.inf, 2.0, math.inf)             # inf / inf later
@example(0.0, 0.0, -math.inf, math.inf)            # 0 * inf
@example(-0.0, 0.0, 5e-324, math.inf)
def test_products_and_quotients_equal_the_min_max_formulas(a, b, c, d):
    # sorting keeps the order of equal endpoints, so intervals such as
    # [0.0, -0.0], [-0.0, 0.0] and [0.0, inf] (0 * inf) all come up
    x, y = Interval(*sorted((a, b))), Interval(*sorted((c, d)))
    for p, q in ((x, y), (y, x)):
        assert _hex_outcome(lambda: p * q) \
            == _hex_outcome(lambda: ref.interval_mul(p, q))
        assert _hex_outcome(lambda: p / q) \
            == _hex_outcome(lambda: ref.interval_truediv(p, q))
