"""Real roots, rounded unit vectors and exact signs over QQ, against
sympy as the reference.

algebraic.real_roots must find the real roots that sympy's real_roots
finds, rational ones as rationals; Ray.unit must give each coordinate
of v(r)/|v(r)| as the double nearest its exact value, 0.0 where it is
exactly 0, and raise ValueError where every coordinate is; Ray.sign_of
must give the exact sign of a polynomial at that unit vector.  An
enclosure fault must raise ArithmeticError, not narrow an interval
forever."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import scalar_reference
from jetideals import algebraic
from jetideals.algebraic import Ray, Root

T = sympy.Symbol("t", real=True)


def poly(*coeffs):
    return algebraic.trim(Fraction(c) for c in coeffs)


def to_sympy(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * T ** k
                for k, c in enumerate(p)), sympy.Integer(0))


def vanishes_at(v, root):
    """sympy's decision that the polynomial v is 0 at the root: the gcd
    of v and the root's f has a root in its isolating interval (the
    closed [lo, lo] for a rational root)."""
    g = sympy.Poly(sympy.gcd(to_sympy(v), to_sympy(root.f)), T)
    lo, hi = (sympy.Rational(e.numerator, e.denominator)
              for e in (root.lo, root.hi))
    return g.degree() > 0 and g.count_roots(lo, hi) > 0


def nearest_double(value):
    """float() of a sympy number evaluated to 60 digits: the nearest
    double unless the value is within about 1e-60 of a tie."""
    return float(sympy.N(value, 60))


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polynomials(draw):
    """Products of linear and quadratic factors with small rational
    coefficients, repeated factors included."""
    p = poly(draw(_small.filter(bool)))
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            factor = poly(draw(_small), 1)
        else:
            factor = poly(draw(_small), draw(_small), 1)
        p = algebraic.mul(p, factor)
    return p


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_real_roots_match_sympy(p):
    roots = algebraic.real_roots(p)
    want = sorted(set(sympy.Poly(to_sympy(p), T).real_roots()),
                  key=lambda r: float(r))
    assert len(roots) == len(want)
    for root, r in zip(roots, want):
        if root.is_rational:
            assert r == sympy.Rational(root.lo.numerator, root.lo.denominator)
        else:
            assert not r.is_rational
            lo, hi = (sympy.Rational(e.numerator, e.denominator)
                      for e in (root.lo, root.hi))
            assert lo < r < hi
            assert algebraic.evaluate(root.f, root.lo) \
                * algebraic.evaluate(root.f, root.hi) < 0


@settings(max_examples=40, deadline=None)
@given(polynomials(), st.lists(st.lists(_small, min_size=1, max_size=3),
                               min_size=2, max_size=3))
def test_unit_vectors_are_correctly_rounded(p, coords):
    for root in algebraic.real_roots(p):
        ray = Ray(root, [poly(*c) for c in coords])
        zero = [vanishes_at(c, root) for c in ray.coords]
        if all(zero):
            with pytest.raises(ValueError):
                ray.unit()
            continue
        exact = scalar_reference.ray_to_sympy(ray)
        assert ray.unit() == tuple(0.0 if z else nearest_double(x)
                                   for z, x in zip(zero, exact))


# p = (t^2 - 3t - 3)(t^2 + 1): at both real roots t^2 - 3t - 3 is 0,
# which evaluating its radical to 60 digits reads as about -1e-197
_FOUND = algebraic.mul(poly(-3, -3, 1), poly(1, 0, 1))


def test_a_coordinate_that_vanishes_at_the_root_reads_zero():
    roots = algebraic.real_roots(_FOUND)
    assert len(roots) == 2
    for root in roots:
        assert Ray(root, [poly(1), poly(-3, -3, 1)]).unit() == (1.0, 0.0)


@pytest.mark.parametrize("coords,unit", [
    ((1, 1e-300), (1.0, 1e-300)), ((1, 5e-324), (1.0, 5e-324)),
    ((-1, -5e-324), (-1.0, -5e-324)),
    ((1, Fraction(1, 10 ** 400)), (1.0, 0.0)),
    ((-1, Fraction(-1, 10 ** 400)), (-1.0, -0.0))])
def test_a_rational_ray_past_the_float_range_has_a_unit_vector(coords, unit):
    # its integer row holds an integer past the largest double
    ray = Ray(Root.rational(0), [poly(c) for c in coords])
    got = ray.unit()
    assert got == unit
    assert [math.copysign(1, c) for c in got] == \
        [math.copysign(1, c) for c in unit]


def test_a_ray_that_vanishes_at_the_root_has_no_unit_vector():
    for root in algebraic.real_roots(_FOUND):
        with pytest.raises(ValueError):
            Ray(root, [poly(0), poly(-3, -3, 1)]).unit()


@settings(max_examples=40, deadline=None)
@given(polynomials(), st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _small.filter(bool),
    min_size=1, max_size=4))
def test_signs_match_sympy(p, coeffs):
    for root in algebraic.real_roots(p):
        ray = Ray(root, [poly(1), poly(0, 1)])
        u = scalar_reference.ray_to_sympy(ray)
        value = sum(sympy.Rational(c.numerator, c.denominator)
                    * u[0] ** a * u[1] ** b for (a, b), c in coeffs.items())
        approx = sympy.N(value, 50)
        if abs(approx) > 1e-30:     # evalf's digits decide a clear sign
            want = 1 if approx > 0 else -1
        else:
            want = int(sympy.sign(sympy.simplify(value)))
        assert ray.sign_of(coeffs.items()) == want


def test_a_zero_of_an_inhomogeneous_polynomial_is_exact():
    # u = (1, t)/sqrt(1 + t^2) at t = 3/4 is (4/5, 3/5), where
    # x^2 - y - 1/25 = 0; at t = sqrt(3), u = (1/2, sqrt(3)/2), where
    # 2x - x^2 - y^2 = 0: in both the even and odd parts cancel
    ray = Ray(Root.rational(Fraction(3, 4)), [poly(1), poly(0, 1)])
    assert ray.unit() == (0.8, 0.6)
    assert ray.sign_of([((2, 0), 1), ((0, 1), -1),
                        ((0, 0), Fraction(-1, 25))]) == 0
    assert ray.sign_of([((2, 0), 1), ((0, 1), -1)]) == 1
    (sqrt3,) = [r for r in algebraic.real_roots(poly(-3, 0, 1)) if r.lo > 0]
    ray = Ray(sqrt3, [poly(1), poly(0, 1)])
    assert ray.unit()[0] == 0.5
    circle = [((1, 0), 2), ((2, 0), -1), ((0, 2), -1)]
    assert ray.sign_of(circle) == 0
    assert ray.sign_of(circle + [((0, 0), 1)]) == 1
    assert ray.negated().sign_of(circle) == -1


def test_a_coordinate_halfway_between_doubles_rounds_to_even():
    # 1/sqrt(1 + t^2) = m, halfway between 0.5 and the next double up:
    # t^2 = 1/m^2 - 1 is no rational square, so the root is irrational
    # and only the exact tie test can decide the rounding
    m = Fraction(1, 2) + Fraction(1, 2 ** 54)
    (root,) = [r for r in algebraic.real_roots(poly(1 - 1 / m ** 2, 0, 1))
               if r.lo > 0]
    assert not root.is_rational
    ray = Ray(root, [poly(1), poly(0, 1)])
    assert ray.unit()[0] == float(m) == 0.5
    past = Fraction(1, 2) + Fraction(3, 2 ** 55)      # just above the tie
    (root,) = [r for r in algebraic.real_roots(poly(1 - 1 / past ** 2, 0, 1))
               if r.lo > 0]
    assert Ray(root, [poly(1), poly(0, 1)]).unit()[0] == float(past) > 0.5


def test_a_factor_shared_with_a_reducible_f_vanishes_exactly():
    # the four roots share the reducible f = (1 - 2t^2)(1 - 3t^2);
    # x^2 - 2y^2 is 0 at t = +-1/sqrt(2) though not 0 mod f, and
    # (1 - 2t^2)/(1 + t^2) = 1/4 > 0 at t = +-1/sqrt(3)
    roots = algebraic.real_roots(algebraic.mul(poly(1, 0, -2), poly(1, 0, -3)))
    assert [len(r.f) for r in roots] == [5] * 4
    rays = [Ray(r, [poly(1), poly(0, 1)]) for r in roots]
    assert [ray.sign_of([((2, 0), 1), ((0, 2), -2)]) for ray in rays] \
        == [0, 1, 1, 0]


def _unscaled_enclose(ints, lo, hi, den):
    """algebraic._enclose without its den^(d-i) scaling: Horner over the
    integer ends as if den were 1, so it encloses nothing."""
    low = high = 0
    for c in reversed(ints):
        ends = (low * lo, low * hi, high * lo, high * hi)
        low, high = min(ends) + c, max(ends) + c
    return low, high


@pytest.mark.parametrize("f,which,coords", [
    ((-4, Fraction(21, 2), 1), 1, [(Fraction(-22, 3),),
                                   (16, Fraction(-1, 3))]),
    ((-1, Fraction(14, 3), 1), 0, [(Fraction(-4, 5),),
                                   (Fraction(-17, 3), Fraction(-11, 5))]),
])
def test_an_unscaled_enclosure_raises_instead_of_narrowing_forever(
        monkeypatch, f, which, coords):
    # on these rays the faulty bounds never settle on one double: the
    # rounding narrowed the root's interval with no end
    root = algebraic.real_roots(poly(*f))[which]
    ray = Ray(root, [poly(*c) for c in coords])
    assert ray.unit()
    monkeypatch.setattr(algebraic, "_enclose", _unscaled_enclose)
    with pytest.raises(ArithmeticError):
        ray.unit()


def test_an_enclosure_that_never_narrows_raises(monkeypatch):
    # every sign and rounding narrows within a cap from the root
    # separation bound; an enclosure that holds 0 past it is a fault
    (root,) = [r for r in algebraic.real_roots(poly(-2, 0, 1)) if r.lo > 0]
    ray = Ray(root, [poly(1), poly(0, 1)])
    monkeypatch.setattr(algebraic, "_enclose", lambda *args: (-1, 1))
    with pytest.raises(ArithmeticError):
        root.sign(poly(-1, 1))
    with pytest.raises(ArithmeticError):
        ray.sign_of([((1, 0), 1), ((0, 1), -1)])
