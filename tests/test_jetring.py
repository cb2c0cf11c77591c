"""Ring axioms, truncation, parsing, and composition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from jetideals.directions import _compile_scaled, _eval_scaled
from jetideals.errors import (DegreeOverflowError, DimensionMismatchError,
                              ParseError)
from jetideals.interval import Interval
from jetideals.jetring import (MORE_THAN_M, DiffeoJet, Jet, RingSignature,
                               jet_compose, jet_parse)

from conftest import random_diffeo, random_jet


def naive_truncated_product(p, q):
    """Oracle: full polynomial product, then drop degree > m."""
    sig = p.sig
    out = {}
    for a, ca in p.coeffs.items():
        for b, cb in q.coeffs.items():
            ab = tuple(x + y for x, y in zip(a, b))
            if sum(ab) <= sig.m:
                out[ab] = out.get(ab, Fraction(0)) + ca * cb
    return Jet(sig, out)


@pytest.mark.parametrize("m", range(1, 7))
def test_top_power_times_variable_is_zero(m):
    sig = RingSignature(m, 1)
    assert (Jet.monomial(sig, (m,)) * Jet.variable(sig, 0)).is_zero()


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3, 4)
                                 for n in (1, 2, 3, 4)])
def test_ring_axioms_random(m, n):
    rng = random.Random(1000 * m + n)
    sig = RingSignature(m, n)
    for _ in range(60):
        p = random_jet(rng, sig)
        q = random_jet(rng, sig)
        r = random_jet(rng, sig)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == naive_truncated_product(p, q)


def test_one_is_neutral():
    sig = RingSignature(3, 2)
    rng = random.Random(7)
    one = Jet.constant(sig, 1)
    for _ in range(20):
        p = random_jet(rng, sig)
        assert one * p == p


def test_order_of_vanishing():
    sig = RingSignature(3, 2)
    assert Jet.zero(sig).order_of_vanishing() == MORE_THAN_M
    assert Jet.constant(sig, 5).order_of_vanishing() == 0
    assert jet_parse("x*y + x^3", sig).order_of_vanishing() == 2
    assert jet_parse("x^3", sig).order_of_vanishing() == 3


def test_lowest_homogeneous_part():
    sig = RingSignature(3, 2)
    p = jet_parse("x*y + x^3 + y^3", sig)
    assert p.lowest_homogeneous_part() == jet_parse("x*y", sig)


def test_order_subadditive_under_product():
    rng = random.Random(99)
    sig = RingSignature(4, 2)
    for _ in range(100):
        p = random_jet(rng, sig, allow_constant=False)
        q = random_jet(rng, sig, allow_constant=False)
        prod = p * q
        if p.is_zero() or q.is_zero() or prod.is_zero():
            continue
        assert (prod.order_of_vanishing()
                >= p.order_of_vanishing() + q.order_of_vanishing())


def test_parse_print_roundtrip_random():
    rng = random.Random(4242)
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3):
            sig = RingSignature(m, n)
            for _ in range(50):
                p = random_jet(rng, sig)
                assert jet_parse(str(p), sig) == p


def test_parse_implicit_product_and_division():
    sig = RingSignature(3, 2)
    assert jet_parse("x(x + y)", sig) == jet_parse("x^2 + x*y", sig)
    assert jet_parse("x/2", sig) == jet_parse("(1/2)x", sig)


def test_parse_degree_overflow():
    sig = RingSignature(2, 1)
    with pytest.raises(DegreeOverflowError):
        jet_parse("x^3", sig)
    assert jet_parse("x^3", sig, truncate=True).is_zero()


def test_parse_errors_carry_position():
    sig = RingSignature(2, 2)
    with pytest.raises(ParseError):
        jet_parse("x + ", sig)
    with pytest.raises(ParseError):
        jet_parse("x + q", sig)


def test_compose_is_ring_homomorphism():
    rng = random.Random(2024)
    sig = RingSignature(3, 2)
    for _ in range(40):
        p = random_jet(rng, sig)
        q = random_jet(rng, sig)
        phi = random_diffeo(rng, sig)
        assert (jet_compose(p * q, phi)
                == jet_compose(p, phi) * jet_compose(q, phi))
        assert (jet_compose(p + q, phi)
                == jet_compose(p, phi) + jet_compose(q, phi))


def test_compose_preserves_order_500_random():
    rng = random.Random(31337)
    count = 0
    while count < 500:
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        sig = RingSignature(m, n)
        p = random_jet(rng, sig, allow_constant=False)
        if p.is_zero():
            continue
        phi = random_diffeo(rng, sig)
        q = jet_compose(p, phi)
        assert q.order_of_vanishing() == p.order_of_vanishing()
        count += 1


def test_compose_can_change_degree():
    # order is preserved but the polynomial degree is not: composing
    # x^2 with x + x^2 yields x^2 + 2x^3 at m = 3
    sig = RingSignature(3, 1)
    p = jet_parse("x^2", sig)
    phi = DiffeoJet(sig, [jet_parse("x + x^2", sig)])
    q = jet_compose(p, phi)
    assert q == jet_parse("x^2 + 2x^3", sig)
    assert q.order_of_vanishing() == p.order_of_vanishing() == 2
    assert q.degree() == 3 != p.degree()


def test_compose_identity_and_inverse_linear():
    rng = random.Random(555)
    sig = RingSignature(3, 2)
    for _ in range(20):
        p = random_jet(rng, sig)
        assert jet_compose(p, DiffeoJet.identity(sig)) == p
        phi = DiffeoJet.linear(sig, [[2, 1], [1, 1]])
        back = jet_compose(jet_compose(p, phi), ref.linear_inverse(phi))
        assert back == p


def test_eval_modes_agree():
    """The compiled evaluator's enclosure of |p| holds the exact |p(x)|,
    at a point and on every box around it.  At s = 1 the scaled sum of
    directions._compile_scaled([p]) is |p| itself, constant terms
    (order 0) included."""
    rng = random.Random(808)
    one = Interval(1.0, 1.0)
    for m, n in ((3, 2), (2, 3), (4, 1)):
        sig = RingSignature(m, n)
        for _ in range(40):
            p = random_jet(rng, sig)
            if p.is_zero():
                continue
            compiled = _compile_scaled([p])
            x = tuple(rng.uniform(-2.0, 2.0) for _ in range(n))
            exact = abs(ref.jet_eval(p, x))
            at = _eval_scaled(compiled, one, [Interval.exact(c) for c in x])
            assert at.lo <= exact <= at.hi
            box = [Interval(c - rng.random(), c + rng.random()) for c in x]
            around = _eval_scaled(compiled, one, box)
            assert around.lo <= at.lo and at.hi <= around.hi
    p = jet_parse("x^2*y - y/3 + 2", RingSignature(3, 2))
    x = (Fraction(3, 10), Fraction(-7, 10))
    value = _eval_scaled(_compile_scaled([p]), one,
                         [Interval.exact(c) for c in x])
    assert value.lo <= abs(ref.jet_eval(p, x)) <= value.hi


class _Pairs:
    """A coefficient mapping whose items may repeat an exponent."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs


_coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-6, 6), st.integers(1, 5)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          _coefficients), max_size=8))
def test_constructor_keeps_the_coerced_coefficients(pairs):
    sig = RingSignature(4, 2)
    got = Jet(sig, _Pairs(pairs)).coeffs
    want = ref.jet_coeffs(sig, _Pairs(pairs))
    # in the order of the monomial table, whatever order the pairs come in
    assert list(got.items()) == [(a, want[a]) for a in sig.monomials
                                 if a in want]
    assert all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize("alpha,error", [((1, 0, 0), DimensionMismatchError),
                                         ((3, 2), DegreeOverflowError)])
def test_constructor_checks_arity_and_degree(alpha, error):
    sig = RingSignature(4, 2)
    with pytest.raises(error):
        Jet(sig, {alpha: Fraction(1)})
    with pytest.raises(error):
        ref.jet_coeffs(sig, {alpha: Fraction(1)})


@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (2, 4)])
def test_variable_equals_the_checked_monomial(m, n):
    sig = RingSignature(m, n)
    for i in range(n):
        e = tuple(int(k == i) for k in range(n))
        assert Jet.variable(sig, i) == Jet(sig, {e: 1})
        assert Jet.variable(sig, i).coeffs == {e: 1}
    with pytest.raises(IndexError):
        Jet.variable(sig, n)
