"""The ring operations that read the monomial product table and a map's
shared powers give what the per-pair reference builds
(scalar_reference.jet_mul, jet_compose, ideal_contains), and every jet
they build internally is canonical: one integer numerator per monomial
of the signature, over a positive denominator, with no common factor
of all of them."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from jetideals.ideal import JetIdeal
from jetideals.jetring import (DiffeoJet, Jet, RingSignature, jet_compose,
                               monomials)

_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def signatures(draw):
    return RingSignature(draw(st.integers(1, 4)), draw(st.integers(1, 3)))


@st.composite
def jets(draw, sig, constant=True):
    table = monomials(sig.m, sig.n)[0 if constant else 1:]
    return Jet(sig, draw(st.dictionaries(st.sampled_from(table), _coefficient,
                                         max_size=5)))


@st.composite
def diffeos(draw, sig):
    """A triangular linear part with a nonzero diagonal, plus terms of
    degree 2 and more."""
    comps = []
    for i in range(sig.n):
        linear = {tuple(int(k == j) for k in range(sig.n)):
                  draw(_coefficient.filter(bool)) if j == i
                  else draw(_coefficient)
                  for j in range(i, sig.n)}
        higher = draw(jets(sig, constant=False))
        comps.append(Jet(sig, linear) + Jet(sig, {
            a: c for a, c in higher.coeffs.items() if sum(a) >= 2}))
    return DiffeoJet(sig, comps)


def assert_canonical(p, sig):
    assert p.sig == sig
    assert len(p.nums) == sig.dim and type(p.nums) is tuple
    assert all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den > 0
    assert math.gcd(*p.nums, p.den) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_the_reference(data):
    sig = data.draw(signatures())
    p, q = data.draw(jets(sig)), data.draw(jets(sig))
    got = p * q
    assert got == ref.jet_mul(p, q)
    for r in (got, p + q, p - q, -p, p.scale(Fraction(-2, 3)),
              p.scale(0), got.homogeneous_part(sig.m)):
        assert_canonical(r, sig)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compositions_sharing_a_map_match_the_reference(data):
    sig = data.draw(signatures())
    phi = data.draw(diffeos(sig))
    ps = data.draw(st.lists(jets(sig), min_size=1, max_size=4))
    got = [jet_compose(p, phi) for p in ps]
    assert got == [ref.jet_compose(p, phi) for p in ps]
    for r in got + list(phi._powers.values()):
        assert_canonical(r, sig)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_membership_matches_the_reference(data):
    sig = data.draw(signatures())
    gens = data.draw(st.lists(jets(sig, constant=False), min_size=1,
                              max_size=3))
    ideal = JetIdeal(sig, gens)
    phi = data.draw(diffeos(sig))
    image = ideal.transform(phi)
    meet = ideal.intersect(image)
    factors = data.draw(st.lists(jets(sig), min_size=1, max_size=3))
    candidates = ([f * g for f in factors for g in gens]
                  + data.draw(st.lists(jets(sig), max_size=3)))
    for space in (ideal, image, meet):
        for p in candidates:
            assert space.contains(p) == ref.ideal_contains(space, p)
        for r in space.generators + tuple(space.basis_jets()):
            assert_canonical(r, sig)
