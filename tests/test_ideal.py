"""Ideal spans: dimensions, closure under multiplication, lattice ops."""

import random

import pytest

from jetideals.ideal import JetIdeal
from jetideals.jetring import Jet, RingSignature, jet_parse

from conftest import random_diffeo, random_jet


@pytest.mark.parametrize("m", range(1, 7))
def test_principal_ideal_x_has_dim_m(m):
    sig = RingSignature(m, 1)
    I = JetIdeal(sig, [Jet.variable(sig, 0)])
    assert I.dim == m
    # the canonical basis is x, x^2, ..., x^m
    basis = {str(b) for b in I.basis_jets()}
    assert basis == {"x"} | {f"x^{k}" for k in range(2, m + 1)}


def random_ideal(rng, sig, max_gens=3):
    gens = []
    while not gens:
        gens = [g for g in (random_jet(rng, sig, density=4,
                                       allow_constant=False)
                            for _ in range(rng.randint(1, max_gens)))
                if not g.is_zero()]
    return JetIdeal(sig, gens)


def test_multiplicative_closure_200_random_ideals():
    """x_i * b stays in the ideal for every basis jet b."""
    rng = random.Random(8675309)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        sig = RingSignature(m, n)
        I = random_ideal(rng, sig)
        for b in I.basis_jets():
            for i in range(n):
                prod = Jet.variable(sig, i) * b
                assert prod.is_zero() or I.contains(prod)


def test_generators_and_multiples_are_members():
    rng = random.Random(17)
    sig = RingSignature(3, 2)
    for _ in range(30):
        I = random_ideal(rng, sig)
        p = random_jet(rng, sig)
        for g in I.generators:
            assert I.contains(g)
            prod = (p - Jet.constant(sig, p.coeffs.get((0, 0), 0))) * g
            assert prod.is_zero() or I.contains(prod)


def test_membership_requires_zero_constant_term():
    sig = RingSignature(2, 1)
    I = JetIdeal(sig, [Jet.variable(sig, 0)])
    assert not I.contains(jet_parse("1 + x", sig))


def test_generators_must_vanish_at_origin():
    sig = RingSignature(2, 1)
    with pytest.raises(ValueError):
        JetIdeal(sig, [jet_parse("1 + x", sig)])


def test_sum_and_intersection_lattice():
    rng = random.Random(27)
    sig = RingSignature(2, 2)
    for _ in range(40):
        I = random_ideal(rng, sig)
        J = random_ideal(rng, sig)
        S = I.add(J)
        X = I.intersect(J)
        assert S.dim + X.dim == I.dim + J.dim
        for b in X.basis_jets():
            assert I.contains(b) and J.contains(b)


def test_transform_preserves_dimension():
    rng = random.Random(37)
    sig = RingSignature(2, 2)
    for _ in range(30):
        I = random_ideal(rng, sig)
        phi = random_diffeo(rng, sig)
        assert I.transform(phi).dim == I.dim


def test_known_membership_example():
    sig = RingSignature(2, 3)
    I = JetIdeal(sig, [jet_parse("x^2", sig), jet_parse("y^2 - x*z", sig)])
    assert I.contains(jet_parse("y^2 - x*z", sig))
    assert not I.contains(jet_parse("x*y", sig))
