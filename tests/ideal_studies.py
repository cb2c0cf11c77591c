"""Seeded ideal studies, recorded field by field.

A study draws an ideal in one of the signatures (m, n) below, in one of
three shapes:

* n = 2, a definite binary quadratic form (empty allowed set);
* n = 2, one to three generators whose lowest parts are products of
  rational linear forms and definite quadratic forms, with random
  terms of higher degree;
* n = 3, a rational variant of <x^2, y^2 - xz> (allowed set = the
  poles).

It records the RREF bases of I, of I.transform(phi) for a random
diffeo-jet phi, and of their intersection; the membership of the
products x_i * b and f * b (b a basis jet, f a random jet) and of
random jets; the allowed set; and a forbidden-cone check:
`verify_forbidden_certificate` over the whole sphere at a fraction of
the exact minimum for a definite form, and around a direction away from
the poles for the n = 3 variant.

tests/data/ideal_studies.json holds the studies of the default seeds;
test_ideal_studies.py requires every later version of the code to
reproduce it exactly.  Regenerate it (only when an output is meant to
change) with

    PYTHONPATH=src python tests/ideal_studies.py tests/data/ideal_studies.json
"""

import json
import math
import random
import sys
from fractions import Fraction

from jetideals.directions import (ExactDirection, allow_overapprox,
                                  verify_forbidden_certificate)
from jetideals.ideal import JetIdeal
from jetideals.jetring import DiffeoJet, Jet, RingSignature

import scalar_reference as ref

SIGNATURES = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
STUDIES = 60


def _ratio(rng, span=6, den=4):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, span),
                    rng.randint(1, den))


def _random_jet(rng, sig, density, allow_constant=False):
    monos = [a for a in sig.monomials if allow_constant or sum(a) > 0]
    return Jet(sig, {a: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for a in rng.sample(monos, min(density, len(monos)))})


def _higher_terms(rng, sig, order):
    return Jet(sig, {a: c for a, c in _random_jet(rng, sig, 2).coeffs.items()
                     if sum(a) > order})


def _random_diffeo(rng, sig):
    """Identity plus perturbation, with a triangular invertible linear
    part and random terms of degree >= 2."""
    comps = []
    for i in range(sig.n):
        coeffs = {}
        for j in range(sig.n):
            e = tuple(int(k == j) for k in range(sig.n))
            if j == i:
                coeffs[e] = Fraction(rng.choice((-2, -1, 1, 2)),
                                     rng.randint(1, 3))
            elif j > i and rng.random() < 0.5:
                coeffs[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        comps.append(Jet(sig, coeffs) + _higher_terms(rng, sig, 1))
    return DiffeoJet(sig, comps)


def _definite_form(rng, sig):
    """a x^2 + b xy + c y^2 with a, c > 0 and b^2 < 4ac."""
    while True:
        a = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if b * b < 4 * a * c:
            return Jet(sig, {(2, 0): a, (1, 1): b, (0, 2): c})


def _circle_minimum(q):
    """Minimum of a definite binary quadratic form on the unit circle."""
    a, b, c = (q.coeffs.get(k, Fraction(0)) for k in ((2, 0), (1, 1), (0, 2)))
    return float((a + c) / 2) - math.sqrt(((a - c) / 2) ** 2 + (b / 2) ** 2)


def _plane_factor(rng, sig, degree):
    out = Jet.constant(sig, 1)
    while degree:
        if degree >= 2 and rng.random() < 0.4:
            out = out * _definite_form(rng, sig)
            degree -= 2
        else:
            out = out * Jet(sig, {(1, 0): _ratio(rng), (0, 1): _ratio(rng)})
            degree -= 1
    return out


def _plane_generators(rng, sig):
    shared = _plane_factor(rng, sig, 1) if rng.random() < 0.5 else None
    gens = []
    for _ in range(rng.randint(1, 3)):
        order = rng.randint(1, sig.m - 1 if shared else sig.m)
        lowest = _plane_factor(rng, sig, order)
        if shared:
            lowest = lowest * shared
            order += 1
        gens.append(lowest + _higher_terms(rng, sig, order))
    return gens


def _paper_variant(rng, sig):
    """<a x^2 (+ e y^3), b y^2 - c xz + d xy>."""
    a, b, c = (Fraction(rng.randint(1, 16), rng.randint(1, 4))
               for _ in range(3))
    d = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    g1 = Jet(sig, {(2, 0, 0): a})
    g2 = Jet(sig, {(0, 2, 0): b, (1, 0, 1): -c, (1, 1, 0): d})
    if sig.m >= 3 and rng.random() < 0.5:
        g1 = g1 + Jet(sig, {(0, 3, 0): Fraction(rng.randint(1, 8), 4)})
    return [g1, g2]


def _fractions(vec):
    return [str(c) for c in vec]


def study(seed):
    """One seeded study as a JSON-ready dict."""
    rng = random.Random(seed)
    m, n = SIGNATURES[seed % len(SIGNATURES)]
    sig = RingSignature(m, n)
    definite = None
    if n == 3:
        gens = _paper_variant(rng, sig)
        shape = "paper variant"
    elif seed % 3 == 0:
        definite = _definite_form(rng, sig)
        gens = [definite]
        shape = "definite form"
    else:
        gens = _plane_generators(rng, sig)
        shape = "plane generators"
    factors = [_random_jet(rng, sig, 3, allow_constant=True) for _ in range(3)]
    probes = [_random_jet(rng, sig, 3) for _ in range(4)]
    phi = _random_diffeo(rng, sig)

    I = JetIdeal(sig, gens)
    J = I.transform(phi)
    K = I.intersect(J)
    basis = I.basis_jets()
    products = [Jet.variable(sig, k) * b for b in basis for k in range(n)]
    products += [f * b for f in factors for b in basis[:3]]
    members = [I.contains(p) for p in products + probes]
    members += [J.contains(p) for p in probes]

    forbidden = None
    if definite is not None:
        frac = 0.5 + 0.3 * rng.random()
        forbidden = verify_forbidden_certificate(
            [definite], frac * _circle_minimum(definite))
    elif n == 3:
        w = [rng.uniform(0.5, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)]
        norm = math.sqrt(sum(c * c for c in w))
        omega = ExactDirection([c / norm for c in w])
        forbidden = verify_forbidden_certificate(
            [g.lowest_homogeneous_part() for g in gens], 1e-3, omega,
            delta=0.4, budget=10)

    return {"seed": seed, "m": m, "n": n, "shape": shape,
            "generators": [str(g) for g in gens],
            "phi": [str(c) for c in phi.components],
            "I": [_fractions(v) for v in ref.subspace_basis(I.span)],
            "I_pivots": list(I.span.pivots),
            "J": [_fractions(v) for v in ref.subspace_basis(J.span)],
            "K": [_fractions(v) for v in ref.subspace_basis(K.span)],
            "members": members,
            "allowed": allow_overapprox(I).to_json(),
            "forbidden": list(forbidden) if forbidden else None}


def studies(seeds=range(STUDIES)):
    return [study(seed) for seed in seeds]


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        json.dump(studies(), fh, indent=1)
        fh.write("\n")
