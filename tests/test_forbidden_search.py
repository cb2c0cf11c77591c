"""Seeded forbidden-cone searches reproduce their recorded results
exactly.

tests/data/forbidden_search.json was captured from the depth-first cell
walk; see forbidden_search.py for the grid of cases and what each
records.
"""

import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from forbidden_search import CASES, _rotated_form, record
from jetideals.directions import (forbidden_certificate_search,
                                  verify_forbidden_certificate)
from jetideals.geometry import Direction
from jetideals.jetring import Jet, RingSignature

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "forbidden_search.json").read_text())


def test_golden_covers_every_case():
    assert [c["index"] for c in GOLDEN] == list(range(CASES))


@pytest.mark.parametrize("start", range(0, CASES, 50))
def test_forbidden_searches_match_golden(start):
    for expected in GOLDEN[start:start + 50]:
        got = json.loads(json.dumps(record(expected["index"])))
        assert got == expected


@pytest.mark.parametrize("index", [0, 35, 283])
def test_cases_certified_since_the_walk_splits_only_what_the_sum_reads(
        index):
    # 0 and 35 verify a definite form, 283 searches a sum that reads s
    # around a direction; each needs the budget that a walk spends on
    # splits of s the sum never reads, or on cells outside the dome
    verdict = record(index)["result"][0]
    assert verdict in ("pass", "found")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]),
       st.sampled_from([0.3, 1.0]), st.floats(0.5, 0.8))
def test_rotated_definite_forms_are_certified_below_their_minimum(
        seed, m, delta, frac):
    """lam (u^2 + kappa v^2) rotated, kappa in [1.5, 16], has the exact
    circle minimum lam.  At c = frac * lam the whole-sphere check passes
    at budget 12 with a bound of at most lam; around a direction the
    search's bound is at most sum |Q(u)| at seeded dome directions."""
    rng = random.Random(seed)
    sig = RingSignature(m, 2)
    form, lam = _rotated_form(rng, sig)
    verdict, bound, _ = verify_forbidden_certificate([form], frac * lam,
                                                     budget=12)
    assert verdict == "pass" and frac * lam < bound <= lam
    angle = rng.uniform(-math.pi, math.pi)
    omega = Direction((math.cos(angle), math.sin(angle)))
    cert = forbidden_certificate_search([form], omega, budget=12,
                                        delta=delta)
    assert cert is not None
    for _ in range(200):
        t = angle + rng.uniform(-1.0, 1.0) * 2 * math.asin(delta / 2)
        u = (math.cos(t), math.sin(t))
        if math.dist(u, omega.vec) < delta:
            value = sum(float(c) * u[0] ** a * u[1] ** b
                        for (a, b), c in form.coeffs.items())
            assert cert.bound <= value * (1 + 1e-12)


def _hex(certificate):
    """A certificate's JSON with every float written by float.hex."""
    if certificate is None:
        return None
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in certificate.to_json().items()}


def test_equal_jets_built_in_any_order_give_equal_certificates():
    """A jet's value does not depend on the order of its terms: definite
    quadratic forms, and ternary forms with terms of higher degree,
    built term by term in one order and in the reverse order are equal,
    hash equally and give the same certificate search, bit for bit."""
    rng = random.Random(32)
    plane, space = RingSignature(2, 2), RingSignature(3, 3)
    for _ in range(150):
        while True:
            a, b, c = (Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                       for _ in range(3))
            if a > 0 and b * b < 4 * a * c:
                break
        terms = [((2, 0), a), ((1, 1), b), ((0, 2), c)]
        _assert_order_free(plane, terms, None, 10)
    for _ in range(20):
        terms = [((2, 0, 0), Fraction(rng.randint(1, 8), rng.randint(1, 4))),
                 ((0, 2, 0), Fraction(rng.randint(1, 8), rng.randint(1, 4))),
                 ((0, 0, 2), Fraction(rng.randint(1, 8), rng.randint(1, 4)))]
        terms += [(alpha, Fraction(rng.randint(-6, 6), rng.randint(1, 8)))
                  for alpha in rng.sample([a for a in space.monomials
                                           if sum(a) == 3], 3)]
        omega = Direction([rng.gauss(0.0, 1.0) for _ in range(3)],
                          normalize=True)
        _assert_order_free(space, terms, omega, 4)


def _assert_order_free(sig, terms, omega, budget):
    forward, backward = Jet(sig, {}), Jet(sig, {})
    for alpha, c in terms:
        forward = forward + Jet.monomial(sig, alpha, c)
    for alpha, c in reversed(terms):
        backward = backward + Jet.monomial(sig, alpha, c)
    assert forward == backward and hash(forward) == hash(backward)
    assert _hex(forbidden_certificate_search([forward], omega, budget)) \
        == _hex(forbidden_certificate_search([backward], omega, budget))
