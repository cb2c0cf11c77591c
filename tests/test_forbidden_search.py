"""Seeded forbidden-cone searches reproduce their recorded results
exactly.

tests/data/forbidden_search.json was captured from the depth-first cell
walk; see forbidden_search.py for the grid of cases and what each
records.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from forbidden_search import CASES, record
from jetideals.directions import forbidden_certificate_search
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
