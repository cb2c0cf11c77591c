"""Seeded forbidden-cone searches, recorded as (verdict, bound, depth).

A case is one call of verify_forbidden_certificate or
forbidden_certificate_search on a fixed seeded grid of shapes:

* rotated definite binary quadratic forms, with condition number kappa
  in [1.5, 16] (log scale), any rotation angle, and c at 0.5-0.8 of the
  exact minimum on the circle, as the toolkit benchmark draws them;
* the same forms plus terms of higher degree, so that the scaled sum
  depends on s (positive s-degree);
* jets in n = 3 variables;
* cones around a direction omega with delta in {0.3, 1.0}, beside the
  whole sphere;
* budgets 2-12, some of which run out.

A verify case records (verdict, bound, depth); a search case records
("found", bound, depth) or ("none", None, None).  Bounds are written by
float.hex, so the comparison is bit for bit.

tests/data/forbidden_search.json holds the cases; test_forbidden_search.py
requires every later version of the code to reproduce it exactly.
Regenerate it (only when a result is meant to change) with

    PYTHONPATH=src python tests/forbidden_search.py tests/data/forbidden_search.json
"""

import json
import math
import random
import sys
from fractions import Fraction

from jetideals.directions import (forbidden_certificate_search,
                                  verify_forbidden_certificate)
from jetideals.geometry import Direction
from jetideals.jetring import Jet, RingSignature

CASES = 300
SHAPES = ("definite", "definite-dome", "higher", "n3", "search")
KAPPA = (1.5, 16.0)


def _rotated_form(rng, sig):
    """lam * (u^2 + kappa v^2) in coordinates rotated by an angle, with
    its exact circle minimum lam; kappa is log-uniform on KAPPA."""
    lam = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    kappa = math.exp(rng.uniform(*(math.log(k) for k in KAPPA)))
    kap = Fraction(kappa).limit_denominator(8)
    angle = rng.uniform(-math.pi / 2, math.pi / 2)
    t = Fraction(math.tan(angle / 2)).limit_denominator(16)
    cs, sn = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    form = Jet(sig, {(2, 0): lam * (cs * cs + kap * sn * sn),
                     (1, 1): 2 * lam * cs * sn * (1 - kap),
                     (0, 2): lam * (sn * sn + kap * cs * cs)})
    return form, float(lam)


def _higher_terms(rng, sig, lowest):
    """One to three monomials of degree lowest + 1 .. m."""
    monos = [a for a in sig.monomials if sum(a) > lowest]
    picked = rng.sample(monos, rng.randint(1, min(3, len(monos))))
    return Jet(sig, {a: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                                 rng.randint(2, 8))
                     for a in picked})


def _direction(rng, n):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        if math.sqrt(sum(c * c for c in v)) > 1e-3:
            return Direction(v, normalize=True)


def _n3_jets(rng, sig):
    """A definite ternary form with cross terms, or a rational variant
    of <x^2, y^2 - xz> (zero only at the poles (0, 0, +-1))."""
    def ratio(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 4))
    if rng.random() < 0.5:
        return [Jet(sig, {(2, 0, 0): ratio(2, 8), (0, 2, 0): ratio(2, 8),
                          (0, 0, 2): ratio(2, 8), (1, 1, 0): ratio(-1, 1),
                          (0, 1, 1): ratio(-1, 1)})]
    return [Jet(sig, {(2, 0, 0): ratio(1, 4)}),
            Jet(sig, {(0, 2, 0): ratio(1, 4), (1, 0, 1): -ratio(1, 4)})]


def case(index):
    """(description, result) of case `index`."""
    rng = random.Random(index)
    shape = SHAPES[index % len(SHAPES)]
    budget = rng.randint(2, 12)
    delta = rng.choice((0.3, 1.0))
    omega = None
    if shape in ("definite", "definite-dome", "higher"):
        m = rng.choice((2, 3, 4)) if shape != "higher" else rng.choice((3, 4))
        sig = RingSignature(m, 2)
        form, minimum = _rotated_form(rng, sig)
        jets = [form + _higher_terms(rng, sig, 2) if shape == "higher"
                else form]
        if shape == "definite":
            delta = 1.0
        else:
            omega = _direction(rng, 2)
        c = rng.uniform(0.5, 0.8) * minimum
        verdict, bound, depth = verify_forbidden_certificate(
            jets, c, omega=omega, delta=delta, budget=budget)
    else:
        if shape == "n3":
            sig = RingSignature(rng.choice((2, 3)), 3)
            jets = _n3_jets(rng, sig)
            budget = rng.randint(2, 8)
        else:
            sig = RingSignature(rng.choice((3, 4)), 2)
            jets = [_rotated_form(rng, sig)[0]
                    + _higher_terms(rng, sig, 2)
                    for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.7:
            omega = _direction(rng, sig.n)
        cert = forbidden_certificate_search(jets, omega, budget=budget,
                                            delta=delta)
        if cert is None:
            verdict, bound, depth = "none", None, None
        else:
            verdict, bound, depth = "found", cert.bound, cert.depth
        c = None
    about = {"index": index, "shape": shape,
             "jets": [str(q) for q in jets], "n": sig.n, "m": sig.m,
             "omega": list(omega.vec) if omega is not None else None,
             "delta": delta, "budget": budget,
             "c": c.hex() if c is not None else None}
    return about, [verdict, bound.hex() if bound is not None else None,
                   depth]


def record(index):
    about, result = case(index)
    about["result"] = result
    return about


if __name__ == "__main__":
    data = [record(i) for i in range(CASES)]
    with open(sys.argv[1], "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
