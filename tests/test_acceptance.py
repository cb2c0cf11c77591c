"""End-to-end acceptance suite.

Each test covers one acceptance criterion and reports a single
pass/fail line (visible with `pytest -s` or when run as a script).
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from jetideals.corpus import case_by_id, run_case
from jetideals.directions import (allow_overapprox, exact_zero_residual,
                                  verify_forbidden_certificate)
from jetideals.geometry import estimate_tangent_directions
from jetideals.ideal import JetIdeal
from jetideals.jetring import (DiffeoJet, Jet, RingSignature, jet_compose,
                               jet_parse)
from jetideals.symfun import Gauge, expr_parse, gauge_regularize
from jetideals.verifier import (ImplicationCertificate,
                                check_annulus_condition, check_negligible,
                                check_strong_global)

from conftest import random_diffeo, random_jet
from test_jetring import naive_truncated_product

POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]


def report(num, label, ok):
    line = f"acceptance {num:2d} {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_criterion_01_ring_suite():
    start = time.time()
    ok = True
    for m in range(1, 7):
        sig = RingSignature(m, 1)
        ok &= (Jet.monomial(sig, (m,)) * Jet.variable(sig, 0)).is_zero()
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            rng = random.Random(1000 * m + n)
            sig = RingSignature(m, n)
            for i in range(1000):
                p = random_jet(rng, sig, density=4)
                q = random_jet(rng, sig, density=4)
                kind = i % 4
                if kind == 0:
                    ok &= p * q == q * p
                elif kind == 1:
                    r = random_jet(rng, sig, density=4)
                    ok &= (p * q) * r == p * (q * r)
                elif kind == 2:
                    r = random_jet(rng, sig, density=4)
                    ok &= p * (q + r) == p * q + p * r
                else:
                    ok &= p * q == naive_truncated_product(p, q)
    elapsed = time.time() - start
    report(1, f"ring suite ({elapsed:.1f}s < 10s)", ok and elapsed < 10)


def test_criterion_02_ideal_suite():
    start = time.time()
    ok = True
    for m in range(1, 7):
        sig = RingSignature(m, 1)
        ok &= JetIdeal(sig, [Jet.variable(sig, 0)]).dim == m
    rng = random.Random(424242)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        sig = RingSignature(m, n)
        gens = [g for g in (random_jet(rng, sig, density=4,
                                       allow_constant=False)
                            for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        if not gens:
            continue
        I = JetIdeal(sig, gens)
        for b in I.basis_jets():
            for i in range(n):
                prod = Jet.variable(sig, i) * b
                ok &= prod.is_zero() or I.contains(prod)
    elapsed = time.time() - start
    report(2, f"ideal suite ({elapsed:.1f}s < 30s)", ok and elapsed < 30)


def test_criterion_03_order_preservation():
    rng = random.Random(31337)
    ok = True
    count = 0
    while count < 500:
        sig = RingSignature(rng.choice((2, 3)), rng.choice((1, 2, 3)))
        p = random_jet(rng, sig, allow_constant=False)
        if p.is_zero():
            continue
        phi = random_diffeo(rng, sig)
        ok &= (jet_compose(p, phi).order_of_vanishing()
               == p.order_of_vanishing())
        count += 1
    # degree changes under composition while the order does not
    case = run_case(case_by_id("compose-degree-change"))
    ok &= case["verdict"] == "pass"
    report(3, "order preserved, degree not", ok)


def test_criterion_04_allowed_directions_corpus():
    ok = True

    def allow(m, n, gens):
        sig = RingSignature(m, n)
        return sig, allow_overapprox(JetIdeal(
            sig, [jet_parse(g, sig) for g in gens]))

    def vecs(aset):
        return sorted(tuple(round(c, 9) for c in d.vec)
                      for d in aset.directions)

    _, a1 = allow(2, 2, ["x^2 + y^2"])
    ok &= a1.exact and a1.is_empty()
    _, a2 = allow(2, 2, ["x*y"])
    ok &= a2.exact and vecs(a2) == [(-1.0, 0.0), (0.0, -1.0),
                                    (0.0, 1.0), (1.0, 0.0)]
    sig3, a3 = allow(2, 3, ["x^2", "y^2 - x*z"])
    ok &= a3.exact and vecs(a3) == [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]
    _, a4 = allow(3, 2, ["x(x^2 + y^2)"])
    ok &= vecs(a4) == [(0.0, -1.0), (0.0, 1.0)]
    # zero residual in exact rational arithmetic, no tolerance
    for aset, (m, n, gens) in ((a2, (2, 2, ["x*y"])),
                               (a3, (2, 3, ["x^2", "y^2 - x*z"]))):
        sig = RingSignature(m, n)
        for g in gens:
            for d in aset.directions:
                ok &= exact_zero_residual(d, jet_parse(g, sig)) == 0
    report(4, "allowed directions exact corpus", ok)


def test_criterion_05_forbidden_certificate():
    sig = RingSignature(2, 2)
    jets = [jet_parse("x^2 + y^2", sig)]
    start = time.time()
    verdict, bound, depth = verify_forbidden_certificate(jets, 0.5)
    elapsed = time.time() - start
    ok = verdict == "pass" and bound > 0.5 and depth <= 6 and elapsed < 1.0
    report(5, f"forbidden c=1/2 (depth {depth}, {elapsed:.2f}s < 1s)", ok)


def test_criterion_06_negligibility():
    start = time.time()
    F = expr_parse("y^3/z", 3)
    cert = check_negligible(F, POLES, 2, 3)
    ok = cert.verdict == "pass"
    for rec in cert.records:
        ok &= rec["verdict"] == "pass"
        # every nonzero derivative bound is interval-verified: six
        # derivatives of y^3/z survive up to order two
        checked = [a for a in rec["condition_a"] if a.get("status") != "zero"]
        ok &= len(checked) >= 6
        ok &= all(a.get("certified", True) for a in checked)
    # fail case: xy is not negligible toward the diagonal
    diag = [(1 / math.sqrt(2), 1 / math.sqrt(2))]
    bad = check_negligible(expr_parse("x*y", 2), diag, 2, 2)
    ok &= bad.verdict == "fail" and bad.records[0]["witness"] is not None
    elapsed = time.time() - start
    report(6, f"negligibility ({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def _strong(m, n, gens, target, terms, F):
    sig = RingSignature(m, n)
    I = JetIdeal(sig, [jet_parse(g, sig) for g in gens])
    cert = ImplicationCertificate(
        I, jet_parse(target, sig),
        [(jet_parse(Q, sig), expr_parse(S, n), C) for Q, S, C in terms],
        expr_parse(F, n))
    return check_strong_global(cert, seed=0)


def test_criterion_07_strong_implication_corpus():
    ok = True
    rep = _strong(2, 3, ["x^2", "y^2 - x*z"], "x*y",
                  [("y^2 - x*z", "-y/z", 50.0)], "y^3/z")
    ok &= rep["verdict"] == "pass"
    ok &= len([d for d in rep["directions"]
               if d["verdict"] == "pass"]) == 2       # both poles
    ok &= all(d["identity_residual_zero"] for d in rep["directions"])
    ok &= any("cl(I)" in c for c in rep["conclusions"])
    ok &= any("not closed" in c for c in rep["conclusions"])
    # the cubic family: x^3, x^2 y, x y^2 from <x(x^2+y^2)> at m = 3
    for target, S in (("x^3", "x^2/(x^2 + y^2)"),
                      ("x^2*y", "x*y/(x^2 + y^2)"),
                      ("x*y^2", "y^2/(x^2 + y^2)")):
        rep = _strong(3, 2, ["x(x^2 + y^2)"], target,
                      [("x(x^2 + y^2)", S, 50.0)], "0")
        ok &= rep["verdict"] == "pass"
    report(7, "strong implication corpus", ok)


def _intro_annulus(rho_f=1.0, eps_f=1.0, a_f=1.0):
    A, eps = 1e9 * a_f, 1e-3 * eps_f
    delta = r = 1e-12
    rho = (r / 2) * rho_f
    sig = RingSignature(2, 3)
    s1 = Fraction(1e-12) * Fraction(5e-13)
    s2 = Fraction(5e-13)
    F = expr_parse(f"(y^3/z) * theta(norm(x,y), "
                   f"{s1.numerator}/{s1.denominator})", 3)
    S = expr_parse(f"-(y/z) * theta(norm(x,y), "
                   f"{s2.numerator}/{s2.denominator})", 3)
    params = {"A": A, "eps": eps, "delta": delta, "r": r, "rho": rho}
    return (params, jet_parse("x*y", sig), [jet_parse("y^2 - x*z", sig)],
            F, [S])


def test_criterion_08_annulus_conditions():
    start = time.time()
    params, p, Q, F, S = _intro_annulus()
    rep_c = check_annulus_condition("C", params, p, Q, F, S, POLES, seed=0)
    ok = rep_c["verdict"] == "pass"

    # C <-> C* agreement on 50 randomized draws around the certificate
    rng = np.random.default_rng(0)
    agree = 0
    for _ in range(50):
        params_i, *_ = _intro_annulus(rho_f=float(rng.uniform(0.8, 1.25)),
                                      eps_f=float(rng.uniform(0.5, 2.0)),
                                      a_f=float(rng.uniform(0.5, 2.0)))
        a = check_annulus_condition("C", params_i, p, Q, F, S, POLES, seed=1)
        b = check_annulus_condition("C*", params_i, p, Q, F, S, POLES, seed=1)
        agree += a["verdict"] == b["verdict"]
    ok &= agree == 50

    # C* implies C** with a measured constant
    rep_ss = check_annulus_condition("C**", params, p, Q, F, S, POLES, seed=0)
    ok &= rep_ss["verdict"] == "pass"
    ok &= rep_ss["chi_constant"] > 0 and math.isfinite(rep_ss["A_target"])
    elapsed = time.time() - start
    report(8, f"annulus C / C* / C** ({elapsed:.0f}s < 120s)",
           ok and elapsed < 120)


def test_criterion_09_gauge_regularization():
    ok = True
    gauges = {
        "sqrt": math.sqrt,
        "pow0.3": lambda t: min(1.0, t ** 0.3),
        "log": lambda t: 1.0 / (1.0 + math.log(1.0 / t)) if t < 1 else 1.0,
    }
    for name, fn in gauges.items():
        g = Gauge.from_function(name, fn)
        reg = gauge_regularize(g, check_scales=20)
        rep = reg.report
        ok &= rep["envelope_dominates"]
        ok &= rep["quasi_doubling_ok"]
        ok &= all(math.isfinite(c) for c in rep["derivative_constants"])
        ok &= rep["decays"] and len(rep["plus_values"]) == 20
        if name == "sqrt":
            rel = max(abs(v - math.sqrt(2.0 ** float(j))) /
                      math.sqrt(2.0 ** float(j))
                      for j, v in zip(reg.tilde.log2_grid, reg.tilde.values)
                      if 2.0 ** -60 <= 2.0 ** float(j) <= 1.0)
            ok &= rel <= 1e-6
    report(9, "gauge regularization", ok)


def test_criterion_10_tangent_estimator():
    ok = True
    line = [(0.0, s * 2.0 ** -k) for k in range(21) for s in (1.0, -1.0)]
    dirs = estimate_tangent_directions(line, 1e-3)
    ok &= sorted(d.vec for d in dirs) == [(0.0, -1.0), (0.0, 1.0)]
    # {x >= 0, x(x^2 - y^3) = 0}: the plane branch x = 0 plus x^2 = y^3
    cusp = list(line)
    for k in range(21):
        y = 2.0 ** -k
        cusp.append((y ** 1.5, y))
    dirs = estimate_tangent_directions(cusp, 1e-3)
    got = sorted(d.vec for d in dirs)
    ok &= len(got) == 2 and all(math.dist(a, b) <= 1e-3 for a, b in
                                zip(got, [(0.0, -1.0), (0.0, 1.0)]))
    # subset of the known allowed directions of <x*y^...>? both sampled
    # sets are contained in the allowed set of the vertical-cubic ideal
    sig = RingSignature(3, 2)
    aset = allow_overapprox(JetIdeal(sig, [jet_parse("x(x^2+y^2)", sig)]))
    allowed = {d.vec for d in aset.directions}
    ok &= all(any(math.dist(d.vec, w) <= 1e-3 for w in allowed)
              for d in dirs)
    report(10, "tangent estimator", ok)


def test_criterion_11_vacuous_regime():
    sig = RingSignature(2, 2)
    I = JetIdeal(sig, [jet_parse("x^2 + y^2", sig)])
    rng = random.Random(2718)
    ok = True
    for _ in range(20):
        p = random_jet(rng, sig, allow_constant=False)
        cert = ImplicationCertificate(I, p, [], expr_parse("0", 2))
        rep = check_strong_global(cert, seed=0)
        ok &= rep["verdict"] == "pass" and rep.get("vacuous") is True
    report(11, "vacuous regime", ok)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
