"""Metamorphic verdicts under scaling and under signed permutations.

The targets that a strong certificate implies form a linear space, and
tameness and negligibility are scale-free: for rational lam != 0 the map
(p, F, S_l, C_l) -> (lam p, lam F, lam S_l, |lam| C_l) must keep every
verdict of check_strong_global, and F -> lam F every verdict of
check_negligible.  A rule that compares a scale-invariant quantity with
a fixed number breaks this: a fixed list of eps passed F = lam x^2 on
<y> for small lam, though <y> = I^2(x-axis) is closed.

Closedness and negligibility do not see the coordinates either: for a
signed permutation A, composing the ideal, p, the Q_l, the S_l and F
with x -> A x, and moving Omega to A^T Omega, gives a certificate of the
same statement.  Sampled checks draw other points on an image, so only
a pass on one image and a fail on another is a contradiction; the exact
negligibility verdicts must be equal, and the allowed set of the image
of an ideal must be A^T times the ideal's, exactness included."""

import itertools
import json
import pathlib
from fractions import Fraction

import pytest

from jetideals.corpus import case_by_id
from jetideals.directions import allow_overapprox
from jetideals.ideal import JetIdeal
from jetideals.jetring import DiffeoJet, RingSignature, jet_compose, jet_parse
from jetideals.symfun import (Const, Coord, Norm, add, div, expr_eval,
                              expr_parse, fold, ipow, mul)
from jetideals.verifier import (ImplicationCertificate, check_negligible,
                                check_strong_global)

LAMBDAS = (Fraction(1, 10 ** 6), Fraction(1, 1000), Fraction(1000),
           Fraction(10 ** 6))


def _certificate(m, n, generators, target, terms, F):
    sig = RingSignature(m, n)
    ideal = JetIdeal(sig, [jet_parse(g, sig) for g in generators])
    return ImplicationCertificate(
        ideal, jet_parse(target, sig),
        [(jet_parse(Q, sig), expr_parse(S, n), C) for Q, S, C in terms],
        expr_parse(F, n))


def _corpus(case_id):
    inputs = case_by_id(case_id).inputs
    return _certificate(inputs["m"], inputs["n"], inputs["generators"],
                        inputs["target"],
                        [(t["Q"], t["S"], t["C"]) for t in inputs["terms"]],
                        inputs["F"])


def _family_a(sign):
    """xy = (-y/z)(y^2 - xz) + y^3/z in <x^2, y^2 - xz>; sign -1 flips S."""
    return _certificate(2, 3, ["x^2", "y^2 - x*z"], "x*y",
                        [("y^2 - x*z", f"{-sign}*y/z", 50.0)], "y^3/z")


def _family_b(target, S, sign):
    """target in <x(x^2 + y^2)> with F = 0; sign -1 flips S."""
    return _certificate(3, 2, ["x(x^2 + y^2)"], target,
                        [("x(x^2 + y^2)", f"{sign}*{S}", 50.0)], "0")


CERTIFICATES = {
    "strong-xy": lambda: _corpus("strong-xy"),
    "strong-cubic": lambda: _corpus("strong-cubic"),
    "family-a": lambda: _family_a(1),
    "family-a-flipped": lambda: _family_a(-1),
    **{f"family-b-{target}{'-flipped' * (sign < 0)}":
       (lambda target=target, S=S, sign=sign: _family_b(target, S, sign))
       for target, S in (("x^3", "x^2/(x^2 + y^2)"),
                         ("x^2*y", "x*y/(x^2 + y^2)"),
                         ("x*y^2", "y^2/(x^2 + y^2)"))
       for sign in (1, -1)},
    # F = p = x^2 with no terms, on the closed ideal <y>: a fail
    "closed-y": lambda: _certificate(2, 2, ["y"], "x^2", [], "x^2"),
}


def _scaled(cert, lam):
    return ImplicationCertificate(
        cert.ideal, cert.target.scale(lam),
        [(Q, mul(Const(lam), S), abs(lam) * C) for Q, S, C in cert.terms],
        mul(Const(lam), cert.F), scope=cert.scope)


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_strong_verdicts_are_scale_free(name):
    cert = CERTIFICATES[name]()
    want = check_strong_global(cert)["verdict"]
    assert want == ("fail" if "flipped" in name or name == "closed-y"
                    else "pass")
    assert [check_strong_global(_scaled(cert, lam))["verdict"]
            for lam in LAMBDAS] == [want] * len(LAMBDAS)


def test_negligibility_verdicts_are_scale_free():
    inputs = case_by_id("ex4-negligible").inputs
    n = inputs["n"]
    for F, want in ((inputs["F"], "pass"), ("x*y", "fail")):
        F = expr_parse(F, n)
        assert check_negligible(F, inputs["omegas"], inputs["m"],
                                n).verdict == want
        assert [check_negligible(mul(Const(lam), F), inputs["omegas"],
                                 inputs["m"], n).verdict
                for lam in LAMBDAS] == [want] * len(LAMBDAS)


def _signed_permutations(n):
    """Every n x n signed permutation matrix but the identity."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if perm != tuple(range(n)) or -1 in signs:
                yield [[signs[i] * (j == perm[i]) for j in range(n)]
                       for i in range(n)]


class _Permuted:
    """Fold hooks of e(A x) for a signed permutation A: row i of A
    holds its one entry sign at column j, so x_i becomes sign * x_j."""

    def __init__(self, matrix):
        self.entries = [next((j, c) for j, c in enumerate(row) if c)
                        for row in matrix]

    def const(self, e, visit): return e
    def add(self, e, visit): return add(*map(visit, e.terms))
    def mul(self, e, visit): return mul(*map(visit, e.factors))
    def pow(self, e, visit): return ipow(visit(e.base), e.k)
    def div(self, e, visit): return div(visit(e.num), visit(e.den))

    def coord(self, e, visit):
        j, sign = self.entries[e.i]
        return mul(Const(sign), Coord(j))

    def norm(self, e, visit):
        return Norm([self.entries[i][0] for i in e.indices])


def _transposed(matrix, w):
    """A^T w."""
    return tuple(sum(row[j] * w[i] for i, row in enumerate(matrix))
                 for j in range(len(w)))


def _permuted(expr, matrix):
    return fold((expr,), _Permuted(matrix))[0]


def _image(cert, matrix):
    phi = DiffeoJet.linear(cert.ideal.sig, matrix)
    return ImplicationCertificate(
        cert.ideal.transform(phi), jet_compose(cert.target, phi),
        [(jet_compose(Q, phi), _permuted(S, matrix), C)
         for Q, S, C in cert.terms],
        _permuted(cert.F, matrix))


def test_permuted_expressions_are_the_composed_functions():
    e = expr_parse("y^3/z + x*norm(x,y) - z^2 + 3*x", 3)
    x = (0.5, -2.0, 0.25)
    for matrix in _signed_permutations(3):
        ax = [sum(c * xj for c, xj in zip(row, x)) for row in matrix]
        assert expr_eval(_permuted(e, matrix), x) == pytest.approx(
            expr_eval(e, ax), rel=1e-12)


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_strong_verdicts_never_contradict_across_signed_permutations(name):
    cert = CERTIFICATES[name]()
    n = cert.ideal.sig.n
    verdicts = {check_strong_global(_image(cert, matrix))["verdict"]
                for matrix in _signed_permutations(n)}
    verdicts.add(check_strong_global(cert)["verdict"])
    assert not {"pass", "fail"} <= verdicts, verdicts


def test_negligibility_verdicts_are_equal_across_signed_permutations():
    inputs = case_by_id("ex4-negligible").inputs
    m, n, omegas = inputs["m"], inputs["n"], inputs["omegas"]
    for F, want in ((inputs["F"], "pass"), ("x*y", "fail")):
        F = expr_parse(F, n)
        assert check_negligible(F, omegas, m, n).verdict == want
        for matrix in _signed_permutations(n):
            # F(A x) near u is F near A u: Omega moves to A^T Omega
            moved = [_transposed(matrix, w) for w in omegas]
            assert check_negligible(_permuted(F, matrix), moved, m,
                                    n).verdict == want, matrix


STUDIES = json.loads((pathlib.Path(__file__).parent / "data"
                      / "ideal_studies.json").read_text())


@pytest.mark.parametrize("study", STUDIES, ids=lambda s: f"seed{s['seed']}")
def test_allowed_sets_map_exactly_under_signed_permutations(study):
    sig = RingSignature(study["m"], study["n"])
    ideal = JetIdeal(sig, [jet_parse(g, sig) for g in study["generators"]])
    allowed = allow_overapprox(ideal)
    for matrix in _signed_permutations(sig.n):
        image = allow_overapprox(
            ideal.transform(DiffeoJet.linear(sig, matrix)))
        assert (image.is_finite, image.exact) == (allowed.is_finite,
                                                  allowed.exact), matrix
        if allowed.is_finite:
            # == on floats: the plane solver writes some zeros as -0.0
            assert sorted(d.vec for d in image.directions) == sorted(
                _transposed(matrix, d.vec) for d in allowed.directions), \
                matrix
