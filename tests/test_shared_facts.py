"""Facts that strong implication computes once.

An ideal keeps its allowed set (per patch budget) on the instance, and
check_strong_global checks the identity p = sum S_l Q_l + F once per
call, not once per direction.  Neither may change any report."""

import json
from fractions import Fraction

import pytest
import sympy

import scalar_reference
from jetideals import directions, verifier
from jetideals.directions import DirectionSet, allow_overapprox
from jetideals.ideal import JetIdeal
from jetideals.jetring import RingSignature, jet_parse
from jetideals.symfun import expr_parse
from jetideals.verifier import ImplicationCertificate, check_strong_global

SIG_A, SIG_B, SIG_V = (RingSignature(2, 3), RingSignature(3, 2),
                       RingSignature(2, 2))


def ideal_a():
    return JetIdeal(SIG_A, [jet_parse("x^2", SIG_A),
                            jet_parse("y^2 - x*z", SIG_A)])


def ideal_b():
    return JetIdeal(SIG_B, [jet_parse("x(x^2 + y^2)", SIG_B)])


def ideal_v():
    return JetIdeal(SIG_V, [jet_parse("x^2 + y^2", SIG_V)])


def family_a(ideal, c, flipped=False):
    """c*xy = (-c*y/z)(y^2 - xz) + c*y^3/z in <x^2, y^2 - xz>."""
    c = Fraction(c)
    sign = -1 if flipped else 1
    return ImplicationCertificate(
        ideal, jet_parse(f"{c}*x*y", SIG_A),
        [(ideal.generators[1], expr_parse(f"{-sign * c}*y/z", 3), 50.0)],
        expr_parse(f"{c}*y^3/z", 3))


def family_b(ideal, target, S):
    return ImplicationCertificate(
        ideal, jet_parse(target, SIG_B),
        [(ideal.generators[0], expr_parse(S, 2), 50.0)], expr_parse("0", 2))


def vacuous(ideal, target):
    return ImplicationCertificate(ideal, jet_parse(target, SIG_V), [],
                                  expr_parse("0", 2))


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_allowed_set_once_per_ideal_residual_once_per_check(monkeypatch):
    solves = counting(monkeypatch, directions, "_exact_zero_set")
    residuals = counting(monkeypatch, verifier, "symbolic_residual_zero")
    ideal = ideal_a()
    for c in ("1/3", "2"):
        rep = check_strong_global(family_a(ideal, c))
        assert rep["verdict"] == "pass" and len(rep["directions"]) == 2
    assert len(solves) == 1
    assert len(residuals) == 2


def test_allowed_set_is_shared_and_immutable():
    ideal = ideal_a()
    first = allow_overapprox(ideal)
    assert allow_overapprox(ideal) is first
    assert isinstance(first.directions, tuple)
    # a different patch budget is a different entry
    assert allow_overapprox(ideal, budget=4) is not first


# per family: the ideal's constructor and certificates on that ideal
FAMILIES = {
    "a": (ideal_a, [lambda I: family_a(I, "7/5"),
                    lambda I: family_a(I, "7/5", flipped=True),
                    lambda I: family_a(I, "1/9")]),
    "b": (ideal_b, [lambda I: family_b(I, "2*x^3", "2*x^2/(x^2 + y^2)"),
                    lambda I: family_b(I, "x^2*y", "x*y/(x^2 + y^2)"),
                    lambda I: family_b(I, "x*y^2", "-y^2/(x^2 + y^2)")]),
    "vacuous": (ideal_v, [lambda I: vacuous(I, "3*x*y - y^2")]),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_shared_ideal_reports_equal_fresh_ideal_reports(family):
    new_ideal, certs = FAMILIES[family]
    shared_ideal = new_ideal()
    shared = [check_strong_global(cert(shared_ideal), seed=i)
              for i, cert in enumerate(certs)]
    fresh = [check_strong_global(cert(new_ideal()), seed=i)
             for i, cert in enumerate(certs)]
    assert json.dumps(shared) == json.dumps(fresh)
    verdicts = [r["verdict"] for r in shared]
    assert "pass" in verdicts
    if family != "vacuous":
        assert "fail" in verdicts   # the flipped certificate


def test_equal_span_ideals_keep_their_own_allowed_sets():
    sig = RingSignature(2, 2)
    for homogeneous_first in (True, False):
        homogeneous = JetIdeal(sig, [jet_parse("x", sig),
                                     jet_parse("y^2", sig)])
        mixed = JetIdeal(sig, [jet_parse("x + y^2", sig),
                               jet_parse("y^2", sig)])
        # equal spans, so == holds, but the lowest parts differ in kind
        assert homogeneous == mixed and hash(homogeneous) == hash(mixed)
        allow_overapprox(homogeneous if homogeneous_first else mixed)
        assert allow_overapprox(homogeneous).exact is True
        assert allow_overapprox(mixed).exact is False


@pytest.mark.parametrize("gens", [
    ["x^2", "x*y - x^2"],                 # vertical directions
    ["x*(2*x - 5*y)"],                    # vertical and rational roots
    ["x*y - 2*y^2"],
    ["y^2 - 2*x^2"],                      # irrational roots
    ["x^3 - 3/7*x*y^2 + y^3"],            # a cubic with CRootOf roots
    ["(x - y)(2*x + 3*y)", "x^2 - y^2"],  # a shared factor
    ["x^2 + y^2"],                        # no real root
    ["x + y^2", "x*y"],                   # non-homogeneous generators
    ["(x^2 - 3*y^2)*(x + y)", "(x^2 - 3*y^2)*(2*x - y)",
     "(x^2 - 3*y^2)*y"],                  # an irrational factor in common
    ["x^3 + x^2*y + y^3",
     "(x^3 + x^2*y + y^3)*(x - 2*y)"],    # one CRootOf root in common
    ["(x - 2*y)*(3*x^2 - y^2)*x"],        # rational, irrational, vertical
    ["(x^2 - 2*y^2)^2"],                  # a repeated irrational factor
])
def test_plane_solver_matches_substitution(gens):
    sig = RingSignature(4, 2)
    ideal = JetIdeal(sig, [jet_parse(g, sig) for g in gens])
    parts = [g.lowest_homogeneous_part() for g in ideal.generators]
    got = directions._plane_zero_set(parts)
    want = scalar_reference.plane_zero_set(parts)
    assert ([(d.vec, sympy.srepr(scalar_reference.ray_to_sympy(d.sym)))
             for d in got]
            == [(d.vec, sympy.srepr(d.sym)) for d in want])
    assert (json.dumps(DirectionSet(2, True, directions=got).to_json())
            == json.dumps(DirectionSet(2, True, directions=want).to_json()))
