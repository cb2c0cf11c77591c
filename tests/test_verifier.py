"""Certificate verification: flat/tame sweeps, negligibility, strong
implication, annulus conditions."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from jetideals import algebraic
from jetideals.algebraic import Ray
from jetideals.cli import main
from jetideals.directions import ExactDirection
from jetideals.errors import DomainError
from jetideals.geometry import DELTA_FLOOR, Cone, Direction
from jetideals.ideal import JetIdeal
from jetideals.jetring import RingSignature, jet_parse, monomials
from jetideals.symfun import (ONE, ZERO, Const, add, compile_exprs,
                              expr_derive, expr_eval, expr_parse, expr_str,
                              mul)
from jetideals.verifier import (ImplicationCertificate,
                                check_annulus_condition, check_flat,
                                check_negligible,
                                check_strong_directional, check_strong_global,
                                check_tame, expr_scale_coords,
                                measure_chi_constant, meet,
                                symbolic_residual_zero)

POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]


def pole_cone(delta=0.4):
    return Cone([Direction(w) for w in POLES], delta, 1.0)


def test_meet_ordering():
    assert meet("pass", "pass") == "pass"
    assert meet("pass", "inconclusive") == "inconclusive"
    assert meet("inconclusive", "fail") == "fail"
    assert meet() == "pass"


def test_flat_pass_for_higher_order_monomial():
    report = check_flat(expr_parse("x^3", 1), None, 2, 1)
    assert report.verdict == "pass"


def test_flat_rejects_same_order():
    # x^2 is not o(|x|^2): the shell ratio is constant
    report = check_flat(expr_parse("x^2", 1), None, 2, 1)
    assert report.verdict != "pass"


def test_flat_borderline_is_not_pass():
    # y^3/z is exactly O(|x|^m) near the poles (homogeneous of degree
    # m = 2), so the shell ratios are scale-invariant: not flat, and not
    # refutable either
    report = check_flat(expr_parse("y^3/z", 3), pole_cone(), 2, 3)
    assert report.verdict == "inconclusive"


def test_flat_pass_above_critical_degree():
    # one extra degree of homogeneity makes the shell ratios decay
    report = check_flat(expr_parse("y^3*norm(x,y,z)/z", 3), pole_cone(),
                        2, 3)
    assert report.verdict == "pass"


def test_tame_bounded_ratio_passes():
    report = check_tame(expr_parse("x^2/(x^2 + y^2)", 2), None, 2, 2)
    assert report.verdict == "pass"
    assert report.constant is not None and report.constant < 10


def test_tame_witness_on_claimed_bound():
    report = check_tame(expr_parse("x^2/(x^2 + y^2)", 2), None, 2, 2,
                        bound=0.1)
    assert report.verdict == "fail"
    assert report.witness is not None
    assert report.witness["claimed_bound"] == 0.1


@pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
def test_a_tameness_constant_must_be_finite(C):
    # a certificate that sees only forbidden directions never reaches
    # check_tame, so the certificate itself rejects the constant
    sig = RingSignature(2, 2)
    ideal = JetIdeal(sig, [jet_parse("x^2 + y^2", sig)])
    with pytest.raises(DomainError):
        ImplicationCertificate(ideal, jet_parse("x*y", sig),
                               [(ideal.generators[0], ZERO, C)], ZERO)
    with pytest.raises(DomainError):
        check_tame(expr_parse("x^2/(x^2 + y^2)", 2), None, 2, 2, bound=C)


def test_tame_rejects_blowup():
    report = check_tame(expr_parse("1/norm(x,y)", 2), None, 2, 2)
    assert report.verdict == "fail"


# -- negligibility ----------------------------------------------------------

def test_sweep_with_no_evaluable_sample_is_inconclusive():
    # 1/(x - x) is defined nowhere: every sample raises DomainError, so
    # no shell carries evidence and neither check may pass
    nowhere = expr_parse("1/(x - x)", 2)
    tame = check_tame(nowhere, None, 2, 2)
    assert tame.verdict == "inconclusive" and tame.constant is None
    assert all(v is None for _, v in tame.shells)
    assert "no evaluable sample" in tame.notes[0]
    assert check_flat(nowhere, None, 2, 2).verdict == "inconclusive"


def test_sweep_of_the_zero_function_passes():
    # every derivative is ZERO: nothing to evaluate, and nothing to bound
    zero = expr_parse("0", 2)
    tame = check_tame(zero, None, 2, 2)
    assert tame.verdict == "pass" and tame.constant == 0.0
    assert check_flat(zero, None, 2, 2).verdict == "pass"


# -- strong implication -----------------------------------------------------

def xy_certificate():
    sig = RingSignature(2, 3)
    I = JetIdeal(sig, [jet_parse("x^2", sig), jet_parse("y^2 - x*z", sig)])
    return ImplicationCertificate(
        I, jet_parse("x*y", sig),
        [(jet_parse("y^2 - x*z", sig), expr_parse("-y/z", 3), 50.0)],
        expr_parse("y^3/z", 3))


def test_symbolic_residual_zero_exact():
    cert = xy_certificate()
    assert symbolic_residual_zero(cert.target, cert.terms, cert.F)
    bad = ImplicationCertificate(cert.ideal, cert.target, cert.terms,
                                 expr_parse("y^3/z + x", 3))
    assert not symbolic_residual_zero(bad.target, bad.terms, bad.F)


def test_strong_directional_allowed_pole():
    report = check_strong_directional(xy_certificate(),
                                      Direction((0.0, 0.0, 1.0)))
    assert report["verdict"] == "pass"
    assert report["identity_residual_zero"]


def test_strong_global_conclusions():
    report = check_strong_global(xy_certificate())
    assert report["verdict"] == "pass"
    assert any("cl(I)" in c for c in report["conclusions"])
    assert any("not closed" in c for c in report["conclusions"])


def test_strong_rejects_term_outside_ideal():
    sig = RingSignature(2, 3)
    I = JetIdeal(sig, [jet_parse("x^2", sig)])
    cert = ImplicationCertificate(
        I, jet_parse("x*y", sig),
        [(jet_parse("y^2 - x*z", sig), expr_parse("-y/z", 3), 50.0)],
        expr_parse("y^3/z", 3))
    with pytest.raises(DomainError):
        check_strong_directional(cert, Direction((0.0, 0.0, 1.0)))


def test_strong_scope_must_cover_allowed_directions():
    cert = xy_certificate()
    cert.scope = [(0.0, 0.0, 1.0)]     # misses the south pole
    with pytest.raises(DomainError):
        check_strong_global(cert)


def test_strong_vacuous_for_empty_allow():
    sig = RingSignature(2, 2)
    I = JetIdeal(sig, [jet_parse("x^2 + y^2", sig)])
    cert = ImplicationCertificate(I, jet_parse("x*y", sig), [],
                                  expr_parse("x*y", 2))
    report = check_strong_global(cert)
    assert report["verdict"] == "pass" and report["vacuous"]


def test_no_vacuous_pass_over_a_nonempty_allowed_set(tmp_path):
    # <-x^3 - 2yz^2, -3x^2 + 2y^2 + 2yz + z^2> has 8 allowed directions,
    # so a certificate with no terms for x*y*z, which is not in the
    # ideal, must not pass vacuously
    gens = ["-x^3 - 2y*z^2", "-3x^2 + 2y^2 + 2y*z + z^2"]
    sig = RingSignature(3, 3)
    I = JetIdeal(sig, [jet_parse(g, sig) for g in gens])
    cert = ImplicationCertificate(I, jet_parse("x*y*z", sig), [],
                                  expr_parse("x*y*z", 3))
    assert not I.contains(cert.target)
    report = check_strong_global(cert)
    assert report["verdict"] != "pass" and "vacuous" not in report
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "ideal": {"m": 3, "n": 3, "generators": gens},
        "target": "x*y*z", "F": "x*y*z", "terms": []}))
    assert main(["verify-implication", "--cert", str(path)]) != 0


def _cutoff_argument(kind, c):
    return {"norm": "norm(x,y)", "1/norm": f"{c}/norm(x,y)",
            "c*norm^2": f"{c}*(x^2 + y^2)", "y/x": "y/x"}[kind]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["norm", "1/norm", "c*norm^2", "y/x"]),
       c=st.fractions(Fraction(1, 8), 8, max_denominator=8),
       scale=st.floats(-30, 30).map(lambda t: Fraction(10.0 ** t)),
       where=st.sampled_from(["S", "F", "both"]))
def test_strong_certificate_with_a_cutoff_never_passes(kind, c, scale, where):
    # y^2 = F + S x^2 in <x^2> at m = n = 2, with theta(g, scale) in F, in
    # S or in both: y^2 is not in cl(<x^2>), and no cutoff's value near 0
    # is certified, so no such certificate may pass
    sig = RingSignature(2, 2)
    theta = expr_parse(f"theta({_cutoff_argument(kind, c)}, "
                       f"{scale.numerator}/{scale.denominator})", 2)
    ratio = expr_parse("y^2/x^2", 2)
    S = {"S": mul(ratio, theta), "F": None,
         "both": mul(ratio, add(ONE, mul(Const(-1), theta)))}[where]
    F = mul(expr_parse("y^2", 2), theta) if where != "S" else ZERO
    cert = ImplicationCertificate(
        JetIdeal(sig, [jet_parse("x^2", sig)]), jet_parse("y^2", sig),
        [(jet_parse("x^2", sig), S, 1.0)] if S else [], F)
    report = check_strong_global(cert)
    assert report["verdict"] == "inconclusive" or report["verdict"] == "fail"
    assert "conclusions" not in report
    for sub in report["directions"]:
        assert sub["identity_residual_zero"] is None
        assert sub["uncertified"] == [expr_str(theta, 2)]


# -- annulus conditions -----------------------------------------------------

def intro_data():
    A, eps = 1e9, 1e-3
    delta = r = eps / A
    rho = r / 2
    sig = RingSignature(2, 3)
    s1 = Fraction(delta) * Fraction(rho)
    s2 = Fraction(rho)
    F = expr_parse(f"(y^3/z) * theta(norm(x,y), "
                   f"{s1.numerator}/{s1.denominator})", 3)
    S = expr_parse(f"-(y/z) * theta(norm(x,y), "
                   f"{s2.numerator}/{s2.denominator})", 3)
    params = {"A": A, "eps": eps, "delta": delta, "r": r, "rho": rho}
    return (params, jet_parse("x*y", sig),
            [jet_parse("y^2 - x*z", sig)], F, [S])


def test_annulus_condition_c():
    params, p, Q, F, S = intro_data()
    report = check_annulus_condition("C", params, p, Q, F, S, POLES, seed=0)
    assert report["verdict"] == "pass"
    assert report["identity"]["method"] == "plateau-certified symbolic"
    assert report["identity"]["zero"]


def test_annulus_condition_c_star():
    params, p, Q, F, S = intro_data()
    report = check_annulus_condition("C*", params, p, Q, F, S, POLES, seed=0)
    assert report["verdict"] == "pass"
    for row in report["bounds"]:
        assert row["max_ratio"] <= 1.0 + 1e-9


def test_annulus_unknown_variant():
    params, p, Q, F, S = intro_data()
    with pytest.raises(DomainError):
        check_annulus_condition("D", params, p, Q, F, S, POLES)


def test_annulus_needs_positive_rho():
    params, p, Q, F, S = intro_data()
    params = dict(params, rho=0.0)
    with pytest.raises(DomainError):
        check_annulus_condition("C", params, p, Q, F, S, POLES)


@pytest.mark.parametrize("variant", ["C", "C*", "C**"])
@pytest.mark.parametrize("key,value", [
    # each of these passed, or raised ZeroDivisionError, unchecked
    ("A", -1e9), ("eps", -1e-3), ("A", 0.0), ("A_target", -1.0),
    ("delta", math.nan), ("r", math.inf)])
def test_annulus_rejects_parameters_that_are_not_finite_and_positive(
        variant, key, value):
    params, p, Q, F, S = intro_data()
    params[key] = value
    with pytest.raises(DomainError, match=f"need {key} finite"):
        check_annulus_condition(variant, params, p, Q, F, S, POLES)


def tiny_false_claim():
    # S = theta(|x|, rho/1000) is 0 on the annulus and F = 0, so the
    # claim x*y = S*(x^2 + z^2) is false there, yet x*y is only ~rho^2
    rho = 5e-13
    sig = RingSignature(2, 3)
    s = Fraction(rho) / 1000
    S = expr_parse(f"theta(norm(x,y,z), {s.numerator}/{s.denominator})", 3)
    params = {"A": 1e9, "eps": 1e-3, "delta": 1e-12, "r": 1e-12, "rho": rho}
    return (params, jet_parse("x*y", sig), [jet_parse("x^2 + z^2", sig)],
            expr_parse("0", 3), [S])


def test_identity_rejects_false_claim_at_tiny_scale():
    # theta(|x|, rho/1000) is certified on its 0-plateau over the region,
    # so the claim reads x*y = 0 there and is decided false exactly
    params, p, Q, F, S = tiny_false_claim()
    for variant in ("C", "C*", "C**"):
        rep = check_annulus_condition(variant, params, p, Q, F, S, POLES)
        assert rep["identity"] == {"method": "plateau-certified symbolic",
                                   "zero": False}
        assert rep["verdict"] == "fail"


def test_negligible_y3_over_z_at_poles():
    cert = check_negligible(expr_parse("y^3/z", 3), POLES, 2, 3)
    assert cert.verdict == "pass"
    (rec,) = cert.records
    assert rec["verdict"] == "pass" and rec["delta0"] == 0.05
    rows = [row for row in rec["condition_a"] if row["status"] != "zero"]
    # every nonzero derivative is homogeneous of degree m - |alpha|, zero
    # at the poles, with a certified Lipschitz constant on the domes
    assert len(rows) == 6
    assert all(row["status"] == "lipschitz" and row["certified"]
               and 0 < row["gradient_sup_upper"] < row["lipschitz"]
               < math.inf for row in rows)
    assert rec["condition_b"]["method"] == "separation"
    assert rec["condition_b"]["verdict"] == "pass"


def test_negligible_fail_with_witness():
    diag = [(1 / math.sqrt(2), 1 / math.sqrt(2))]
    cert = check_negligible(expr_parse("x*y", 2), diag, 2, 2)
    assert cert.verdict == "fail"
    w = cert.records[0]["witness"]
    assert w is not None
    # the witness is a genuine point evaluation above the claimed bound
    val = abs(expr_eval(expr_parse("x*y", 2), tuple(w["point"])))
    assert val == pytest.approx(w["value"]) and val > w["bound"]


def test_negligible_vacuous_for_empty_omega():
    cert = check_negligible(expr_parse("x*y", 2), [], 2, 2)
    assert cert.verdict == "pass"
    assert cert.records[0]["vacuous"]


def test_negligible_radius_absorbs_extra_homogeneity():
    # x^4 has homogeneity 4 > m = 3: negligible only on a small ball,
    # r(eps) = min(1, (eps / sup)^(1/gap)) for each row
    cert = check_negligible(expr_parse("x^4", 2), [(1.0, 0.0)], 3, 2)
    assert cert.verdict == "pass"
    rows = [row for row in cert.records[0]["condition_a"]
            if row["status"] != "zero"]
    assert [row["alpha"] for row in rows] == [[0, 0], [1, 0], [2, 0], [3, 0]]
    assert all(row["status"] == "radius absorbed"
               and row["homogeneity_gap"] == 1
               and 0 < row["dome_sup_upper"] < math.inf for row in rows)


def test_negligible_opening_is_capped_by_the_least_distance():
    # a quarter of the least distance between directions, so the domes
    # are disjoint convex components and (b) is certified from (a)
    F = expr_parse("x*y^3", 2)
    (rec,) = check_negligible(F, CLOSE, 2, 2).records
    assert rec["verdict"] == "pass"
    assert rec["delta0"] == math.dist(*CLOSE) / 4 < 0.05
    cond_b = rec["condition_b"]
    assert cond_b["method"] == "separation" and cond_b["verdict"] == "pass"
    assert 0 < cond_b["separation_angle"] < 0.03
    # across the domes, |x|, |y| <= |x - y| / sin(theta) weighs on k = m
    assert math.sin(cond_b["separation_angle"]) ** -2 < cond_b["constant"] \
        < math.inf
    # an exact duplicate is dropped; two distinct directions closer
    # than 4 DELTA_FLOOR certify no opening
    (twice,) = check_negligible(F, [(1.0, 0.0)] * 2, 2, 2).records
    assert twice["delta0"] == 0.05
    assert check_negligible(F, [(1.0, 0.0)], 2, 2).records == [twice]
    near = [(1.0, 0.0), (1.0, 3 * DELTA_FLOOR)]
    cert = check_negligible(F, near, 2, 2)
    assert cert.verdict == "inconclusive"
    assert cert.records[0]["delta0"] < DELTA_FLOOR
    assert "condition_a" not in cert.records[0]


def test_a_rational_direction_is_read_at_its_exact_ray():
    # (3, 4) and (6, 8) are one ray, its unit vector (0.6, 0.8) rounded;
    # F vanishes on the line 4x = 3y, and only the exact ray sees that
    F = expr_parse("(4*x - 3*y)^3/(x^2 + y^2)", 2)
    cert = check_negligible(F, [(Fraction(3), Fraction(4)), (6.0, 8.0)], 1, 2)
    assert cert.omegas == [(0.6, 0.8)] and cert.verdict == "pass"
    assert check_negligible(F, [(0.6, 0.8)], 1, 2).verdict != "pass"


def test_gap_zero_rows_are_decided_exactly_at_omega():
    # |G(t w)| = |G(w)| t^k: a G that is nonzero at w, however small,
    # fails for eps below |G(w)|, and the witness shows it
    for scale in ("1", "1/10000", "1/10^40"):
        cert = check_negligible(expr_parse(f"x*y*{scale}", 2), [(1.0, 0.0)],
                                2, 2)
        assert cert.verdict == "fail"
        w = cert.records[0]["witness"]
        assert w["alpha"] == [0, 1] and w["point"] == [0.5, 0.0]
        assert w["value"] > w["bound"] > 0
    # q^3/|x|^4 with q = x^2 - 2y^2 vanishes to third order on the ray
    # of (sqrt 2, 1): exactly zero there, read at the exact ray.  The
    # float vector is a rational ray next to it, where F is not zero,
    # though too small at its center for floats to read: F has no norm,
    # so the witness is read exactly there
    (root,) = [r for r in algebraic.real_roots((Fraction(-2), 0, 1))
               if r.lo > 0]
    ray = Ray(root, [(0, 1), (1,)])
    exact = ExactDirection(ray.unit(), ray)
    F = expr_parse("(x^2 - 2*y^2)^3/(x^2 + y^2)^2", 2)
    cert = check_negligible(F, [exact], 2, 2)
    assert cert.verdict == "pass"
    assert {row["status"] for row in cert.records[0]["condition_a"]} \
        == {"lipschitz"}
    near = check_negligible(F, [exact.vec], 2, 2)
    assert near.verdict == "fail"
    assert near.records[0]["condition_a"][0]["status"] == (
        "nonzero at omega (ring)")
    w = near.records[0]["witness"]
    assert w["alpha"] == [0, 0]
    assert w["point"] == [0.5 * c for c in exact.vec]
    x, y = map(Fraction, w["point"])
    assert w["value"] == float((x * x - 2 * y * y) ** 3 / (x * x + y * y) ** 2)
    assert w["value"] > w["bound"] > 0


@pytest.mark.parametrize("w", [(1.0, 1e-300), (1.0, 5e-324),
                               (-1.0, -5e-324)])
def test_a_direction_off_an_axis_by_a_tiny_float_gets_a_verdict(w):
    # the exact ray of (1, 1e-300) is a row of integers past the largest
    # double; its unit vector still reads
    cert = check_negligible(expr_parse("x^3", 2), [w], 1, 2)
    assert cert.verdict == "pass"
    assert cert.omegas == [w]


def test_an_exact_value_past_the_largest_double_is_no_witness():
    # at (0.5, 5e-301), x^2/y reads exactly as 5e299, and its derivative
    # in y as 1e600, which no double holds
    cert = check_negligible(expr_parse("x^2/y", 2), [(1.0, 1e-300)], 1, 2)
    rows = cert.records[0]["condition_a"]
    assert cert.verdict == "fail"
    assert cert.records[0]["witness"]["value"] == float(
        Fraction(1, 4) / Fraction(5e-301))
    assert rows[2]["alpha"] == [0, 1] and rows[2]["status"] == (
        "nonzero at omega (ring), with no float value at its center")


def test_a_direction_below_the_smallest_double_keeps_its_exact_ray():
    # (1, 10^-400) reads (1.0, 0.0), but y is not 0 on its ray: the
    # gap-0 row of F = y is nonzero there, and 0 at the float center
    cert = check_negligible(expr_parse("y", 2),
                            [(Fraction(1), Fraction(1, 10 ** 400))], 1, 2)
    assert cert.omegas == [(1.0, 0.0)]
    assert cert.records[0]["condition_a"][0]["status"] == (
        "nonzero at omega (ring), with no float value at its center")


@pytest.mark.parametrize("F,omega,verdict,status", [
    # a norm of some coordinates is out of the ring's reach: an
    # enclosure at omega that excludes 0 fails, one that holds 0 decides
    # nothing
    ("x*norm(x,y)", (1.0, 0.0, 0.0), "fail", "nonzero at omega (interval)"),
    ("x*norm(x,y)", (0.0, 0.0, 1.0), "inconclusive",
     "not decided at omega: out of the ring's reach, and the enclosure "
     "holds 0"),
    # undefined at omega: never a fail
    ("x^3/y", (1.0, 0.0, 0.0), "inconclusive", "undefined at omega"),
])
def test_gap_zero_rows_the_ring_cannot_decide(F, omega, verdict, status):
    cert = check_negligible(expr_parse(F, 3), [omega], 2, 3)
    assert cert.verdict == verdict
    assert cert.records[0]["condition_a"][0]["status"] == status


def _sympy_row(F, alpha, n):
    """d^alpha F in sympy, over one denominator, and its variables."""
    x = sympy.symbols("x y z")[:n]
    G = sympy.sympify(F, dict(zip("xyz", x)))
    for v, a in zip(x, alpha):
        G = sympy.diff(G, v, a) if a else G
    return sympy.together(G), x


def _exact_row_value(F, alpha, w):
    """sympy's d^alpha F at the rational point w, a Fraction, or None
    where its denominator vanishes."""
    G, x = _sympy_row(F, alpha, len(w))
    num, den = sympy.fraction(G)
    at = {v: sympy.Rational(Fraction(c)) for v, c in zip(x, w)}
    if den.subs(at) == 0:
        return None
    value = num.subs(at) / den.subs(at)
    return Fraction(int(value.p), int(value.q))


def _homogeneous_order(F, alpha, n):
    G, x = _sympy_row(F, alpha, n)
    if G == 0:
        return None
    orders = [sympy.Poly(part, *x).homogeneous_order()
              for part in sympy.fraction(G)]
    return None if None in orders else orders[0] - orders[1]


@pytest.mark.parametrize("F,omegas,m", [
    # nonzero at the second direction of its first row
    ("x^3*y/(x^2 + y^2)", [(1.0, 0.0), (math.cos(0.03), math.sin(0.03))], 2),
    ("x^2*y^2/(x^2 + y^2)", [(1.0, 0.0), (0.6, 0.8)], 2),
    # undefined on the ray through (1, 0), nonzero in d_x F at (0, 1)
    ("x^3/y + x*y", [(1.0, 0.0), (0.0, 1.0)], 2),
    ("y^3/z", POLES, 2),
    # homogeneity above m: large on the rays, yet no witness
    ("8*x^3", [(1.0, 0.0)], 2),
])
def test_center_ray_scan_matches_reference(F, omegas, m):
    # the reference: the first row of homogeneity gap 0 and direction w,
    # in order, where sympy's exact d^alpha F(w) is defined and nonzero
    # (at the rational point w, with the sign and zero of the ray)
    n = len(omegas[0])
    want = next(((alpha, w) for alpha in monomials(m, n)
                 if _homogeneous_order(F, alpha, n) == m - sum(alpha)
                 for w in omegas if _exact_row_value(F, alpha, w)), None)
    cert = check_negligible(expr_parse(F, n), omegas, m, n)
    witness = cert.records[0].get("witness")
    assert (cert.verdict == "fail") == (want is not None)
    if want is None:
        assert witness is None
        return
    alpha, w = want
    center = tuple(0.5 * c for c in w)
    assert (witness["alpha"], witness["point"]) == (list(alpha), list(center))
    assert witness["value"] == pytest.approx(
        abs(float(_exact_row_value(F, alpha, center))), rel=1e-12)


# -- condition (b) from condition (a) -----------------------------------------

# two directions 0.03 apart: the opening is a quarter of that
CLOSE = [(1.0, 0.0), (math.cos(0.03), math.sin(0.03))]


def _sampled_taylor_pairs(F, omegas, m, n, eps, rng, pairs=150):
    """Check (b) at eps on sampled pairs of Gamma(Omega, delta, r), at
    the delta and r that the record states for eps / c: each point
    s u with u within delta of a random direction of Omega and s below r,
    half the pairs across two domes.  Returns the certificate."""
    cert = check_negligible(F, omegas, m, n)
    assert cert.verdict == "pass"
    (rec,) = cert.records
    rows = rec["condition_a"]
    e = eps / rec["condition_b"]["constant"]
    delta = min([rec["delta0"]] + [e / row["lipschitz"] for row in rows
                                   if "lipschitz" in row])
    r = min([1.0] + [(e / row["dome_sup_upper"])
                     ** (1 / row["homogeneity_gap"]) for row in rows
                     if row.get("dome_sup_upper")])
    omegas = np.array(omegas)

    def point(i):
        w = omegas[i]
        v = rng.standard_normal(n)
        v -= (v @ w) * w
        u = w + 0.9 * delta * rng.uniform() * v / np.linalg.norm(v)
        return rng.uniform(0.05, 0.98) * r * u / np.linalg.norm(u)

    firsts = rng.integers(len(omegas), size=pairs)
    seconds = np.where(np.arange(pairs) % 2,
                       (firsts + 1) % len(omegas), firsts)
    xs = np.array([point(i) for i in firsts])
    ys = np.array([point(j) for j in seconds])
    table = {beta: expr_derive(F, beta) for beta in monomials(m, n)}
    at_x = dict(zip(table, compile_exprs(list(table.values()))(xs)))
    at_y = dict(zip(table, compile_exprs(list(table.values()))(ys)))
    diff = xs - ys
    dist = np.linalg.norm(diff, axis=1)
    for alpha in monomials(m, n):
        k = m - sum(alpha)
        gap, size = at_x[alpha][0].copy(), np.abs(at_x[alpha][0])
        for beta in monomials(k, n):
            ab = tuple(a + b for a, b in zip(alpha, beta))
            term = (at_y[ab][0] * np.prod(diff ** np.array(beta), axis=1)
                    / math.prod(map(math.factorial, beta)))
            gap -= term
            size += np.abs(term)
        assert np.all(np.abs(gap) <= eps * dist ** k + 1e-12 * size)
    return cert


@pytest.mark.parametrize("F", ["y^4/x", "x*y^3"])
def test_two_point_condition_b_matches_reference(F):
    # the reference is (b) itself, on sampled pairs of both domes and
    # across them, at the delta(eps / c) and r(eps / c) of the record
    rng = np.random.default_rng(7)
    for eps in (1.0, 0.01):
        _sampled_taylor_pairs(expr_parse(F, 2), CLOSE, 2, 2, eps, rng)


def test_condition_b_on_sampled_pairs_at_the_poles():
    # rows of gap 0: delta(eps / c) comes from their Lipschitz constants
    rng = np.random.default_rng(3)
    for eps in (1.0, 0.01):
        _sampled_taylor_pairs(expr_parse("y^3/z", 3), POLES, 2, 3, eps, rng)


@settings(max_examples=15, deadline=None)
@given(m=st.integers(1, 2), gap=st.integers(1, 2),
       coeffs=st.lists(st.integers(-5, 5), min_size=5, max_size=5),
       angles=st.tuples(st.floats(0, 6.0), st.floats(0.2, 3.0)),
       seed=st.integers(0, 2 ** 16))
@example(m=1, gap=1, coeffs=[0] * 5, angles=(5e-324, 1.0), seed=0)
def test_condition_b_constant_on_random_polynomials(m, gap, coeffs, angles,
                                                    seed):
    # a homogeneous polynomial of degree m + gap: (a) is certified with
    # r(eps), and sampled pairs across two domes meet (b) with the
    # stated constant
    d = m + gap
    F = " + ".join(f"({c})*x^{d - i}*y^{i}"
                   for i, c in enumerate(coeffs[:d + 1]))
    a, b = angles[0], angles[0] + angles[1]
    omegas = [(math.cos(a), math.sin(a)), (math.cos(b), math.sin(b))]
    _sampled_taylor_pairs(expr_parse(F, 2), omegas, m, 2, 0.1,
                          np.random.default_rng(seed))


def test_chi_constant_scaling():
    # 2^m times the measured cutoff-product constant, at least 2^m
    assert measure_chi_constant(2, 2, seed=0) >= 4.0


def test_chi_constant_is_measured_once_per_m_n_seed():
    first = measure_chi_constant(2, 3, seed=5)
    hits = measure_chi_constant.cache_info().hits
    assert measure_chi_constant(2, 3, seed=5) == first
    assert measure_chi_constant.cache_info().hits == hits + 1


def test_expr_scale_coords():
    e = expr_parse("x^2*y + norm(x,y)", 2)
    scaled = expr_scale_coords(e, Fraction(1, 2))
    x = (0.6, 0.8)
    half = tuple(0.5 * c for c in x)
    assert expr_eval(scaled, x) == pytest.approx(expr_eval(e, half), rel=1e-12)
