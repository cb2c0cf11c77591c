"""Certificate verification: flat/tame sweeps, negligibility, strong
implication, annulus conditions."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetideals import regions, verifier
from jetideals.cli import main
from jetideals.errors import DomainError
from jetideals.geometry import Cone, Direction
from jetideals.ideal import JetIdeal
from jetideals.jetring import RingSignature, jet_parse, monomials
from jetideals.symfun import (ONE, ZERO, Const, add, expr_derive,
                              expr_eval, expr_parse, expr_str, mul)
from jetideals.verifier import (ImplicationCertificate,
                                check_annulus_condition, check_flat,
                                check_negligible,
                                check_strong_directional, check_strong_global,
                                check_tame, delta_ladder, expr_scale_coords,
                                measure_chi_constant, meet,
                                symbolic_residual_zero)

import scalar_reference

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


def test_delta_ladder_shrinks_and_caps():
    for eps in (1.0, 0.1, 1e-3):
        assert all(0 < d < 0.25 for d in delta_ladder(eps))
    ladder = delta_ladder(0.1)
    assert ladder == sorted(ladder, reverse=True)
    assert delta_ladder(1e-3)[0] == pytest.approx(5e-5)


def test_delta_ladder_has_no_repeated_rungs():
    # at eps = 1, eps^2/20 = eps/20: the rung used to come back twice
    assert delta_ladder(1.0) == [0.05, 0.025]
    for eps in (1.0, 0.5, 0.1, 0.01, 1e-3, 1e-5):
        ladder = delta_ladder(eps)
        assert len(set(ladder)) == len(ladder)


def test_repeated_rungs_change_no_verdict(monkeypatch):
    # 10*y^3/z cannot be certified at eps = 1 (|d_y^2 F| = 60|y/z| passes
    # 1 on both domes), so its whole ladder runs; a small cell budget
    # keeps the starved walks short
    monkeypatch.setattr(regions, "DOME_CELL_BUDGET", 512)
    F = expr_parse("10*y^3/z", 3)
    walks = []
    dome_sup = regions._dome_sup
    monkeypatch.setattr(verifier, "_dome_sup",
                        lambda *a: walks.append(a) or dome_sup(*a))

    def run():
        walks.clear()
        cert = check_negligible(F, POLES, 2, 3, eps_grid=(1.0, 0.1))
        return cert, len(walks)

    deduped, deduped_walks = run()

    def repeating(eps):
        cands = [eps / 20, eps / 40, eps ** 2 / 20, eps ** 2 / 40,
                 eps ** 3 / 20]
        return [d for d in cands if 0.0 < d < 0.25]

    monkeypatch.setattr(verifier, "delta_ladder", repeating)
    repeated, repeated_walks = run()
    assert deduped.verdict == repeated.verdict == "inconclusive"
    assert ([r["verdict"] for r in deduped.records]
            == [r["verdict"] for r in repeated.records]
            == ["inconclusive", "pass"])
    assert deduped.records[1] == repeated.records[1]
    starved = [e["delta"] for e in deduped.records[0]["cell_budget_exhausted"]]
    assert starved == [0.05, 0.025]
    assert len(repeated.records[0]["cell_budget_exhausted"]) == 5
    assert deduped_walks < repeated_walks


def test_negligible_y3_over_z_at_poles():
    cert = check_negligible(expr_parse("y^3/z", 3), POLES, 2, 3)
    assert cert.verdict == "pass"
    for rec in cert.records:
        assert rec["verdict"] == "pass"
        assert rec["delta"] < 0.25 and 0 < rec["r"] <= 1.0


def test_negligible_fail_with_witness():
    diag = [(1 / math.sqrt(2), 1 / math.sqrt(2))]
    cert = check_negligible(expr_parse("x*y", 2), diag, 2, 2,
                            eps_grid=(0.1,))
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
    # x^4 has homogeneity 4 > m = 3: negligible only on a small ball
    cert = check_negligible(expr_parse("x^4", 2), [(1.0, 0.0)], 3, 2,
                            eps_grid=(0.01,))
    assert cert.verdict == "pass"
    assert cert.records[0]["r"] < 1.0


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


@pytest.mark.parametrize("F,omegas,m", [
    # witnesses at a different alpha and direction on each rung
    ("x^3*y/(x^2 + y^2)", [(1.0, 0.0), (math.cos(0.03), math.sin(0.03))], 2),
    ("x^2*y^2/(x^2 + y^2)", [(1.0, 0.0), (0.6, 0.8)], 2),
    # the ray through (1, 0) does not evaluate and is skipped
    ("x^3/y + x*y", [(1.0, 0.0), (0.0, 1.0)], 2),
    ("y^3/z", POLES, 2),
    # homogeneity above m: large on the rays, yet no witness
    ("8*x^3", [(1.0, 0.0)], 2),
])
def test_center_ray_scan_matches_reference(F, omegas, m):
    n = len(omegas[0])
    F = expr_parse(F, n)
    eps_grid = (1.0, 0.3, 0.1, 0.01)
    cert = check_negligible(F, omegas, m, n, eps_grid=eps_grid,
                            pair_samples=5)
    derivs = [(alpha, expr_derive(F, alpha)) for alpha in monomials(m, n)]
    for eps, rec in zip(eps_grid, cert.records):
        want = scalar_reference.ray_witness(derivs, omegas, eps, m)
        assert rec.get("witness") == want
        assert (rec["verdict"] == "fail") == (want is not None)


# -- two-point condition (b) --------------------------------------------------

# two directions 0.03 apart: closer than 2 delta for eps >= 0.3, so
# condition (b) is sampled on point pairs there
CLOSE = [(1.0, 0.0), (math.cos(0.03), math.sin(0.03))]


def _condition_b_runs(call):
    """call(condition_b, rng) once on the kernel-based condition (b) and
    once on the scalar reference loop: (result, rng state) per side."""
    runs = []
    for condition_b in (verifier._condition_b,
                        scalar_reference.condition_b):
        rng = np.random.default_rng(7)
        runs.append((json.dumps(call(condition_b, rng), sort_keys=True),
                     rng.bit_generator.state))
    return runs


@pytest.mark.parametrize("F", ["y^4/x", "x*y^3"])
def test_two_point_condition_b_matches_reference(monkeypatch, F):
    F = expr_parse(F, 2)

    def run(condition_b, rng):
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_condition_b", condition_b)
            # both rungs sample pairs; the second draws after the first
            return check_negligible(F, CLOSE, 2, 2, eps_grid=(1.0, 0.5),
                                    pair_samples=40).to_json()

    (got, _), (want, _) = _condition_b_runs(run)
    assert got == want
    records = json.loads(got)["records"]
    assert [r["condition_b"] for r in records] == [
        {"method": "two-point sampling", "pairs": 40, "verdict": "pass"}] * 2


@pytest.mark.parametrize("F,eps,verdict", [
    ("y^4/x", 1e-6, "fail"),            # a pair breaks the Taylor bound
    ("x*y^3 + 1/(x - x)", 1.0, "pass"),  # no pair evaluates
])
def test_two_point_condition_b_direct_calls(F, eps, verdict):
    m, n = 2, 2
    F = expr_parse(F, n)
    derivs = [(alpha, expr_derive(F, alpha)) for alpha in monomials(m, n)]

    def run(condition_b, rng):
        return condition_b(F, derivs, CLOSE, 0.05, 1.0, eps, m, n, rng, 30)

    (got, got_state), (want, want_state) = _condition_b_runs(run)
    assert got == want and got_state == want_state
    result = json.loads(got)
    assert result["verdict"] == verdict
    assert ("witness" in result) == (verdict == "fail")


@pytest.mark.parametrize("chunk", [verifier.PAIR_CHUNK, 40])
@pytest.mark.parametrize("eps,verdict", [(1.0, "pass"), (0.055, "fail")])
def test_two_point_condition_b_across_chunks(monkeypatch, chunk, eps,
                                             verdict):
    # On y^4/x the first pair of the seed-7 stream whose Taylor gap
    # exceeds 0.055 |x - y|^(m - |alpha|) is pair 92: inside the first
    # chunk of PAIR_CHUNK pairs, and the 12th pair of the third chunk of
    # 40.  The pass runs 100 pairs, over three chunks of 40.
    m, n = 2, 2
    F = expr_parse("y^4/x", n)
    derivs = [(alpha, expr_derive(F, alpha)) for alpha in monomials(m, n)]
    monkeypatch.setattr(verifier, "PAIR_CHUNK", chunk)

    def run(condition_b, rng, pairs=100):
        return condition_b(F, derivs, CLOSE, 0.05, 1.0, eps, m, n, rng,
                           pairs)

    (got, got_state), (want, want_state) = _condition_b_runs(run)
    assert got == want and got_state == want_state
    assert json.loads(got)["verdict"] == verdict
    if verdict == "fail":
        # the 91 pairs before it pass
        before = verifier._condition_b(F, derivs, CLOSE, 0.05, 1.0, eps,
                                       m, n, np.random.default_rng(7), 91)
        assert before == {"method": "two-point sampling", "pairs": 91,
                          "verdict": "pass"}
    else:
        assert json.loads(got)["pairs"] == 100


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
