"""A fixed corpus of worked examples with known outcomes.

Every case runs headlessly with fixed seeds, so two runs produce
identical JSON.  Expected outputs are tagged with how they were
obtained: "definition" (immediate from the definitions), "analytic"
(closed-form computation recorded in the case description), or
"derived" (frozen output of an independent computation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .directions import allow_overapprox, verify_forbidden_certificate
from .geometry import estimate_tangent_directions
from .ideal import JetIdeal
from .jetring import DiffeoJet, Jet, RingSignature, jet_compose, jet_parse
from .symfun import Gauge, expr_parse, gauge_regularize
from .verifier import (ImplicationCertificate, check_annulus_condition,
                       check_negligible, check_strong_global)


@dataclass
class CorpusCase:
    id: str
    description: str
    reference: str          # where the expected outcome comes from
    inputs: dict
    expected: dict
    tag: str = "derived"
    runner: object = field(default=None, repr=False)


def _sig(inputs):
    return RingSignature(inputs["m"], inputs["n"])


def _parse_gens(inputs):
    sig = _sig(inputs)
    return sig, [jet_parse(g, sig) for g in inputs["generators"]]


def _sorted_dirs(direction_set):
    return sorted(tuple(round(c, 12) for c in d.vec)
                  for d in direction_set.directions)


# ---------------------------------------------------------------------------
# Case runners.  Each returns {"outputs": ..., "verdict": "pass"|"fail"}.
# ---------------------------------------------------------------------------

def _run_truncation_zero(case):
    results = {}
    ok = True
    for m in range(1, 7):
        sig = RingSignature(m, 1)
        x = Jet.variable(sig, 0)
        xm = Jet.monomial(sig, (m,))
        prod = xm * x
        results[f"m={m}"] = str(prod)
        ok = ok and prod.is_zero()
    return {"outputs": results, "verdict": "pass" if ok else "fail"}


def _run_composition_degree(case):
    sig = RingSignature(case.inputs["m"], 1)
    p = jet_parse(case.inputs["p"], sig)
    phi = DiffeoJet(sig, [jet_parse(case.inputs["phi"], sig)])
    q = jet_compose(p, phi)
    out = {"composed": str(q),
           "order_before": p.order_of_vanishing(),
           "order_after": q.order_of_vanishing(),
           "degree_before": p.degree(),
           "degree_after": q.degree()}
    ok = (out["order_before"] == out["order_after"] ==
          case.expected["order"] and
          out["degree_after"] != out["degree_before"])
    return {"outputs": out, "verdict": "pass" if ok else "fail"}


def _run_allow(case):
    sig, gens = _parse_gens(case.inputs)
    aset = allow_overapprox(JetIdeal(sig, gens))
    out = aset.to_json()
    want = case.expected
    ok = (aset.is_finite and aset.exact == want["exact"]
          and _sorted_dirs(aset) ==
          [tuple(w) for w in sorted(map(tuple, want["directions"]))])
    return {"outputs": out, "verdict": "pass" if ok else "fail"}


def _run_forbidden(case):
    sig, gens = _parse_gens(case.inputs)
    verdict, bound, depth = verify_forbidden_certificate(
        gens, case.inputs["c"], omega=None, budget=case.inputs["budget"])
    out = {"verdict": verdict, "interval_lower_bound": bound,
           "max_depth": depth}
    ok = verdict == "pass" and depth <= case.expected["max_depth"]
    return {"outputs": out, "verdict": "pass" if ok else "fail"}


def _run_negligible(case):
    n = case.inputs["n"]
    F = expr_parse(case.inputs["F"], n)
    cert = check_negligible(F, case.inputs["omegas"], case.inputs["m"], n)
    return {"outputs": cert.to_json(), "verdict": cert.verdict}


def _run_strong(case):
    sig, gens = _parse_gens(case.inputs)
    n = sig.n
    I = JetIdeal(sig, gens)
    target = jet_parse(case.inputs["target"], sig)
    terms = [(jet_parse(t["Q"], sig), expr_parse(t["S"], n), t["C"])
             for t in case.inputs["terms"]]
    F = expr_parse(case.inputs["F"], n)
    cert = ImplicationCertificate(I, target, terms, F,
                                  scope=case.inputs.get("scope", "global"))
    report = check_strong_global(cert, seed=0)
    ok = report["verdict"] == "pass"
    if case.expected.get("conclusions"):
        ok = ok and len(report.get("conclusions", [])) >= 2
    if case.expected.get("vacuous"):
        ok = report["verdict"] == "pass" and report.get("vacuous") is True
    return {"outputs": report, "verdict": "pass" if ok else "fail"}


def _run_annulus(case):
    sig = _sig(case.inputs)
    n = sig.n
    p = jet_parse(case.inputs["p"], sig)
    Q_list = [jet_parse(q, sig) for q in case.inputs["Q"]]
    F = expr_parse(case.inputs["F"], n)
    S_list = [expr_parse(s, n) for s in case.inputs["S"]]
    report = check_annulus_condition(
        case.inputs["variant"], case.inputs["params"], p, Q_list, F, S_list,
        case.inputs["omegas"], seed=0)
    return {"outputs": report, "verdict": report["verdict"]}


def _run_gauge_sqrt(case):
    g = Gauge.from_function("sqrt", math.sqrt)
    reg = gauge_regularize(g)
    # analytic stationary point: the envelope of sqrt equals sqrt itself
    # (compared at the envelope's own grid nodes, where the sup over the
    # dense s grid is computed exactly)
    rel = 0.0
    for j, v in zip(reg.tilde.log2_grid, reg.tilde.values):
        t = 2.0 ** float(j)
        if not 2.0 ** -60 <= t <= 1.0:
            continue
        rel = max(rel, abs(v - math.sqrt(t)) / math.sqrt(t))
    out = dict(reg.report)
    out["sqrt_identity_rel_error"] = rel
    ok = (out["envelope_dominates"] and out["quasi_doubling_ok"]
          and rel <= case.expected["rel_tol"])
    return {"outputs": out, "verdict": "pass" if ok else "fail"}


def _run_tangent(case):
    points = [tuple(p) for p in case.inputs["points"]]
    dirs = estimate_tangent_directions(points, case.inputs["delta_out"])
    got = sorted(tuple(round(c, 9) for c in d.vec) for d in dirs)
    want = sorted(map(tuple, case.expected["directions"]))
    ok = len(got) == len(want) and all(
        math.dist(a, b) <= case.inputs["delta_out"]
        for a, b in zip(got, want))
    return {"outputs": {"directions": got}, "verdict": "pass" if ok else "fail"}


# ---------------------------------------------------------------------------
# The cases.
# ---------------------------------------------------------------------------

def _line_points():
    pts = []
    for k in range(0, 21):
        pts.append((0.0, 2.0 ** -k))
        pts.append((0.0, -(2.0 ** -k)))
    return pts


def _cusp_points():
    # the set {x >= 0, x (x^2 - y^3) = 0}: the branch x = 0 plus the
    # curve x^2 = y^3, y >= 0; both accumulate to the vertical axis
    pts = _line_points()
    for k in range(0, 21):
        y = 2.0 ** -k
        pts.append((y ** 1.5, y))
    return pts


def _intro_annulus_inputs():
    A, eps = 1e9, 1e-3
    delta = r = eps / A
    rho = r / 2
    s_small = Fraction(delta) * Fraction(rho)
    s_big = Fraction(rho)
    F = (f"(y^3/z) * theta(norm(x,y), "
         f"{s_small.numerator}/{s_small.denominator})")
    S = f"-(y/z) * theta(norm(x,y), {s_big.numerator}/{s_big.denominator})"
    return {"m": 2, "n": 3, "variant": "C",
            "params": {"A": A, "eps": eps, "delta": delta, "r": r, "rho": rho},
            "p": "x*y", "Q": ["y^2 - x*z"], "F": F, "S": [S],
            "omegas": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]}


_CASES = [
    CorpusCase(
        id="ring-truncation-zero",
        description="the top monomial times the coordinate is zero: "
                    "x^m * x = 0 in one variable, m = 1..6",
        reference="truncated-product definition",
        inputs={"m_range": [1, 6], "n": 1},
        expected={"product": "0"}, tag="definition",
        runner=_run_truncation_zero),
    CorpusCase(
        id="compose-degree-change",
        description="composing x^2 with x + x^2 preserves the order of "
                    "vanishing (2) but raises the polynomial degree to 3",
        reference="hand computation: (x + x^2)^2 = x^2 + 2x^3 + x^4, "
                  "truncated at m = 3",
        inputs={"m": 3, "n": 1, "p": "x^2", "phi": "x + x^2"},
        expected={"order": 2}, tag="analytic",
        runner=_run_composition_degree),
    CorpusCase(
        id="allow-empty",
        description="<x^2 + y^2> has no allowed directions: the lowest "
                    "part is positive on the whole circle",
        reference="x^2 + y^2 = 1 on the unit circle",
        inputs={"m": 2, "n": 2, "generators": ["x^2 + y^2"]},
        expected={"exact": True, "directions": []}, tag="analytic",
        runner=_run_allow),
    CorpusCase(
        id="allow-axes",
        description="<xy> allows exactly the four axis directions",
        reference="zero set of xy on the circle",
        inputs={"m": 2, "n": 2, "generators": ["x*y"]},
        expected={"exact": True,
                  "directions": [[1.0, 0.0], [-1.0, 0.0],
                                 [0.0, 1.0], [0.0, -1.0]]}, tag="analytic",
        runner=_run_allow),
    CorpusCase(
        id="allow-poles",
        description="<x^2, y^2 - xz> allows exactly the two poles "
                    "(0, 0, +/-1)",
        reference="x = 0 forces y = 0 on the common zero set",
        inputs={"m": 2, "n": 3, "generators": ["x^2", "y^2 - x*z"]},
        expected={"exact": True,
                  "directions": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]},
        tag="analytic", runner=_run_allow),
    CorpusCase(
        id="allow-vertical-cubic",
        description="<x(x^2 + y^2)> at degree 3 allows the vertical "
                    "directions (0, +/-1)",
        reference="x (x^2 + y^2) = 0 on the circle iff x = 0",
        inputs={"m": 3, "n": 2, "generators": ["x(x^2 + y^2)"]},
        expected={"exact": True, "directions": [[0.0, 1.0], [0.0, -1.0]]},
        tag="analytic", runner=_run_allow),
    CorpusCase(
        id="forbidden-whole-sphere",
        description="|x^2 + y^2| > (1/2) |x|^2 on the whole plane, "
                    "certified by interval subdivision",
        reference="x^2 + y^2 = |x|^2 exactly, so any c < 1 works",
        inputs={"m": 2, "n": 2, "generators": ["x^2 + y^2"], "c": 0.5,
                "budget": 12},
        expected={"max_depth": 6}, tag="analytic",
        runner=_run_forbidden),
    CorpusCase(
        id="ex4-negligible",
        description="y^3 / z is negligible (m = 2) toward the poles "
                    "(0, 0, +/-1) for eps down to 10^-3",
        reference="|y| < delta |x| near the poles gives "
                  "|y^3/z| = O(delta^3 |x|^2)",
        inputs={"m": 2, "n": 3, "F": "y^3/z",
                "omegas": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]},
        expected={"verdict": "pass"}, tag="analytic",
        runner=_run_negligible),
    CorpusCase(
        id="strong-xy",
        description="xy = (-y/z)(y^2 - xz) + y^3/z verifies strong "
                    "implication for <x^2, y^2 - xz> at both poles; "
                    "xy lies in the closure but not in the ideal",
        reference="algebraic identity xy = (-y/z)(y^2 - xz) + y^3/z",
        inputs={"m": 2, "n": 3, "generators": ["x^2", "y^2 - x*z"],
                "target": "x*y", "F": "y^3/z",
                "terms": [{"Q": "y^2 - x*z", "S": "-y/z", "C": 50.0}],
                "scope": "global"},
        expected={"verdict": "pass", "conclusions": True}, tag="analytic",
        runner=_run_strong),
    CorpusCase(
        id="strong-cubic",
        description="x^3 = (x^2/(x^2+y^2)) x(x^2+y^2) verifies strong "
                    "implication for <x(x^2+y^2)> at degree 3",
        reference="algebraic identity x^3 = (x^2/(x^2+y^2)) * x(x^2+y^2)",
        inputs={"m": 3, "n": 2, "generators": ["x(x^2 + y^2)"],
                "target": "x^3", "F": "0",
                "terms": [{"Q": "x*(x^2 + y^2)", "S": "x^2/(x^2 + y^2)",
                           "C": 50.0}],
                "scope": "global"},
        expected={"verdict": "pass", "conclusions": True}, tag="analytic",
        runner=_run_strong),
    CorpusCase(
        id="annulus-intro",
        description="the cutoff decomposition of xy near the poles "
                    "satisfies annulus condition C with A = 10^9, "
                    "eps = 10^-3, delta = r = eps/A, rho = r/2",
        reference="frozen run of check_annulus_condition on this data",
        inputs=_intro_annulus_inputs(),
        expected={"verdict": "pass"}, tag="derived",
        runner=_run_annulus),
    CorpusCase(
        id="gauge-sqrt-identity",
        description="the sup envelope of sqrt(t) is sqrt(t) itself "
                    "(the stationary point of (2t/(t+s)) sqrt(s) is s = t)",
        reference="d/ds [(2t/(t+s)) sqrt(s)] = 0 at s = t",
        inputs={"gauge": "sqrt"},
        expected={"rel_tol": 1e-6}, tag="analytic",
        runner=_run_gauge_sqrt),
    CorpusCase(
        id="tangent-vertical-line",
        description="dyadic samples of the line {x = 0} have tangent "
                    "directions exactly (0, +/-1)",
        reference="the line is its own tangent cone",
        inputs={"points": _line_points(), "delta_out": 1e-3},
        expected={"directions": [[0.0, 1.0], [0.0, -1.0]]}, tag="analytic",
        runner=_run_tangent),
    CorpusCase(
        id="tangent-cusp-branch",
        description="samples of {x >= 0, x(x^2 - y^3) = 0} accumulate "
                    "only toward (0, +/-1)",
        reference="the branch x^2 = y^3 is tangent to the vertical axis",
        inputs={"points": _cusp_points(), "delta_out": 1e-3},
        expected={"directions": [[0.0, 1.0], [0.0, -1.0]]}, tag="analytic",
        runner=_run_tangent),
    CorpusCase(
        id="vacuous-implication",
        description="with no allowed directions every target is implied: "
                    "the closure of <x^2 + y^2> is the whole maximal ideal",
        reference="empty allowed set makes the smallness condition vacuous",
        inputs={"m": 2, "n": 2, "generators": ["x^2 + y^2"],
                "target": "x*y", "F": "x*y", "terms": [],
                "scope": "global"},
        expected={"verdict": "pass", "vacuous": True}, tag="analytic",
        runner=_run_strong),
]


def corpus_cases():
    """The full list of corpus cases, in a fixed order."""
    return list(_CASES)


def case_by_id(case_id: str) -> CorpusCase:
    for case in _CASES:
        if case.id == case_id:
            return case
    raise KeyError(case_id)


def run_case(case: CorpusCase) -> dict:
    result = case.runner(case)
    return {"id": case.id, "description": case.description,
            "reference": case.reference, "tag": case.tag,
            "expected": case.expected, **result}
