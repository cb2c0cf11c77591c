"""The exact annulus identity: cutoff values certified per direction.

regions._cutoff_values certifies each cutoff theta^(k)(g / scale) as
constant over one direction's region box, on either plateau of theta,
by exact comparison of g's range with a*scale and b*scale; it returns
None when some cutoff may lie in its band.  Wherever it returns a value,
the compiled cutoff must read exactly that value at every region point.
verifier._scaled_identity decides the identity once per direction with
those values, each |x_i| read with the signs that x_i takes on the
direction's region (regions._region_signs, a spherical-cap bound that
every point drawn in the region must obey), and names the cutoffs it
could not certify.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetideals.corpus import _intro_annulus_inputs
from jetideals.jetring import RingSignature, jet_parse
from jetideals.regions import _cutoff_values, _region_boxes, _region_signs
from jetideals.symfun import (DEFAULT_CUTOFF, Const, Coord, Cutoff, Norm,
                              add, compile_expr, div, expr_parse, expr_str,
                              ipow, mul)
from jetideals.verifier import (_dome_directions, _scaled_identity,
                                check_annulus_condition)

N = 3
SIG = RingSignature(2, N)
POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
FULL = Norm((0, 1, 2))


def _region(rho):
    return (Fraction(rho) / 2, 2 * Fraction(rho))


def _argument(kind, c, rho):
    """A cutoff argument of order rho on the annulus around rho."""
    if kind == "norm":
        return FULL
    if kind == "c/norm":
        return div(Const(Fraction(c) * Fraction(rho) ** 2), FULL)
    if kind == "norm(x,y)":
        return Norm((0, 1))
    if kind == "c*(x^2+y^2)":
        return mul(Const(Fraction(c) / Fraction(rho)),
                   add(ipow(Coord(0), 2), ipow(Coord(1), 2)))
    return div(Coord(1), Coord(2))


log_uniform = st.floats(-4, 4).map(lambda t: 10.0 ** t)
directions = st.tuples(*[st.floats(-1, 1)] * N).filter(
    lambda v: math.hypot(*v) > 0.1).map(
        lambda v: tuple(c / math.hypot(*v) for c in v))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["norm", "c/norm", "norm(x,y)", "c*(x^2+y^2)",
                             "y/z"]),
       k=log_uniform, c=st.floats(-2, 2).map(lambda t: 10.0 ** t),
       rho=st.floats(-6, 2).map(lambda t: 10.0 ** t), w=directions,
       delta=st.floats(1e-6, 0.5), order=st.integers(0, 2),
       seed=st.integers(0, 2 ** 16))
def test_certified_values_are_the_compiled_values(kind, k, c, rho, w, delta,
                                                  order, seed):
    cut = Cutoff(DEFAULT_CUTOFF, _argument(kind, c, rho),
                 Fraction(k) * Fraction(rho), order)
    s_range = _region(rho)
    box, = _region_boxes([w], delta, *s_range)
    values = _cutoff_values([cut], box, s_range, N)
    if values is None:
        return
    value = values[cut]
    assert value in ((0, 1) if order == 0 else (0,))
    rng = np.random.default_rng(seed)
    dirs = _dome_directions(rng, [w], delta, 40)
    points = rng.uniform(rho / 2, 2 * rho, len(dirs))[:, None] * dirs
    vals, ok = compile_expr(cut)(points)
    assert ok.all()
    assert (vals == value).all(), (value, vals)


@pytest.mark.parametrize("kind", ["norm", "c/norm", "norm(x,y)",
                                  "c*(x^2+y^2)", "y/z"])
def test_both_plateaus_are_certified(kind):
    # at a scale far below the region's arguments theta is 0, far above
    # them it is 1
    rho = 1e-3
    s_range = _region(rho)
    box, = _region_boxes([(0.0, 0.6, 0.8)], 0.05, *s_range)
    got = []
    for k in (1e-4, 1e4):
        cut = Cutoff(DEFAULT_CUTOFF, _argument(kind, 1.0, rho),
                     Fraction(k) * Fraction(rho))
        got.append(_cutoff_values([cut], box, s_range, N)[cut])
    assert got == [0, 1]


def test_a_plateau_reached_only_by_rounding_is_not_certified():
    # the region reaches |x| = float(0.4) > 2/5 = a * scale: theta may be
    # below 1 there, though float(a * scale) == 2 * 0.2
    cut = Cutoff(DEFAULT_CUTOFF, FULL, Fraction(1, 10))
    s_range = _region(0.2)
    box, = _region_boxes([(0.0, 0.0, 1.0)], 0.1, *s_range)
    assert float(cut.spec.a * cut.scale) == 2 * 0.2
    assert _cutoff_values([cut], box, s_range, N) is None


# ---------------------------------------------------------------------------
# The identity, per direction.
# ---------------------------------------------------------------------------

def _intro(F=None, omegas=None, variant="C"):
    inputs = _intro_annulus_inputs()
    return check_annulus_condition(
        variant, inputs["params"], jet_parse(inputs["p"], SIG),
        [jet_parse(q, SIG) for q in inputs["Q"]],
        expr_parse(F or inputs["F"], N),
        [expr_parse(s, N) for s in inputs["S"]],
        omegas or inputs["omegas"], seed=0)


@pytest.mark.parametrize("omegas,zero", [
    # z < 0 on the whole region: |z| = -z and the factor is 1
    ([(0.0, 0.0, -1.0)], True),
    # z > 0: |z| - z = 0, the factor is 0/0 everywhere (both poles:
    # test_residual_zero.py)
    ([(0.0, 0.0, 1.0)], False)])
@pytest.mark.parametrize("variant", ["C", "C*"])
def test_one_coordinate_norms_take_the_signs_of_the_region(omegas, zero,
                                                           variant):
    F = f"({_intro_annulus_inputs()['F']})*(norm(z) - z)/(norm(z) - z)"
    report = _intro(F, omegas, variant)
    assert report["identity"] == {"method": "plateau-certified symbolic",
                                  "zero": zero}
    assert (report["verdict"] == "pass") is zero


@pytest.mark.parametrize("omega,delta,zero", [
    # for delta < sqrt(2) every point of the region around (0, 0, -1) has
    # z < 0, though the region's box crosses z = 0 once delta > 1
    ((0.0, 0.0, -1.0), 0.5, True), ((0.0, 0.0, -1.0), 1.2, True),
    ((0.0, 0.0, -1.0), 1.5, False), ((0.0, 0.0, 1.0), 1.2, False)])
def test_signs_are_read_on_the_region_not_on_its_box(omega, delta, zero):
    # F = x*y where z < 0, and 0 where z > 0
    p = jet_parse("x*y", SIG)
    F = expr_parse("x*y*(norm(z) - z)/(-2*z)", N)
    identity = _scaled_identity(p, [], F, [], [omega], delta, 1e-3, N)
    assert identity["zero"] is zero


@settings(max_examples=200, deadline=None)
@given(w=st.tuples(*[st.floats(-1, 1)] * N).filter(
           lambda v: math.hypot(*v) > 0.1),
       unit=st.booleans(), delta=st.floats(1e-3, 2.2),
       seed=st.integers(0, 2 ** 16))
def test_a_claimed_sign_holds_at_every_region_point(w, unit, delta, seed):
    # w as given (the annulus does not normalize Omega) or normalized
    if unit:
        w = tuple(c / math.hypot(*w) for c in w)
    signs = _region_signs(w, delta, range(N))
    box, = _region_boxes([w], delta, Fraction(1, 2), Fraction(2))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((4000, N))
    u /= np.linalg.norm(u, axis=1)[:, None]
    u = u[np.linalg.norm(u - np.asarray(w), axis=1) < delta]
    for i in range(N):
        # the region rule claims every sign the box rule claims
        if box[i].lo >= 0 or box[i].hi <= 0:
            assert len(signs[i]) == 1
        if len(signs[i]) == 1:
            assert (np.sign(u[:, i]) == signs[i][0]).all()


def _cutoff_claim(rho, k):
    """x*y = S*(x^2 + z^2) with S = theta(|x|, k rho)*x*y/(x^2 + z^2):
    true on the annulus exactly where theta is 1 there."""
    cut = Cutoff(DEFAULT_CUTOFF, FULL, Fraction(k) * Fraction(rho))
    q = jet_parse("x^2 + z^2", SIG)
    S = mul(cut, div(mul(Coord(0), Coord(1)),
                     add(ipow(Coord(0), 2), ipow(Coord(2), 2))))
    return jet_parse("x*y", SIG), [q], Const(0), [S], cut


def test_a_cutoff_in_its_band_is_named_and_inconclusive():
    rho = 1e-3
    p, Q, F, S, cut = _cutoff_claim(rho, Fraction(1, 4))
    params = {"A": 1e9, "eps": 1e-3, "delta": 0.1, "r": rho, "rho": rho}
    for variant in ("C", "C*", "C**"):
        report = check_annulus_condition(variant, params, p, Q, F, S, POLES)
        assert report["identity"] == {"method": "plateau-certified symbolic",
                                      "zero": None,
                                      "uncertified": [expr_str(cut, N)]}
        assert report["verdict"] != "pass"


@settings(max_examples=80, deadline=None)
@given(k=log_uniform, rho=st.floats(-12, 2).map(lambda t: 10.0 ** t))
def test_a_false_cutoff_claim_never_passes(k, rho):
    p, Q, F, S, cut = _cutoff_claim(rho, k)
    identity = _scaled_identity(p, Q, F, S, POLES, 0.1, rho, N)
    lo, hi = _region(rho)
    if identity["zero"]:
        assert hi <= cut.spec.a * cut.scale        # theta = 1 throughout
    elif identity["zero"] is False:
        assert lo >= cut.spec.b * cut.scale        # theta = 0 throughout
    else:
        assert identity["uncertified"] == [expr_str(cut, N)]
