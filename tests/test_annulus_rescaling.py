"""C* and C** bound rows from the kept derivative tables of F, the S_l
and chi.

* The rows equal the ones measured on the rescaled trees
  (scalar_reference.rescaled_bound_rows) up to rounding: the same
  verdicts, witness multi-indices and points and skipped counts, maxima
  and witness values within 1e-12 relative.  Cases: the seeded golden
  inputs of annulus_reports.py and the 50 draws of acceptance
  criterion 08.
* C*'s rows are C's rows bit for bit.
* Once C has run, C* and C** on a fresh draw derive and compile nothing
  for F and S.
* A strong check of c y^3/z at both poles builds F's ring table once and
  signs every gap-0 row from it: one Ray.sign_of per row and direction,
  plus one for the table's denominator, and no per-row fold.
* The identities the rows rest on, on random trees: the chain rule
  d^a[c G(rho x)] = c rho^|a| (d^a G)(rho x), and the Leibniz sum of
  verifier._leibniz_columns for chi(x) c G(rho x).  Two float values
  agree to 1e-12 relative beyond what rounding can move them, the
  widths of their interval enclosures at the point, and the enclosures
  meet, as both hold the exact value.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetideals import symfun, verifier
from jetideals.algebraic import Ray
from jetideals.errors import DomainError
from jetideals.ideal import JetIdeal
from jetideals.interval import Interval
from jetideals.jetring import RingSignature, jet_parse, monomials
from jetideals.symfun import (ZERO, Const, Coord, Norm, add, compile_exprs,
                              div, expr_derive, expr_diff, expr_enclose,
                              expr_eval, ipow, mul)
from jetideals.verifier import (ImplicationCertificate,
                                check_annulus_condition,
                                check_strong_global, chi_expr,
                                expr_scale_coords)

import scalar_reference
from annulus_reports import CASES, _cases
from test_acceptance import POLES, _intro_annulus
from test_compiled_callers import _criterion_08_draws
from test_symfun import SCALES, SPECS, _cutoff

REL = 1e-12


def _close(a, b, slack=0.0):
    return abs(a - b) <= REL * max(abs(a), abs(b)) + slack


def _inputs():
    """(label, check_annulus_condition arguments but the variant)."""
    out = []
    for label, scales, omegas, seed, flip in _cases():
        params, p, Q, F, S = _intro_annulus(**scales)
        out.append((label, (params, p, Q, F, [-s for s in S] if flip else S,
                            omegas, seed)))
    for j, draw in enumerate(_criterion_08_draws(50)):
        params, p, Q, F, S = _intro_annulus(**draw)
        out.append((f"criterion 08 draw {j}", (params, p, Q, F, S, POLES, 1)))
    return out


def _assert_rows_agree(rows, reference):
    ref_verdict, ref_rows = reference
    assert ("fail" if any(r["witness"] for r in rows) else "pass") \
        == ref_verdict
    assert [r["name"] for r in rows] == [r["name"] for r in ref_rows]
    for row, ref in zip(rows, ref_rows):
        assert row.get("skipped") == ref.get("skipped")
        assert _close(row["max_ratio"], ref["max_ratio"])
        mine, theirs = row["witness"], ref["witness"]
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert mine["alpha"] == theirs["alpha"]
            assert mine["point"] == theirs["point"]
            assert mine["bound"] == theirs["bound"]
            assert _close(mine["value"], theirs["value"])


@pytest.mark.parametrize("variant", ["C*", "C**"])
def test_rows_match_the_rescaled_trees(variant):
    inputs = _inputs()
    if variant == "C**":
        inputs = inputs[:CASES]      # the golden cases; C** is not drawn
    witnesses = 0
    for _, (params, p, Q, F, S, omegas, seed) in inputs:
        rep = check_annulus_condition(variant, params, p, Q, F, S, omegas,
                                      seed=seed)
        reference = scalar_reference.rescaled_bound_rows(
            variant, params, p, F, S, omegas, seed, rep.get("A_target"))
        _assert_rows_agree(rep["bounds"], reference)
        witnesses += sum(r["witness"] is not None for r in rep["bounds"])
    assert witnesses


def test_c_star_rows_are_c_rows_bit_for_bit():
    for label, (params, p, Q, F, S, omegas, seed) in _inputs()[:CASES]:
        c, star = (check_annulus_condition(v, params, p, Q, F, S, omegas,
                                           seed=seed)["bounds"]
                   for v in ("C", "C*"))
        assert [r["max_ratio"].hex() for r in c] \
            == [r["max_ratio"].hex() for r in star], label
        assert [r["witness"] is None for r in c] \
            == [r["witness"] is None for r in star], label
        assert [r.get("skipped") for r in c] \
            == [r.get("skipped") for r in star], label


def test_rescaled_variants_derive_and_compile_nothing_after_c():
    params, p, Q, F, S = _intro_annulus()
    check_annulus_condition("C", params, p, Q, F, S, POLES, seed=0)
    _, c_table = verifier._derivative_table((F, *S), 2, 3)
    kernel = compile_exprs(c_table)
    # chi's table and chi-constant kernels, which C does not use
    _, chi_table = verifier._derivative_table((chi_expr(3),), 2, 3)
    compile_exprs(chi_table)
    verifier.measure_chi_constant(2, 3, seed=1)
    derived = expr_diff.cache_info().misses
    compiled = symfun._compile_table.cache_info().misses

    draw, *_ = _intro_annulus(rho_f=0.93, eps_f=1.7, a_f=0.6)
    for variant in ("C*", "C**"):
        rep = check_annulus_condition(variant, draw, p, Q, F, S, POLES,
                                      seed=1)
        assert rep["verdict"] == "pass"
    assert expr_diff.cache_info().misses == derived
    assert symfun._compile_table.cache_info().misses == compiled
    assert compile_exprs(c_table) is kernel
    # the rescaled tree of the draw, which the rows no longer derive,
    # would have missed
    verifier._derivative_table(
        (expr_scale_coords(F, Fraction(draw["rho"])),), 2, 3)
    assert expr_diff.cache_info().misses > derived


def test_a_strong_check_signs_its_gap_zero_rows_from_one_ring_table(
        monkeypatch):
    # a family-(a) certificate with a c no other test uses, so its table
    # is not kept yet
    sig = RingSignature(2, 3)
    ideal = JetIdeal(sig, [jet_parse("x^2", sig), jet_parse("y^2 - x*z", sig)])
    c = Fraction(97, 389)
    cert = ImplicationCertificate(
        ideal, jet_parse(f"{c}*x*y", sig),
        [(ideal.generators[1], symfun.expr_parse(f"{-c}*y/z", 3), 50.0)],
        symfun.expr_parse(f"{c}*y^3/z", 3))

    def refuse(*args):
        raise AssertionError("a gap-0 row was folded on its own")

    calls, sign_of = {}, Ray.sign_of

    def counted(ray, terms):
        calls[ray] = calls.get(ray, 0) + 1
        return sign_of(ray, terms)

    monkeypatch.setattr(verifier, "_sign_at", refuse)
    monkeypatch.setattr(Ray, "sign_of", counted)
    misses = verifier._ring_table.cache_info().misses
    report = check_strong_global(cert)
    assert report["verdict"] == "pass"
    assert verifier._ring_table.cache_info().misses == misses + 1
    rows = [sum(row.get("homogeneity_gap") == 0 for row in
                d["negligibility"]["records"][0]["condition_a"])
            for d in report["directions"]]
    assert rows == [6, 6]
    assert sorted(calls.values()) == [r + 1 for r in rows]


# ---------------------------------------------------------------------------
# The chain rule and Leibniz on random trees.
# ---------------------------------------------------------------------------

N = 2
leaves = st.one_of(
    st.builds(Const, st.fractions(-3, 3, max_denominator=6)),
    st.builds(Coord, st.integers(0, N - 1)),
    st.builds(Norm, st.lists(st.integers(0, N - 1), min_size=1,
                             max_size=N)))


def _div(num, den):
    return num if den == ZERO else div(num, den)


def _extend(children):
    # the smart constructors, as the parser builds trees: they simplify
    # 0/x to 0 here, as expr_scale_coords and expr_diff do
    pairs = st.lists(children, min_size=2, max_size=3)
    return st.one_of(
        st.builds(lambda terms: add(*terms), pairs),
        st.builds(lambda factors: mul(*factors), pairs),
        st.builds(ipow, children, st.integers(2, 3)),
        st.builds(_div, children, children),
        st.builds(_cutoff, st.sampled_from(SPECS), children,
                  st.sampled_from(SCALES), st.integers(0, 3)))


trees = st.recursive(leaves, _extend, max_leaves=6)
rhos = st.floats(1e-13, 1e3).map(Fraction)
factors = st.builds(lambda sign, c: sign * c, st.sampled_from((-1, 1)),
                    st.fractions(Fraction(1, 7), 3, max_denominator=7))
alphas = st.sampled_from(monomials(3, N))
# coordinates 0 or of size 1e-6 to 3: at rho x of size below 1e-154 a
# norm's square underflows to 0, and its derivative x_i / |x| fails there
# while the rescaled tree's rho x_i / (rho |x|) does not
points = st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-6, 3.0),
                               st.floats(-3.0, -1e-6))] * N)


def _float(e, x):
    """e's float value at x, or None where it does not evaluate."""
    try:
        return expr_eval(e, x)
    except DomainError:
        return None
    except (OverflowError, ValueError):
        assume(False)


def _enclosure(e, box):
    """e's enclosure over the box, or no example where intervals cannot
    enclose it (a denominator enclosure that holds 0)."""
    try:
        return expr_enclose(e, box)
    except (DomainError, OverflowError, ValueError):
        assume(False)


def _exact_box(x):
    return [Interval.exact(Fraction(c)) for c in x]


def _scaled_box(rho, x):
    """A box around both rho x and its float coordinates rho * x_i."""
    return [Interval.hull([Interval.exact(rho * Fraction(c)),
                           Interval.exact(float(rho) * c)]) for c in x]


def _assert_agree(a, a_enc, b, b_enc):
    assert a_enc.lo <= b_enc.hi and b_enc.lo <= a_enc.hi
    assert _close(a, b, a_enc.width + b_enc.width)


@settings(max_examples=200, deadline=None)
@given(trees, rhos, factors, alphas, points)
def test_chain_rule_of_the_rescaled_tree(G, rho, c, alpha, x):
    try:
        tree = expr_derive(mul(Const(c), expr_scale_coords(G, rho)), alpha)
    except DomainError:
        with pytest.raises(DomainError):
            expr_derive(G, alpha)
        return
    d = expr_derive(G, alpha)
    k = c * rho ** sum(alpha)
    x_rho = tuple(float(rho) * v for v in x)
    value = _float(d, x_rho)
    a = _float(tree, x)
    if a is None or value is None:
        assert a is None and value is None
        return
    _assert_agree(a, _enclosure(tree, _exact_box(x)), float(k) * value,
                  Interval.exact(k) * _enclosure(d, _scaled_box(rho, x)))


@settings(max_examples=150, deadline=None)
@given(trees, rhos, factors, alphas, points)
def test_leibniz_columns_equal_the_product_tree(G, rho, c, alpha, x):
    chi = chi_expr(N)
    m = sum(alpha)
    product = mul(chi, Const(c), expr_scale_coords(G, rho))
    try:
        index, columns = verifier._leibniz_columns(
            chi, [(c, G)], np.array([x]), rho, m, N)
    except DomainError:
        with pytest.raises(DomainError):
            verifier._derivative_table((product,), m, N)
        return
    except (OverflowError, ValueError):
        assume(False)
    tree = expr_derive(product, alpha)
    if (0, alpha) not in index:
        assert tree == ZERO
        return
    vals, ok = columns[index.index((0, alpha))]
    a = _float(tree, x)
    b = float(vals[0]) if ok[0] else None
    if a is None or b is None:
        assert a is None and b is None
        return
    # the Leibniz sum in interval arithmetic, term by term
    total = Interval(0.0)
    for beta in monomials(m, N):
        rest = tuple(p - q for p, q in zip(alpha, beta))
        if min(rest) < 0:
            continue
        d_chi, d_g = expr_derive(chi, beta), expr_derive(G, rest)
        if d_chi == ZERO or d_g == ZERO:
            continue
        coef = math.prod(map(math.comb, alpha, beta)) * c * rho ** sum(rest)
        total = total + (Interval.exact(coef)
                         * _enclosure(d_chi, _exact_box(x))
                         * _enclosure(d_g, _scaled_box(rho, x)))
    _assert_agree(a, _enclosure(tree, _exact_box(x)), b, total)
