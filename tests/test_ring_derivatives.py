"""The exact derivative table of a rational tree (verifier._ring_table)
and the gap-0 signs that check_negligible reads from it.

* On random norm-free trees built by the smart constructors, each row
  P_alpha / D^k_alpha equals sympy's exact derivative of the tree
  (scalar_reference.expr_to_sympy).
* On random homogeneous norm-free trees, at rational and irrational rays
  where D(u) != 0, the table's (sign, how) equals the per-row fold's
  (verifier._sign_at) for every alpha of order <= m.
* A tree out of the table's reach, a norm or a cutoff in it or a zero
  denominator in its fold, has no table; a tree that divides by a
  subtree undefined at the ray is left to _sign_at there.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, given, settings, strategies as st

from jetideals import algebraic, verifier
from jetideals.algebraic import Ray, Root
from jetideals.jetring import monomials
from jetideals.symfun import (ZERO, Const, Coord, expr_derive, expr_parse,
                              add, div, fold, hom_degree, ipow, mul)
from jetideals.verifier import check_negligible

from scalar_reference import expr_to_sympy

N = 3
leaves = st.one_of(st.builds(Const, st.fractions(-3, 3, max_denominator=4)),
                   st.builds(Coord, st.integers(0, N - 1)))


def _div(num, den):
    return num if den == ZERO else div(num, den)


def _extend(children):
    pairs = st.lists(children, min_size=2, max_size=3)
    return st.one_of(
        st.builds(lambda terms: add(*terms), pairs),
        st.builds(lambda factors: mul(*factors), pairs),
        st.builds(ipow, children, st.integers(2, 3)),
        st.builds(_div, children, children))


trees = st.recursive(leaves, _extend, max_leaves=6)


class _Homogeneous:
    """Hooks that rebuild a norm-free tree as a homogeneous one, (tree,
    degree): each term of a sum is padded to the sum's largest degree by
    a power of x."""

    def const(self, e, visit): return e, 0
    def coord(self, e, visit): return e, 1

    def add(self, e, visit):
        parts = list(map(visit, e.terms))
        top = max(d for _, d in parts)
        return add(*(mul(t, ipow(Coord(0), top - d)) for t, d in parts)), top

    def mul(self, e, visit):
        parts = list(map(visit, e.factors))
        return mul(*(t for t, _ in parts)), sum(d for _, d in parts)

    def pow(self, e, visit):
        t, d = visit(e.base)
        return ipow(t, e.k), d * e.k

    def div(self, e, visit):
        (a, p), (b, q) = visit(e.num), visit(e.den)
        return _div(a, b), p - q


homogeneous = trees.map(lambda e: fold((e,), _Homogeneous())[0][0])

_SQRT = {q: next(r for r in algebraic.real_roots((Fraction(-q), 0, 1))
                 if r.lo > 0) for q in (2, 3, 5)}
_small = st.integers(-2, 2)
rational_rays = st.lists(_small, min_size=N, max_size=N).filter(any).map(
    lambda v: Ray(Root.rational(0), [(Fraction(c),) for c in v]))
irrational_rays = st.builds(
    lambda q, coords: Ray(_SQRT[q], coords), st.sampled_from(sorted(_SQRT)),
    st.lists(st.tuples(_small, _small), min_size=N, max_size=N)
    .filter(lambda cs: any(any(c) for c in cs)))


def _sympy_poly(p, syms):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** a for x, a in zip(syms, alpha)))
                       for alpha, c in p.items()))


@settings(max_examples=60, deadline=None)
@given(trees, st.integers(1, 3))
def test_each_row_is_the_exact_derivative(F, m):
    table = verifier._ring_table(F, m, N)
    assume(table is not None)
    den, nums = table
    syms = sympy.symbols(f"x0:{N}")
    f = expr_to_sympy(F, syms)
    D = _sympy_poly(den, syms)
    for alpha in monomials(m, N):
        num, k = nums[alpha]
        want = f
        for x, a in zip(syms, alpha):
            want = sympy.diff(want, x, a)
        assert sympy.cancel(_sympy_poly(num, syms) / D ** k - want) == 0, \
            alpha


@settings(max_examples=300, deadline=None)
@given(homogeneous, st.one_of(rational_rays, irrational_rays),
       st.integers(1, 3))
def test_table_signs_are_the_per_row_signs(F, ray, m):
    assume(hom_degree(F) is not None)
    table = verifier._ring_table(F, m, N)
    assume(table is not None and ray.sign_of(table[0].items()))
    vec = ray.unit()
    for alpha in monomials(m, N):
        assert verifier._table_sign(F, alpha, ray, m, N, {}) \
            == verifier._sign_at(expr_derive(F, alpha), vec, ray, N), alpha


def test_trees_out_of_reach_have_no_table():
    for text in ("x*norm(x,y)", "norm(z)/y", "theta(x, 1)*y",
                 "x/(y - y)"):
        assert verifier._ring_table(expr_parse(text, N), 2, N) is None


def test_a_row_keeps_its_power_of_d_where_d_is_free_of_its_coordinate():
    # x^2 + y^3/z folds to (x^2 z + y^3) / z
    den, nums = verifier._ring_table(expr_parse("x^2 + y^3/z", N), 1, N)
    assert den == {(0, 0, 1): 1}
    assert nums[(0, 0, 0)] == ({(2, 0, 1): 1, (0, 3, 0): 1}, 1)
    assert nums[(0, 1, 0)] == ({(0, 2, 0): 3}, 1)
    assert nums[(0, 0, 1)] == ({(0, 3, 0): -1}, 2)


def test_a_tree_that_divides_by_an_undefined_subtree_is_left_to_sign_at():
    # x / (z / x) is x^2 / z off x = 0, but the tree has no value at
    # (0, 0, 1), where the fold of its x-derivative divides by x
    F = expr_parse("x/(z/x)", N)
    ray = Ray(Root.rational(0), [(Fraction(c),) for c in (0, 0, 1)])
    assert verifier._table_sign(F, (1, 0, 0), ray, 1, N, {}) is None
    rows = check_negligible(F, [(0, 0, 1)], 1, N).records[0]["condition_a"]
    assert [row["status"] for row in rows] == [
        "zero at omega", "undefined at omega", "zero", "undefined at omega"]
