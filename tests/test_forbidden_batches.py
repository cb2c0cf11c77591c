"""The batched forbidden-cone walk gives exactly what the one-cell walk
gives.

The interval batch operations equal the Interval operations endpoint
for endpoint (compared by float.hex) and raise where they raise;
direction_enclosures equals SpherePatch.direction_enclosure; and
directions.certify_lower_bound returns the (bound, depth) of the
depth-first walk in scalar_reference.py.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from jetideals import directions
from jetideals.corpus import case_by_id
from jetideals.errors import DomainError
from jetideals.geometry import (Direction, direction_enclosures, face_boxes,
                                sphere_cover)
from jetideals.interval import (Interval, batch_abs, batch_add, batch_div,
                                batch_exact, batch_ipow, batch_mul,
                                batch_sqrt)
from jetideals.jetring import Jet, RingSignature, jet_parse

from conftest import random_fraction, random_jet
from forbidden_search import _higher_terms, _rotated_form

SPECIAL = (0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5, -3.0,
           5e-324, -5e-324, 1.7976931348623157e308, 1e200, -1e-200)
endpoint = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
# sorting keeps the order of equal endpoints, so both [0.0, -0.0] and
# [-0.0, 0.0] come up
interval = st.tuples(endpoint, endpoint).map(
    lambda ends: Interval(*sorted(ends)))
column = st.lists(interval, min_size=1, max_size=6)
pairs = st.lists(st.tuples(interval, interval), min_size=1, max_size=6)


def _batch(ivs):
    return np.array([[iv.lo for iv in ivs], [iv.hi for iv in ivs]])


def _hex(batch):
    return [(float(lo).hex(), float(hi).hex()) for lo, hi in batch.T]


def _check(scalar_op, batch_op, *columns):
    """batch_op on the columns equals scalar_op cell by cell, or raises
    the exception the scalar op raises on some cell."""
    want = []
    raised = None
    for args in zip(*columns):
        try:
            want.append(scalar_op(*args))
        except (DomainError, OverflowError) as exc:
            raised = type(exc)
    with np.errstate(all="ignore"):
        if raised is not None:
            with pytest.raises(raised):
                batch_op(*map(_batch, columns))
            return
        got = batch_op(*map(_batch, columns))
    assert _hex(got) == [(iv.lo.hex(), iv.hi.hex()) for iv in want]


@given(pairs)
def test_batch_add_equals_interval_add(cells):
    _check(lambda a, b: a + b, batch_add, *zip(*cells))


@given(pairs)
def test_batch_mul_equals_interval_mul(cells):
    _check(lambda a, b: a * b, batch_mul, *zip(*cells))


@given(pairs)
def test_batch_div_equals_interval_div(cells):
    _check(lambda a, b: a / b, batch_div, *zip(*cells))


@given(column)
def test_batch_abs_equals_interval_abs(cells):
    _check(abs, batch_abs, cells)


@given(column)
def test_batch_sqrt_equals_interval_sqrt(cells):
    _check(Interval.sqrt, batch_sqrt, cells)


@given(column, st.integers(0, 7))
def test_batch_ipow_equals_interval_ipow(cells, k):
    _check(lambda a: a.ipow(k), lambda a: batch_ipow(a, k), cells)


@pytest.mark.parametrize("k", range(2, 8))
def test_batch_ipow_rounds_like_python_power(k):
    # numpy's power, unlike libm pow, misses Python's float ** in the
    # last bit on some of these endpoints
    rng = random.Random(k)
    cells = [Interval(*sorted((rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.0, 1.0))))
             for _ in range(5000)]
    _check(lambda a: a.ipow(k), lambda a: batch_ipow(a, k), cells)


@given(interval, column)
def test_constant_broadcasts_over_a_batch(c, cells):
    _check(lambda a: c * a, lambda a: batch_mul(batch_exact(c), a), cells)
    _check(lambda a: c + a, lambda a: batch_add(batch_exact(c), a), cells)


@pytest.mark.parametrize("scalar_op,batch_op,cells", [
    # 0 * inf is 0
    (lambda a, b: a * b, batch_mul,
     [(Interval(0.0, 0.0), Interval(math.inf, math.inf)),
      (Interval(0.0, 2.0), Interval(-math.inf, math.inf)),
      (Interval(-0.0, 0.0), Interval(1.0, math.inf))]),
    # inf - inf is a NaN endpoint
    (lambda a, b: a + b, batch_add,
     [(Interval(1.0, 2.0), Interval(1.0, 2.0)),
      (Interval(-math.inf, 0.0), Interval(math.inf, math.inf))]),
    # inf / inf: a NaN product that Python's min and max skip
    (lambda a, b: a / b, batch_div,
     [(Interval(1.0, math.inf), Interval(2.0, math.inf))]),
    (lambda a, b: a / b, batch_div,
     [(Interval(math.inf, math.inf), Interval(math.inf, math.inf))]),
    # a divisor holding zero, signed or not
    (lambda a, b: a / b, batch_div,
     [(Interval(1.0, 2.0), Interval(1.0, 2.0)),
      (Interval(1.0, 2.0), Interval(-0.0, 1.0))]),
    (Interval.sqrt, batch_sqrt, [(Interval(-2.0, -1.0),)]),
    (lambda a: a.ipow(3), lambda a: batch_ipow(a, 3),
     [(Interval(-1e200, 1.0),)]),
    (lambda a: a.ipow(2), lambda a: batch_ipow(a, 2),
     [(Interval(-0.0, 0.0),), (Interval(-2.0, 3.0),),
      (Interval(-3.0, -0.0),), (Interval(-math.inf, 1.0),)]),
])
def test_special_endpoints(scalar_op, batch_op, cells):
    _check(scalar_op, batch_op, *zip(*cells))


def _patch_chain(n, depth, choices):
    cover = sphere_cover(n, depth)
    patch = cover[choices[0] % len(cover)]
    for right in choices[1:]:
        patch = patch.subdivide()[right % 2]
    return patch


def _assert_enclosures_equal(patches):
    _, faces = face_boxes(patches)
    got = direction_enclosures(faces)
    for r, patch in enumerate(patches):
        assert _hex(got[:, r]) == [(iv.lo.hex(), iv.hi.hex())
                                   for iv in patch.direction_enclosure()]


@pytest.mark.parametrize("n,depth", [(2, 0), (2, 3), (3, 0), (3, 2),
                                     (4, 0), (4, 1)])
def test_direction_enclosures_on_sphere_covers(n, depth):
    _assert_enclosures_equal(sphere_cover(n, depth))


@given(st.integers(2, 4), st.integers(0, 2),
       st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=40),
                min_size=1, max_size=8))
def test_direction_enclosures_on_subdivide_chains(n, depth, chains):
    _assert_enclosures_equal([_patch_chain(n, depth, c) for c in chains])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(2, 2), (3, 2), (4, 2),
                                                  (2, 3), (3, 3)]),
       st.booleans(), st.sampled_from([0.3, 1.0]), st.integers(2, 9),
       st.floats(0.0, 0.3))
def test_batched_walk_equals_depth_first_walk(seed, mn, dome, delta,
                                              budget, target):
    rng = random.Random(seed)
    sig = RingSignature(*mn)
    jets = [j for j in (random_jet(rng, sig, density=4, allow_constant=False)
                        for _ in range(rng.randint(1, 2)))
            if not j.is_zero()]
    if jets:
        _assert_walks_agree(rng, jets, sig, dome, delta, budget, target)


def _assert_walks_agree(rng, jets, sig, dome, delta, budget, target):
    """The batched walk and the depth-first one give the same (bound,
    depth), around a random omega or (dome False) on the whole sphere."""
    omega = None
    if dome:
        omega = Direction([rng.gauss(0.0, 1.0) for _ in range(sig.n)],
                          normalize=True)
    if sig.n == 3:
        budget = min(budget, 7)
    args = (jets, omega, delta, budget, sig.n, target)
    bound, depth = directions.certify_lower_bound(*args)
    want_bound, want_depth = ref.certify_lower_bound(*args)
    assert (repr(bound), depth) == (repr(want_bound), want_depth)


def test_an_empty_dome_certifies_nothing():
    # no root patch lies within delta = 0 of omega
    jets = [random_jet(random.Random(3), RingSignature(2, 2), density=3,
                       allow_constant=False)]
    omega = Direction((0.6, 0.8))
    args = (jets, omega, 0.0, 6, 2, 0.0)
    assert directions.certify_lower_bound(*args) == (None, 0)
    assert ref.certify_lower_bound(*args) == (None, 0)


def _homogeneous_jet(rng, sig, degree):
    """A random jet whose monomials all have one degree (s-degree 0)."""
    monos = [a for a in sig.monomials if sum(a) == degree]
    return Jet(sig, {a: random_fraction(rng)
                     for a in rng.sample(monos, rng.randint(1, len(monos)))})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(2, 2), (3, 2), (4, 2),
                                                  (3, 3)]),
       st.booleans(), st.sampled_from([0.3, 1.0]), st.integers(2, 9),
       st.floats(0.0, 0.3))
def test_walk_without_s_degree_equals_depth_first_walk(seed, mn, dome, delta,
                                                       budget, target):
    # no monomial reads s, so s-split halves are carried unevaluated
    rng = random.Random(seed)
    sig = RingSignature(*mn)
    jets = [j for j in (_homogeneous_jet(rng, sig, rng.randint(1, sig.m))
                        for _ in range(rng.randint(1, 2)))
            if not j.is_zero()]
    if jets:
        assert directions._compile_scaled(jets)[2] == 0
        _assert_walks_agree(rng, jets, sig, dome, delta, budget, target)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]), st.booleans(),
       st.sampled_from([0.3, 1.0]), st.integers(4, 12))
def test_walk_with_s_degree_equals_depth_first_walk(seed, m, dome, delta,
                                                    budget):
    # a definite form plus higher terms reads s, and its search gets
    # through, so the bound and depth depend on the enclosures of the
    # halves of s-splits
    rng = random.Random(seed)
    sig = RingSignature(m, 2)
    jets = [_rotated_form(rng, sig)[0] + _higher_terms(rng, sig, 2)]
    assert directions._compile_scaled(jets)[2] > 0
    _assert_walks_agree(rng, jets, sig, dome, delta, budget, 0.0)


@pytest.mark.parametrize("text", ["x^2 + y^2 - x^3/2", "x^2 + y^2 - x*y^2"])
def test_searches_whose_bound_rests_on_s_split_halves(text):
    # a walk that carried the halves of s-splits unevaluated, as it may
    # when the sum does not read s, would end with another bound
    jets = [jet_parse(text, RingSignature(3, 2))]
    args = (jets, None, 1.0, 12, 2, 0.0)
    bound, depth = directions.certify_lower_bound(*args)
    want_bound, want_depth = ref.certify_lower_bound(*args)
    assert bound is not None
    assert (repr(bound), depth) == (repr(want_bound), want_depth)


def test_whole_sphere_search_skips_cells_split_in_s(monkeypatch):
    # x^2 + y^2 has s-degree 0, so every s-split keeps its enclosure
    inputs = case_by_id("forbidden-whole-sphere").inputs
    sig = RingSignature(inputs["m"], inputs["n"])
    jets = [jet_parse(g, sig) for g in inputs["generators"]]
    args = (jets, None, 1.0, inputs["budget"], sig.n, inputs["c"])
    counts = {"batched": 0, "reference": 0}
    batched, reference = directions._eval_scaled, ref.compiled_eval_scaled

    def count_batched(compiled, s, u):
        counts["batched"] += s.shape[1]
        return batched(compiled, s, u)

    def count_reference(*args):
        counts["reference"] += 1
        return reference(*args)

    monkeypatch.setattr(directions, "_eval_scaled", count_batched)
    monkeypatch.setattr(ref, "compiled_eval_scaled", count_reference)
    got = directions.certify_lower_bound(*args)
    want = ref.certify_lower_bound(*args)
    assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])
    assert got[1] == 3 and got[0] > inputs["c"]
    # the reference walk encloses every cell of the tree
    assert 0 < counts["batched"] < counts["reference"]
