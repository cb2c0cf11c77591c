"""The forbidden-cone walk over the kept patch tree gives exactly what
the one-cell walk gives.

directions.certify_lower_bound returns the (bound, depth) of the
depth-first walk in scalar_reference.py, which evaluates every cell and
makes every patch afresh, on random jets, with and without s-degree,
around a direction or on the whole sphere, and when the kept tree is
full.  The direction enclosures that patches keep, through subdivide()
chains, equal those built on the reference interval operators, and the
per-cell evaluator's powers round like Python's float power.

Some test names still speak of batches: the ids are kept from the
batched walk that this per-cell walk replaced.
"""

import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from jetideals import directions
from jetideals.corpus import case_by_id
from jetideals.geometry import Direction, SpherePatch, sphere_cover
from jetideals.interval import Interval
from jetideals.jetring import Jet, RingSignature, jet_parse
from jetideals.regions import Dome

from conftest import random_fraction, random_jet
from forbidden_search import _higher_terms, _rotated_form


def _hex(box):
    return [(iv.lo.hex(), iv.hi.hex()) for iv in box]


def _reference_enclosure(patch):
    """u = v/|v| over the patch's face, on the reference operators."""
    face = patch.face_intervals()
    norm2 = Interval(0.0, 0.0)
    for c in face:
        norm2 = ref.interval_add(norm2, ref.interval_ipow(c, 2))
    norm = norm2.sqrt()
    return [ref.interval_truediv(c, norm) for c in face]


def _patch_chain(n, depth, choices):
    cover = sphere_cover(n, depth)
    patch = cover[choices[0] % len(cover)]
    for right in choices[1:]:
        halves = patch.subdivide()
        assert patch.subdivide() is halves
        patch = halves[right % 2]
    return patch


def _assert_enclosures_equal(patches):
    """Each patch keeps its enclosure, equal by float.hex to one built
    afresh on the reference operators, and holding the direction of
    every corner and of the center of its face box."""
    for patch in patches:
        enc = patch.direction_enclosure()
        assert patch.direction_enclosure() is enc
        assert _hex(enc) == _hex(_reference_enclosure(patch))
        fresh = SpherePatch(patch.n, patch.axis, patch.sign, patch.box)
        assert _hex(fresh.direction_enclosure()) == _hex(enc)
        center = [0.5 * (lo + hi) for lo, hi in patch.box]
        for point in itertools.chain(itertools.product(*patch.box),
                                     [center]):
            v = list(point)
            v.insert(patch.axis, float(patch.sign))
            norm = math.sqrt(sum(t * t for t in v))
            for t, iv in zip(v, enc):
                assert iv.lo <= t / norm <= iv.hi


@pytest.mark.parametrize("n,depth", [(2, 0), (2, 3), (3, 0), (3, 2),
                                     (4, 0), (4, 1)])
def test_direction_enclosures_on_sphere_covers(n, depth):
    _assert_enclosures_equal(sphere_cover(n, depth))


@given(st.integers(2, 4), st.integers(0, 2),
       st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=40),
                min_size=1, max_size=8))
def test_direction_enclosures_on_subdivide_chains(n, depth, chains):
    _assert_enclosures_equal([_patch_chain(n, depth, c) for c in chains])


@pytest.mark.parametrize("k", range(2, 8))
def test_batch_ipow_rounds_like_python_power(k):
    # on a batch of cells, the walk's enclosure of |x^k| equals the
    # reference evaluation, whose powers are Python's float ** stepped
    # outward
    rng = random.Random(k)
    jets = [jet_parse(f"x^{k}", RingSignature(k, 2))]
    compiled = directions._compile_scaled(jets)
    s = Interval(0.0, 1.0)
    for _ in range(5000):
        u = [Interval(*sorted((rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.0, 1.0))))
             for _ in range(2)]
        got = directions._eval_scaled(compiled, s, u)
        assert _hex([got]) == _hex([ref.eval_scaled(jets, s, u)])


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
    """The walk and the depth-first one give the same (bound, depth),
    around a random omega or (dome False) on the whole sphere."""
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
    # no monomial reads s, so no cell is split in s
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
    # only when the sum does not read s, would end with another bound
    jets = [jet_parse(text, RingSignature(3, 2))]
    args = (jets, None, 1.0, 12, 2, 0.0)
    bound, depth = directions.certify_lower_bound(*args)
    want_bound, want_depth = ref.certify_lower_bound(*args)
    assert bound is not None
    assert (repr(bound), depth) == (repr(want_bound), want_depth)


def _forbidden_whole_sphere():
    inputs = case_by_id("forbidden-whole-sphere").inputs
    sig = RingSignature(inputs["m"], inputs["n"])
    jets = [jet_parse(g, sig) for g in inputs["generators"]]
    return (jets, None, 1.0, inputs["budget"], sig.n, inputs["c"]), inputs


def test_whole_sphere_search_skips_cells_split_in_s(monkeypatch):
    # x^2 + y^2 has s-degree 0: every cell keeps s = [0, 1] and only its
    # patch splits, so each patch of the walk is enclosed once
    args, inputs = _forbidden_whole_sphere()
    cells = []
    evaluate = directions._eval_scaled

    def count(compiled, s, u):
        cells.append((s, id(u)))
        return evaluate(compiled, s, u)

    monkeypatch.setattr(directions, "_trees", {})
    monkeypatch.setattr(directions, "_eval_scaled", count)
    got = directions.certify_lower_bound(*args)
    want = ref.certify_lower_bound(*args)
    assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])
    assert got[1] == 2 and got[0] > inputs["c"]
    assert all(s == Interval(0.0, 1.0) for s, _ in cells)
    assert len({u for _, u in cells}) == len(cells) > 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(2, 2), (3, 2), (2, 3),
                                                  (3, 3)]),
       st.sampled_from([0.1, 0.3, 1.0]), st.integers(2, 9))
def test_a_dome_search_encloses_only_patches_that_meet_the_dome(
        seed, mn, delta, budget):
    rng = random.Random(seed)
    sig = RingSignature(*mn)
    jets = [j for j in (random_jet(rng, sig, density=4, allow_constant=False)
                        for _ in range(rng.randint(1, 2)))
            if not j.is_zero()]
    if not jets:
        return
    omega = Direction([rng.gauss(0.0, 1.0) for _ in range(sig.n)],
                      normalize=True)
    dome = Dome([], [omega.vec], delta)
    enclosed = []
    evaluate = directions._eval_scaled

    def record(compiled, s, u):
        enclosed.append(u)
        return evaluate(compiled, s, u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(directions, "_eval_scaled", record)
        directions.certify_lower_bound(jets, omega, delta,
                                       min(budget, 7), sig.n)
    missed = [u for u in enclosed
              if not dome.meets(SimpleNamespace(direction_enclosure=lambda
                                                u=u: u))]
    assert not missed


def test_a_second_search_reuses_the_kept_patches(monkeypatch):
    args, _ = _forbidden_whole_sphere()
    monkeypatch.setattr(directions, "_trees", {})
    first = directions.certify_lower_bound(*args)
    roots, size = directions._trees[2]
    assert size > len(roots) and size % 2 == 0
    assert directions.certify_lower_bound(*args) == first
    assert directions._trees[2] == [roots, size]


@pytest.mark.parametrize("text", ["x^2 - 2*y^2", "x^2 - 2*y^2 + x^3"])
def test_a_deep_failing_walk_leaves_the_kept_tree_under_its_bound(
        monkeypatch, text):
    # the walk dives to depth 60 toward the zero direction y/x = 1/sqrt 2
    # and keeps halves only while the tree holds fewer than its bound;
    # the halves past that are made afresh and dropped
    bound = 64
    monkeypatch.setattr(directions, "DOME_TREE_PATCHES", bound)
    monkeypatch.setattr(directions, "_trees", {})
    jets = [jet_parse(text, RingSignature(3, 2))]
    args = (jets, None, 1.0, 60, 2, 0.0)
    want = ref.certify_lower_bound(*args)
    assert want == (None, 60)
    assert directions.certify_lower_bound(*args) == want
    roots, size = directions._trees[2]
    assert size == bound
    # a full tree is replaced before the next walk, which fills it again
    assert directions.certify_lower_bound(*args) == want
    assert directions._trees[2][0] is not roots
    assert directions._trees[2][1] == bound
