"""Allowed/forbidden direction computation."""

import math
import multiprocessing
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import scalar_reference
from jetideals import directions

from jetideals.directions import (allow_overapprox, exact_zero_residual,
                                  forbidden_certificate_search,
                                  verify_forbidden_certificate)
from jetideals.errors import DomainError
from jetideals.geometry import Direction, direction_of
from jetideals.ideal import JetIdeal
from jetideals.jetring import DiffeoJet, Jet, RingSignature, jet_parse

from conftest import random_jet


def make_ideal(m, n, gens):
    sig = RingSignature(m, n)
    return JetIdeal(sig, [jet_parse(g, sig) for g in gens])


def dirset(aset):
    return sorted(tuple(round(c, 9) for c in d.vec) for d in aset.directions)


def test_allow_sum_of_squares_is_empty():
    aset = allow_overapprox(make_ideal(2, 2, ["x^2 + y^2"]))
    assert aset.exact and aset.is_finite and aset.is_empty()


def test_allow_xy_is_four_axes():
    aset = allow_overapprox(make_ideal(2, 2, ["x*y"]))
    assert aset.exact
    assert dirset(aset) == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    # exact-zero residuals in rational arithmetic, no tolerance
    gen = jet_parse("x*y", RingSignature(2, 2))
    for d in aset.directions:
        assert exact_zero_residual(d, gen) == 0


def test_allow_poles_in_three_variables():
    aset = allow_overapprox(make_ideal(2, 3, ["x^2", "y^2 - x*z"]))
    assert aset.exact
    assert dirset(aset) == [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]
    for g in ("x^2", "y^2 - x*z"):
        gen = jet_parse(g, RingSignature(2, 3))
        for d in aset.directions:
            assert exact_zero_residual(d, gen) == 0


def test_allow_vertical_cubic_overapprox():
    aset = allow_overapprox(make_ideal(3, 2, ["x(x^2 + y^2)"]))
    assert dirset(aset) == [(0.0, -1.0), (0.0, 1.0)]


def test_allow_irrational_roots_are_exact():
    # x^2 - 2 y^2 vanishes on the circle at slope +-1/sqrt(2)
    aset = allow_overapprox(make_ideal(2, 2, ["x^2 - 2y^2"]))
    assert aset.exact and len(aset.directions) == 4
    gen = jet_parse("x^2 - 2y^2", RingSignature(2, 2))
    for d in aset.directions:
        assert exact_zero_residual(d, gen) == 0


def test_forbidden_certificate_search_whole_sphere():
    sig = RingSignature(2, 2)
    jets = [jet_parse("x^2 + y^2", sig)]
    cert = forbidden_certificate_search(jets, None, budget=12)
    assert cert is not None
    assert 0.0 < cert.c < cert.bound <= 1.0 + 1e-9


def test_verify_forbidden_certificate_half():
    sig = RingSignature(2, 2)
    jets = [jet_parse("x^2 + y^2", sig)]
    verdict, bound, depth = verify_forbidden_certificate(jets, 0.5)
    assert verdict == "pass" and bound > 0.5 and depth <= 6


def test_verify_forbidden_certificate_too_greedy():
    # the infimum of (x^2+y^2)/|x|^2 is exactly 1; claiming more than 1
    # cannot be certified
    sig = RingSignature(2, 2)
    jets = [jet_parse("x^2 + y^2", sig)]
    verdict, _, _ = verify_forbidden_certificate(jets, 1.5, budget=6)
    assert verdict == "inconclusive"


def test_forbidden_around_allowed_direction_is_inconclusive():
    # (0, 1) is allowed for <xy>: the sum vanishes along the axis
    sig = RingSignature(2, 2)
    jets = [jet_parse("x*y", sig)]
    cert = forbidden_certificate_search(jets, Direction((0.0, 1.0)),
                                        budget=6, delta=0.5)
    assert cert is None


def test_forbidden_away_from_allowed_directions():
    sig = RingSignature(2, 2)
    jets = [jet_parse("x*y", sig)]
    omega = Direction((1.0, 1.0), normalize=True)
    cert = forbidden_certificate_search(jets, omega, budget=12, delta=0.3)
    assert cert is not None and cert.c > 0


def test_a_zero_near_the_dome_edge_gets_no_certificate():
    # 7y - 12x vanishes at (7, 12)/sqrt(193), at chord distance 0.9961
    # from omega = (1, 0): inside the delta = 1 dome, in cells that
    # straddle its edge
    jets = [jet_parse("7*y - 12*x", RingSignature(2, 2))]
    omega = Direction((1.0, 0.0))
    assert 0.99 < omega.dist(Direction((7.0, 12.0), normalize=True)) < 1.0
    assert forbidden_certificate_search(jets, omega) is None
    assert verify_forbidden_certificate(jets, 0.01, omega)[0] == \
        "inconclusive"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_certificate_over_a_zero_inside_the_dome(data):
    # a linear form a.x vanishes on the great sphere orthogonal to a;
    # the zero nearest omega is omega projected off a, and delta puts it
    # inside the dome, mostly near its edge
    n = data.draw(st.sampled_from([2, 3]), label="n")
    a = data.draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n)
                  .filter(any), label="a")
    v = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
                  .filter(lambda v: math.hypot(*v) > 0.1), label="omega")
    omega = Direction(v, normalize=True)
    norm_a = math.hypot(*a)
    along = sum(w * c for w, c in zip(omega.vec, a)) / norm_a
    off = [w - along * c / norm_a for w, c in zip(omega.vec, a)]
    assume(math.hypot(*off) > 1e-6)
    zero = Direction(off, normalize=True)
    delta = omega.dist(zero) + data.draw(st.floats(1e-6, 0.1), label="gap")
    budget = data.draw(st.integers(6, 12) if n == 2 else st.integers(4, 8),
                       label="budget")
    sig = RingSignature(2, n)
    jets = [Jet(sig, {tuple(int(i == j) for j in range(n)): c
                      for i, c in enumerate(a) if c})]
    assert forbidden_certificate_search(jets, omega, budget=budget,
                                        delta=delta) is None
    verdict, _, _ = verify_forbidden_certificate(jets, 1e-3, omega, delta,
                                                 budget)
    assert verdict == "inconclusive"


def _check_transform_covariance(I, matrix):
    """The allowed set of I o A is A^-1 applied to I's, normalized, for
    homogeneous generators (equal sets, within 1e-9)."""
    phi = DiffeoJet.linear(I.sig, matrix)
    got = allow_overapprox(I.transform(phi))
    original = allow_overapprox(I)
    assert got.is_finite and original.is_finite
    inv = scalar_reference.linear_inverse(phi).linear_matrix()
    n = I.sig.n
    expected = [direction_of([sum(float(inv[i][j]) * d.vec[j]
                                  for j in range(n)) for i in range(n)]).vec
                for d in original.directions]
    got = [d.vec for d in got.directions]
    assert len(got) == len(expected)
    for a, b in ((got, expected), (expected, got)):
        assert all(any(math.dist(u, v) <= 1e-9 for v in b) for u in a)


def test_allow_transform_rotation():
    # a shear keeps the direction count and maps directions by the
    # inverse linear map
    _check_transform_covariance(make_ideal(2, 2, ["x*y"]), [[1, 1], [0, 1]])


def test_allow_transform_scaling():
    _check_transform_covariance(make_ideal(2, 3, ["x^2", "y^2 - x*z"]),
                                [[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_zero_ideal_has_no_direction_data():
    sig = RingSignature(2, 2)
    I = JetIdeal(sig, [])
    with pytest.raises(DomainError):
        allow_overapprox(I)


def test_patch_fallback_reports_candidates():
    # x^2 forces x = 0 and leaves no part: a positive-dimensional zero set
    aset = allow_overapprox(make_ideal(2, 3, ["x^2"]), budget=3)
    # {x = 0} on the sphere is a great circle: not a finite list
    assert not aset.is_finite
    cands = aset.candidate_patches()
    assert cands
    for p in cands:
        # each candidate patch must be near the plane x = 0
        center = direction_of([iv.mid for iv in p.face_intervals()])
        assert abs(center.vec[0]) < 0.3


def _cover_hex(cover):
    return [(p.axis, p.sign, p.box, status, bound and bound.hex())
            for p, status, bound in cover]


@pytest.mark.parametrize("n", [3, 4])
def test_patch_cover_equals_the_per_part_reference(n):
    # the compiled evaluator encloses sum |p_i| as the per-part walk
    # does, bounds equal by float.hex; the last system adds the order-0
    # part of a unit generator, a constant
    rng = random.Random(90 + n)
    sig = RingSignature(3, n)
    systems = []
    while len(systems) < 8:
        gens = [random_jet(rng, sig, density=3, allow_constant=False)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            systems.append(directions._lowest_parts(JetIdeal(sig, gens)))
    systems.append(systems[0] + [Jet.constant(sig, Fraction(-5, 3))])
    budget = 3 if n == 3 else 2
    for parts in systems:
        got = directions._patch_zero_cover(parts, n, budget)
        want = scalar_reference.patch_zero_cover(parts, n, budget)
        assert _cover_hex(got) == _cover_hex(want)
    assert any(status == directions.CANDIDATE_ALLOWED
               for parts in systems
               for _, status, _ in directions._patch_zero_cover(parts, n, 1))


def lowest_parts(m, n, gens):
    return [g.lowest_homogeneous_part()
            for g in make_ideal(m, n, gens).generators]


def test_reduced_cubic_is_the_lifted_plane_set():
    # x^2 forces x = 0; the cubic's six directions lie in the y-z plane
    aset = allow_overapprox(make_ideal(3, 3, ["x^2", "y^3 - 3y*z^2 + z^3"]))
    assert aset.exact and aset.is_finite
    plane = directions._plane_zero_set(
        lowest_parts(3, 2, ["x^3 - 3x*y^2 + y^3"]))
    want = sorted(((0.0,) + d.vec,
                   (sympy.Integer(0),) + scalar_reference.ray_to_sympy(d.sym))
                  for d in plane)
    assert len(want) == 6
    assert [d.vec for d in aset.directions] == [v for v, _ in want]
    assert [sympy.srepr(scalar_reference.ray_to_sympy(d.sym))
            for d in aset.directions] == [sympy.srepr(s) for _, s in want]


def test_a_linear_part_is_eliminated_exactly():
    # x - y becomes a coordinate and is forced; the cubic's six rays in
    # the (y, z) plane map back with x = y
    start = time.perf_counter()
    aset = allow_overapprox(make_ideal(3, 3, ["x - y", "y^3 - 3y*z^2 + z^3"]))
    assert time.perf_counter() - start < 1.0
    assert aset.exact and len(aset.directions) == 6
    plane = directions._plane_zero_set(
        lowest_parts(3, 2, ["x^3 - 3x*y^2 + y^3"]))
    want = []
    for d in plane:
        y, z = scalar_reference.ray_to_sympy(d.sym)
        norm = sympy.sqrt(2 * y ** 2 + z ** 2)
        want.append(tuple(float((c / norm).evalf(30)) for c in (y, y, z)))
    assert [d.vec for d in aset.directions] == sorted(want)
    for d in aset.directions:
        assert d.vec[0] == d.vec[1]
        x, y, z = scalar_reference.ray_to_sympy(d.sym)
        assert sympy.simplify(x - y) == 0
        for g in ("x - y", "y^3 - 3y*z^2 + z^3"):
            assert exact_zero_residual(d, jet_parse(g, RingSignature(3, 3))) \
                == 0


@pytest.mark.parametrize("m,n,gens,want", [
    (2, 3, ["x^2 + y^2 + z^2"], []),
    (4, 3, ["2(x^2 + y^2 + z^2)^2"], []),
    (2, 4, ["x^2", "y^2 + z^2 + w^2 - x*y"], []),
    (2, 3, ["x*y", "y^2", "z^2 - y*z"], [(-1, 0, 0), (1, 0, 0)]),
    (3, 3, ["x^3", "x*y^2 + y^3 - z^3"],   # y = z, over x = 0
     [(0, -sympy.sqrt(2) / 2, -sympy.sqrt(2) / 2),
      (0, sympy.sqrt(2) / 2, sympy.sqrt(2) / 2)]),
])
def test_reduction_decides_without_solve(m, n, gens, want):
    aset = allow_overapprox(make_ideal(m, n, gens))
    assert aset.is_finite
    assert [d.vec for d in aset.directions] == \
        [tuple(float(c) for c in v) for v in want]
    for g in make_ideal(m, n, gens).generators:
        for d in aset.directions:
            assert exact_zero_residual(d, g.lowest_homogeneous_part()) == 0


@pytest.mark.parametrize("m,n,gens", [
    (2, 3, ["-5x*y + 3x*z - 3/4y*z"]),   # a single quadric cone
    (2, 3, ["x^2 + y^2 - z^2"]),
    (2, 4, ["x^2", "y^2 + z^2 + 2w^2"]),  # not a power of |u|^2
    (2, 4, ["x*y", "x^2"]),               # x = 0 leaves a 2-sphere
])
def test_hypersurface_is_no_finite_list(m, n, gens):
    assert directions._exact_zero_set(lowest_parts(m, n, gens), n) is None


def test_unreduced_system_is_solved_and_sorted():
    parts = lowest_parts(2, 3, ["x*y", "y*z", "x*z"])
    got = directions._exact_zero_set(parts, 3)
    want = scalar_reference.exact_zero_set(parts, 3)
    assert len(got) == 6
    assert [d.vec for d in got] == sorted(d.vec for d in want)


def _exact_zeros(aset, gens):
    """The allowed set's directions, after checking that each is an
    exact zero of every generator."""
    for d in aset.directions:
        for g in gens:
            assert exact_zero_residual(d, g) == 0
    return [d.vec for d in aset.directions]


def test_a_false_vacuous_pass_has_eight_exact_directions():
    # an empty list here would read as "every jet is implied"
    I = make_ideal(3, 3, ["-x^3 - 2y*z^2", "-3x^2 + 2y^2 + 2y*z + z^2"])
    aset = allow_overapprox(I)
    assert aset.exact and aset.is_finite
    vecs = _exact_zeros(aset, I.generators)
    assert len(set(vecs)) == 8
    assert sorted(tuple(-c for c in v) for v in vecs) == vecs


def test_two_quadric_cones_meet_in_four_directions():
    # two quadric cones in general position: every allowed-set path is
    # bounded, and this one is quick
    I = make_ideal(3, 3, ["x^2 + y^2 - 2z^2", "x*y - z^2 + x*z"])
    start = time.perf_counter()
    aset = allow_overapprox(I)
    assert time.perf_counter() - start < 2.0
    assert aset.exact and len(set(_exact_zeros(aset, I.generators))) == 4


def test_directions_1e_10_apart_stay_apart():
    # x in {0, e z} and y in {0, e z}, e = 10^-10, on both sides: 8
    # exact directions, no two merged however close
    I = make_ideal(3, 3, ["x^2 - 1/10000000000*x*z",
                          "y^2 - 1/10000000000*y*z"])
    aset = allow_overapprox(I)
    assert aset.exact
    want = sorted((s * x, s * y, float(s)) for s in (1, -1)
                  for x in (0.0, 1e-10) for y in (0.0, 1e-10))
    assert _exact_zeros(aset, I.generators) == want


def test_a_fat_point_is_left_to_the_patch_cover():
    # 3x + y = 0 meets x^2 z + x y^2 = 0 twice at (0, 0, 1), so no shear
    # gives one root in that fiber; the patch cover must hold every
    # direction that sympy.solve finds
    gens = ["-3x*y - y^2", "-x^2*z - x*y^2"]
    parts = lowest_parts(3, 3, gens)
    assert directions._exact_zero_set(parts, 3) is None
    want = scalar_reference.exact_zero_set(parts, 3)
    assert len(want) == 6
    aset = allow_overapprox(make_ideal(3, 3, gens))
    cands = aset.candidate_patches()
    for d in want:
        assert any(scalar_reference.contains_direction(p, d, 1e-12)
                   for p in cands), d


def _reference_vecs(parts, seconds):
    """The directions' float vectors of scalar_reference.exact_zero_set
    on parts (None if it lists none), solved in a forked process that is
    killed after `seconds`; TimeoutError then."""
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)

    def solve():
        found = scalar_reference.exact_zero_set(parts, 3)
        send.send(None if found is None else [d.vec for d in found])

    worker = fork.Process(target=solve)
    worker.start()
    try:
        if not receive.poll(seconds):
            raise TimeoutError
        return receive.recv()
    finally:
        worker.kill()
        worker.join()
        receive.close()
        send.close()


def _product_system(rng):
    """Two or three parts, each a product of two or three linear forms
    with two or more nonzero small integer coefficients: no part is
    linear or a monomial, so nothing is reduced and every system goes to
    the resultant solver."""
    sig = RingSignature(3, 3)
    parts = []
    for _ in range(rng.randint(2, 3)):
        part = Jet.constant(sig, 1)
        for _ in range(rng.randint(2, 3)):
            form = [0, 0, 0]
            while sum(map(bool, form)) < 2:
                form = [rng.randint(-2, 2) for _ in range(3)]
            part = part * Jet(sig, {tuple(int(i == k) for i in range(3)): c
                                    for k, c in enumerate(form) if c})
        parts.append(part)
    return parts


def test_resultant_solver_against_the_sympy_reference():
    # seeded systems for 8 s, each reference solve killed at 1 s: every
    # direction returned is an exact zero of every part, and where both
    # return a list, none of the reference's is missing
    stop = time.perf_counter() + 8.0
    seed = compared = 0
    while time.perf_counter() < stop:
        parts = _product_system(random.Random(seed))
        seed += 1
        got = directions._exact_zero_set(parts, 3)
        if got is None:
            continue
        for d in got:
            assert all(exact_zero_residual(d, p) == 0 for p in parts)
        try:
            want = _reference_vecs(parts, 1.0)
        except TimeoutError:
            continue
        if want is not None:
            compared += 1
            for w in want:
                assert any(math.dist(w, d.vec) < 1e-9 for d in got), \
                    (seed - 1, w)
    assert compared >= 5, f"{compared} of {seed} systems compared"


_nonzero = st.fractions(min_value=-3, max_value=3,
                        max_denominator=4).filter(lambda c: c != 0)
_linear = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                   min_size=3, max_size=3).filter(any)


@st.composite
def reducible_systems(draw):
    """A monomial part c*u_i^k and one or two products of rational
    linear forms, in three variables.  A form c*u_i makes its product
    drop out once u_i = 0, so some systems leave a great circle."""
    sig = RingSignature(3, 3)
    i = draw(st.integers(0, 2))
    alpha = tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(3))
    parts = [Jet(sig, {alpha: draw(_nonzero)})]
    forced = _nonzero.map(lambda c: [c if j == i else 0 for j in range(3)])
    for _ in range(draw(st.integers(1, 2))):
        part = Jet.constant(sig, 1)
        forms = st.one_of(_linear, forced)
        for form in draw(st.lists(forms, min_size=1, max_size=3)):
            part = part * Jet(sig, {tuple(int(j == k) for j in range(3)): c
                                    for k, c in enumerate(form)})
        parts.append(part)
    return draw(st.permutations(parts))


@settings(max_examples=15, deadline=None)
@given(reducible_systems())
def test_reduction_equals_solving_the_whole_system(parts):
    got = directions._exact_zero_set(parts, 3)
    want = scalar_reference.exact_zero_set(parts, 3)
    if want is None:
        assert got is None
    else:
        assert [d.vec for d in got] == sorted(d.vec for d in want)
