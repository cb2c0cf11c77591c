"""The batched sample draws equal the per-point loops they replaced.

verifier._unit_rows draws many random unit vectors with one
standard_normal call; the annulus samples, the chi points and the sweep
directions, whole-sphere and dome, are built from it.  Each must give
the points of scalar_reference's one-vector-at-a-time loops bit for bit,
and leave the generator in the same state, so that any later draw from
it is unchanged.

Every row of verifier._dome_directions lies within delta of its center
w (for delta from 1e-14 up), so the dome samplers keep every draw.  A
sweep's directions depend on its cone and seed alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference as ref
from jetideals import verifier
from jetideals.geometry import Cone, dome_membership


def _same_bits(batched, points):
    """Equal as arrays, and equal bit for bit (signed zeros included)."""
    want = np.array(points, dtype=float).reshape(batched.shape)
    return (np.array_equal(batched, want)
            and batched.tobytes() == want.tobytes())


coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def directions(draw, n):
    """A unit direction with any coordinates, signed zeros included."""
    v = draw(st.lists(coordinate, min_size=n, max_size=n)
             .filter(lambda v: math.hypot(*v) > 0.1))
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(c / norm for c in v)


@st.composite
def annulus_inputs(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    omegas = draw(st.lists(directions(n), max_size=3))
    scales = draw(st.lists(st.tuples(st.floats(-14.0, 1.0),
                                     st.floats(0.0, 3.0)), max_size=3))
    rel_scales = [(10.0 ** e, 10.0 ** e * (1.0 + 10.0 ** g))
                  for e, g in scales]
    return n, omegas, rel_scales, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(annulus_inputs(), st.sampled_from([4.0, 2.0]))
def test_annulus_samples_equal_the_per_point_loop(inputs, K):
    n, omegas, rel_scales, seed = inputs
    batched_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    got = verifier._unit_annulus_samples(n, K, omegas, rel_scales,
                                         batched_rng)
    want = ref.unit_annulus_samples(n, K, omegas, rel_scales, loop_rng)
    assert got.shape == (len(want), n)
    assert _same_bits(got, want)
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 2 ** 32 - 1))
def test_chi_points_and_sweep_directions_equal_the_loops(n, seed):
    batched_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    for _ in range(2):          # one batch after another, as per alpha
        assert _same_bits(verifier._chi_points(batched_rng, n),
                          ref.chi_points(loop_rng, n))
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    loop_rng = np.random.default_rng(seed)
    want = [ref.random_unit(loop_rng, n)
            for _ in range(verifier.SWEEP_DIRECTIONS)]
    assert _same_bits(verifier._region_directions(None, n, seed), want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(
           lambda n: st.tuples(st.just(n), directions(n))),
       st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_transverse_rows_equal_successive_draws(n_omega, count, seed):
    n, omega = n_omega
    batched_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    got = verifier._unit_rows(batched_rng, count, n, omega)
    want = [ref.transverse_unit(loop_rng, n, omega) for _ in range(count)]
    assert got.shape == (count, n) and _same_bits(got, want)
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


class StubNormal:
    """A generator whose standard normals are a fixed list, served in
    order to draws of any shape; `used` counts the values drawn."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        out = self.values[self.used:self.used + size]
        self.used += size
        return np.array(out, dtype=float).reshape(shape)


@pytest.mark.parametrize("omega", [None, (0.0, 0.0, 1.0)])
def test_rejected_rows_are_dropped_and_drawn_again(omega):
    # rows 0, 3 and 5 are rejected: zero, or parallel to omega (which
    # projects to zero); the first batch of 4 keeps 2, the next keeps 1
    # of 2, the last keeps its one row; the trailing row is never drawn
    rows = [(0.0, 0.0, 0.0), (0.3, -1.2, 0.5), (1.1, 0.4, -0.7),
            (0.0, 0.0, 2.0 if omega else 0.0), (-0.2, 0.9, 1.3),
            (0.0, 0.0, 0.0), (0.8, 0.1, -0.4), (5.0, 5.0, 5.0)]
    values = [c for row in rows for c in row]
    batched, loop = StubNormal(values), StubNormal(values)
    got = verifier._unit_rows(batched, 4, 3, omega)
    if omega is None:
        want = [ref.random_unit(loop, 3) for _ in range(4)]
    else:
        want = [ref.transverse_unit(loop, 3, omega) for _ in range(4)]
    assert _same_bits(got, want)
    assert batched.used == loop.used == 7 * 3


def test_zero_rows_give_an_empty_batch():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert verifier._unit_rows(rng, 0, 3).shape == (0, 3)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_dots_equal_np_dot_bit_for_bit(n):
    # a BLAS or numpy change that breaks this breaks the batched draws
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((10_000, n)) * rng.uniform(1e-3, 1e3,
                                                          (10_000, 1))
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    dots = verifier._row_dots(rows, w)
    norms = np.sqrt(verifier._row_dots(rows, rows))
    assert dots.tobytes() == np.array([np.dot(v, w) for v in rows]).tobytes()
    assert norms.tobytes() == np.array(
        [np.linalg.norm(v) for v in rows]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(directions(n),
                                                    min_size=1, max_size=3)),
       st.floats(1e-14, 1.0), st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_dome_directions_equal_the_per_center_loop(omegas, delta, count, seed):
    batched_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    got = verifier._dome_directions(batched_rng, omegas, delta, count)
    want = ref.dome_directions(loop_rng, omegas, delta, count)
    assert got.shape == (len(want), len(omegas[0]))
    assert _same_bits(got, want)
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


def test_sweep_directions_depend_on_the_cone_and_seed_alone():
    # no direction set is kept between calls: a cone swept after another
    # gets the directions of a fresh generator, its signed zeros intact
    cone_a = Cone([(-0.0, 0.0, 1.0), (0.0, 0.0, -1.0)], 0.5, 1.0)
    cone_b = Cone([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)], 0.5, 1.0)
    first = verifier._region_directions(cone_a, 3, 7)
    other = verifier._region_directions(cone_b, 3, 7)
    again = verifier._region_directions(cone_a, 3, 7)
    assert first.tobytes() == again.tobytes()
    assert first[0].tobytes() == np.array([-0.0, 0.0, 1.0]).tobytes()
    assert other[0].tobytes() == np.array([0.0, 0.0, 1.0]).tobytes()
    assert np.array_equal(first, other)         # -0.0 == 0.0 in every draw


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(directions), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.floats(1e-14, 4.0),
                 st.sampled_from([1e-300, 1e-16, 1e-15, 0.05, 0.25, 1.0])))
def test_dome_directions_lie_within_delta_of_their_center(w, seed, delta):
    # t < 0.98 delta and, in exact arithmetic, |u - w| <= t.  In floats
    # the normalization also moves u by up to about 3e-16 across t, so
    # |u - w| < hypot(delta, 1e-15): for every delta from 1e-14 up, each
    # draw is in the dome and no caller need test it again; below about
    # 2e-15 a draw can land just outside the dome
    rng = np.random.default_rng(seed)
    for u in verifier._dome_directions(rng, [w], delta, 20):
        assert math.dist(u, w) < math.hypot(delta, 1e-15)
        if delta >= 1e-14:
            assert dome_membership(tuple(u), [w], delta)
