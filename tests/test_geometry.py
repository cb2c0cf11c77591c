"""Sphere covers, cones, domes, and the tangent-direction estimator."""

import math
import random

import pytest

from jetideals.errors import DomainError
from jetideals.geometry import (DELTA_FLOOR, Annulus, Cone, Direction,
                                direction_of, dome_membership,
                                estimate_tangent_directions,
                                read_point_cloud, sphere_cover)
from scalar_reference import contains_direction


def random_unit(rng, n):
    while True:
        v = [rng.gauss(0, 1) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-9:
            return tuple(c / norm for c in v)


def test_cover_sizes():
    assert len(sphere_cover(2, 0)) == 4
    assert len(sphere_cover(3, 1)) == 24
    assert len(sphere_cover(4, 0)) == 8


def test_cover_unsupported_dimension():
    with pytest.raises(DomainError):
        sphere_cover(5)


@pytest.mark.parametrize("n,depth", [(2, 0), (2, 3), (3, 0), (3, 1), (4, 0)])
def test_monte_carlo_coverage(n, depth):
    """Every random unit vector lands in at least one patch."""
    rng = random.Random(100 * n + depth)
    patches = sphere_cover(n, depth)
    for _ in range(10_000):
        u = Direction(random_unit(rng, n))
        assert any(contains_direction(p, u, slack=1e-12) for p in patches)


def _chart_direction(patch, params):
    """The direction at chart parameters (one in [0, 1] per box axis)."""
    v = []
    it = iter(zip(patch.box, params))
    for i in range(patch.n):
        if i == patch.axis:
            v.append(float(patch.sign))
        else:
            (lo, hi), t = next(it)
            v.append(lo + t * (hi - lo))
    return direction_of(v)


def test_direction_enclosure_sound():
    rng = random.Random(9)
    for patch in sphere_cover(3, 1):
        box = patch.direction_enclosure()
        for _ in range(50):
            u = _chart_direction(patch, [rng.random(), rng.random()])
            assert all(iv.contains(c) for iv, c in zip(box, u.vec))


def test_subdivide_covers_parent():
    rng = random.Random(19)
    patch = sphere_cover(2, 0)[0]
    kids = patch.subdivide()
    for _ in range(200):
        u = _chart_direction(patch, [rng.random()])
        assert any(contains_direction(k, u, slack=1e-12) for k in kids)


def test_direction_normalization():
    d = Direction((3.0, 4.0), normalize=True)
    assert d.vec == (0.6, 0.8)
    with pytest.raises(ValueError):
        Direction((3.0, 4.0))
    with pytest.raises(DomainError):
        direction_of((0.0, 0.0))


def test_dome_membership():
    omegas = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    assert dome_membership((0.01, 0.0, 5.0), omegas, 0.1)
    assert not dome_membership((1.0, 0.0, 0.0), omegas, 0.1)
    assert not dome_membership((1.0, 0.0, 0.0), [], 0.5)
    with pytest.raises(DomainError):
        dome_membership((0.0, 0.0, 0.0), omegas, 0.1)


@pytest.mark.parametrize("delta,r", [
    (0.0, 1.0), (-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (DELTA_FLOOR / 2, 1.0), (1e-300, 1.0),
    (0.5, 0.0), (0.5, math.nan), (0.5, math.inf)])
def test_cone_rejects_an_opening_or_radius_out_of_range(delta, r):
    with pytest.raises(ValueError):
        Cone([Direction((0.0, 1.0))], delta, r)


def test_cone_accepts_the_floor_opening():
    assert Cone([Direction((0.0, 1.0))], DELTA_FLOOR, 1.0).delta == DELTA_FLOOR


def test_cone_and_annulus_membership():
    cone = Cone([Direction((0.0, 1.0))], 0.2, 1.0)
    assert cone.contains((0.01, 0.5))
    assert not cone.contains((0.01, 2.0))    # too far out
    assert not cone.contains((0.5, 0.01))    # wrong direction
    ann = Annulus(2.0, 1.0)
    assert ann.contains((0.0, 0.7)) and not ann.contains((0.0, 3.0))
    assert ann.inner == 0.5 and ann.outer == 2.0


def _dyadic_ray(direction, k_max=20):
    pts = []
    for k in range(k_max + 1):
        s = 2.0 ** -k
        pts.append(tuple(s * c for c in direction))
    return pts


def test_tangent_estimator_vertical_line():
    pts = _dyadic_ray((0.0, 1.0)) + _dyadic_ray((0.0, -1.0))
    dirs = estimate_tangent_directions(pts, 1e-3)
    got = sorted(d.vec for d in dirs)
    assert got == [(0.0, -1.0), (0.0, 1.0)]


def test_tangent_estimator_drops_transients():
    # points that only appear at coarse scales are not tangent directions
    pts = _dyadic_ray((0.0, 1.0)) + [(1.0, 0.0), (0.5, 0.0)]
    dirs = estimate_tangent_directions(pts, 1e-3)
    assert [d.vec for d in dirs] == [(0.0, 1.0)]


def test_tangent_estimator_curved_branch():
    # x^2 = y^3, y >= 0 bends into the vertical axis
    # the direction at shell k is off-vertical by about 2^(-k/2), so
    # start deep enough that every active shell is inside the net radius
    pts = []
    for k in range(0, 30):
        y = 2.0 ** -k
        pts.append((y ** 1.5, y))
    dirs = estimate_tangent_directions(pts, 1e-2, start_scale=16)
    assert len(dirs) == 1
    assert math.dist(dirs[0].vec, (0.0, 1.0)) < 1e-2


def test_tangent_estimator_rejects_empty():
    with pytest.raises(DomainError):
        estimate_tangent_directions([(0.0, 0.0)], 1e-3)


def test_read_point_cloud():
    pts = read_point_cloud("1/2,0\n0.25, 1\n\n-3,2\n")
    assert pts == [(0.5, 0.0), (0.25, 1.0), (-3.0, 2.0)]
    from jetideals.errors import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        read_point_cloud("1,2\n1,2,3\n")


def test_patch_keeps_its_enclosure_and_children():
    patch = sphere_cover(3, 0)[0]
    enc = patch.direction_enclosure()
    assert isinstance(enc, tuple) and patch.direction_enclosure() is enc
    kids = patch.subdivide_all()
    assert len(kids) == 4
