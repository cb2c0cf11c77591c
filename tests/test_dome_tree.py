"""Negligibility sups over one interval box per direction.

check_negligible bounds each derivative by one enclosure over the box
w +- delta0 of each direction w, which holds w's dome and the segments
from w into it.  It must return exactly what it returns on the
reference sup (the interval tree walk of scalar_reference.py), and its
bounds must hold at every dome direction."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from jetideals import regions, verifier
from jetideals.corpus import case_by_id, run_case
from jetideals.errors import DomainError
from jetideals.geometry import sphere_cover
from jetideals.ideal import JetIdeal
from jetideals.interval import Interval
from jetideals.jetring import RingSignature, jet_parse
from jetideals.regions import Dome, _region_boxes
from jetideals.symfun import (expr_derive, expr_enclose, expr_eval,
                              expr_parse)
from jetideals.verifier import (ImplicationCertificate, check_negligible,
                                check_strong_global)

import scalar_reference

POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
SIG_A, SIG_B = RingSignature(2, 3), RingSignature(3, 2)


@pytest.fixture
def reference_run(monkeypatch):
    """Run a call once as is and once on the reference dome sup."""

    def run(call):
        shared = call()
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_dome_sup", scalar_reference.dome_sup)
            reference = call()
        return (json.dumps(shared, sort_keys=True),
                json.dumps(reference, sort_keys=True))

    return run


def _family_a(c, flipped=False):
    """c*xy = (-c*y/z)(y^2 - xz) + c*y^3/z in <x^2, y^2 - xz>."""
    ideal = JetIdeal(SIG_A, [jet_parse("x^2", SIG_A),
                             jet_parse("y^2 - x*z", SIG_A)])
    sign = -1 if flipped else 1
    return ImplicationCertificate(
        ideal, jet_parse(f"{c}*x*y", SIG_A),
        [(ideal.generators[1], expr_parse(f"{-sign * c}*y/z", 3), 50.0)],
        expr_parse(f"{c}*y^3/z", 3))


def _family_b(target, S):
    """target in <x(x^2 + y^2)> with F = 0."""
    ideal = JetIdeal(SIG_B, [jet_parse("x(x^2 + y^2)", SIG_B)])
    return ImplicationCertificate(
        ideal, jet_parse(target, SIG_B),
        [(ideal.generators[0], expr_parse(S, 2), 50.0)], expr_parse("0", 2))


def test_corpus_case_matches_reference(reference_run):
    shared, reference = reference_run(
        lambda: run_case(case_by_id("ex4-negligible")))
    assert shared == reference
    assert '"certified": true' in shared


@pytest.mark.parametrize("c", ["1/9", "1", "3"])
def test_family_a_matches_reference(reference_run, c):
    F = expr_parse(f"{c}*y^3/z", 3)
    shared, reference = reference_run(
        lambda: check_negligible(F, POLES, 2, 3).to_json())
    assert shared == reference
    assert '"verdict": "pass"' in shared


@pytest.mark.parametrize("target,S", [("x^3", "x^2/(x^2 + y^2)"),
                                      ("x^2*y", "x*y/(x^2 + y^2)"),
                                      ("x*y^2", "y^2/(x^2 + y^2)")])
def test_family_b_matches_reference(reference_run, target, S):
    shared, reference = reference_run(
        lambda: check_strong_global(_family_b(target, S)))
    assert shared == reference


def test_flipped_certificate_matches_reference(reference_run):
    shared, reference = reference_run(
        lambda: check_strong_global(_family_a("1", flipped=True)))
    assert shared == reference
    assert json.loads(shared)["verdict"] == "fail"


@pytest.mark.parametrize("F,omegas,m,n", [
    # homogeneity above m: one sup per row, absorbed in r
    ("x^4", [(1.0, 0.0)], 3, 2),
    # two directions: the opening is a quarter of their distance
    ("x*y^3", [(1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5))], 2, 2),
])
def test_more_domes_match_reference(reference_run, F, omegas, m, n):
    F = expr_parse(F, n)
    shared, reference = reference_run(
        lambda: check_negligible(F, omegas, m, n).to_json())
    assert shared == reference


def test_nan_enclosure_is_not_certified(monkeypatch):
    # inf - inf has no value: a box whose enclosure comes out that way
    # proves nothing, so the sup must not count it as below target
    def nan_enclosure(e, box):
        return Interval(math.inf, math.inf) + Interval(-math.inf)

    monkeypatch.setattr(regions, "expr_enclose", nan_enclosure)
    cert = check_negligible(expr_parse("y^3/z", 3), POLES, 2, 3)
    assert cert.verdict == "inconclusive"
    # the first sup bounds nothing, and no later sup runs
    statuses = [row["status"] for row in cert.records[0]["condition_a"]]
    assert statuses.count("unbounded enclosure") == 1


def test_dome_roots_and_children_are_the_kept_cells():
    cover = sphere_cover(3, 2)
    dome = Dome(cover, POLES, 0.05)

    def meets(p):
        return not scalar_reference._cell_outside_dome(p, POLES, 0.05)

    assert dome.roots == tuple(p for p in cover if meets(p))
    # a second dome over the same cover shares the cover's patches
    wider = Dome(cover, POLES, 0.1)
    assert set(map(id, dome.roots)) <= set(map(id, wider.roots))


# 4z - 3|x| has no sign on the coarse sphere-cover cells round the poles,
# but it has one on the boxes w +- 0.05
SPLIT = "y^3/(4*z - 3*norm(x,y,z))"


def test_pole_sup_of_y3_over_z_is_read_on_the_box():
    # d_y F = 3y^2/z and d_z F = -y^3/z^2 are at most 3 (0.05)^2 / 0.95
    # on the boxes
    cert = check_negligible(expr_parse("y^3/z", 3), POLES, 2, 3)
    row = cert.records[0]["condition_a"][0]
    assert row["alpha"] == [0, 0, 0] and row["status"] == "lipschitz"
    assert row["gradient_sup_upper"] < 0.05


def test_denominator_zero_in_the_dome_is_inconclusive():
    # z - x/50 vanishes at distance 0.02 < delta0 from (1, 0, 0), not at
    # it: every row has gap 1, so only the sups can decide them
    cert = check_negligible(expr_parse("y^4/(z - x/50)", 3),
                            [(1.0, 0.0, 0.0)], 2, 3)
    assert cert.verdict == "inconclusive"
    rows = cert.records[0]["condition_a"]
    assert [row.get("status") for row in rows].count(
        "unbounded enclosure") == 1
    assert rows[0]["derivative"] == [0, 0, 0]


def test_every_row_has_a_status_when_the_verdict_is_decided_early():
    # the first row's sup is unbounded, so the later gap-1 rows take no
    # sup; each still says why
    cert = check_negligible(expr_parse("y^4/(z - x/50)", 3),
                            [(1.0, 0.0, 0.0)], 2, 3)
    rows = cert.records[0]["condition_a"]
    assert [row["status"] for row in rows] == (
        ["unbounded enclosure"]
        + ["sup not taken: verdict decided"] * (len(rows) - 1))


# ---------------------------------------------------------------------------
# One enclosure per derivative and box.
# ---------------------------------------------------------------------------

def _cell(box):
    """A box as a hashable key."""
    return tuple((iv.lo, iv.hi) for iv in box)


def test_each_derivative_encloses_each_cell_once(monkeypatch):
    F = expr_parse("2*y^3/z", 3)
    pole = [(0.0, 0.0, 1.0)]
    evaluated = []

    def recording(expr, box):
        evaluated.append((expr, _cell(box)))
        return expr_enclose(expr, box)

    monkeypatch.setattr(regions, "expr_enclose", recording)
    shared = check_negligible(F, pole, 2, 3).to_json()
    visited = []
    eval_interval = scalar_reference.eval_interval

    def visiting(expr, box):
        visited.append((expr, _cell(box)))
        return eval_interval(expr, box)

    monkeypatch.setattr(scalar_reference, "eval_interval", visiting)
    monkeypatch.setattr(verifier, "_dome_sup", scalar_reference.dome_sup)
    assert check_negligible(F, pole, 2, 3).to_json() == shared
    # the reference evaluation recurses: keep its calls on whole trees
    trees = {expr for expr, _ in evaluated}
    visited = [(expr, cell) for expr, cell in visited if expr in trees]
    # one sup per derivative: each reads the pole's one box once, as the
    # reference reads it
    (box,) = _region_boxes(pole, 0.05, 1, 1)
    assert {cell for _, cell in evaluated} == {_cell(box)}
    assert len(set(evaluated)) == len(evaluated)
    assert sorted(evaluated, key=repr) == sorted(visited, key=repr)


def _raises_domain_error(e, patch):
    try:
        expr_enclose(e, patch.direction_enclosure())
    except DomainError:
        return True
    return False


def test_cells_without_an_enclosure_match_reference(reference_run):
    # the coarse cells round the poles have no enclosure, and the check
    # passes on one box per pole with no split
    F = expr_parse(SPLIT, 3)
    dome = Dome(sphere_cover(3, 2), POLES, 0.05)
    assert any(_raises_domain_error(F, p) for p in dome.roots)
    shared, reference = reference_run(
        lambda: check_negligible(F, POLES, 2, 3).to_json())
    assert shared == reference
    assert json.loads(shared)["verdict"] == "pass"


@settings(max_examples=15, deadline=None)
@given(st.fractions(Fraction(1, 9), 3, max_denominator=60),
       st.sampled_from([1.0, -1.0]),
       st.sampled_from(["y^3/z", SPLIT]))
def test_shared_walks_equal_fresh_walks(c, sign, shape):
    # a sup that two rows read is the reference's sup, bit for bit
    F = expr_parse(f"{c}*{shape}", 3)
    pole = [(0.0, 0.0, sign)]
    dome_sup = regions._dome_sup

    def compared(expr, boxes):
        sup = dome_sup(expr, boxes)
        assert sup.hex() == scalar_reference.dome_sup(expr, boxes).hex()
        return sup

    def run():
        return json.dumps(check_negligible(F, pole, 2, 3).to_json(),
                          sort_keys=True)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_dome_sup", compared)
        shared = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_dome_sup", scalar_reference.dome_sup)
        assert run() == shared


# ---------------------------------------------------------------------------
# The bounds hold at every dome direction.
# ---------------------------------------------------------------------------

# room for the rounding of the float value of G(u) under its bound
SLACK = 1 + 1e-9


def _dome_direction(w, z, rho):
    """The unit vector of w + rho t, t the unit part of z orthogonal to
    w: |u - w| = 2 sin(atan(rho) / 2) < rho."""
    dot = sum(a * b for a, b in zip(z, w))
    t = [a - dot * b for a, b in zip(z, w)]
    size = math.hypot(*t)
    assume(size > 1e-3)
    p = [b + rho * a / size for a, b in zip(t, w)]
    size = math.hypot(*p)
    return tuple(c / size for c in p)


def _check_bounds(F, w, m, n, zs, fractions):
    cert = check_negligible(F, [w], m, n)
    (record,) = cert.records
    (vec,) = cert.omegas
    delta0 = record["delta0"]
    bounded = 0
    for row in record["condition_a"]:
        G = expr_derive(F, tuple(row["alpha"]))
        for z, frac in zip(zs, fractions):
            u = _dome_direction(vec, z, frac * delta0)
            dist = math.dist(u, vec)
            assert dist < delta0
            if "dome_sup_upper" in row:
                bound = row["dome_sup_upper"]
            elif "lipschitz" in row:
                bound = row["lipschitz"] * dist
            else:
                continue
            bounded += 1
            assert abs(expr_eval(G, u)) <= bound * SLACK, (row, u)
    return cert, bounded


_coords = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
       st.integers(-3, 3),
       st.lists(st.tuples(_coords, _coords), min_size=4, max_size=4),
       st.lists(st.floats(1e-3, 0.99), min_size=4, max_size=4))
def test_gap_zero_bounds_hold_in_the_dome(w, r, zs, fractions):
    # F vanishes to order 3 on the ray of w, so every row has gap 0 and
    # is 0 at w: each row bounds |G(u)| by lipschitz |u - w|
    p, q = w
    F = expr_parse(f"({q}*x - {p}*y)^3*(x + {r}*y)/(x^2 + y^2)", 2)
    cert, bounded = _check_bounds(F, w, 2, 2, zs, fractions)
    assert cert.verdict == "pass" and bounded


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
       st.tuples(*[st.integers(-3, 3)] * 4), st.sampled_from([1, 2]),
       st.lists(st.tuples(_coords, _coords, _coords), min_size=4,
                max_size=4),
       st.lists(st.floats(1e-3, 0.99), min_size=4, max_size=4))
def test_gap_above_zero_bounds_hold_in_the_dome(w, c, m, zs, fractions):
    # F is homogeneous of degree 3 > m, so every row has gap > 0 and
    # bounds |G(u)| by its dome sup; a box across z = 0 bounds nothing
    assume(any(c))
    F = expr_parse(f"({c[0]}*x + {c[1]}*y + {c[2]}*z)^4/norm(x,y,z)"
                   f" + {c[3]}*x*y^3/z", 3)
    cert, bounded = _check_bounds(F, w, m, 3, zs, fractions)
    assert cert.verdict != "fail"
    assert bounded or cert.verdict == "inconclusive"
