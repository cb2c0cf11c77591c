"""Negligibility dome walks over one dome per check.

check_negligible must return exactly what it returned when every dome
walk built its own cover and enclosed every cell afresh (the reference
walk in scalar_reference.py), whatever earlier checks walked, and the
cell budget must end walks that cannot finish.  Each check builds one
Dome over the sphere cover kept for its n."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetideals import regions, verifier
from jetideals.corpus import case_by_id, run_case
from jetideals.errors import DomainError
from jetideals.geometry import sphere_cover
from jetideals.ideal import JetIdeal
from jetideals.interval import Interval
from jetideals.jetring import RingSignature, jet_parse
from jetideals.regions import DOME_CELL_BUDGET, Dome
from jetideals.symfun import compile_interval, expr_parse
from jetideals.verifier import (ImplicationCertificate, check_negligible,
                                check_strong_global)

import scalar_reference

POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
SIG_A, SIG_B = RingSignature(2, 3), RingSignature(3, 2)


@pytest.fixture
def reference_run(monkeypatch):
    """Run a call once as is and once on the reference dome walk."""

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
    # homogeneity above m: one walk per row, absorbed in r
    ("x^4", [(1.0, 0.0)], 3, 2),
    # two directions: the opening is a quarter of their distance
    ("x*y^3", [(1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5))], 2, 2),
])
def test_more_domes_match_reference(reference_run, F, omegas, m, n):
    F = expr_parse(F, n)
    shared, reference = reference_run(
        lambda: check_negligible(F, omegas, m, n).to_json())
    assert shared == reference


def test_cell_budget_ends_the_pole_walk_of_4y3_over_z(monkeypatch):
    # a walk that runs out of cells bounds nothing: its row is
    # inconclusive and names the derivative walked, at delta0
    monkeypatch.setattr(regions, "DOME_CELL_BUDGET", 3)
    cert = check_negligible(expr_parse("4*y^3/z", 3), POLES, 2, 3)
    (rec,) = cert.records
    assert cert.verdict == rec["verdict"] == "inconclusive"
    assert rec["delta0"] == 0.05
    assert rec["condition_b"]["verdict"] == "inconclusive"
    starved = [row for row in rec["condition_a"]
               if row["status"] == "cell budget exhausted"]
    # the gap-0 row of F itself walks d_y F first
    assert starved[0]["alpha"] == [0, 0, 0]
    assert starved[0]["derivative"] == [0, 1, 0]


def test_walk_past_the_cell_budget_has_no_bound(monkeypatch):
    dome = Dome(sphere_cover(3, 2), POLES, 0.05)
    # no cell has an enclosure: the walk splits down to the depth budget
    assert regions._dome_sup(expr_parse("1/(x - x)", 3), dome) == math.inf
    F = expr_parse("y^3/z", 3)
    assert 0 < regions._dome_sup(F, dome) < math.inf
    monkeypatch.setattr(regions, "DOME_CELL_BUDGET", 3)
    assert regions._dome_sup(F, dome) is None
    assert DOME_CELL_BUDGET >= 50 * 104   # largest corpus walk: 104 cells


def test_nan_enclosure_is_not_certified(monkeypatch):
    # inf - inf has no value: a cell whose enclosure comes out that way
    # proves nothing, so the dome walk must not count it as below target
    def nan_program(e):
        return lambda box: Interval(math.inf, math.inf) + Interval(-math.inf)

    monkeypatch.setattr(regions, "compile_interval", nan_program)
    cert = check_negligible(expr_parse("y^3/z", 3), POLES, 2, 3, budget=2)
    assert cert.verdict == "inconclusive"
    # the first walk bounds nothing, and no later walk runs
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


# ---------------------------------------------------------------------------
# One Dome per check, over a cover kept per n.
# ---------------------------------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """The (n, depth) of each sphere cover and the cover of each Dome
    that check_negligible builds, in order, from no kept cover."""
    covers, domes = [], []

    def counting_cover(n, depth):
        covers.append((n, depth))
        return sphere_cover(n, depth)

    class CountingDome(Dome):
        __slots__ = ()

        def __init__(self, cover, omegas, delta):
            domes.append(cover)
            super().__init__(cover, omegas, delta)

    monkeypatch.setattr(verifier, "sphere_cover", counting_cover)
    monkeypatch.setattr(verifier, "Dome", CountingDome)
    verifier._dome_cover.cache_clear()
    yield covers, domes
    verifier._dome_cover.cache_clear()


def test_checks_at_one_n_build_one_cover_and_one_dome_each(built):
    covers, domes = built
    F = expr_parse("y^3/z", 3)
    for omegas in (POLES, POLES[:1], POLES[1:], POLES):
        assert check_negligible(F, omegas, 2, 3).verdict == "pass"
    assert covers == [(3, 2)]
    assert len(domes) == 4 and all(c is domes[0] for c in domes)
    # another n has a cover of its own
    check_negligible(expr_parse("x^3", 2), [(1.0, 0.0)], 2, 2)
    assert covers == [(3, 2), (2, 2)] and len(domes) == 5


@pytest.mark.parametrize("order", [(Fraction(1, 9), 3),
                                   (3, Fraction(1, 9))])
def test_kept_trees_match_fresh_walks(monkeypatch, order):
    # the second certificate walks the cover the first one walked
    kept = [json.dumps(check_strong_global(_family_a(c)), sort_keys=True)
            for c in order]
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_dome_sup", scalar_reference.dome_sup)
        fresh = [json.dumps(check_strong_global(_family_a(c)),
                            sort_keys=True) for c in order]
    assert kept == fresh


# 4z - 3|x| has no sign on the coarse cells round the poles: their
# enclosures raise DomainError, so the walks split them
SPLIT = "y^3/(4*z - 3*norm(x,y,z))"


def test_starved_tree_gives_later_checks_the_same_cells(monkeypatch):
    # a check on a budget of 8 cells splits the cells round the poles
    # part of the way; a normal check and the starving check itself, run
    # after it, still return what they return on fresh walks
    F = expr_parse(SPLIT, 3)
    with monkeypatch.context() as patch:
        patch.setattr(regions, "DOME_CELL_BUDGET", 8)
        starving = check_negligible(F, POLES, 2, 3).to_json()
        assert starving["verdict"] == "inconclusive"
        assert check_negligible(F, POLES, 2, 3).to_json() == starving
    normal = json.dumps(check_negligible(F, POLES, 2, 3).to_json(),
                        sort_keys=True)
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_dome_sup", scalar_reference.dome_sup)
        fresh = json.dumps(check_negligible(F, POLES, 2, 3).to_json(),
                           sort_keys=True)
    assert normal == fresh
    assert json.loads(normal)["verdict"] == "pass"


# ---------------------------------------------------------------------------
# One walk per derivative.
# ---------------------------------------------------------------------------

def _cell(box):
    """A direction enclosure as a hashable key."""
    return tuple((iv.lo, iv.hi) for iv in box)


def _hex(sup):
    return None if sup is None else float(sup).hex()


def test_each_derivative_encloses_each_cell_once(monkeypatch):
    F = expr_parse("2*y^3/z", 3)
    pole = [(0.0, 0.0, 1.0)]
    evaluated = []

    def recording(expr):
        enclose = compile_interval(expr)

        def run(box):
            evaluated.append((expr, _cell(box)))
            return enclose(box)
        return run

    monkeypatch.setattr(regions, "compile_interval", recording)
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
    # one walk at delta0 per derivative: each cell is enclosed once, as
    # the fresh walks enclose it
    assert len(set(evaluated)) == len(evaluated)
    assert sorted(evaluated, key=repr) == sorted(visited, key=repr)


def _raises_domain_error(enclose, patch):
    try:
        enclose(patch.direction_enclosure())
    except DomainError:
        return True
    return False


def test_cells_without_an_enclosure_match_reference(reference_run):
    # the walks split the coarse cells that have no enclosure
    F = expr_parse(SPLIT, 3)
    enclose = compile_interval(F)
    dome = Dome(sphere_cover(3, 2), POLES, 0.05)
    assert any(_raises_domain_error(enclose, p) for p in dome.roots)
    shared, reference = reference_run(
        lambda: check_negligible(F, POLES, 2, 3).to_json())
    assert shared == reference
    assert json.loads(shared)["verdict"] == "pass"


def test_starved_walk_matches_reference(reference_run, monkeypatch):
    # on a budget of 10 cells the walks of the order-1 derivatives in x
    # run out, and the rows that read them name them
    monkeypatch.setattr(regions, "DOME_CELL_BUDGET", 10)
    F = expr_parse(SPLIT, 3)
    shared, reference = reference_run(
        lambda: check_negligible(F, POLES, 2, 3).to_json())
    assert shared == reference
    rows = json.loads(shared)["records"][0]["condition_a"]
    assert [row["derivative"] for row in rows
            if row["alpha"] == [0, 0, 0]] == [[1, 0, 0]]


@settings(max_examples=15, deadline=None)
@given(st.fractions(Fraction(1, 9), 3, max_denominator=60),
       st.sampled_from([1.0, -1.0]),
       st.sampled_from(["y^3/z", SPLIT]))
def test_shared_walks_equal_fresh_walks(c, sign, shape):
    F = expr_parse(f"{c}*{shape}", 3)
    pole = [(0.0, 0.0, sign)]
    dome_sup = regions._dome_sup

    def compared(expr, dome, budget=64):
        walk = dome_sup(expr, dome, budget)
        assert _hex(walk) == _hex(
            scalar_reference.dome_sup(expr, dome, budget))
        return walk

    def run():
        return json.dumps(check_negligible(F, pole, 2, 3).to_json(),
                          sort_keys=True)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_dome_sup", compared)
        shared = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_dome_sup", scalar_reference.dome_sup)
        assert run() == shared
