"""The sampled checks on compiled kernels return exactly what the scalar
reference loops return: verdicts, max ratios, witnesses, shell tables
and the chi constant, compared as JSON text."""

import json
from fractions import Fraction

import numpy as np
import pytest

from jetideals import verifier
from jetideals.corpus import case_by_id, run_case
from jetideals.geometry import Cone, Direction
from jetideals.symfun import expr_parse

import scalar_reference
from test_acceptance import POLES, _intro_annulus


@pytest.fixture
def scalar_run(monkeypatch):
    """Run a call once as is and once on the scalar reference loops."""

    def run(call):
        compiled = call()
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_sampled_bound_check",
                          scalar_reference.sampled_bound_check)
            patch.setattr(verifier, "_leibniz_bound_check",
                          scalar_reference.leibniz_bound_check)
            patch.setattr(verifier, "_shell_sweep",
                          scalar_reference.shell_sweep)
            patch.setattr(verifier, "measure_chi_constant",
                          scalar_reference.measure_chi_constant)
            scalar = call()
        return (json.dumps(compiled, sort_keys=True, default=str),
                json.dumps(scalar, sort_keys=True, default=str))

    return run


def _criterion_08_draws(count):
    """The first draws of acceptance criterion 08's C <-> C* loop."""
    rng = np.random.default_rng(0)
    return [dict(rho_f=float(rng.uniform(0.8, 1.25)),
                 eps_f=float(rng.uniform(0.5, 2.0)),
                 a_f=float(rng.uniform(0.5, 2.0))) for _ in range(count)]


def _annulus(variant, seed, flip=False, **scales):
    params, p, Q, F, S = _intro_annulus(**scales)
    if flip:
        S = [-s for s in S]
    return lambda: verifier.check_annulus_condition(variant, params, p, Q, F,
                                                    S, POLES, seed=seed)


@pytest.mark.parametrize("variant", ["C", "C*"])
def test_annulus_draws_match_scalar(scalar_run, variant):
    calls = [_annulus(variant, 0)]
    calls += [_annulus(variant, 1, **d) for d in _criterion_08_draws(3)]
    calls += [_annulus(variant, 1, flip=True, **_criterion_08_draws(1)[0])]
    # bounds that the samples break: witnesses on F and on S
    calls += [_annulus(variant, 2, eps_f=1e-9, a_f=1e-6)]
    for call in calls:
        compiled, scalar = scalar_run(call)
        assert compiled == scalar
    assert '"witness": {' in compiled


def test_annulus_c_star_star_matches_scalar():
    # C**'s Leibniz rows on every 16th of its samples at seed 0 and on a
    # point with z = 0, where F and S do not evaluate; bound 1, which
    # S's row breaks
    params, p, Q, F, S = _intro_annulus()
    rho = Fraction(params["rho"])
    scales = [(lo / params["rho"], hi / params["rho"])
              for lo, hi in verifier._cutoff_feature_scales([F] + S)]
    unit = verifier._unit_annulus_samples(3, 4.0, POLES, scales,
                                          np.random.default_rng(0))
    points = np.concatenate([unit, 3.8 * unit[:200]])[::16]
    points = np.vstack([points, [[0.6, 0.8, 0.0]]])
    rows = [(1 / (Fraction(params["eps"]) * rho ** 2), F), (Fraction(1), S[0])]
    args = (verifier.chi_expr(3), rows, points, rho, 2, 3, 1.0)
    compiled, scalar = (
        json.dumps(verifier._bound_rows(["Fstar", "Sstar1"], check(*args),
                                        points))
        for check in (verifier._leibniz_bound_check,
                      scalar_reference.leibniz_bound_check))
    assert compiled == scalar
    assert '"witness": {' in compiled and '"skipped": 1' in compiled
    assert (verifier.measure_chi_constant(2, 3, seed=0)
            == scalar_reference.measure_chi_constant(2, 3, seed=0))


@pytest.mark.parametrize("case_id", ["strong-xy", "strong-cubic"])
def test_corpus_tame_sweeps_match_scalar(scalar_run, case_id):
    compiled, scalar = scalar_run(lambda: run_case(case_by_id(case_id)))
    assert compiled == scalar


def test_tame_witness_and_flat_sweep_match_scalar(scalar_run):
    S = expr_parse("y^2/(x^2 + y^2)", 2)
    cone = Cone([Direction((0.0, 1.0)), Direction((0.0, -1.0))], 0.5, 1.0)
    compiled, scalar = scalar_run(
        lambda: verifier.check_tame(S, cone, 3, 2, bound=0.5).to_json())
    assert compiled == scalar and '"witness": {' in compiled
    F = expr_parse("x^4/(x^2 + y^2) + y^3", 2)
    compiled, scalar = scalar_run(
        lambda: verifier.check_flat(F, cone, 3, 2).to_json())
    assert compiled == scalar
