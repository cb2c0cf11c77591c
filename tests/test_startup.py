"""Start-up: importing jetideals loads no sympy.

No package module imports sympy: the allowed sets, in the plane and by
resultants in three variables, and their exact residuals are computed
over QQ by `algebraic`.  So the annulus conditions, the flat/tame and
negligibility checks, a `jetideals verify-annulus` call, every allowed
set with its exact residuals, and the benchmark's implication and
toolkit warm-up ops run without it, and the allowed sets are computed
in an interpreter where importing sympy raises.  This test process has
sympy loaded already, so each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code):
    """Run code in a fresh interpreter with src/ first on the path; the
    JSON of its last output line."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_sympy():
    assert _fresh(
        "import json, sys\n"
        "import jetideals\n"
        "print(json.dumps('sympy' in sys.modules))") is False


@pytest.mark.parametrize("variant", ["C", "C*", "C**"])
def test_annulus_conditions_load_no_sympy(variant):
    verdict, loaded = _fresh(
        "import json, sys\n"
        "from jetideals import (RingSignature, check_annulus_condition,\n"
        "                       expr_parse, jet_parse)\n"
        "from jetideals.corpus import _intro_annulus_inputs\n"
        "inp = _intro_annulus_inputs()\n"
        "sig, n = RingSignature(inp['m'], inp['n']), inp['n']\n"
        f"report = check_annulus_condition({variant!r}, inp['params'],\n"
        "    jet_parse(inp['p'], sig), [jet_parse(q, sig) for q in inp['Q']],\n"
        "    expr_parse(inp['F'], n), [expr_parse(s, n) for s in inp['S']],\n"
        "    inp['omegas'], seed=0)\n"
        "print(json.dumps([report['verdict'], 'sympy' in sys.modules]))")
    assert verdict == "pass"
    assert loaded is False


def test_verify_annulus_cli_loads_no_sympy(tmp_path):
    from jetideals.corpus import _intro_annulus_inputs
    inputs = _intro_annulus_inputs()
    cert = {"ideal": {"m": 2, "n": 3, "generators": ["x^2", "y^2 - x*z"]},
            "target": inputs["p"], "F": inputs["F"],
            "terms": [{"Q": Q, "S": S, "C": 50.0}
                      for Q, S in zip(inputs["Q"], inputs["S"])],
            "annulus": dict(inputs["params"], omegas=inputs["omegas"])}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, loaded = _fresh(
        "import json, sys\n"
        "from jetideals.cli import main\n"
        f"code = main(['verify-annulus', '--cert', {str(path)!r}])\n"
        "print(json.dumps([code, 'sympy' in sys.modules]))")
    assert code == 0
    assert loaded is False


def test_tame_and_negligible_checks_load_no_sympy():
    # strong-xy's S and F near the poles
    verdicts, loaded = _fresh(
        "import json, sys\n"
        "from jetideals import (Cone, Direction, check_negligible,\n"
        "                       check_tame, expr_parse)\n"
        "poles = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]\n"
        "cone = Cone([Direction(w) for w in poles], 0.5, 1.0)\n"
        "tame = check_tame(expr_parse('-y/z', 3), cone, 2, 3, bound=50.0)\n"
        "neg = check_negligible(expr_parse('y^3/z', 3), poles, 2, 3)\n"
        "print(json.dumps([[tame.verdict, neg.verdict],"
        " 'sympy' in sys.modules]))")
    assert verdicts == ["pass", "pass"]
    assert loaded is False


def test_allowed_sets_and_residuals_load_no_sympy():
    found, residuals, loaded = _fresh(
        "import json, sys\n"
        "from jetideals import (JetIdeal, RingSignature, allow_overapprox,\n"
        "                       exact_zero_residual, jet_parse)\n"
        "out, residuals = [], []\n"
        "for m, n, gens in [(3, 2, ['x^3 - 3/7*x*y^2 + y^3', 'x*y']),\n"
        "                   (2, 2, ['y^2 - 2*x^2']),\n"
        "                   (2, 3, ['x^2', 'y^2 - x*z'])]:\n"
        "    sig = RingSignature(m, n)\n"
        "    I = JetIdeal(sig, [jet_parse(g, sig) for g in gens])\n"
        "    found = allow_overapprox(I)\n"
        "    out.append(found.to_json())\n"
        "    residuals += [exact_zero_residual(d, g) for d in found.directions\n"
        "                  for g in I.generators]\n"
        "print(json.dumps([out, residuals, 'sympy' in sys.modules]))")
    assert found[0] == {"exact": True, "directions": []}
    assert len(found[1]["directions"]) == 4
    assert found[2] == {"exact": True,
                        "directions": [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]}
    assert residuals == [0] * 8
    assert loaded is False


def test_implication_and_toolkit_warmups_load_no_sympy():
    bench = SRC.parent / "bench"
    outcome = _fresh(
        "import json, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "import workloads\n"
        "out = {}\n"
        "for name in ('implication', 'toolkit'):\n"
        "    op = workloads.WORKLOADS[name](1).warmup()\n"
        "    out[name] = op.check(op.run())\n"
        "print(json.dumps([out, 'sympy' in sys.modules]))")
    assert outcome == [{"implication": [], "toolkit": []}, False]


def test_allowed_sets_are_computed_where_sympy_cannot_be_imported():
    # a None entry in sys.modules makes every `import sympy` raise
    found, residuals = _fresh(
        "import json, sys\n"
        "sys.modules['sympy'] = None\n"
        "from jetideals import (JetIdeal, RingSignature, allow_overapprox,\n"
        "                       exact_zero_residual, jet_parse)\n"
        "out, residuals = [], set()\n"
        "sig = RingSignature(3, 3)\n"
        "for gens in [['x^2 + y^2 - 2z^2', 'x*y - z^2 + x*z'],\n"
        "             ['-x^3 - 2y*z^2', '-3x^2 + 2y^2 + 2y*z + z^2'],\n"
        "             ['x*y', 'y*z', 'x*z'],\n"
        "             ['-3x*y - y^2', '-x^2*z - x*y^2']]:\n"
        "    I = JetIdeal(sig, [jet_parse(g, sig) for g in gens])\n"
        "    found = allow_overapprox(I)\n"
        "    out.append(len(found.directions) if found.is_finite else None)\n"
        "    residuals |= {exact_zero_residual(d, g)\n"
        "                  for d in found.directions or ()\n"
        "                  for g in I.generators}\n"
        "print(json.dumps([out, sorted(residuals)]))")
    assert found == [4, 8, 6, None]
    assert residuals == [0]
