"""Every script in demos/ runs to completion in a fresh interpreter.

The demos call the public API end to end (05_annulus_conditions.py
reads the identity, chi_constant and A_target fields of the annulus
reports), so a change that breaks one of them shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
