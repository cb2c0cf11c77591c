"""Tests of the benchmark itself: a smoke run of every workload at a tiny
size, exact repetition of the traced counts, the speed sampler, and the
refusal to run without the package sources.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import speed  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_OPS = {"annulus": 2, "implication": 3, "toolkit": 40}
SEED = 3


def _run(workload, trace, cwd=ROOT, check=True):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--ops", str(TINY_OPS[workload]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY_OPS)


@pytest.mark.parametrize("workload", list(TINY_OPS))
def test_smoke_end_to_end(workload):
    context, result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY_OPS[workload]
    assert context["failed_frac"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert context["seed"] == SEED
    assert context["why"] == next(w["why"] for w in SPEC["workloads"]
                                  if w["name"] == workload)
    assert {"cpus", "python", "numpy", "sympy"} <= set(context["machine"])
    assert context["latency"]["samples"] == TINY_OPS[workload]


@pytest.mark.parametrize("workload", list(TINY_OPS))
def test_traced_counts_repeat_exactly(workload):
    first_ctx, first = _run(workload, trace=1)
    _, second = _run(workload, trace=1)
    assert first["correct"] and first["failed"] == 0
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    assert got == _declared("per_layer")
    assert first_ctx["tracing_overhead"]["warm_up_op_pairs"] >= 3
    counts = [k for k in got if k.endswith(".calls")
              or k == "exactlin.rref.rows" or k.startswith("geometry.cells_")]
    assert len(counts) > 20
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key

    values = {k: v["value"] for k, v in first["metrics"].items()}
    if workload == "annulus":
        layer_self = {k: v for k, v in values.items()
                      if k.endswith(".self_s")}
        assert max(layer_self, key=layer_self.get) == \
            "symfun.eval_float.self_s"
    if workload == "toolkit":
        assert values["symfun.eval_float.calls"] == 0
    if workload in ("implication", "toolkit"):
        assert values["geometry.cells_visited"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("toolkit", trace=0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampler_groups_spans_by_slice_count():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_SLICE_S
    # one slice every 0.1 s: at reference speed for 1 s, then half speed
    sampler.samples = [(0.1 * k, ref if k < 10 else 2 * ref)
                       for k in range(30)]
    spans = [(0.0, 1.0), (1.0, 2.0), (2.0, 2.05)]
    # the last span holds one slice, so it joins the group before it
    assert sampler.factors(spans) == pytest.approx([1.0, 0.5, 0.5])


def test_sampler_slices_run_inside_busy_code():
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.4:
            sum(range(1000))
    assert len(sampler.samples) >= 4
    assert 0 < sampler.spent < 0.4
