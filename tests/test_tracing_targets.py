"""The per-layer tracer in bench/tracing.py wraps package functions by
name; a rename in the package must fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_names_an_attribute_of_its_owner():
    tracing = _load_tracing()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(vars(owner)[attr])
