"""The per-layer tracer in bench/tracing.py wraps package functions by
name; a rename in the package must fail here, not only in a traced
benchmark run.  And a layer that the toolkit workload runs must still
be reached through its wrapper: a call that bypasses it reads 0."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# timed layers a short toolkit run reaches; geometry.cells_* are
# counters (Tracer.counts), not timed layers, so they are not listed
TOOLKIT_LAYERS = ("jetring.compose", "jetring.mul", "exactlin.rref",
                  "exactlin.contains", "ideal.span", "ideal.intersect",
                  "directions.allow")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def test_every_trace_target_names_an_attribute_of_its_owner():
    tracing = _load_tracing()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(vars(owner)[attr])


def test_a_traced_toolkit_run_reaches_every_ring_and_span_layer():
    tracing, workloads = _load("tracing"), _load("workloads")
    load = workloads.WORKLOADS["toolkit"](1)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        for i in range(40):
            op = load.op(i)
            tracer.op = i
            try:
                out = op.run()
            finally:
                tracer.op = None
            assert not op.check(out)
    finally:
        tracer.uninstall()
    silent = [layer for layer in TOOLKIT_LAYERS if not tracer.calls[layer]]
    assert not silent
