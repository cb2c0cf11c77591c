"""jetideals benchmark: closed-loop workloads timed end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload annulus --seed 1 --seconds 15 --trace 0

One client in one single-threaded process sends the workload's seeded
ops one after another (a closed loop): the whole blocks of ops that
take about ``--seconds`` on the reference machine (see ``_op_count``),
or exactly ``--ops`` ops when that is given.  Every op's output goes
through the workload's oracle.  The last line of standard output is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of ``tracing.py``.  End-to-end
times are in reference seconds, which take out the host's drifting
speed (``speed.py``).  The line before the result records the run's
full context (seed, machine, op count, the workload's rationale, sample
counts behind each percentile, failing ops, the wall-clock figures).
See ``bench/NOTES.md`` for what each metric means.

The package is imported from ``src/`` of the checkout this file sits
in, never from elsewhere; without it the benchmark exits with a
nonzero code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
FAILURES_SHOWN = 20
OVERHEAD_S = 3.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("annulus", "implication", "toolkit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="run exactly this many ops instead of --seconds")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    """Put this checkout's src/ first on the path and import from it."""
    if not (SRC / "jetideals" / "__init__.py").is_file():
        raise SystemExit(f"error: no jetideals package under {SRC}")
    sys.path.insert(0, str(SRC))
    import jetideals
    if Path(jetideals.__file__).resolve().parent != SRC / "jetideals":
        raise SystemExit(f"error: jetideals imported from "
                         f"{jetideals.__file__}, not {SRC}")
    import workloads
    return workloads


def _probe(args):
    """Child side of a set-up probe: be ready for the first op, say so."""
    workloads = _import_package()
    load = workloads.WORKLOADS[args.workload](args.seed)
    op = load.warmup()
    problems = op.check(op.run())
    if problems:
        raise SystemExit(f"error: warm-up op failed its oracle: {problems}")
    print("ready", flush=True)
    return 0


def _time_to_ready(cmd):
    """Wall time from starting ``cmd`` to its first output line, which
    must be "ready"; the child is killed after PROBE_TIMEOUT_S."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: {cmd[1:3]} exited with {proc.returncode} "
                         f"before it was ready")
    return ready


def _measure_setup(args):
    """Set-up probes, each right after a run of the reference process:
    (probe wall times, reference wall times)."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)]
    probes, references = [], []
    for _ in range(SETUP_PROBES):
        references.append(_time_to_ready([sys.executable, "-c",
                                          speed.REFERENCE_PROCESS]))
        probes.append(_time_to_ready(probe))
    return probes, references


def _tail(latencies):
    """Value at the highest percentile with at least ten samples beyond
    it: the (n-10)-th smallest.  With ten samples or fewer, the max."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    beyond = n - 1 - rank
    return ordered[rank], 100.0 * (rank + 1) / n, beyond


def _run_op(op):
    """Run one op; returns (latency, output, error text or None)."""
    start = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as exc:   # an op that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, error


def _check(op, out, error):
    if error is not None:
        return [error]
    try:
        return op.check(out)
    except Exception as exc:   # an oracle that cannot read the output
        return [f"oracle raised {type(exc).__name__}: {exc}"]


def _op_count(load, args):
    """--ops, or the whole blocks that take about --seconds on the
    reference machine (the workload's BLOCK_SECONDS).

    A run does a fixed amount of work rather than stopping at a
    deadline.  A deadline cut inside a block would make the mix of op
    kinds, the number of latency samples, and so every metric, swing
    with machine speed: an annulus block holds one 12-17 s C** op among
    24 ops under a second, and the reference machine's speed varies up
    to 2x from minute to minute (bench/NOTES.md)."""
    if args.ops:
        return args.ops
    return load.BLOCK * max(1, round(args.seconds / load.BLOCK_SECONDS))


def _loop(load, count, tracer=None, sampler=None):
    """The closed loop over ops 0 .. count-1.  Returns the per-op
    records: wall latency and busy time (the op's set-up and run, oracle
    check excluded), both without the time the speed sampler took, and
    the op's (start, end) wall span."""
    spent = (lambda: sampler.spent) if sampler is not None else (lambda: 0.0)
    records = []
    for i in range(count):
        spent_before = spent()
        started = time.perf_counter()
        op = load.op(i)
        if tracer is not None:
            tracer.op = i
        spent_op = spent()
        latency, out, error = _run_op(op)
        if tracer is not None:
            tracer.op = None
        ended = time.perf_counter()
        spent_after = spent()
        problems = _check(op, out, error)
        records.append({"i": i, "kind": op.kind, "problems": problems,
                        "latency": latency - (spent_after - spent_op),
                        "busy": ended - started - (spent_after - spent_before),
                        "span": (started, ended)})
    return records


def _tracing_overhead(op, workloads, tracing):
    """Traced / untraced time - 1 on the warm-up op (which has run once
    already, so caches are equally warm on both sides), run alternately
    with and without tracing until both sides have three runs and
    OVERHEAD_S seconds have passed."""
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    times = {True: [], False: []}
    try:
        start = time.perf_counter()
        while (len(times[True]) < 3
               or time.perf_counter() - start < OVERHEAD_S):
            for traced in (True, False):
                tracer.op = 0 if traced else None
                times[traced].append(_run_op(op)[0])
        tracer.op = None
    finally:
        tracer.uninstall()
    return sum(times[True]) / sum(times[False]) - 1.0, len(times[True])


def _machine():
    import numpy
    import sympy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "platform": platform.platform()}


def main(argv=None):
    args = _parse(argv)
    if args.probe_setup:
        return _probe(args)
    workloads = _import_package()
    if args.trace == 0:
        probes, references = _measure_setup(args)

    load = workloads.WORKLOADS[args.workload](args.seed)
    warm = load.warmup()
    latency, out, error = _run_op(warm)
    if _check(warm, out, error):
        raise SystemExit("error: warm-up op failed")

    tracer = None
    if args.trace:
        import tracing
        overhead, pairs = _tracing_overhead(warm, workloads, tracing)
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    try:
        if args.trace:
            records = _loop(load, _op_count(load, args), tracer)
        else:
            with speed.Sampler() as sampler:
                records = _loop(load, _op_count(load, args), sampler=sampler)
            for r, f in zip(records, sampler.factors([r["span"]
                                                      for r in records])):
                r["factor"] = f
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = [r for r in records if r["problems"]]
    latencies = [r["latency"] for r in records]
    scaled = [r["latency"] * r.get("factor", 1.0) for r in records]
    tail, tail_pct, beyond = _tail(scaled)
    completed = len(records) - len(failures)
    context = {
        "workload": args.workload, "why": load.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "ops": len(records),
        "op_kinds": dict(sorted(Counter(r["kind"] for r in records).items())),
        "machine": _machine(),
        "failed_frac": len(failures) / len(records),
        "latency": {"samples": len(latencies),
                    "tail_percentile": tail_pct,
                    "tail_samples_beyond": beyond},
        "failures": [{"op": r["i"], "kind": r["kind"],
                      "problems": r["problems"]}
                     for r in failures[:FAILURES_SHOWN]],
    }
    if args.trace:
        metrics = tracer.metrics(len(records))
        metrics["trace.op_s"] = (sum(latencies) / len(records), "s/op")
        metrics["trace.overhead_frac"] = (overhead, "frac")
        spans_dir = HERE / "out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        context["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                            "count": len(tracer.spans)}
        context["tracing_overhead"] = {"frac": overhead,
                                       "warm_up_op_pairs": pairs}
    else:
        busy = sum(r["busy"] for r in records)
        scaled_busy = sum(r["busy"] * r["factor"] for r in records)
        context["wall_clock"] = {
            "setup_probes_s": probes, "reference_process_s": references,
            "throughput_ops_s": completed / busy,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": _tail(latencies)[0]}
        slices = [d for _, d in sampler.samples]
        context["speed"] = {
            "reference_slice_s": speed.REFERENCE_SLICE_S,
            "slices": len(slices),
            "mean_slice_s": statistics.fmean(slices),
            "slice_wall_s": sampler.spent,
            "reference_process_s": speed.REFERENCE_PROCESS_S}
        setup = statistics.median(p / r for p, r in zip(probes, references))
        metrics = {
            "setup_s": (setup * speed.REFERENCE_PROCESS_S, "s"),
            "throughput_ops_s": (completed / scaled_busy, "ops/s"),
            "latency_p50_s": (statistics.median(scaled), "s"),
            "latency_tail_s": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures, "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
