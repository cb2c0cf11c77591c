"""Per-layer tracing of jetideals, installed from outside the package.

``Tracer.install()`` swaps selected public functions and methods of the
``src/jetideals`` modules (and ``sympy.simplify`` / ``sympy.solve``) for
timing wrappers; ``uninstall()`` puts the originals back.  Nothing in
the package itself changes.

A function that other modules import by name (``expr_eval`` in
``verifier``, ``allow_overapprox`` in ``verifier`` and ``corpus``, ...)
is replaced in every module namespace that holds it, or calls from that
module would go unseen.  Methods are replaced on their class.

Three kinds of wrapper:

* span: each call is kept as a span (name, start, end, parent span, op
  id) and written out at the end;
* aggregated span: the same timing, but only per-name totals are kept,
  for calls that run up to ~10^6 times per op (``Jet.__mul__``,
  ``CutoffSpec.eval``, ``expr_eval``, ``Subspace.contains``);
* count: a bare call counter with no timing (``Interval.__init__``,
  sphere patch enclosures and splits).

A layer's self time is its span time minus the time of its child
spans, whatever their layer.  Wrappers record only while an op runs
(``Tracer.op`` is set), so oracle checks outside ops are not counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import sympy

from jetideals import directions, exactlin, geometry, ideal, interval
from jetideals import jetring, symfun, verifier
from jetideals.errors import DomainError

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

# (owner, attribute, layer name, kind).  A class owner means a method.
TARGETS = (
    (verifier, "check_annulus_condition", "verifier.annulus", SPAN),
    (verifier, "check_strong_global", "verifier.strong", SPAN),
    (verifier, "check_strong_directional", "verifier.strong", SPAN),
    (verifier, "check_negligible", "verifier.negligible", SPAN),
    (verifier, "check_tame", "verifier.tame", SPAN),
    (verifier, "symbolic_residual_zero", "verifier.residual", SPAN),
    (verifier, "_scaled_identity", "verifier.residual", SPAN),
    (verifier, "measure_chi_constant", "verifier.chi", SPAN),
    (directions, "allow_overapprox", "directions.allow", SPAN),
    (directions, "verify_forbidden_certificate", "directions.forbid", SPAN),
    (directions, "forbidden_certificate_search", "directions.forbid", SPAN),
    (sympy, "simplify", "sympy.simplify", SPAN),
    (sympy, "solve", "sympy.solve", SPAN),
    (ideal.JetIdeal, "__init__", "ideal.span", SPAN),
    (ideal.JetIdeal, "intersect", "ideal.intersect", SPAN),
    (exactlin, "rref", "exactlin.rref", SPAN),
    (jetring, "jet_compose", "jetring.compose", SPAN),
    (symfun, "expr_derive", "symfun.derive", SPAN),
    (symfun, "expr_eval", "symfun.eval_", AGGREGATE),   # + float|interval
    (symfun.CutoffSpec, "eval", "symfun.cutoff_eval", AGGREGATE),
    (jetring.Jet, "__mul__", "jetring.mul", AGGREGATE),
    (exactlin.Subspace, "contains", "exactlin.contains", AGGREGATE),
    (interval.Interval, "__init__", "interval.new", COUNT),
    (geometry.SpherePatch, "direction_enclosure", "geometry.cells_visited",
     COUNT),
    (geometry.SpherePatch, "subdivide", "geometry.cells_split", COUNT),
    (geometry.SpherePatch, "subdivide_all", "geometry.cells_split", COUNT),
)

# Timed layers, in report order; each gets .calls and .self_s.
LAYERS = (
    "symfun.eval_float", "symfun.cutoff_eval", "symfun.derive",
    "symfun.eval_interval", "exactlin.rref", "exactlin.contains",
    "jetring.mul", "jetring.compose", "ideal.span", "ideal.intersect",
    "directions.allow", "directions.forbid", "sympy.simplify",
    "sympy.solve", "verifier.annulus", "verifier.strong",
    "verifier.negligible", "verifier.tame", "verifier.residual",
    "verifier.chi",
)


def _eval_mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "float")


class Tracer:
    """Wrapper installation plus the span and counter store."""

    def __init__(self):
        self.op = None              # id of the running op; None = idle
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []             # (id, name, start, end, parent, op)
        self._stack = []            # open frames: [child time, span id]
        self._saved = []            # (namespace, attribute, original)

    # -- installation ---------------------------------------------------
    def install(self, extra_modules=()):
        """Wrap every target; extra_modules also get by-name replacements
        (pass the module that calls the API)."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "jetideals" or name.startswith("jetideals.")]
        namespaces += list(extra_modules)
        for owner, attr, name, kind in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, kind)
            self._replace(owner, attr, original, wrapper)
            if isinstance(owner, type) or owner is sympy:
                continue
            for module in namespaces:
                if module is not owner and vars(module).get(attr) is original:
                    self._replace(module, attr, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------
    def _wrap(self, fn, name, kind):
        tracer = self
        perf = time.perf_counter
        counts = self.counts

        if kind == COUNT:
            def counted(*args, **kwargs):
                if tracer.op is not None:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        keep = kind == SPAN
        is_eval = name == "symfun.eval_"

        def timed(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            layer = name + _eval_mode(args, kwargs) if is_eval else name
            stack = tracer._stack
            span_id = parent = None
            if keep:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                span_id = len(tracer.spans)
                tracer.spans.append(None)   # reserve the id
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except DomainError:
                counts[layer + ".domain_errors"] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    tracer.spans[span_id] = (span_id, layer, start, end,
                                             parent, tracer.op)
            tracer._tally(layer, args, result)
            return result

        return timed

    def _tally(self, layer, args, result):
        """Outcome counts behind the ratio metrics."""
        if layer == "exactlin.rref":
            self.counts["exactlin.rref.rows"] += len(args[0])
        elif layer == "directions.allow":
            self.counts["directions.allow.exact"] += bool(result.exact)
        elif layer == "directions.forbid":
            ok = result[0] == "pass" if isinstance(result, tuple) \
                else result is not None
            self.counts["directions.forbid.pass"] += ok

    # -- report ---------------------------------------------------------
    def metrics(self, ops):
        """Per-op values of every per-layer metric, as (value, unit)."""
        ops = max(ops, 1)
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (self.calls[layer] / ops, "count/op")
            out[layer + ".self_s"] = (self.self_s[layer] / ops, "s/op")
        for layer in ("symfun.eval_float", "symfun.eval_interval"):
            out[layer + ".domain_errors"] = (
                self.counts[layer + ".domain_errors"] / ops, "count/op")
        visited = self.counts["geometry.cells_visited"]
        split = self.counts["geometry.cells_split"]
        out["geometry.cells_visited"] = (visited / ops, "count/op")
        out["geometry.cells_split"] = (split / ops, "count/op")
        out["geometry.split_frac"] = (_ratio(split, visited), "frac")
        out["interval.new.calls"] = (self.counts["interval.new"] / ops,
                                     "count/op")
        out["exactlin.rref.rows"] = (self.counts["exactlin.rref.rows"] / ops,
                                     "count/op")
        out["directions.allow.exact_frac"] = (
            _ratio(self.counts["directions.allow.exact"],
                   self.calls["directions.allow"]), "frac")
        out["directions.forbid.pass_frac"] = (
            _ratio(self.counts["directions.forbid.pass"],
                   self.calls["directions.forbid"]), "frac")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    """num/den, or 0 when nothing was attempted."""
    return num / den if den else 0.0
