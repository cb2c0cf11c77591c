"""The host's current speed, for reporting times in reference seconds.

The reference machine is a small VM on a shared host whose speed swings
by up to 2x within a second and drifts over minutes (bench/NOTES.md,
"Steadiness"): the same code runs at different speeds from one run to
the next, and no change to the workloads themselves removes that.  So
``run.py`` reports its end-to-end times in *reference seconds*:

* op times: measured seconds times REFERENCE_SLICE_S over the mean time
  of a short slice of a fixed pure-Python kernel, which ``Sampler`` runs
  every PERIOD_S of wall time from a SIGALRM handler, in the middle of
  the ops, in the same thread and so on the same CPU.  Its own time is
  taken out of the op times;
* set-up time: measured seconds times REFERENCE_PROCESS_S over the time
  of a fresh interpreter that imports numpy and sympy, run just before
  each set-up probe.

Neither reference uses jetideals, so no change to the package can make
it faster or slower.  The kernel does the kind of work the package does
(evaluation of a small expression tree with isinstance dispatch, float
math, exact Fraction arithmetic on a polynomial held as a dict of
exponent tuples), with the cyclic garbage collector off so the size of
the package's heap does not reach into it.  The measured wall-clock
figures are printed next to the result.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

# A typical kernel slice time on the reference machine.
REFERENCE_SLICE_S = 0.0015

# The reference process for set-up time: a fresh interpreter importing
# the package's two large dependencies, and its typical wall time on
# the reference machine.
REFERENCE_PROCESS = "import numpy, sympy; print('ready', flush=True)"
REFERENCE_PROCESS_S = 0.55


class _Num:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


class _Var:
    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i


class _Add:
    __slots__ = ("terms",)

    def __init__(self, *terms):
        self.terms = terms


class _Mul:
    __slots__ = ("factors",)

    def __init__(self, *factors):
        self.factors = factors


class _Sqrt:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


def _eval(e, x):
    if isinstance(e, _Num):
        return e.v
    if isinstance(e, _Var):
        return x[e.i]
    if isinstance(e, _Add):
        return sum(_eval(t, x) for t in e.terms)
    if isinstance(e, _Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, x)
        return out
    if isinstance(e, _Sqrt):
        return math.sqrt(abs(_eval(e.arg, x)))
    raise TypeError(e)


def _tree():
    x, y, z = _Var(0), _Var(1), _Var(2)
    r = _Sqrt(_Add(_Mul(x, x), _Mul(y, y), _Num(1.0)))
    return _Add(_Mul(_Num(-1.5), y, r), _Mul(x, y, z),
                _Mul(_Add(y, _Num(0.25)), _Add(z, r), r))


def _poly_mul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            k = (a[0] + b[0], a[1] + b[1])
            if k[0] + k[1] <= 5:
                out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


_TREE = _tree()
_POINTS = [(0.1 * i, 0.05 * i - 1.0, 0.02 * i + 0.3) for i in range(60)]
_P = {(1, 0): Fraction(3, 7), (0, 1): Fraction(-2, 5), (1, 1): Fraction(1, 3)}
_Q = {(0, 0): Fraction(1), (2, 0): Fraction(5, 11), (0, 2): Fraction(-4, 9)}


def kernel():
    """One fixed slice of work (about REFERENCE_SLICE_S on the reference
    machine); returns a checksum so the work cannot be skipped."""
    total = 0.0
    for pt in _POINTS:
        total += _eval(_TREE, pt)
    p = _poly_mul(_poly_mul(_P, _Q), _Q)
    return total + float(sum(p.values()))


class Sampler:
    """Kernel slices every PERIOD_S of wall time while it is active.

    ``with Sampler() as sampler:`` installs a SIGALRM handler and an
    interval timer; the handler times one kernel slice and returns
    without raising, so the interrupted code goes on unchanged (only
    later).  ``spent`` is the wall time spent in the handler so far, for
    taking it out of the op times.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples = []       # (start, duration) of each slice
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        enter = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        duration = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append((start, duration))
        self.spent += time.perf_counter() - enter

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factors(self, spans, min_samples=10):
        """Reference seconds per measured second for each (start, end)
        span of wall time, in order.  Consecutive spans are grouped until
        a group's time holds ``min_samples`` slices (a short last group
        joins the one before it); each span gets REFERENCE_SLICE_S over
        the mean slice time in its group."""
        starts = [t for t, _ in self.samples]

        def inside(a, b):       # slice times during spans[a:b]
            lo = bisect.bisect_left(starts, spans[a][0])
            hi = bisect.bisect_left(starts, spans[b - 1][1])
            return [d for _, d in self.samples[lo:hi]]

        groups, first = [], 0
        for i in range(len(spans)):
            if len(inside(first, i + 1)) >= min_samples:
                groups.append([first, i + 1])
                first = i + 1
        if first < len(spans):
            if groups:
                groups[-1][1] = len(spans)
            else:
                groups.append([0, len(spans)])
        everything = [d for _, d in self.samples]
        out = []
        for a, b in groups:
            durations = inside(a, b) or everything
            factor = (REFERENCE_SLICE_S / statistics.fmean(durations)
                      if durations else 1.0)
            out.extend([factor] * (b - a))
        return out
