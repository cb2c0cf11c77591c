"""Scalar expression trees on R^n minus the origin.

This is the little function language in which remainders F, multipliers
S_l and cutoffs are written: rational-coefficient arithmetic, division,
vector norms and a polynomial smoothstep cutoff theta.  The language is
closed under partial differentiation (cutoff nodes carry their
derivative order), and every node evaluates in float or outward-rounded
interval arithmetic.  Each of these, and every other evaluation or
rewrite of a tree, is a hook set that dispatches on the node class's
hook name (fold; expr_diff through its cache).  The process keeps two
tree caches: derivatives (DERIVATIVES) and float kernels (KERNELS).
Gauges and their regularization live here too, but no node of the
language refers to a gauge.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from . import algebraic
from .errors import DomainError, ParseError
from .interval import Interval, box_norm
from .jetring import _Parser, variable_names

# ---------------------------------------------------------------------------
# Expression nodes.
# ---------------------------------------------------------------------------


class ScalarExpr:
    """Base class; nodes are immutable, and compare and hash by structure.

    Each node sets _key to its fields (the value itself for a one-field
    node, else a tuple) and _hash once, when it is built.  Cutoff specs
    have no __eq__ of their own, so they compare by identity.
    children() gives the subtrees in field order; subtrees() walks them.
    A subclass names the hook that fold calls for its nodes.
    """

    __slots__ = ("_key", "_hash")

    def __init_subclass__(cls, hook=""):
        cls.hook = hook

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return self._hash

    def children(self):
        key = self._key if type(self._key) is tuple else ()
        return [k for k in key if isinstance(k, ScalarExpr)]

    def __add__(self, other):
        return add(self, _coerce(other))

    def __sub__(self, other):
        return add(self, mul(Const(-1), _coerce(other)))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __neg__(self):
        return mul(Const(-1), self)

    def __repr__(self):
        return f"<{type(self).__name__}: {expr_str(self)}>"


def subtrees(e: ScalarExpr):
    """e and every node below it, in preorder."""
    yield e
    for child in e.children():
        yield from subtrees(child)


def collect_cutoffs(exprs):
    """Every cutoff node of the trees, each tree in preorder."""
    return [c for e in exprs for c in subtrees(e) if isinstance(c, Cutoff)]


def _coerce(x):
    if isinstance(x, ScalarExpr):
        return x
    return Const(Fraction(x))


class Const(ScalarExpr, hook="const"):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = self._key = Fraction(value)
        self._hash = hash(("const", self._key))


class Coord(ScalarExpr, hook="coord"):
    __slots__ = ("i",)

    def __init__(self, i):
        self.i = self._key = int(i)
        self._hash = hash(("coord", self._key))


class Add(ScalarExpr, hook="add"):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = self._key = tuple(terms)
        self._hash = hash(("add", self._key))


class Mul(ScalarExpr, hook="mul"):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = self._key = tuple(factors)
        self._hash = hash(("mul", self._key))


class Pow(ScalarExpr, hook="pow"):
    """Integer power, exponent >= 2 (lower powers simplify away)."""

    __slots__ = ("base", "k")

    def __init__(self, base, k):
        self.base = base
        self.k = int(k)
        self._key = (base, self.k)
        self._hash = hash(("pow", self._key))


class Div(ScalarExpr, hook="div"):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self._key = (num, den)
        self._hash = hash(("div", self._key))


class Norm(ScalarExpr, hook="norm"):
    """Euclidean norm of the sub-vector with the given coordinate indices."""

    __slots__ = ("indices",)

    def __init__(self, indices):
        self.indices = self._key = tuple(sorted(set(int(i) for i in indices)))
        if not self.indices:
            raise ValueError("norm needs at least one coordinate")
        self._hash = hash(("norm", self._key))


class Cutoff(ScalarExpr, hook="cutoff"):
    """theta^(order)(arg / scale) for a polynomial smoothstep theta."""

    __slots__ = ("spec", "arg", "scale", "order")

    def __init__(self, spec, arg, scale, order=0):
        scale = Fraction(scale)
        if scale <= 0:
            raise ValueError("cutoff scale must be positive")
        self.spec = spec
        self.arg = arg
        self.scale = scale
        self.order = int(order)
        self._key = (spec, arg, scale, self.order)
        self._hash = hash(("cutoff", self._key))


ZERO = Const(0)
ONE = Const(1)
_ABSENT = object()      # what fold reads from a memo without the node


# -- smart constructors (light, idempotent simplification) ------------------

def add(*terms):
    flat = []
    const = Fraction(0)
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    out = []
    for t in flat:
        if isinstance(t, Const):
            const += t.value
        else:
            out.append(t)
    if const != 0:
        out.append(Const(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(out)


def mul(*factors):
    flat = []
    const = Fraction(1)
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    out = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
        else:
            out.append(f)
    if const == 0:
        return ZERO
    if const != 1:
        out.insert(0, Const(const))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Mul(out)


def div(num, den):
    if isinstance(den, Const):
        if den.value == 0:
            raise DomainError("division by constant zero")
        return mul(Const(Fraction(1, 1) / den.value), num)
    if num == ZERO:
        return ZERO
    return Div(num, den)


def ipow(base, k):
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return base
    if k < 0:
        return div(ONE, ipow(base, -k))
    if isinstance(base, Const):
        return Const(base.value ** k)
    return Pow(base, k)


# ---------------------------------------------------------------------------
# The fold over expression trees.
# ---------------------------------------------------------------------------

def fold(exprs, hooks, memo=None):
    """The value of each tree of exprs under a hook set, as a list.

    For each node, fold calls the method of `hooks` that the node's class
    names, hook(node, visit), which returns the node's value and calls
    visit(child) for the children it needs, in its own order.  visit
    reads memo first (a fresh dict unless one is given), so each distinct
    node is folded once.  A class that hooks lacks raises TypeError."""
    memo = {} if memo is None else memo

    def visit(node):
        value = memo.get(node, _ABSENT)
        if value is _ABSENT:
            value = memo[node] = _hook(hooks, node)(node, visit)
        return value

    return [visit(e) for e in exprs]


def _hook(hooks, node):
    """The method of hooks that the node's class names; TypeError where
    hooks has none."""
    hook = getattr(hooks, node.hook, None)
    if hook is None:
        raise TypeError(f"{type(hooks).__name__} has no hook for "
                        f"node class {type(node).__name__}")
    return hook


# ---------------------------------------------------------------------------
# Differentiation.
# ---------------------------------------------------------------------------

# Derivatives kept for the process, one per (node, coordinate).  The
# recursion runs through the cache, so the trees of a derivative table
# share their prefixes and subtrees, and a tree derived again (by a later
# check, or in another direction) gets the same trees back.  A call that
# raises is not kept: it raises again on every call.
DERIVATIVES = 1 << 10


@functools.lru_cache(maxsize=DERIVATIVES)
def expr_diff(e: ScalarExpr, i: int) -> ScalarExpr:
    """Exact partial derivative with respect to coordinate i."""
    return _hook(_Diff(i), e)(e, lambda child: expr_diff(child, i))


class _Diff:
    """Hooks of expr_diff: each node's partial derivative in coordinate
    i; visit(child) is the child's, read through expr_diff's cache."""

    def __init__(self, i):
        self.i = i

    def const(self, e, visit): return ZERO
    def coord(self, e, visit): return ONE if e.i == self.i else ZERO
    def add(self, e, visit): return add(*map(visit, e.terms))

    def mul(self, e, visit):
        return add(*(mul(df, *e.factors[:j], *e.factors[j + 1:])
                     for j, df in enumerate(map(visit, e.factors))
                     if df != ZERO))

    def pow(self, e, visit):
        db = visit(e.base)
        if db == ZERO:
            return ZERO
        return mul(Const(e.k), ipow(e.base, e.k - 1), db)

    def div(self, e, visit):
        du, dv = visit(e.num), visit(e.den)
        if dv == ZERO:
            return div(du, e.den)
        return div(add(mul(du, e.den), mul(Const(-1), mul(e.num, dv))),
                   ipow(e.den, 2))

    def norm(self, e, visit):
        return div(Coord(self.i), e) if self.i in e.indices else ZERO

    def cutoff(self, e, visit):
        if e.order + 1 > e.spec.q:
            raise DomainError(
                f"cutoff differentiated past registered smoothness {e.spec.q}")
        da = visit(e.arg)
        if da == ZERO:
            return ZERO
        inner = Cutoff(e.spec, e.arg, e.scale, e.order + 1)
        return mul(Const(Fraction(1, 1) / e.scale), inner, da)


def expr_derive(e: ScalarExpr, alpha) -> ScalarExpr:
    """Iterated partial derivative for a multi-index."""
    out = e
    for i, a in enumerate(alpha):
        for _ in range(a):
            out = expr_diff(out, i)
    return out


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def expr_eval(e: ScalarExpr, point):
    """The float value of e at a point; expr_enclose encloses e over a
    box.

    Division by zero raises DomainError rather than producing
    infinities.  The value is compile_expr's at the one point, and
    raises what it does (see compile_exprs): the first failure a tree
    walk meets, so an overflow behind a division by zero is a
    DomainError.
    """
    values, ok = compile_expr(e)(np.array([[float(c) for c in point]]))
    if not ok[0]:
        raise DomainError("expression undefined at the point")
    return float(values[0])


_IV_ZERO = Interval(0.0, 0.0)
_IV_ONE = Interval(1.0, 1.0)


def expr_enclose(e: ScalarExpr, box) -> Interval:
    """An enclosure of e over a box, one Interval per coordinate.

    The fold applies the Interval operations of a tree walk in the
    walk's order: sums run from [0, 0] and products from [1, 1], left to
    right, numerators before denominators.  So the enclosure, and every
    DomainError, OverflowError or ValueError, is the walk's exactly.
    """
    return fold((e,), _Enclose(box))[0]


class _Enclose:
    """Hooks of expr_enclose: each node folds to its Interval over the
    box."""

    def __init__(self, box):
        self.box = box

    def const(self, e, visit): return Interval.exact(e.value)
    def coord(self, e, visit): return self.box[e.i]
    def pow(self, e, visit): return visit(e.base).ipow(e.k)
    def div(self, e, visit): return visit(e.num) / visit(e.den)

    def add(self, e, visit):
        return functools.reduce(operator.add, map(visit, e.terms), _IV_ZERO)

    def mul(self, e, visit):
        return functools.reduce(operator.mul, map(visit, e.factors), _IV_ONE)

    def norm(self, e, visit):
        return box_norm([self.box[i] for i in e.indices])

    def cutoff(self, e, visit):
        return e.spec.eval_interval(visit(e.arg) / Interval.exact(e.scale),
                                    e.order)


# ---------------------------------------------------------------------------
# Compiled evaluation over point arrays.
# ---------------------------------------------------------------------------

_CHUNK = 1024   # points per pass; bounds the memory of the shared subtrees

# Kernels kept for the process, one per distinct table of trees: trees
# compare by structure, and cutoff nodes compare their spec by identity,
# so equal tables are the same functions and a derivative table that
# later checks evaluate again is compiled once.
KERNELS = 1 << 8


def compile_exprs(exprs):
    """Compile a table of trees into one evaluator over point arrays.

    The evaluator maps an (N, n) float array to one (values, ok) pair of
    length-N arrays per tree.  ok is False exactly where a node of the
    tree is undefined (a division by zero, a cutoff derivative past its
    smoothness), and values are NaN there.  Elsewhere values equal the
    scalar tree walk eval_float in tests/scalar_reference.py bit for
    bit: sums run from 0.0 and products from 1.0, left to right; Pow
    nodes and norm squares take one np.float_power call (_float_pow),
    which calls libm pow as Python's float power does, since np.power
    differs in the last bit; cutoffs take CutoffSpec.eval_array, which
    runs the exact ramp once per distinct offset.  Structurally equal
    subtrees anywhere in the table are evaluated once per chunk of
    points.

    Where the walk of a tree raises something else (OverflowError from
    a float power, ValueError from a cutoff of a NaN argument), so does
    the evaluator.  Each node's state at a point is the first failure
    its operands meet in the walk's order (a quotient's denominator and
    its zero test before its numerator), else its own, so an overflow
    behind a division by zero is masked as the walk never reaches it.

    Equal tables get the same evaluator back (KERNELS are kept).
    """
    return _compile_table(tuple(exprs))


@functools.lru_cache(maxsize=KERNELS)
def _compile_table(exprs):
    steps = {}
    outputs = fold(exprs, _Kernel(), steps)
    program = list(steps.values())      # each after its operands' steps

    def kernel(points):
        points = np.asarray(points, dtype=float)
        count = points.shape[0]
        values = [np.empty(count) for _ in outputs]
        oks = [np.ones(count, dtype=bool) for _ in outputs]
        with np.errstate(all="ignore"):
            for start in range(0, count, _CHUNK):
                cols = np.ascontiguousarray(points[start:start + _CHUNK].T)
                stop = start + cols.shape[1]
                vals, states = {}, {}
                for step in program:
                    vals[step], states[step] = step(vals, states, cols)
                for out, v, ok in zip(outputs, values, oks):
                    mask, fail = states[out]
                    if fail is not None and fail.any():
                        error, message = _RAISES[fail[fail != 0][0]]
                        raise error(message)
                    v[start:stop] = vals[out]
                    if mask is not None:
                        ok[start:stop] = mask
        for v, ok in zip(values, oks):
            v[~ok] = np.nan
        return list(zip(values, oks))

    return kernel


def compile_expr(e):
    """compile_exprs for one tree: points -> (values, ok)."""
    kernel = compile_exprs([e])
    return lambda points: kernel(points)[0]


# A node's state over a chunk of points is a pair (ok, fail).  ok is
# None where every point evaluates, else a bool array; fail is None
# where no point raises, else an int array holding at each point that
# fails raising the index into _RAISES of what the walk raises there,
# and 0 elsewhere.  A point not ok whose fail is 0 is a DomainError.
_OK = (None, None)
_OVERFLOW, _NAN_CUTOFF = 1, 2
_RAISES = (None, (OverflowError, "float power out of range"),
           (ValueError, "cutoff of a NaN argument"))


def _then(first, then):
    """The state of evaluating an operand of state `then` after ones of
    state `first`: each point fails as the first of them that fails
    there."""
    (ok, fail), (mask, code) = first, then
    if code is not None:
        if ok is not None:
            code = np.where(ok, code, 0)
        # a point fails in at most one of fail and code
        fail = code if fail is None else fail + code
    if mask is not None:
        ok = mask if ok is None else ok & mask
    return ok, fail


def _raising(state, where, code):
    """state, then the node's own operation raising _RAISES[code] at the
    points of `where`."""
    if not where.any():
        return state
    return _then(state, (~where, np.where(where, code, 0)))


def _running(op, start, operands):
    """The step of a sum or product: op from start, left to right."""
    def step(vals, states, cols):
        acc, state = start, _OK
        for s in operands:
            acc = op(acc, vals[s])
            state = _then(state, states[s])
        return acc, state
    return step


def _float_pow(base, k):
    """base ** k per element in one np.float_power call, which calls
    libm pow as Python's float power does (np.power differs in the last
    bit), and the points where Python's ** raises OverflowError instead:
    a finite base whose power is infinite."""
    out = np.float_power(base, float(k))
    return out, np.isinf(out) & np.isfinite(base)


class _Kernel:
    """Hooks of _compile_table: each node folds to its program step
    (vals, states, cols) -> (value, state), which reads its operands'."""

    def const(self, e, visit):
        c = float(e.value)
        return lambda vals, states, cols: (np.full(cols.shape[1], c), _OK)

    def coord(self, e, visit):
        i = e.i
        return lambda vals, states, cols: (cols[i], _OK)

    def add(self, e, visit):
        return _running(operator.add, 0.0, list(map(visit, e.terms)))

    def mul(self, e, visit):
        return _running(operator.mul, 1.0, list(map(visit, e.factors)))

    def pow(self, e, visit):
        base, k = visit(e.base), e.k

        def power(vals, states, cols):
            out, over = _float_pow(vals[base], k)
            return out, _raising(states[base], over, _OVERFLOW)
        return power

    def div(self, e, visit):
        num, den = visit(e.num), visit(e.den)

        def divide(vals, states, cols):
            nonzero = _then(states[den], (vals[den] != 0.0, None))
            return vals[num] / vals[den], _then(nonzero, states[num])
        return divide

    def norm(self, e, visit):
        indices = e.indices

        def norm(vals, states, cols):
            acc, over = 0.0, np.zeros(cols.shape[1], dtype=bool)
            for i in indices:
                square, overflows = _float_pow(cols[i], 2)
                acc, over = acc + square, over | overflows
            return np.sqrt(acc), _raising(_OK, over, _OVERFLOW)
        return norm

    def cutoff(self, e, visit):
        arg, spec, scale, order = visit(e.arg), e.spec, float(e.scale), e.order
        if order > spec.q:
            return lambda vals, states, cols: (
                np.full(cols.shape[1], np.nan),
                _then(states[arg], (np.zeros(cols.shape[1], dtype=bool),
                                    None)))

        def cut(vals, states, cols):
            v = vals[arg] / scale
            ok, fail = _raising(states[arg], np.isnan(v), _NAN_CUTOFF)
            return spec.eval_array(v, order, ok), (ok, fail)
        return cut


# ---------------------------------------------------------------------------
# Structural homogeneity degree.
# ---------------------------------------------------------------------------

def hom_degree(e: ScalarExpr):
    """Homogeneity degree d with e(s x) = s^d e(x), read off the tree.

    Returns an int, or None when the tree gives no uniform degree
    (mixed-degree sums, cutoff nodes).  Conservative: None never means
    "definitely inhomogeneous".
    """
    return fold((e,), _Degree())[0]


class _Degree:
    """Hooks of hom_degree: each node folds to its degree or None."""

    def const(self, e, visit): return 0
    def coord(self, e, visit): return 1
    def cutoff(self, e, visit): return None
    norm = coord

    def add(self, e, visit):
        degs = set(map(visit, e.terms))
        return degs.pop() if len(degs) == 1 and None not in degs else None

    def mul(self, e, visit):
        degs = list(map(visit, e.factors))
        return None if None in degs else sum(degs)

    def pow(self, e, visit):
        d = visit(e.base)
        return None if d is None else d * e.k

    def div(self, e, visit):
        dn, dd = visit(e.num), visit(e.den)
        return None if None in (dn, dd) else dn - dd


# ---------------------------------------------------------------------------
# Printing.
# ---------------------------------------------------------------------------

def expr_str(e: ScalarExpr, n: int = 4) -> str:
    """e in the expression grammar, its coordinates named as expr_parse
    names them for n variables; expr_parse reads a tree of its grammar
    back as the same function."""
    return fold((e,), _Printer(n))[0][0]


_SUM, _PRODUCT, _QUOTIENT, _POWER, _ATOM = range(1, 6)


def _wrap(printed, slot):
    text, binding = printed
    return f"({text})" if binding < slot else text


class _Printer:
    """Hooks of expr_str: each node folds to (text, how tightly it binds,
    0 for a negative constant).  A child is parenthesized in a slot that
    needs a tighter binding: a term needs _SUM, a factor _PRODUCT, a
    numerator _QUOTIENT, a denominator _POWER and a base _ATOM."""

    def __init__(self, n):
        names = variable_names(n)
        self.name = lambda i: names[i] if i < len(names) else f"x{i + 1}"

    def const(self, e, visit):
        if e.value < 0:
            return str(e.value), 0
        return str(e.value), _ATOM if e.value.denominator == 1 else _QUOTIENT

    def add(self, e, visit):
        # a later term led by a negative constant, "(-c)...", reads
        # "- c...", and one led by "(-1)*" reads "- ..."
        first, *rest = (_wrap(visit(t), _SUM) for t in e.terms)
        return first + "".join(
            " - " + t[2:].replace(")", "", 1).removeprefix("1*")
            if t.startswith("(-") else " + " + t for t in rest), _SUM

    def mul(self, e, visit):
        return "*".join(_wrap(visit(f), _PRODUCT) for f in e.factors), _PRODUCT

    def div(self, e, visit):
        num, den = _wrap(visit(e.num), _QUOTIENT), _wrap(visit(e.den), _POWER)
        return f"{num}/{den}", _QUOTIENT

    def pow(self, e, visit):
        return f"{_wrap(visit(e.base), _ATOM)}^{e.k}", _POWER

    def coord(self, e, visit):
        return self.name(e.i), _ATOM

    def norm(self, e, visit):
        return f"norm({','.join(map(self.name, e.indices))})", _ATOM

    def cutoff(self, e, visit):
        tag = f"theta^{e.order}" if e.order else "theta"
        return f"{tag}({visit(e.arg)[0]}, {e.scale})", _ATOM


# ---------------------------------------------------------------------------
# Cutoff: polynomial smoothstep spline.
# ---------------------------------------------------------------------------

def _smoothstep_coeffs(q: int):
    """Coefficients of the degree-(2q+1) smoothstep S with S(0)=0, S(1)=1
    and q vanishing derivatives at both ends; index = power of u."""
    coeffs = {}
    for k in range(q + 1):
        c = Fraction((-1) ** k * math.comb(q + k, k) * math.comb(2 * q + 1, q - k))
        coeffs[q + 1 + k] = c
    out = [Fraction(0)] * (2 * q + 2)
    for p, c in coeffs.items():
        out[p] = c
    return out


def _integer_poly(coeffs):
    """(integer coefficients, common denominator) of a rational polynomial."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


def _poly_eval_interval(coeffs, u: Interval) -> Interval:
    acc = Interval(0.0, 0.0)
    for c in reversed(coeffs):
        acc = acc * u + Interval.exact(c)
    return acc


class CutoffSpec:
    """Cutoff theta: 1 on [0,a], 0 on [b,inf), a degree-(2q+1) smoothstep
    spline in between, with exact rational coefficients."""

    def __init__(self, q: int = 3, a=4, b=8):
        if q < 1:
            raise ValueError("need q >= 1")
        self.q = q
        self.a = Fraction(a)
        self.b = Fraction(b)
        if not 0 <= self.a < self.b:
            raise ValueError("need 0 <= a < b")
        self.width = self.b - self.a
        # theta(t) = 1 - S((t-a)/(b-a)); store derivative polys of S in u
        self._polys = [_smoothstep_coeffs(q)]
        for _ in range(q):
            self._polys.append(algebraic.derivative(self._polys[-1]))
        self._int_polys = [_integer_poly(p) for p in self._polys]

    def eval(self, v: float, order: int = 0) -> float:
        if order > self.q:
            raise DomainError("cutoff derivative order beyond smoothness")
        a, b = float(self.a), float(self.b)
        if v <= a:
            return 1.0 if order == 0 else 0.0
        if v >= b:
            return 0.0
        u = Fraction(v - a) / self.width
        val = float(algebraic.evaluate(self._polys[order], u))
        val /= float(self.width) ** order
        return 1.0 - val if order == 0 else -val

    def eval_array(self, v, order: int = 0, ok=None):
        """eval over a float array, equal to it bit for bit (and raising
        ValueError on a NaN argument, as eval does).  The exact ramp runs
        once per distinct offset in the transition band, whose values
        are then scattered back to every point with that offset.  Points
        in the band where the optional mask ok is False are not
        evaluated and read NaN."""
        if order > self.q:
            raise DomainError("cutoff derivative order beyond smoothness")
        a, b = float(self.a), float(self.b)
        low, high = v <= a, v >= b
        out = np.where(low, 1.0 if order == 0 else 0.0, 0.0)
        band = ~(low | high)
        out[band] = np.nan
        if ok is not None:
            band &= ok
        idx = np.flatnonzero(band)
        if idx.size:
            offsets, where = np.unique(v[idx] - a, return_inverse=True)
            val = np.array(self._ramp_exact(offsets.tolist(), order))
            val /= float(self.width) ** order
            out[idx] = (1.0 - val if order == 0 else -val)[where]
        return out

    def _ramp_exact(self, offsets, order):
        """The ramp polynomial of order `order` at u = d / width for each
        float offset d, exactly rounded, as eval's Fraction Horner gives
        it: integer Horner on u = un / ud scaled by ud^degree, then one
        correctly rounded int / int."""
        coeffs, den = self._int_polys[order]
        top, rest = coeffs[-1], coeffs[-2::-1]
        wn, wd = self.width.numerator, self.width.denominator
        out = []
        for d in offsets:
            dn, dd = d.as_integer_ratio()
            un, ud = dn * wd, dd * wn
            acc, scale = top, 1
            for c in rest:
                scale *= ud
                acc = acc * un + c * scale
            out.append(acc / (den * scale))
        return out

    def eval_interval(self, v: Interval, order: int = 0) -> Interval:
        if order > self.q:
            raise DomainError("cutoff derivative order beyond smoothness")
        a, b = float(self.a), float(self.b)
        pieces = []
        if v.lo < a:
            pieces.append(Interval.exact(1.0 if order == 0 else 0.0))
        if v.hi > b:
            pieces.append(Interval.exact(0.0))
        mid = v.intersect(Interval(a, b))
        if mid is not None and mid.width >= 0:
            u = (mid - a) / Interval.exact(self.width)
            u = u.intersect(Interval(0.0, 1.0)) or Interval(0.0, 0.0)
            val = _poly_eval_interval(self._polys[order], u)
            val = val / Interval.exact(self.width).ipow(order)
            pieces.append(Interval.exact(1.0) - val if order == 0 else -val)
        return Interval.hull(pieces)


DEFAULT_CUTOFF = CutoffSpec(q=3, a=4, b=8)


# ---------------------------------------------------------------------------
# Gauges and gauge regularization.
# ---------------------------------------------------------------------------

# points of s per block of the sup envelope (241 blocks of the 61 441):
# shorter blocks cost more in the t x block bound matrices than they
# prune, longer ones prune less.  Over t^p, p in [0.2, 1], 256 took the
# least time of 64 to 1024 (2-vCPU x86 VM).
_ENVELOPE_BLOCK = 256


class Gauge:
    """A positive scale function sampled on a log grid of (0, 1].

    Values are clamped to <= 1.  Evaluation interpolates linearly in
    log2(t) and clamps beyond the grid ends.
    """

    def __init__(self, name, log2_grid, values):
        self.name = name
        grid = np.asarray(log2_grid, dtype=float)
        vals = np.minimum(np.asarray(values, dtype=float), 1.0)
        order = np.argsort(grid)
        self.log2_grid = grid[order]
        self.values = vals[order]
        # written so that a NaN sample fails it too
        if not np.all(self.values > 0):
            raise DomainError("gauge samples must be strictly positive")

    @staticmethod
    def from_function(name, fn, per_octave=1024):
        """fn sampled at 2^j, j from -60 to 0 in steps of 1/per_octave.
        fn gets Python floats; a NaN it returns is refused, not clamped."""
        grid = np.linspace(-60.0, 0.0, 60 * per_octave + 1)
        vals = np.fromiter(map(fn, [2.0 ** j for j in grid.tolist()]),
                           float, grid.size)
        return Gauge(name, grid, vals)

    def eval(self, t: float) -> float:
        if t <= 0:
            raise DomainError("gauge argument must be positive")
        return float(np.interp(math.log2(t), self.log2_grid, self.values))

    def eval_array(self, t):
        return np.interp(np.log2(t), self.log2_grid, self.values)


def _bump(v):
    """C^infinity bump supported in [1/2, 2]."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    mask = (v > 0.5) & (v < 2.0)
    vv = v[mask]
    out[mask] = np.exp(-1.0 / ((vv - 0.5) * (2.0 - vv)))
    return out


class RegularizedGauge:
    """Output of gauge_regularize: the envelope g~, the mollified g*, the
    final g+ = C''*g*, and the measured constants / check results."""

    def __init__(self, source, tilde, gstar_fn, c_second, report):
        self.source = source
        self.tilde = tilde          # Gauge holding the sup envelope
        self._gstar_fn = gstar_fn
        self.c_second = c_second
        self.report = report


def _sup_envelope(s, gs, t_vals):
    """max over i of fl(fl(2t / fl(t + s_i)) g_i) at each t of t_vals,
    for ascending s > 0 and finite g >= 0, bit for bit as one pass over
    all of s gives it, by a pass over the hull of the blocks of s that
    can hold the max (see gauge_regularize); never a longer pass."""
    n = s.size
    blocks = -(-n // _ENVELOPE_BLOCK)
    padded = np.full(blocks * _ENVELOPE_BLOCK, -np.inf)
    padded[:n] = gs
    arg = padded.reshape(blocks, _ENVELOPE_BLOCK).argmax(axis=1)
    arg += np.arange(blocks) * _ENVELOPE_BLOCK
    g_max = gs[arg]
    # blocks x t bounds, the same three operations as the pass below
    t_col = t_vals[:, None]
    upper = 2.0 * t_col / (t_col + s[::_ENVELOPE_BLOCK]) * g_max
    lower = np.max(2.0 * t_col / (t_col + s[arg]) * g_max, axis=1)
    keep = upper >= lower[:, None]
    starts = keep.argmax(axis=1) * _ENVELOPE_BLOCK
    stops = np.minimum((blocks - keep[:, ::-1].argmax(axis=1))
                       * _ENVELOPE_BLOCK, n)
    out = np.empty_like(t_vals)
    buf = np.empty_like(s)      # one buffer for the whole loop
    for idx, (t, lo, hi) in enumerate(zip(t_vals, starts.tolist(),
                                          stops.tolist())):
        # (2t / (t + s)) g(s), computed in place
        part = buf[:hi - lo]
        np.add(s[lo:hi], t, out=part)
        np.divide(2.0 * t, part, out=part)
        np.multiply(part, gs[lo:hi], out=part)
        out[idx] = np.max(part)
    return out


def _interp_log2(ts, log2_grid, values):
    """Gauge.eval at each t of an array: math.log2, since np.log2
    differs from it in the last bit."""
    logs = np.fromiter(map(math.log2, ts.tolist()), float, len(ts))
    return np.interp(logs, log2_grid, values)


def gauge_regularize(g: Gauge, check_scales=20) -> RegularizedGauge:
    """Regularize a gauge: sup envelope, mollification, calibration.

    g~(t)  = sup_s (2t/(t+s)) g(s)   -- computed over a dense log grid of
             s with s=t always included, so g~ >= g holds exactly on the
             evaluation grid; the tail s > s_max is dominated using
             2t/(t+s) <= 2t/s.  The grid's max is found without taking
             every product.  Rounding is monotone and s ascends, so on a
             block of s that starts at s_lo no product exceeds
             fl(fl(2t / fl(t + s_lo)) max g).  Each block's product at
             its largest g is a real product, so the largest of these,
             lb(t), bounds the max from below, and a block whose bound
             is below lb(t) cannot hold it.  A pass over the hull of
             the other blocks takes a superset of the max's candidates
             and only real products, so its max is the full pass's,
             bit for bit (`_sup_envelope`).
    g*(t)  = integral of phi(v) g~(t/v) dv/v over v in [1/2,2] with a
             smooth bump phi, evaluated by Simpson in log v and
             normalized so g* is a convex combination of g~ values.
    g+     = C'' g* with C'' = max g~/g* on the grid, so g+ >= g~ >= g.

    The report records quasi-doubling factors, finite-difference
    derivative constants, and the decay trend of g+.
    """
    # dense s grid: 2^-60 .. 2^0, 1024 samples per octave
    s_log2 = np.linspace(-60.0, 0.0, 60 * 1024 + 1)
    s = np.exp2(s_log2)
    gs = g.eval_array(s)

    # evaluation grid for g~, slightly wider than (0,1] so that the
    # mollifier can look one octave past both ends
    t_log2 = np.arange(-62.0, 2.0 + 1e-9, 0.125)
    t_vals = np.exp2(t_log2)
    tilde_vals = _sup_envelope(s, gs, t_vals)
    # include s = t exactly (weight 1): guarantees g~(t) >= g(t)
    own = (2.0 ** -60 <= t_vals) & (t_vals <= 1.0)
    tilde_vals[own] = np.maximum(
        tilde_vals[own], _interp_log2(t_vals[own], g.log2_grid, g.values))
    # tail s > 1: g(s) extends as g(1), weight <= 2t/s decreasing, so
    # the tail sup is at s = 1 which the grid already contains
    np.minimum(tilde_vals, 2.0, out=tilde_vals)
    tilde = Gauge(f"{g.name}_tilde", t_log2, np.minimum(tilde_vals, 1.0))

    # the unclamped envelope, for ratio checks, at each t of an array
    def tilde_at(ts):
        return _interp_log2(ts, t_log2, tilde_vals)

    # mollifier weights: Simpson in u = log v on [log 1/2, log 2]
    n_quad = 64
    u = np.linspace(math.log(0.5), math.log(2.0), n_quad + 1)
    w = np.ones(n_quad + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (u[1] - u[0]) / 3.0
    phi_w = w * _bump(np.exp(u))
    phi_w /= phi_w.sum()  # convex combination of g~ samples

    v_nodes = np.exp(u)

    # one dot product per t, as for a single t: a matrix product sums in
    # another order
    def gstar_at(ts):
        rows = tilde_at((np.asarray(ts)[:, None] / v_nodes).ravel())
        return np.array([np.dot(phi_w, row)
                         for row in rows.reshape(-1, v_nodes.size)])

    def gstar(t):
        return float(gstar_at([t])[0])

    # calibration constant C'': g+ = C'' g* dominates g~
    check_log2 = np.arange(-60.0, 0.0 + 1e-9, 0.5)
    check_t = np.exp2(check_log2)
    c_second = float(np.max(tilde_at(check_t) / gstar_at(check_t)))

    # quasi-doubling of g~ on grid pairs with ratio in [1/2, 2]
    pairs = np.array([(2.0 ** tl, 2.0 ** (tl + dl)) for tl in check_log2
                      for dl in (-1.0, -0.5, 0.5, 1.0)
                      if -62.0 <= tl + dl <= 2.0])
    r = tilde_at(pairs[:, 0]) / tilde_at(pairs[:, 1])
    qd_worst = float(max(1.0, np.max(r), np.max(1.0 / r)))

    # finite-difference derivative constants |D^k g*| <= C' t^-k g~
    t = np.exp2(np.arange(-40.0, -1.0 + 1e-9, 1.0))
    h = t / 16.0
    f0, fp, fm = gstar_at(t), gstar_at(t + h), gstar_at(t - h)
    gt = tilde_at(t)
    c_prime = [np.max(abs(f0) / gt),
               np.max(abs((fp - fm) / (2 * h)) * t / gt),
               np.max(abs((fp - 2 * f0 + fm) / h ** 2) * t * t / gt)]

    # decay trend of g+ over dyadic scales
    scales = np.exp2(-np.arange(1.0, check_scales + 1))
    plus_vals = (c_second * gstar_at(scales)).tolist()
    monotone = all(b <= a * (1.0 + 1e-9)
                   for a, b in zip(plus_vals, plus_vals[1:]))
    decays = plus_vals[-1] <= 0.5 * plus_vals[0]

    tilde_on_grid = tilde_at(np.exp2(g.log2_grid))
    report = {
        "envelope_dominates": bool(np.all(tilde_on_grid >= g.values - 1e-15)),
        "quasi_doubling_factor": qd_worst,
        "quasi_doubling_ok": qd_worst <= 4.0 + 1e-9,
        "derivative_constants": [float(c) for c in c_prime],
        "calibration_constant": c_second,
        "plus_values": plus_vals,
        "decay_monotone": monotone,
        "decay_halves": decays,
        "decays": monotone and decays,
    }
    return RegularizedGauge(g, tilde, gstar, c_second, report)


# ---------------------------------------------------------------------------
# Parsing the extended expression grammar.
# ---------------------------------------------------------------------------

class _ExprParser(_Parser):
    """The grammar of jetring._Parser into expression trees, built by the
    smart constructors: '/' takes any divisor, ^k any integer k, and the
    names are the coordinates, abs2(...), norm(...) and theta(e, scale)."""

    const = staticmethod(Const)
    add = staticmethod(add)
    mul = staticmethod(mul)

    @staticmethod
    def neg(e):
        return mul(Const(-1), e)

    @staticmethod
    def div(a, b, pos):
        return div(a, b)

    @staticmethod
    def power(base, k, pos):
        return ipow(base, k)

    def named(self, name, pos):
        kind, val, _ = self.peek()
        calling = kind == "op" and val == "("
        if name in self.names and not calling:
            return Coord(self.names[name])
        if name in ("abs2", "norm"):
            self.expect_op("(")
            indices = self.parse_coord_list()
            self.expect_op(")")
            if not indices:
                indices = list(range(self.n))
            if name == "norm":
                return Norm(indices)
            return add(*(ipow(Coord(i), 2) for i in indices))
        if name == "theta":
            self.expect_op("(")
            arg = self.parse_sum()
            self.expect_op(",")
            scale = self.parse_rational()
            self.expect_op(")")
            return Cutoff(DEFAULT_CUTOFF, arg, scale)
        if name in self.names:
            return Coord(self.names[name])
        raise ParseError(f"unknown name {name!r}", pos)

    def parse_coord_list(self):
        indices = []
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == ")":
                return indices
            kind, val, pos = self.next()
            if kind != "name" or val not in self.names:
                raise ParseError("expected a coordinate name", pos)
            indices.append(self.names[val])
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()

    def parse_rational(self):
        sign = 1
        kind, val, pos = self.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected a number", pos)
        out = Fraction(val)
        kind, nval, _ = self.peek()
        if kind == "op" and nval == "/":
            self.next()
            kind, den, pos = self.next()
            if kind != "num" or den == 0:
                raise ParseError("bad rational denominator", pos)
            out /= den
        return sign * out


def expr_parse(text: str, n: int) -> ScalarExpr:
    """Parse the extended expression grammar into a ScalarExpr tree;
    theta is DEFAULT_CUTOFF."""
    return _ExprParser(text, n).parse()
