"""Scalar expression trees: differentiation, evaluation and cutoffs;
gauges and their regularization."""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetideals.cli import _NAMED_GAUGES
from jetideals.errors import DomainError, ParseError
from jetideals.interval import Interval
from jetideals.jetring import monomials
from jetideals.symfun import (Add, Const, Coord, Cutoff, CutoffSpec,
                              DEFAULT_CUTOFF, Div, Gauge, Mul, Norm, Pow,
                              ZERO, _float_pow, _sup_envelope, add,
                              compile_expr, compile_exprs, div, expr_derive,
                              expr_diff, expr_enclose, expr_eval,
                              expr_parse, expr_str, gauge_regularize,
                              hom_degree, ipow, mul)

import scalar_reference


def fd_partial(e, x, i, h=1e-6):
    xp = list(x)
    xm = list(x)
    xp[i] += h
    xm[i] -= h
    return (expr_eval(e, tuple(xp)) - expr_eval(e, tuple(xm))) / (2 * h)


CASES = [
    ("x^2*y - y^3/3", 2),
    ("x*y/(x^2 + y^2)", 2),
    ("norm(x,y)^3", 2),
    ("y^3/z", 3),
    ("(x + 2y)(x - z) / (1 + abs2(x,y,z))", 3),
]


@pytest.mark.parametrize("text,n", CASES)
def test_derivative_matches_finite_difference(text, n):
    e = expr_parse(text, n)
    rng = random.Random(hash(text) & 0xFFFF)
    for _ in range(20):
        x = tuple(rng.uniform(0.2, 1.0) for _ in range(n))
        for i in range(n):
            sym = expr_eval(expr_diff(e, i), x)
            num = fd_partial(e, x, i)
            assert abs(sym - num) <= 1e-6 * max(1.0, abs(sym))


def test_expr_derive_multi_index():
    e = expr_parse("x^3*y^2", 2)
    d = expr_derive(e, (2, 1))     # 12 x y
    assert abs(expr_eval(d, (0.5, 2.0)) - 12 * 0.5 * 2.0) < 1e-12


def test_interval_eval_contains_float_eval():
    rng = random.Random(77)
    for text, n in CASES:
        e = expr_parse(text, n)
        for _ in range(30):
            lo = [rng.uniform(0.2, 0.8) for _ in range(n)]
            box = [Interval(c, c + rng.uniform(0, 0.2)) for c in lo]
            enc = expr_enclose(e, box)
            mid = tuple(iv.mid for iv in box)
            assert enc.lo <= expr_eval(e, mid) <= enc.hi


def test_eval_domain_guard():
    e = expr_parse("1/x", 1)
    with pytest.raises(DomainError):
        expr_enclose(e, [Interval(-1.0, 1.0)])


def test_hom_degree():
    assert hom_degree(expr_parse("x^2*y", 2)) == 3
    assert hom_degree(expr_parse("y^3/z", 3)) == 2
    assert hom_degree(expr_parse("norm(x,y)", 2)) == 1
    assert hom_degree(expr_parse("x + x^2", 1)) is None
    assert hom_degree(Cutoff(DEFAULT_CUTOFF, Norm((0,)), 1)) is None


def test_parse_print_eval_roundtrip():
    rng = random.Random(3)
    for text, n in CASES:
        e = expr_parse(text, n)
        back = expr_parse(expr_str(e, n), n)
        for _ in range(10):
            x = tuple(rng.uniform(0.3, 1.0) for _ in range(n))
            assert abs(expr_eval(e, x) - expr_eval(back, x)) < 1e-12


def test_a_term_led_by_a_negative_constant_prints_as_a_difference():
    x, y = Coord(0), Coord(1)
    cases = [
        (expr_diff(expr_parse("x*y/(x^2 + y^2)", 2), 0),
         "(y*(x^2 + y^2) - 2*x*y*x)/(x^2 + y^2)^2"),
        (add(x, Const(-2)), "x - 2"),
        (add(x, mul(Const(-1), ipow(y, 2))), "x - y^2"),
        (add(x, mul(Const(-1), div(Const(2), y))), "x - 2/y"),
        (add(x, mul(Const(Fraction(-2, 3)), y)), "x - 2/3*y"),
        (add(x, div(Const(-2), y)), "x - 2/y"),
        (add(mul(Const(-2), x), y), "(-2)*x + y"),
    ]
    for e, text in cases:
        assert expr_str(e, 2) == text
        # the same function; -2/y parses back as -(2/y)
        assert expr_eval(expr_parse(text, 2), (0.7, 0.3)) == expr_eval(
            e, (0.7, 0.3))


def test_parse_error_reports_position():
    with pytest.raises(ParseError):
        expr_parse("x +", 2)
    with pytest.raises(ParseError):
        expr_parse("theta(x)", 2)      # missing scale


# -- cutoffs ----------------------------------------------------------------

def test_cutoff_plateau_and_support():
    spec = DEFAULT_CUTOFF
    assert spec.eval(0.0) == 1.0
    assert spec.eval(float(spec.a)) == 1.0
    assert spec.eval(float(spec.b)) == 0.0
    assert spec.eval(100.0) == 0.0
    mid = spec.eval(0.5 * float(spec.a + spec.b))
    assert 0.0 < mid < 1.0
    # monotone decreasing across the ramp
    samples = [spec.eval(float(spec.a) + t * float(spec.b - spec.a))
               for t in [k / 50 for k in range(51)]]
    assert all(a >= b - 1e-15 for a, b in zip(samples, samples[1:]))


def test_cutoff_smoothness_at_junctions():
    # q vanishing derivatives where the ramp meets plateau and support
    spec = CutoffSpec(q=3, a=4, b=8)
    for k in range(1, spec.q + 1):
        assert abs(spec.eval(4.0, order=k)) < 1e-12
        assert abs(spec.eval(8.0, order=k)) < 1e-12


def test_cutoff_derivative_bounds_are_certified():
    spec = CutoffSpec(q=3, a=4, b=8)
    rng = random.Random(13)
    for k, bound in enumerate(scalar_reference.cutoff_derivative_bounds(spec)):
        for _ in range(500):
            v = rng.uniform(0.0, 10.0)
            assert abs(spec.eval(v, order=k)) <= bound + 1e-12


def test_cutoff_derivative_past_smoothness_raises():
    e = Cutoff(DEFAULT_CUTOFF, Norm((0, 1)), 1, order=DEFAULT_CUTOFF.q)
    # twice: the derivative memo keeps no failed call
    for _ in range(2):
        with pytest.raises(DomainError):
            expr_diff(e, 0)


def test_cutoff_expr_derivative_matches_fd():
    e = Cutoff(DEFAULT_CUTOFF, Norm((0, 1)), Fraction(1, 10))
    # the ramp lives at |x| in [0.4, 0.8]
    x = (0.42, 0.31)
    d = expr_diff(e, 0)
    assert abs(expr_eval(d, x) - fd_partial(e, x, 0, h=1e-7)) < 1e-5


def test_cutoff_interval_eval_sound():
    e = Cutoff(DEFAULT_CUTOFF, Norm((0,)), Fraction(1, 10))
    box = [Interval(0.3, 0.9)]
    enc = expr_enclose(e, box)
    for v in (0.3, 0.5, 0.7, 0.9):
        assert enc.lo - 1e-12 <= expr_eval(e, (v,)) <= enc.hi + 1e-12


# -- gauges -----------------------------------------------------------------

def test_gauge_eval_and_clamp():
    g = Gauge.from_function("sqrt", math.sqrt, per_octave=8)
    assert abs(g.eval(0.25) - 0.5) < 1e-12
    assert g.eval(1.0) <= 1.0
    with pytest.raises(DomainError):
        g.eval(0.0)


def test_gauge_regularize_sqrt_quick():
    g = Gauge.from_function("sqrt", math.sqrt, per_octave=64)
    reg = gauge_regularize(g, check_scales=10)
    rep = reg.report
    assert rep["envelope_dominates"]
    assert rep["quasi_doubling_ok"]
    assert rep["decays"]
    # g+ = C'' g* dominates g~ dominates g
    for t in (2.0 ** -k for k in range(1, 20)):
        g_tilde = reg.tilde.eval(t)
        assert reg.c_second * reg._gstar_fn(t) >= g_tilde - 1e-12
        assert g_tilde >= g.eval(t) - 1e-12


def _float_bits(x):
    """x with every float written by float.hex, its type kept."""
    if isinstance(x, (list, tuple)):
        return [_float_bits(v) for v in x]
    if isinstance(x, dict):
        return {k: _float_bits(v) for k, v in x.items()}
    if isinstance(x, float):
        return type(x).__name__, float.hex(x)
    return x


def test_gauge_regularize_equals_the_pointwise_reference():
    gauges = [Gauge.from_function("t^0.2", lambda t: t ** 0.2),
              Gauge.from_function("t^1", lambda t: t, per_octave=64),
              Gauge.from_function("log", lambda t: 1.0 / (1.0 - math.log(t)),
                                  per_octave=128),
              *GAUGES]
    # dyadic t and random t between the grid nodes
    rng = np.random.default_rng(2)
    ts = [2.0 ** -k for k in range(0, 62, 3)]
    ts += np.exp2(rng.uniform(-61.0, 1.0, 300)).tolist()
    for g in gauges:
        for scales in (20, 6):
            got = gauge_regularize(g, check_scales=scales)
            want = scalar_reference.gauge_regularize(g, check_scales=scales)
            assert _float_bits(got.report) == _float_bits(want.report), g.name
            assert got.c_second.hex() == want.c_second.hex()
            for attr in ("log2_grid", "values"):
                assert (getattr(got.tilde, attr).tobytes()
                        == getattr(want.tilde, attr).tobytes())
            assert ([_float_bits(got._gstar_fn(t)) for t in ts]
                    == [_float_bits(want._gstar_fn(t)) for t in ts]), g.name


def _min_power(p, c=1.0):
    return lambda t: min(1.0, c * t ** p)


def _steps(levels, width):
    """A staircase: levels[k] on octaves k * width to (k + 1) * width
    below 1, the last level below that."""
    return lambda t: levels[min(int(-math.log2(t)) // width,
                                len(levels) - 1)]


def _oscillating(p, k):
    return lambda t: t ** p * (2.0 + math.sin(k * math.log2(t))) / 3.0


_GAUGE_FNS = st.one_of(
    st.floats(0.05, 1.0).map(_min_power),
    st.just(lambda t: t),                              # the t^1 plateau
    st.floats(1e-6, 1.0).map(lambda c: lambda t: c),   # constants
    st.builds(_steps, st.lists(st.floats(1e-3, 1.0), min_size=1,
                               max_size=6), st.integers(1, 12)),
    st.builds(_oscillating, st.floats(0.0, 1.0), st.floats(0.1, 20.0)),
    st.builds(_min_power, st.floats(0.0, 0.3), st.floats(1e-300, 1e-298)))


@settings(max_examples=30, deadline=None)
@given(_GAUGE_FNS, st.sampled_from([8, 64, 1024]),
       st.floats(-0.125, 0.125))
def test_pruned_envelope_equals_the_dense_sweep(fn, per_octave, shift):
    g = Gauge.from_function("g", fn, per_octave=per_octave)
    s = np.exp2(np.linspace(-60.0, 0.0, 60 * 1024 + 1))
    gs = g.eval_array(s)
    t_vals = np.exp2(np.arange(-62.0, 2.0 + 1e-9, 0.125) + shift)
    assert (_sup_envelope(s, gs, t_vals).tobytes()
            == scalar_reference.sup_envelope(s, gs, t_vals).tobytes())


def test_gauge_samples_are_those_of_numpy_scalars():
    fns = dict(_NAMED_GAUGES)
    fns.update((f"min(1, t^{p})", _min_power(p)) for p in (0.2, 0.37, 1.0))
    for name, fn in fns.items():
        got = Gauge.from_function(name, fn).values.tolist()
        want = scalar_reference.gauge_samples(fn)
        assert list(map(float.hex, got)) == list(map(float.hex, want)), name


def test_a_nan_sample_is_refused():
    grid = np.linspace(-60.0, 0.0, 60 * 1024 + 1)
    with pytest.raises(DomainError):
        Gauge("g", grid, [math.nan] * 10 + [0.5] * (grid.size - 10))
    # min(1.0, nan) is 1.0: a NaN that fn returns must not read as 1
    with pytest.raises(DomainError):
        Gauge.from_function("g", lambda t: math.nan if t < 1e-9 else 0.5)


def test_smart_constructors_fold_constants():
    assert add(Const(2), Const(3)) == Const(5)
    assert mul(Const(0), Coord(0)) == ZERO
    assert ipow(Const(2), 3) == Const(8)
    assert div(Coord(0), Const(2)) == mul(Const(Fraction(1, 2)), Coord(0))
    with pytest.raises(DomainError):
        div(Coord(0), Const(0))


# -- compiled kernels ---------------------------------------------------------

# a second cutoff with a rational, non-integer transition band
THIRDS_CUTOFF = CutoffSpec(q=2, a=Fraction(1, 3), b=Fraction(7, 4))
SPECS = (DEFAULT_CUTOFF, THIRDS_CUTOFF)
SCALES = (Fraction(1), Fraction(1, 4), Fraction(2, 7))
# a fine grid on [2^-60, 1] and a coarse one reaching past 1
GAUGES = (Gauge.from_function("sqrt", math.sqrt, per_octave=8),
          Gauge("steps", [-2.0, -0.5, 0.0, 1.5], [0.1, 0.3, 0.7, 1.0]))
N_VARS = 2


def _special_coordinates():
    """Cutoff breakpoints scale*a and scale*b with their float neighbours,
    band interiors, and 0 (a zero of Coord and Norm denominators)."""
    out = {0.0, -0.0}
    for spec in SPECS:
        for scale in SCALES:
            for edge in (spec.a, spec.b):
                c = float(scale * edge)
                out.update((c, math.nextafter(c, 0.0),
                            math.nextafter(c, math.inf), -c))
            for t in (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
                out.add(float(scale * (spec.a + t * spec.width)))
    return sorted(out)


coordinates = st.one_of(st.sampled_from(_special_coordinates()),
                        st.floats(-3.0, 3.0, allow_subnormal=False))
points = st.lists(st.tuples(*[coordinates] * N_VARS), min_size=1,
                  max_size=12)
leaves = st.one_of(
    st.builds(Const, st.fractions(-3, 3, max_denominator=6)),
    st.builds(Coord, st.integers(0, N_VARS - 1)),
    st.builds(Norm, st.lists(st.integers(0, N_VARS - 1), min_size=1,
                             max_size=N_VARS)))


def _cutoff(spec, arg, scale, order):
    return Cutoff(spec, arg, scale, order % (spec.q + 1))


def _extend(children):
    pairs = st.lists(children, min_size=2, max_size=3)
    return st.one_of(
        st.builds(Add, pairs), st.builds(Mul, pairs),
        st.builds(Pow, children, st.integers(2, 4)),
        st.builds(Div, children, children),
        st.builds(_cutoff, st.sampled_from(SPECS), children,
                  st.sampled_from(SCALES), st.integers(0, 3)))


trees = st.recursive(leaves, _extend, max_leaves=8)


# -- printing: expr_str reads back through expr_parse ----------------------

def _quotient(num, den):
    return num if den == ZERO else div(num, den)


def _power(base, k):
    return ipow(base, abs(k) if base == ZERO else k)


def _smart_extend(children):
    terms = st.lists(children, min_size=2, max_size=3)
    return st.one_of(
        st.builds(lambda ts: add(*ts), terms),
        st.builds(lambda fs: mul(*fs), terms),
        st.builds(_quotient, children, children),
        st.builds(_power, children, st.integers(-3, 4)),
        st.builds(Cutoff, st.just(DEFAULT_CUTOFF), children,
                  st.sampled_from(SCALES)))


smart_trees = st.recursive(
    st.one_of(st.builds(Const, st.fractions(-3, 3, max_denominator=6)),
              st.builds(Coord, st.integers(0, 2)),
              st.builds(Norm, st.lists(st.integers(0, 2), min_size=1,
                                       max_size=3))),
    _smart_extend, max_leaves=8)
X, Y = Coord(0), Coord(1)
PRINT_POINTS = np.array([[0.7316, 0.2875, -1.3139],
                         [-0.4127, 1.9063, 0.5521],
                         [1.1371, -0.6529, 0.8447]])


@settings(max_examples=300, deadline=None)
@given(smart_trees)
def test_printed_tree_parses_back_to_the_same_function(e):
    back = expr_parse(expr_str(e, 3), 3)
    (want, want_ok), (got, got_ok) = compile_exprs([e, back])(PRINT_POINTS)
    assert (got_ok == want_ok).all(), expr_str(e, 3)
    assert np.allclose(got[want_ok], want[want_ok], rtol=1e-9,
                       atol=1e-12), expr_str(e, 3)


@pytest.mark.parametrize("tree,text", [
    (Div(X, Div(Y, Coord(2))), "x/(y/z)"),
    (Pow(Div(Mul((Const(2), X)), Y), 3), "((2*x)/y)^3"),
    (Div(Const(1), Div(X, Y)), "1/(x/y)"),
    (Pow(Pow(X, 3), 2), "(x^3)^2"),
    (Pow(Div(Y, X), 2), "(y/x)^2"),
    (Div(X, Pow(Y, 2)), "x/y^2"),
    (Div(Div(X, Y), Coord(2)), "x/y/z"),
    (Pow(Const(Fraction(3, 2)), 2), "(3/2)^2")])
def test_quotients_and_powers_print_with_their_parentheses(tree, text):
    assert expr_str(tree, 3) == text


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def _derivative_table(e):
    table = [e]
    for alpha in monomials(2, N_VARS)[1:]:
        try:
            table.append(expr_derive(e, alpha))
        except DomainError:      # a cutoff past its q
            pass
    return table


def _float_outcome(evaluate):
    """The value's bits (NaN as one value), or the type of what it
    raised."""
    try:
        value = evaluate()
    except (ArithmeticError, ValueError, DomainError) as exc:
        return type(exc)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


@settings(max_examples=120, deadline=None)
@given(trees, points)
def test_compiled_equals_scalar_bit_for_bit(e, pts):
    table = _derivative_table(e)
    try:
        columns = compile_exprs(table)(np.array(pts))
    except (OverflowError, ValueError) as exc:
        # a float power overflowed or a cutoff met NaN: the scalar
        # evaluator raises the same somewhere in the table
        assert any(_scalar_raises(tree, x, type(exc))
                   for tree in table for x in pts)
        return
    for tree, (vals, ok) in zip(table, columns):
        for x, val, good in zip(pts, vals.tolist(), ok.tolist()):
            try:
                want = scalar_reference.eval_float(tree, x)
            except DomainError:
                assert not good
                assert math.isnan(val)
                continue
            assert good
            assert _same_float(val, want), (expr_str(tree), x, val, want)


def _scalar_raises(tree, x, error):
    try:
        scalar_reference.eval_float(tree, x)
    except error:
        return True
    except DomainError:
        pass
    return False


def test_compiled_cutoff_band_edges_and_orders():
    for spec in SPECS:
        for order in range(spec.q + 1):
            scale = Fraction(1, 3)
            e = Cutoff(spec, Coord(0), scale, order)
            xs = [float(scale * spec.a), float(scale * spec.b)]
            xs += list(np.linspace(0.0, 3.0, 301))
            vals, ok = compile_expr(e)(np.array(xs).reshape(-1, 1))
            assert ok.all()
            for x, v in zip(xs, vals.tolist()):
                assert _same_float(v, scalar_reference.eval_float(e, (x,)))


def test_compiled_powers_and_norms_take_float_pow():
    # np.power differs in the last bit from libm pow, which Python's **
    # and np.float_power both call, on up to 3 % of these inputs, so this
    # needs many random points to see a difference
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, size=(4000, 2))
    table = [Pow(Coord(0), k) for k in (2, 3, 4)] + [Norm((0, 1))]
    for tree, (vals, ok) in zip(table, compile_exprs(table)(pts)):
        assert ok.all()
        want = [scalar_reference.eval_float(tree, x) for x in pts.tolist()]
        assert all(map(_same_float, vals.tolist(), want)), expr_str(tree)


def _python_power(v, k):
    try:
        return v ** k
    except OverflowError:
        return None


def _overflow_edge(k):
    """The largest float whose k-th power Python's ** gives finite."""
    x = float(np.finfo(float).max) ** (1.0 / k)
    while _python_power(x, k) is not None:
        x = math.nextafter(x, math.inf)
    while _python_power(x, k) is None:
        x = math.nextafter(x, 0.0)
    return x


def _power_inputs(k, rng):
    """Signed zeros, subnormals, infinities and NaN; the 6 floats up to
    and the 6 past the overflow threshold of x^k, on both signs; random
    magnitudes across the whole exponent range and random moderate
    values."""
    tiny = 5e-324
    xs = [0.0, -0.0, tiny, -tiny, 2.0 ** -1022 - tiny, 2.0 ** -1050,
          math.inf, -math.inf, math.nan]
    edge = _overflow_edge(k)
    for _ in range(6):
        edge = math.nextafter(edge, math.inf)
    for _ in range(12):
        xs += [edge, -edge]
        edge = math.nextafter(edge, 0.0)
    magnitudes = np.ldexp(rng.uniform(0.5, 1.0, 2000),
                          rng.integers(-1074, 1025, 2000))
    xs += (magnitudes * rng.choice([-1.0, 1.0], 2000)).tolist()
    xs += rng.uniform(-3.0, 3.0, 2000).tolist()
    return xs


def test_float_pow_is_python_power_bit_for_bit():
    rng = np.random.default_rng(11)
    for k in range(2, 10):
        xs = _power_inputs(k, rng)
        want = [_python_power(v, k) for v in xs]
        over = np.array([w is None for w in want])
        assert over[9:21].all() and not over[21:33].any()
        base = np.array(xs)
        with np.errstate(all="ignore"):
            got, overflows = _float_pow(base, k)
        # the power is infinite where it overflows
        assert np.isinf(got[over]).all()
        assert all(_same_float(g, w) for g, w, o in
                   zip(got.tolist(), want, over) if not o), k
        # the overflow flag is set exactly where ** raises
        assert overflows.tolist() == over.tolist(), k
        for v, w in zip(xs, want):
            with np.errstate(all="ignore"):
                _, flag = _float_pow(np.array([v]), k)
            assert flag.tolist() == [w is None], (k, v)


def test_compiled_raises_where_scalar_overflows():
    base = Add([Cutoff(DEFAULT_CUTOFF, Div(Const(1), Coord(0)), 1),
                Const(10 ** 200)])
    e = Pow(base, 2)
    with pytest.raises(OverflowError):
        scalar_reference.eval_float(e, (1.0,))
    with pytest.raises(OverflowError):
        compile_expr(e)(np.array([[1.0]]))
    # where the base fails to evaluate, its overflow is never reached
    vals, ok = compile_expr(e)(np.array([[0.0]]))
    assert not ok.any()


def test_compiled_raises_only_the_walks_first_failure():
    # x^2 underflows to 0 while (y/x)^2 overflows: the walk takes a
    # quotient's denominator first, and a product's factors in order
    x, y = Coord(0), Coord(1)
    point = np.array([[1e-260, -8.0]])
    behind_zero = Div(Pow(Div(y, x), 2), Pow(x, 2))
    with pytest.raises(DomainError):
        scalar_reference.eval_float(behind_zero, point[0].tolist())
    vals, ok = compile_expr(behind_zero)(point)
    assert not ok.any() and math.isnan(vals[0])
    before_zero = Mul((Pow(Div(y, x), 2), Div(Const(1), Pow(x, 2))))
    with pytest.raises(OverflowError):
        scalar_reference.eval_float(before_zero, point[0].tolist())
    with pytest.raises(OverflowError):
        compile_expr(before_zero)(point)


def test_compiled_masks_domain_errors_instead_of_zero():
    e = expr_parse("x/y + 1", 2)
    vals, ok = compile_expr(e)(np.array([[1.0, 0.0], [1.0, 2.0]]))
    assert ok.tolist() == [False, True]
    assert math.isnan(vals[0]) and vals[1] == 1.5
    past_q = Cutoff(DEFAULT_CUTOFF, Coord(0), 1, DEFAULT_CUTOFF.q + 1)
    vals, ok = compile_expr(past_q)(np.array([[0.5, 0.0]]))
    assert not ok.any()


@settings(max_examples=200, deadline=None)
@given(trees, points)
def test_expr_eval_equals_the_walk(e, pts):
    for tree in _derivative_table(e):
        for x in pts:
            # the kernel runs every node but raises only the walk's
            # first failure, so even the error raised is the walk's
            got = _float_outcome(lambda: expr_eval(tree, x))
            want = _float_outcome(lambda: scalar_reference.eval_float(tree, x))
            assert got == want, (expr_str(tree), x)


def test_compiled_shares_equal_subtrees_across_the_table():
    calls = []

    def counting_ramp(offsets, order):
        calls.append(len(offsets))
        return [0.5] * len(offsets)

    spec = CutoffSpec(q=1, a=1, b=2)
    spec._ramp_exact = counting_ramp
    cut = Cutoff(spec, Norm((0, 1)), 1)      # |(1, 1)| is in the band
    compile_exprs([mul(cut, Coord(0)), add(cut, Coord(1)), cut])(
        np.array([[1.0, 1.0]]))
    assert calls == [1]


def _shared_norm_points():
    """Points that share norm(x, y) across several z, as the whisker
    points around a pole share it across radii: 40 (x, y) pairs, 9 z."""
    rng = np.random.default_rng(7)
    xy = rng.uniform(-3.0, 3.0, size=(40, 2))
    zs = np.geomspace(0.1, 5.0, 9)
    return np.array([(x, y, z) for x, y in xy.tolist() for z in zs])


def test_compiled_cutoff_on_repeated_offsets_equals_the_walk():
    pts = _shared_norm_points()
    for spec in SPECS:
        cut = Cutoff(spec, Norm((0, 1)), Fraction(1, 2))
        table = _derivative_table(mul(cut, Coord(2)))
        for tree, (vals, ok) in zip(table, compile_exprs(table)(pts)):
            assert ok.all()
            for x, v in zip(pts.tolist(), vals.tolist()):
                want = scalar_reference.eval_float(tree, x)
                assert _same_float(v, want), (expr_str(tree), x)


def test_ramp_runs_once_per_distinct_offset():
    spec = CutoffSpec(q=3, a=4, b=8)
    ramp, calls = spec._ramp_exact, []

    def counting_ramp(offsets, order):
        calls.append(offsets)
        return ramp(offsets, order)

    spec._ramp_exact = counting_ramp
    v = np.array([5.0, 6.5, 5.0, 1.0, 6.5, 9.0, 5.0, 7.25])
    for order in range(spec.q + 1):
        got = spec.eval_array(v, order)
        assert all(map(_same_float, got.tolist(),
                       [spec.eval(x, order) for x in v.tolist()]))
    assert calls == [[1.0, 2.5, 3.25]] * (spec.q + 1)

    # 360 points, 40 distinct norms: the kernel's ramp sees each band
    # offset of its argument norm(x, y) / (1/2) once
    pts = _shared_norm_points()
    calls.clear()
    compile_expr(Cutoff(spec, Norm((0, 1)), Fraction(1, 2)))(pts)
    arg = compile_expr(Norm((0, 1)))(pts)[0] / 0.5
    offsets = arg[(arg > 4.0) & (arg < 8.0)] - 4.0
    assert 0 < len(set(offsets.tolist())) < 40 < len(offsets)
    assert calls == [sorted(set(offsets.tolist()))]


def test_ramp_on_duplicates_keeps_nan_errors_and_masks():
    spec = DEFAULT_CUTOFF
    with pytest.raises(ValueError):
        spec.eval_array(np.array([5.0, math.nan, 5.0, math.nan]))
    with pytest.raises(ValueError):
        compile_expr(Cutoff(spec, Coord(0), 1))(
            np.array([[math.nan], [5.0], [math.nan]]))
    # a masked duplicate of an evaluated offset stays NaN
    ok = np.array([True, False, True, False])
    for order in range(spec.q + 1):
        got = spec.eval_array(np.array([5.0, 5.0, 6.0, 1.0]), order, ok)
        assert math.isnan(got[1])
        assert got[3] == (1.0 if order == 0 else 0.0)
        assert _same_float(got[0], spec.eval(5.0, order))
        assert _same_float(got[2], spec.eval(6.0, order))


# -- enclosures, derivatives and kept derivative tables ----------------------

def _interval_outcome(evaluate):
    """The enclosure's endpoint bits, or the type of what it raised."""
    try:
        iv = evaluate()
    except (ArithmeticError, ValueError, DomainError) as exc:
        return type(exc)
    return struct.pack("<dd", iv.lo, iv.hi)


def _box(ends):
    return [Interval(min(a, b), max(a, b)) for a, b in ends]


# boxes from [-3, 3]: about half of their sides contain 0, a zero of the
# Coord and Norm denominators
boxes = st.lists(st.tuples(coordinates, coordinates), min_size=N_VARS,
                 max_size=N_VARS).map(_box)


@settings(max_examples=150, deadline=None)
@given(trees, boxes)
def test_compiled_interval_equals_tree_walk(e, box):
    for tree in _derivative_table(e):
        want = _interval_outcome(
            lambda: scalar_reference.eval_interval(tree, box))
        assert _interval_outcome(lambda: expr_enclose(tree, box)) \
            == want, expr_str(tree)


HUGE = Const(10 ** 400)     # no float holds it


@pytest.mark.parametrize("tail", [HUGE, Mul([HUGE, Coord(0)]),
                                  Cutoff(DEFAULT_CUTOFF, Coord(0), HUGE.value)])
@pytest.mark.parametrize("side,error", [((-1.0, 1.0), DomainError),
                                        ((1.0, 2.0), OverflowError)])
def test_compiled_interval_raises_where_tree_walk_raises(tail, side, error):
    # the walk meets the huge constant only after 1/x evaluates
    e = Add([Div(Const(1), Coord(0)), tail])
    box = [Interval(*side)]
    for evaluate in (scalar_reference.eval_interval, expr_enclose):
        with pytest.raises(error):
            evaluate(e, box)


def _derivative_outcome(derive):
    """The derived tree, or DomainError where the derivation raises it."""
    try:
        return derive()
    except DomainError:
        return DomainError


@settings(max_examples=150, deadline=None)
@given(trees)
def test_derivative_equals_the_walks_tree(e):
    for tree in _derivative_table(e):
        for i in range(N_VARS):
            want = _derivative_outcome(lambda: scalar_reference.diff(tree, i))
            got = _derivative_outcome(lambda: expr_diff(tree, i))
            assert got == want, (expr_str(tree), i)
            if want is not DomainError:
                assert expr_str(got) == expr_str(want)


@settings(max_examples=60, deadline=None)
@given(trees)
def test_kept_derivative_table_equals_a_fresh_derivation(e):
    kept = _derivative_table(e)
    expr_diff.cache_clear()
    fresh = _derivative_table(e)
    assert fresh == kept
    assert list(map(expr_str, fresh)) == list(map(expr_str, kept))


def test_derivative_table_is_derived_once():
    e = expr_parse("x^2*y/(x^2 + y^2) + theta(norm(x,y), 1/4)*y", 2)
    first = _derivative_table(e)
    hits = expr_diff.cache_info().hits
    again = _derivative_table(e)
    assert all(a is b for a, b in zip(first, again))
    # one lookup per derivative step: no subtree is derived again
    assert expr_diff.cache_info().hits - hits == sum(
        sum(alpha) for alpha in monomials(2, N_VARS)[1:])
