"""Reference implementations of checks that now run on faster paths.

The float tree walk eval_float that symfun.compile_exprs replaced, and
with it expr_eval: test_symfun.py requires the compiled kernels and
expr_eval to return exactly its values, and to mask the point
(expr_eval: raise DomainError) where it raises DomainError.  Every
scalar loop below evaluates through it.

The one-vector-at-a-time sample draws that verifier._unit_rows
batches: random_unit, transverse_unit, the dome sweep directions
dome_directions, the annulus sample set unit_annulus_samples (one
direction and one point at a time, whiskers through transverse_unit)
and the chi points chi_points.
test_sample_batches.py requires the batched draws to give the same
points, bit for bit, and to leave the generator in the same state.

The gauge regularization that called g~ once per point, one scalar
np.interp at a time, and g* as a dot product over a list of them:
test_symfun.py requires symfun.gauge_regularize to give the same
report, envelope and g*, bit for bit.  Its sup envelope, sup_envelope,
takes every product (2t / (t + s)) g(s) of the s grid at every t, where
symfun._sup_envelope skips the blocks of s that cannot hold the max;
test_symfun.py requires the two to agree bit for bit.  Gauge sampling
that fed fn numpy scalars and clamped by min(1.0, .), gauge_samples:
test_symfun.py requires Gauge.from_function to give the same samples.

The interval tree walk that symfun.compile_interval replaced:
test_symfun.py requires the compiled interval programs to return
exactly its enclosures and to raise where it raises.

The point-by-point loops over eval_float that verifier._sampled_bound_check,
verifier._leibniz_bound_check, verifier._shell_sweep and
verifier.measure_chi_constant replaced: test_compiled_callers.py
requires the compiled callers to return exactly what these return,
witnesses included.  The Leibniz loop sums its terms in the kernel's
order, so its values are the kernel's bit for bit.

The C* and C** bound rows that check_annulus_condition took from
derivatives of the rescaled trees (expr_scale_coords), derived and
compiled again for every rho: rescaled_bound_rows.
test_annulus_rescaling.py requires the rows built from the tables of F
and the S_l to give the same verdicts, witness multi-indices and points
and skipped counts, and maxima and witness values within 1e-12 relative.

The negligibility dome sup on the interval tree walk, dome_sup, where
regions._dome_sup runs the compiled enclosure over the same boxes:
test_dome_tree.py requires check_negligible to return exactly what it
returns on this one.

The plane allowed-set solver that built p(1, t) and p(0, 1) by sympy
substitution and tested each root of the first part against the others
by sympy.simplify, each direction's coordinates sympy numbers (a
Rational or CRootOf root r in 1/sqrt(1 + r^2) and r/sqrt(1 + r^2)):
test_shared_facts.py requires directions._plane_zero_set, which solves
over QQ with no sympy, to return the same directions, the exact
coordinates of each of its rays (ray_to_sympy) equal to these.

The allowed-set solver for n >= 3 that sent every system, with the unit
sphere, to sympy.solve, its directions' coordinates sympy numbers
(jet_to_sympy writes a jet as a sympy polynomial), deduplicated at a
float distance of 1e-9: test_directions.py requires
directions._exact_zero_set to return the same set, sorted, on systems
that the exact reduction takes apart.  On systems left to the resultant
solver (directions._space_zero_set) it requires every returned
direction to be an exact zero of every part, and, where both return a
list, no direction of this one to be missing; where the resultant
solver gives up, the patch cover's candidates must hold every direction
of this one.

The Jet constructor that coerced every coefficient with Fraction(c),
Fractions included, and summed into a fresh Fraction(0):
test_jetring.py requires Jet to keep the same coefficients, as
Fractions, in the order of the signature's monomial table.

The ring operations that rebuilt what they already held: the product
jet_mul, which summed each pair's exponents and built its key per pair
and checked the result through Jet(); the composition jet_compose, which
took every component's powers phi_i^k afresh for each jet and built a
checked Jet for every partial term; and the membership test
ideal_contains, which reduced p's Fraction coordinates.
test_ring_tables.py requires Jet.__mul__, jetring.jet_compose (with one
map shared by several jets, as JetIdeal.transform shares it) and
JetIdeal.contains to give what these give.

The Fraction elimination that exactlin's integer elimination replaced
(rref and Subspace.contains), and jetring's
own Gauss-Jordan for the invertibility test and the inverse of a
matrix: test_integer_elimination.py requires the
integer rows to give exactly what these give.  The Zassenhaus
intersection subspace_intersect, which row-reduced the whole
[[u|u],[w|0]] matrix: test_integer_elimination.py requires
Subspace.intersect to give the same rows and pivots.

Helpers that only tests call: the inverse of a diffeo-jet's linear part,
linear_inverse, on the integer inverse integer_matrix_inverse (the
right half of rref([A | I])); subspace_basis, the Fraction RREF
basis of a Subspace; contains_direction, whether a
direction projects radially into a sphere patch; a jet's Fraction
coefficient vector, jet_coordinates, and its exact value at a point,
jet_eval; and cutoff_derivative_bounds, certified sup bounds for the
derivatives of a CutoffSpec by interval subdivision.

The Interval operators that converted every operand by Interval.exact
and built every result through Interval.__init__, * and / taking the
min and max of a tuple of the four endpoint products or quotients:
test_interval.py requires the operators to return the same endpoints
and raise the same exceptions.

The forbidden-cone evaluation that converted each coefficient to an
Interval per monomial per cell and took each u_i^a per monomial,
eval_scaled: test_integer_elimination.py requires directions._eval_scaled
to return exactly its enclosure on every cell.  Both start the s-power
chain at s itself, so a monomial of s-degree 1 reads the cell's s.

The depth-first cell walk of directions.certify_lower_bound, one
SpherePatch and s Interval at a time, every cell evaluated by
eval_scaled and every patch made afresh: test_forbidden_batches.py
requires the walk over the kept patch tree to return exactly its
(bound, depth).  It tests patches against the dome by its own float
distance (_cell_outside_dome), not by regions.Dome, and
test_dome_tree.py requires a Dome to keep the cover patches that this
distance keeps.

The allowed-set patch cover that enclosed each part by Jet.eval, a
term-by-term interval walk (jet_interval_eval), and summed their
absolute values, patch_zero_cover: test_directions.py requires
directions._patch_zero_cover, which encloses the sum by the compiled
evaluator, to return the same cover, bounds equal by float.hex.

The sympy identity test that verifier._identity_zero replaced:
expr_to_sympy writes a tree as a sympy expression (cutoffs at their
plateau value, a Norm as a square root) and residual_zero decides it by
the numerator of together() when that is a polynomial.  Where the
verifier's sympy test called sympy.simplify, which misses some zero
residuals with square roots, residual_zero reads each |x_i| per orthant
and reduces the numerator by sympy.reduced modulo r^2 - s, one symbol r
per square root sqrt(s).  test_residual_zero.py requires the ring
decision to agree with it on random residuals, norms included.

The identity test on sympy's PolyRing that verifier._identity_zero ran
before it got its own exact ring: identity_zero builds the same
(numerator, denominator) pairs in a lex PolyRing over QQ, the r_j first,
and reduces by PolyElement.rem modulo {r_j^2 - s_j}.
test_residual_zero.py requires the verifier's ring to decide every
residual as it does, zero denominators included.

The two copies of the grammar's sum/product/factor rules that
jetring._Parser replaced: PolyParser, the jet parser with its own
untruncated dict arithmetic (_poly_add, _poly_scale, _poly_mul,
_poly_as_constant) and jet_parse on it, and ExprParser, the expression
rules over the smart constructors, with expr_parse on it.
test_grammar.py requires jetring.jet_parse to give the same jet, with
the nonzero coefficients of PolyParser's dict, or raise the same error,
and symfun.expr_parse to give an equal tree.  (Jet keeps its
coefficients in monomial order, so the order of parsing no longer
shows.)
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import sympy
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from jetideals import verifier
from jetideals.directions import ExactDirection
from jetideals.errors import (DegreeOverflowError, DimensionMismatchError,
                              DomainError, ParseError,
                              SignatureMismatchError)
from jetideals.geometry import sphere_cover
from jetideals.interval import Interval, _down, _up
from jetideals.exactlin import Subspace
from jetideals.exactlin import rref as integer_rref
from jetideals.jetring import (_Parser, DiffeoJet, Jet, monomials,
                               variable_names)
from jetideals.symfun import (ZERO, Add, Const, Coord, Cutoff, Div, Gauge,
                              Mul, Norm, Pow, RegularizedGauge, _bump,
                              _ExprParser, _poly_eval_interval, add, div,
                              expr_derive, ipow, mul)
from jetideals.verifier import (_cutoff_feature_scales, _region_directions,
                                _unit_annulus_samples, chi_expr,
                                expr_scale_coords)


def eval_float(e, x):
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Coord):
        return x[e.i]
    if isinstance(e, Add):
        # left to right from 0.0: builtin sum compensates on Python >= 3.12
        out = 0.0
        for t in e.terms:
            out += eval_float(t, x)
        return out
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= eval_float(f, x)
        return out
    if isinstance(e, Pow):
        return eval_float(e.base, x) ** e.k
    if isinstance(e, Div):
        den = eval_float(e.den, x)
        if den == 0.0:
            raise DomainError("division by zero during evaluation")
        return eval_float(e.num, x) / den
    if isinstance(e, Norm):
        acc = 0.0
        for i in e.indices:
            acc += x[i] ** 2
        return math.sqrt(acc)
    if isinstance(e, Cutoff):
        v = eval_float(e.arg, x) / float(e.scale)
        return e.spec.eval(v, e.order)
    raise TypeError(f"unknown node {e!r}")


def eval_interval(e, box):
    if isinstance(e, Const):
        return Interval.exact(e.value)
    if isinstance(e, Coord):
        return box[e.i]
    if isinstance(e, Add):
        out = Interval(0.0, 0.0)
        for t in e.terms:
            out = out + eval_interval(t, box)
        return out
    if isinstance(e, Mul):
        out = Interval(1.0, 1.0)
        for f in e.factors:
            out = out * eval_interval(f, box)
        return out
    if isinstance(e, Pow):
        return eval_interval(e.base, box).ipow(e.k)
    if isinstance(e, Div):
        return eval_interval(e.num, box) / eval_interval(e.den, box)
    if isinstance(e, Norm):
        acc = Interval(0.0, 0.0)
        for i in e.indices:
            acc = acc + box[i].ipow(2)
        return acc.sqrt()
    if isinstance(e, Cutoff):
        v = eval_interval(e.arg, box) / Interval.exact(e.scale)
        return e.spec.eval_interval(v, e.order)
    raise TypeError(f"unknown node {e!r}")


def random_unit(rng, n):
    while True:
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm > 1e-9:
            return tuple(float(c) / norm for c in v)


def transverse_unit(rng, n, omega):
    """Random unit vector orthogonal to the unit vector omega."""
    while True:
        v = rng.standard_normal(n)
        v = v - np.dot(v, omega) * np.asarray(omega)
        norm = float(np.linalg.norm(v))
        if norm > 1e-9:
            return tuple(float(c) / norm for c in v)


def dome_directions(rng, omegas, delta, count):
    """The dome directions one draw at a time: the centers, then per
    center w the batch of t, then per t one transverse unit v, and
    w + t v over its np.linalg.norm."""
    dirs = [tuple(w) for w in omegas]
    per = max(1, count // max(1, len(omegas)))
    for w in omegas:
        for t in rng.uniform(0, delta * 0.98, per):
            v = transverse_unit(rng, len(w), w)
            u = np.asarray(w) + t * np.asarray(v)
            dirs.append(tuple(u / np.linalg.norm(u)))
    return dirs


def unit_annulus_samples(n, K, omegas, rel_scales, rng):
    """The sample set on Ann_K(1) as a list of point tuples, one draw
    and one point at a time."""
    radii = [float(K ** t) for t in np.linspace(-0.95, 0.95, 9)]
    points = []
    for _ in range(40):
        u = random_unit(rng, n)
        for s in radii:
            points.append(tuple(s * c for c in u))
    omegas = [tuple(w) for w in (omegas or [])]
    t_values = set()
    for lo, hi in rel_scales:
        for f in (0.25, 0.5, 0.95, 1.0):
            t_values.add(lo * f)
        t_values.add(0.5 * (lo + hi))
        for f in (0.95, 1.0, 1.5, 4.0):
            t_values.add(hi * f)
    t_values.add(1e-6)
    for w in omegas:
        for t in sorted(t_values):
            for _ in range(3):
                wt = transverse_unit(rng, n, w)
                for s in radii:
                    x = tuple(s * wc + t * tc for wc, tc in zip(w, wt))
                    # left to right from 0: builtin sum compensates on
                    # Python >= 3.12
                    square = 0.0
                    for c in x:
                        square += c * c
                    if 1.0 / K < math.sqrt(square) < K:
                        points.append(x)
    return points


def chi_points(rng, n):
    """The 800 sample points that measure_chi_constant draws for one
    derivative: 20 random directions per radius."""
    return [tuple(float(s) * c for c in random_unit(rng, n))
            for s in np.geomspace(0.26, 3.9, 40) for _ in range(20)]


def gauge_samples(fn, per_octave=1024):
    """The samples of Gauge.from_function: fn at 2^j, for numpy scalars
    j from -60 to 0 in steps of 1/per_octave, clamped to <= 1."""
    grid = np.linspace(-60.0, 0.0, 60 * per_octave + 1)
    return [min(1.0, float(fn(2.0 ** j))) for j in grid]


def sup_envelope(s, gs, t_vals):
    """max over all of s of (2t / (t + s)) g(s) at each t of t_vals."""
    out = np.empty_like(t_vals)
    for idx, t in enumerate(t_vals):
        weights = 2.0 * t / (t + s)
        out[idx] = np.max(weights * gs)
    return out


def gauge_regularize(g: Gauge, check_scales=20) -> RegularizedGauge:
    """Regularize a gauge: sup envelope, mollification, calibration.

    g~(t)  = sup_s (2t/(t+s)) g(s)   -- computed over a dense log grid of
             s with s=t always included, so g~ >= g holds exactly on the
             evaluation grid; the tail s > s_max is dominated using
             2t/(t+s) <= 2t/s.
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
    tilde_vals = np.empty_like(t_vals)
    envelope = sup_envelope(s, gs, t_vals)
    for idx, t in enumerate(t_vals):
        cand = float(envelope[idx])
        # include s = t exactly (weight 1): guarantees g~(t) >= g(t)
        if 2.0 ** -60 <= t <= 1.0:
            cand = max(cand, g.eval(t))
        # tail s > 1: g(s) extends as g(1), weight <= 2t/s decreasing,
        # so the tail sup is at s = 1 which the grid already contains
        tilde_vals[idx] = min(cand, 2.0)
    tilde = Gauge(f"{g.name}_tilde", t_log2, np.minimum(tilde_vals, 1.0))
    # keep the unclamped envelope for ratio checks
    tilde_fn = lambda t: float(np.interp(math.log2(t), t_log2, tilde_vals))

    # mollifier weights: Simpson in u = log v on [log 1/2, log 2]
    n_quad = 64
    u = np.linspace(math.log(0.5), math.log(2.0), n_quad + 1)
    w = np.ones(n_quad + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (u[1] - u[0]) / 3.0
    phi_w = w * _bump(np.exp(u))
    phi_w /= phi_w.sum()  # convex combination of g~ samples

    v_nodes = np.exp(u)

    def gstar(t):
        return float(np.dot(phi_w, [tilde_fn(t / v) for v in v_nodes]))

    # calibration constant C'': g+ = C'' g* dominates g~
    check_log2 = np.arange(-60.0, 0.0 + 1e-9, 0.5)
    check_t = np.exp2(check_log2)
    ratio = [tilde_fn(t) / gstar(t) for t in check_t]
    c_second = float(max(ratio))

    # quasi-doubling of g~ on grid pairs with ratio in [1/2, 2]
    qd_worst = 1.0
    for tl in check_log2:
        for dl in (-1.0, -0.5, 0.5, 1.0):
            t2l = tl + dl
            if t2l < -62.0 or t2l > 2.0:
                continue
            r = tilde_fn(2.0 ** tl) / tilde_fn(2.0 ** t2l)
            qd_worst = max(qd_worst, r, 1.0 / r)

    # finite-difference derivative constants |D^k g*| <= C' t^-k g~
    c_prime = [0.0, 0.0, 0.0]
    for t in np.exp2(np.arange(-40.0, -1.0 + 1e-9, 1.0)):
        h = t / 16.0
        f0, fp, fm = gstar(t), gstar(t + h), gstar(t - h)
        gt = tilde_fn(t)
        c_prime[0] = max(c_prime[0], abs(f0) / gt)
        c_prime[1] = max(c_prime[1], abs((fp - fm) / (2 * h)) * t / gt)
        c_prime[2] = max(c_prime[2], abs((fp - 2 * f0 + fm) / h ** 2) * t * t / gt)

    # decay trend of g+ over dyadic scales
    plus_vals = [c_second * gstar(2.0 ** -j) for j in range(1, check_scales + 1)]
    monotone = all(b <= a * (1.0 + 1e-9)
                   for a, b in zip(plus_vals, plus_vals[1:]))
    decays = plus_vals[-1] <= 0.5 * plus_vals[0]

    grid_t = np.exp2(g.log2_grid)
    tilde_on_grid = np.array([tilde_fn(t) for t in grid_t])
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


def _try_eval(e, x):
    try:
        return eval_float(e, [float(c) for c in x])
    except DomainError:
        return None


def shell_sweep(expr, region, m, n, seed, k_lo, k_hi, weight):
    derivs = [(alpha, expr_derive(expr, alpha))
              for alpha in monomials(m, n)]
    dirs = _region_directions(region, n, seed)
    nonzero = any(d_expr != ZERO for _, d_expr in derivs)
    shells = []
    witness_pool = []
    for k in range(k_lo, k_hi + 1):
        top = 0.0
        top_point = None
        evaluated = False
        for frac in (0.55, 0.75, 1.0):
            s = frac * 2.0 ** -k
            for u in dirs:
                x = tuple(s * c for c in u)
                for alpha, d_expr in derivs:
                    if d_expr == ZERO:
                        continue
                    val = _try_eval(d_expr, x)
                    if val is None or val != val:
                        continue
                    evaluated = True
                    ratio = abs(val) * weight(alpha, s)
                    if ratio > top:
                        top = ratio
                        top_point = (alpha, x, abs(val))
        shells.append((k, top if evaluated or not nonzero else None))
        witness_pool.append(top_point)
    return shells, witness_pool


def measure_chi_constant(m, n, seed=0):
    chi = chi_expr(n)
    rng = np.random.default_rng(seed)
    top = 1.0
    for alpha in monomials(m, n):
        d = expr_derive(chi, alpha)
        for x in chi_points(rng, n):
            val = _try_eval(d, x)
            if val is not None:
                top = max(top, abs(val))
    return 2.0 ** m * top


def sampled_bound_check(named_exprs, points, m, n, bound_fn):
    maxima = []
    for name, G in named_exprs:
        worst, top, skipped = 0.0, None, set()
        for alpha in monomials(m, n):
            d = expr_derive(G, alpha)
            if d == ZERO:
                continue
            limit = bound_fn(name, alpha)
            for k, x in enumerate(points):
                val = _try_eval(d, x)
                if val is None:
                    skipped.add(k)
                    continue
                ratio = abs(val) / limit
                if ratio > worst:
                    worst = ratio
                    top = (alpha, k, abs(val), limit)
        maxima.append((worst, top, len(skipped)))
    return maxima


def leibniz_bound_check(chi, scaled, points, rho, m, n, limit):
    maxima = []
    for c, G in scaled:
        worst, top, skipped = 0.0, None, set()
        for alpha in monomials(m, n):
            terms = []
            for beta in monomials(sum(alpha), n):
                rest = tuple(a - b for a, b in zip(alpha, beta))
                if min(rest) < 0:
                    continue
                d_chi, d_g = expr_derive(chi, beta), expr_derive(G, rest)
                if d_chi == ZERO or d_g == ZERO:
                    continue
                coef = float(math.prod(map(math.comb, alpha, beta)) * c
                             * rho ** sum(rest))
                terms.append((coef, d_chi, d_g))
            if not terms:
                continue
            for k, x in enumerate(points):
                x_rho = [float(rho) * float(v) for v in x]
                acc = 0.0
                for coef, d_chi, d_g in terms:
                    a, b = _try_eval(d_chi, x), _try_eval(d_g, x_rho)
                    if a is None or b is None:
                        acc = None
                        break
                    acc += coef * a * b
                if acc is None:
                    skipped.add(k)
                    continue
                ratio = abs(acc) / limit
                if ratio > worst:
                    worst = ratio
                    top = (alpha, k, abs(acc), limit)
        maxima.append((worst, top, len(skipped)))
    return maxima


def rescaled_bound_rows(variant, params, p, F, S_list, omegas, seed,
                        A_target=None):
    """(verdict, rows) of the C* or C** bounds as check_annulus_condition
    measured them on the rescaled trees: the derivatives of
    eps^-1 rho^-m F(rho x) and A^-1 S_l(rho x) (C*), or of chi times
    them and A chi S_l (C**, bound A_target), through
    verifier._sampled_bound_check at the unit samples (C**: and the
    wider ones) of the check's seed."""
    m, n = p.sig.m, p.sig.n
    A, eps = Fraction(float(params["A"])), Fraction(float(params["eps"]))
    rho = float(params["rho"])
    rho_q = Fraction(rho)
    omegas = [tuple(float(c) for c in w) for w in omegas]
    rel_scales = [(lo / rho, hi / rho)
                  for lo, hi in _cutoff_feature_scales([F] + list(S_list))]
    points = _unit_annulus_samples(n, 4.0, omegas, rel_scales,
                                   np.random.default_rng(seed))
    F_t = mul(Const(1 / (eps * rho_q ** m)), expr_scale_coords(F, rho_q))
    S_t = [mul(Const(1 / A), expr_scale_coords(S, rho_q)) for S in S_list]
    if variant == "C*":
        named = [("Ftilde", F_t)] + [(f"Stilde{i+1}", S)
                                     for i, S in enumerate(S_t)]
        limit = 1.0
    else:
        chi = chi_expr(n)
        named = [("Fstar", mul(chi, F_t))] + [
            (f"Sstar{i+1}", mul(Const(A), chi, S)) for i, S in enumerate(S_t)]
        points = np.concatenate([points, 3.8 * points[:200]])
        limit = A_target
    maxima = verifier._sampled_bound_check(named, points, m, n,
                                           lambda name, alpha: limit)
    return verifier._bound_rows([name for name, _ in named], maxima, points)


def _cell_outside_dome(patch, omegas, delta):
    enc = patch.direction_enclosure()
    for w in omegas:
        d2 = 0.0
        for iv, wc in zip(enc, w):
            if wc < iv.lo:
                d2 += (iv.lo - wc) ** 2
            elif wc > iv.hi:
                d2 += (wc - iv.hi) ** 2
        if math.sqrt(d2) < delta:
            return False
    return True


def dome_sup(expr, boxes):
    """regions._dome_sup on the interval tree walk: the largest |expr|
    enclosure over the boxes, inf where a box has none."""
    top = 0.0
    for box in boxes:
        try:
            top = max(top, abs(eval_interval(expr, box)).hi)
        except DomainError:
            return math.inf
    return top


def jet_to_sympy(p, syms):
    """p as a sympy polynomial in syms (any sympy expressions)."""
    expr = sympy.Integer(0)
    for alpha, c in p.coeffs.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, a in zip(syms, alpha):
            if a:
                term *= s ** a
        expr += term
    return expr


def plane_zero_set(parts):
    t = sympy.Symbol("t", real=True)
    x, y = sympy.symbols("x y", real=True)
    polys = [sympy.Poly(jet_to_sympy(p, (x, y)).subs({x: 1, y: t}), t)
             for p in parts]
    dirs = []
    if all(jet_to_sympy(p, (x, y)).subs({x: 0, y: 1}) == 0 for p in parts):
        dirs.append(ExactDirection((0.0, 1.0),
                                   (sympy.Integer(0), sympy.Integer(1))))
        dirs.append(ExactDirection((0.0, -1.0),
                                   (sympy.Integer(0), sympy.Integer(-1))))
    roots = set()
    for r in polys[0].real_roots():
        if all(sympy.simplify(q.as_expr().subs(t, r)) == 0
               for q in polys[1:]):
            roots.add(r)
    for r in sorted(roots, key=lambda v: float(v)):
        norm = sympy.sqrt(1 + r ** 2)
        sym = (1 / norm, r / norm)
        vec = (float(sym[0].evalf(30)), float(sym[1].evalf(30)))
        dirs.append(ExactDirection(vec, sym))
        dirs.append(ExactDirection((-vec[0], -vec[1]), (-sym[0], -sym[1])))
    return dirs


def ray_to_sympy(ray):
    """The exact coordinates v(r)/|v(r)| of an algebraic.Ray as sympy
    numbers, its root r as a Rational or as the one real root of its
    polynomial (a CRootOf, or radicals for a quadratic) inside its
    isolating interval, built as plane_zero_set builds them."""
    root = ray.root
    if root.is_rational:
        r = sympy.Rational(root.lo.numerator, root.lo.denominator)
    else:
        t = sympy.Symbol("t", real=True)
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(root.f)], t)
        lo, hi = (sympy.Rational(e.numerator, e.denominator)
                  for e in (root.lo, root.hi))
        (r,) = [x for x in poly.real_roots() if lo < x < hi]
    values = [sum((sympy.Rational(c.numerator, c.denominator) * r ** k
                   for k, c in enumerate(v)), sympy.Integer(0))
              for v in ray.coords]
    norm = sympy.sqrt(sum(v ** 2 for v in values))
    return tuple(v / norm for v in values)


def jet_mul(p, q):
    if p.sig != q.sig:
        raise SignatureMismatchError(f"{p.sig} vs {q.sig}")
    m, n = p.sig.m, p.sig.n
    out = {}
    for a, ca in p.coeffs.items():
        da = sum(a)
        for b, cb in q.coeffs.items():
            if da + sum(b) > m:
                continue
            key = tuple(a[i] + b[i] for i in range(n))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return Jet(p.sig, out)


def jet_add(p, q):
    out = dict(p.coeffs)
    for a, c in q.coeffs.items():
        out[a] = out.get(a, Fraction(0)) + c
    return Jet(p.sig, out)


def jet_compose(p, phi):
    if p.sig != phi.sig:
        raise SignatureMismatchError("jet and diffeo-jet signatures differ")
    sig = p.sig
    powers = []
    for comp in phi.components:
        pk = [Jet.constant(sig, 1)]
        for _ in range(sig.m):
            pk.append(jet_mul(pk[-1], comp))
        powers.append(pk)
    out = Jet.zero(sig)
    for alpha, c in p.coeffs.items():
        term = Jet.constant(sig, c)
        for i, ai in enumerate(alpha):
            if ai:
                term = jet_mul(term, powers[i][ai])
        out = jet_add(out, term)
    return out


def ideal_contains(ideal, p):
    if p.sig != ideal.sig:
        raise SignatureMismatchError("jet signature mismatch")
    if (0,) * ideal.sig.n in p.coeffs:
        return False
    return ideal.span.contains(jet_coordinates(p, include_constant=False))


def subspace_basis(space):
    """The RREF basis of an exactlin.Subspace: its rows as tuples of
    Fraction, with a 1 in each pivot column."""
    return [tuple(Fraction(a, row[p]) for a in row)
            for row, p in zip(space.rows, space.pivots)]


def jet_coordinates(p, include_constant=True):
    """p's Fraction coefficient vector over its signature's monomial
    table, with or without the constant term."""
    coeffs = p.coeffs
    return tuple(coeffs.get(a, Fraction(0))
                 for a in p.sig.monomials[0 if include_constant else 1:])


def jet_eval(p, point):
    """The exact value of p at a point of rationals."""
    total = Fraction(0)
    for alpha, c in p.coeffs.items():
        for x, a in zip(point, alpha):
            c *= Fraction(x) ** a
        total += c
    return total


def cutoff_derivative_bounds(spec):
    """Certified upper bounds for sup |theta^(k)|, k <= q, of a
    CutoffSpec, outer scaling included."""
    return [_measure_bound(spec, k) for k in range(spec.q + 1)]


def _measure_bound(spec, k):
    """An upper bound for sup |theta^(k)| by interval evaluation of the
    ramp's k-th derivative on 1024 pieces of [0, 1]."""
    if k == 0:
        return 1.0
    pieces = 1 << 10
    top = 0.0
    for j in range(pieces):
        u = Interval(j / pieces, (j + 1) / pieces)
        top = max(top, abs(_poly_eval_interval(spec._polys[k], u)).hi)
    return top / float(spec.width) ** k


def jet_coeffs(sig, coeffs):
    clean = {}
    for alpha, c in coeffs.items():
        alpha = tuple(alpha)
        if len(alpha) != sig.n:
            raise DimensionMismatchError(f"exponent {alpha} has wrong arity")
        if sum(alpha) > sig.m:
            raise DegreeOverflowError(f"monomial {alpha} exceeds degree {sig.m}")
        c = Fraction(c)
        if c != 0:
            clean[alpha] = clean.get(alpha, Fraction(0)) + c
    return {a: c for a, c in clean.items() if c != 0}


def exact_zero_set(parts, n):
    syms = sympy.symbols(f"u0:{n}", real=True)
    system = [jet_to_sympy(p, syms) for p in parts]
    system.append(sum(s ** 2 for s in syms) - 1)
    try:
        sols = sympy.solve(system, list(syms), dict=True)
    except Exception:
        return None
    if not isinstance(sols, list):
        return None
    dirs = []
    for sol in sols:
        if set(sol) != set(syms):
            return None
        vals = [sympy.simplify(sol[s]) for s in syms]
        if any(v.free_symbols for v in vals):
            return None
        if any(not v.is_real for v in vals):
            continue
        vec = tuple(float(v.evalf(30)) for v in vals)
        dirs.append(ExactDirection(vec, vals))
    unique = []
    for d in dirs:
        if all(math.dist(d.vec, u.vec) > 1e-9 for u in unique):
            unique.append(d)
    return unique


def rref(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        f = rows[rank][col]
        rows[rank] = [a / f for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                g = rows[r][col]
                rows[r] = [a - g * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    basis = [tuple(r) for r in rows[:rank]]
    return basis, pivots


def subspace_contains(basis, pivots, vector):
    v = list(map(Fraction, vector))
    for row, piv in zip(basis, pivots):
        c = v[piv]
        if c != 0:
            v = [a - c * b for a, b in zip(v, row)]
    return all(a == 0 for a in v)


def invertible(matrix):
    rows = [list(r) for r in matrix]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            return False
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
    return True


def matrix_inverse(matrix):
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [a / f for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [a - g * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def subspace_intersect(U, W):
    """Zassenhaus: row-reduce [[u|u],[w|0]]; the intersection basis
    shows up in the right half of rows whose left half is zero."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimensions differ")
    d = U.ambient_dim
    zero = (0,) * d
    reduced, pivots = integer_rref([u + u for u in U.rows]
                                   + [w + zero for w in W.rows])
    k = sum(p < d for p in pivots)
    return Subspace._reduced(d, [row[d:] for row in reduced[k:]],
                             [p - d for p in pivots[k:]])


def integer_matrix_inverse(matrix):
    """The right half of rref([A | I]), whose left half is I iff A is
    invertible; rref's row i is its pivot row[i] times the RREF row."""
    n = len(matrix)
    reduced, pivots = integer_rref([list(row) + [int(i == j)
                                                 for j in range(n)]
                                    for i, row in enumerate(matrix)])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [[Fraction(a, row[i]) for a in row[n:]]
            for i, row in enumerate(reduced)]


def linear_inverse(phi):
    """Inverse of a diffeo-jet's linear part as a linear diffeo-jet."""
    return DiffeoJet.linear(phi.sig,
                            integer_matrix_inverse(phi.linear_matrix()))


def contains_direction(patch, omega, slack=0.0):
    """True if the direction omega projects radially into the patch's
    face box.

    A direction lands on face (axis, sign) when its largest-magnitude
    coordinate is there; scaling so that coordinate equals sign must
    put the rest inside the box.
    """
    c = omega.vec[patch.axis]
    if c * patch.sign <= 0:
        return False
    scale = patch.sign / c
    rest = [scale * v for i, v in enumerate(omega.vec) if i != patch.axis]
    return all(lo - slack <= t <= hi + slack
               for t, (lo, hi) in zip(rest, patch.box))


def interval_neg(a):
    return Interval(-a.hi, -a.lo)


def interval_add(a, b):
    b = Interval.exact(b)
    return Interval(_down(a.lo + b.lo), _up(a.hi + b.hi))


def interval_mul(a, b):
    b = Interval.exact(b)
    prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    p, q, r, s = prods
    if p != p or q != q or r != r or s != s:
        prods = tuple(0.0 if x != x else x for x in prods)
    return Interval(_down(min(prods)), _up(max(prods)))


def interval_truediv(a, b):
    b = Interval.exact(b)
    if b.contains_zero():
        raise DomainError(f"division by interval containing zero: {b}")
    quots = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return Interval(_down(min(quots)), _up(max(quots)))


def interval_abs(a):
    if a.lo >= 0:
        return Interval(a.lo, a.hi)
    if a.hi <= 0:
        return interval_neg(a)
    return Interval(0.0, _up(max(-a.lo, a.hi)))


def interval_ipow(a, k):
    if k == 0:
        return Interval(1.0, 1.0)
    if k < 0:
        power = interval_ipow(a, -k)
        if power.contains_zero() and not a.contains_zero():
            if a.lo > 0 or k % 2 == 0:
                return Interval(_down(1.0 / power.hi), math.inf)
            return Interval(-math.inf, _up(1.0 / power.lo))
        return interval_truediv(Interval(1.0, 1.0), power)
    lo_p, hi_p = a.lo ** k, a.hi ** k
    if k % 2 == 1:
        return Interval(_down(lo_p), _up(hi_p))
    if a.lo >= 0:
        return Interval(_down(lo_p), _up(hi_p))
    if a.hi <= 0:
        return Interval(_down(hi_p), _up(lo_p))
    return Interval(0.0, _up(max(lo_p, hi_p)))


def eval_scaled(jets, s, u_box):
    """sum_l |Q_l(s u) / s^{k_l}| for s >= 0, per monomial, on the
    reference operators above; a monomial of s-degree 0 takes its
    coefficient as it is."""
    total = Interval(0.0, 0.0)
    s_pows = [Interval(1.0, 1.0), s]
    for q in jets:
        k = q.order_of_vanishing()
        term = Interval(0.0, 0.0)
        for alpha, c in q.coeffs.items():
            d = sum(alpha) - k
            while len(s_pows) <= d:
                s_pows.append(interval_mul(s_pows[-1], s))
            mono = Interval.exact(Fraction(c))
            if d:
                mono = interval_mul(mono, s_pows[d])
            for ui, ai in zip(u_box, alpha):
                if ai:
                    mono = interval_mul(mono, interval_ipow(ui, ai))
            term = interval_add(term, mono)
        total = interval_add(total, interval_abs(term))
    return total


def certify_lower_bound(jets, omega, delta, budget, n, target=0.0):
    """Cells split s only when some monomial has positive s-degree; a
    patch half outside the dome is dropped at the split, and an
    uncertified cell at full depth fails the search."""
    omegas = [] if omega is None else [omega.vec]

    def outside(patch):
        return omega is not None and _cell_outside_dome(patch, omegas, delta)

    reads_s = any(sum(alpha) > q.order_of_vanishing()
                  for q in jets for alpha in q.coeffs)
    work = [(p, Interval(0.0, 1.0), 0) for p in sphere_cover(n, 0)
            if not outside(p)]
    best = math.inf
    max_depth = 0
    while work:
        patch, s_iv, depth = work.pop()
        max_depth = max(max_depth, depth)
        u_box = patch.direction_enclosure()
        total = eval_scaled(jets, s_iv, u_box)
        if total.lo > target:
            best = min(best, total.lo)
            continue
        if depth >= budget:
            return None, max_depth
        widths = [hi - lo for lo, hi in patch.box] + [s_iv.width]
        if reads_s and s_iv.width == max(widths):
            a, b = s_iv.split()
            work.append((patch, a, depth + 1))
            work.append((patch, b, depth + 1))
        else:
            work.extend((q, s_iv, depth + 1) for q in patch.split()
                        if not outside(q))
    if not math.isfinite(best):
        return None, max_depth
    return best, max_depth


def jet_interval_eval(p, box):
    """Enclosure of a jet's values on a box of Intervals, term by term
    in monomial order."""
    total = Interval(0.0, 0.0)
    for a, c in p.coeffs.items():
        term = Interval.exact(c)
        for xi, ai in zip(box, a):
            if ai:
                term = term * xi.ipow(ai)
        total = total + term
    return total


def patch_zero_cover(parts, n, budget):
    """The allowed-set patch cover, each part enclosed on its own."""
    work = [(p, 0) for p in sphere_cover(n, 0)]
    out = []
    while work:
        patch, depth = work.pop()
        enc = patch.direction_enclosure()
        total = Interval(0.0, 0.0)
        for p in parts:
            total = total + abs(jet_interval_eval(p, enc))
        if total.lo > 0.0:
            out.append((patch, "certified_forbidden", total.lo))
        elif depth < budget:
            work.extend((q, depth + 1) for q in patch.subdivide_all())
        else:
            out.append((patch, "candidate_allowed", None))
    return out


def expr_to_sympy(e, syms):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Coord):
        return syms[e.i]
    if isinstance(e, Add):
        return sympy.Add(*(expr_to_sympy(t, syms) for t in e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*(expr_to_sympy(f, syms) for f in e.factors))
    if isinstance(e, Pow):
        return expr_to_sympy(e.base, syms) ** e.k
    if isinstance(e, Div):
        return expr_to_sympy(e.num, syms) / expr_to_sympy(e.den, syms)
    if isinstance(e, Norm):
        return sympy.sqrt(sympy.Add(*(syms[i] ** 2 for i in e.indices)))
    if isinstance(e, Cutoff):
        return sympy.Integer(1 if e.order == 0 else 0)
    raise DomainError(f"node {type(e).__name__} has no symbolic form")


def residual_zero(residual, syms):
    """Exact zero test of a residual written by expr_to_sympy.

    A rational residual is zero iff the numerator of together() expands
    to 0.  Otherwise each |x_i| is read in every orthant, as s_i t_i with
    t_i > 0, each remaining power sqrt(s)^k becomes r^k for a fresh
    symbol r, and the residual is zero iff the numerator of together()
    is 0 modulo the r^2 - s (sympy.reduced, r first in lex order).
    sympy.simplify misses zero residuals that this decides, such as
    (x1 + norm(x,y,z))/x0 + 1/(3 x0 norm(x,y))
    - (x1 + norm(x,y,z) + 1/(3 norm(x,y)))/x0."""
    combined = sympy.together(residual)
    num = sympy.numer(combined)
    if num.is_polynomial(*syms):
        return sympy.expand(num) == 0
    signed = sorted({a.args[0] for a in residual.atoms(sympy.Abs)},
                    key=syms.index)
    ts = sympy.symbols(f"t0:{len(signed)}", positive=True)
    for signs in itertools.product((1, -1), repeat=len(signed)):
        orthant = residual.subs({x: s * t
                                 for x, s, t in zip(signed, signs, ts)})
        halves = [a for a in orthant.atoms(sympy.Pow)
                  if a.exp.is_Rational and a.exp.q == 2]
        bases = sorted({a.base for a in halves}, key=sympy.default_sort_key)
        roots = dict(zip(bases, sympy.symbols(f"r0:{len(bases)}")))
        orthant = orthant.xreplace({a: roots[a.base] ** int(2 * a.exp)
                                    for a in halves})
        num = sympy.expand(sympy.numer(sympy.together(orthant)))
        gens = list(roots.values()) + sorted(
            num.free_symbols - set(roots.values()),
            key=sympy.default_sort_key)
        basis = [r ** 2 - base for base, r in roots.items()]
        rem = sympy.reduced(num, basis, *gens, order="lex")[1] if basis \
            else num
        if rem != 0:
            return False
    return True


def identity_zero(p, pairs, F):
    """p - F - sum S_l Q_l == 0 (pairs lists (Q_l, S_l)),
    decided in a lex PolyRing over QQ: a Norm over k >= 2 coordinates is
    a generator r_j (first in the ring), reduced by rem modulo
    {r_j^2 - s_j}; |x_i| is read as x_i and as -x_i, once per orthant; a
    denominator that reduces to 0 fails the identity."""
    pairs = list(pairs)
    found = sorted(set().union(*map(_free_norms, [F] + [S for _, S in pairs])),
                   key=lambda e: e.indices)
    signed = [e for e in found if len(e.indices) == 1]
    roots = [e for e in found if len(e.indices) > 1]
    ring = PolyRing([f"r{j}" for j in range(len(roots))]
                    + [f"x{i}" for i in range(p.sig.n)], QQ, lex)
    xs = ring.gens[len(roots):]
    basis = [r ** 2 - sum(xs[i] ** 2 for i in e.indices)
             for r, e in zip(ring.gens, roots)]
    for signs in itertools.product((1, -1), repeat=len(signed)):
        norms = dict(zip(roots, ring.gens))
        norms.update((e, s * xs[e.indices[0]]) for e, s in zip(signed, signs))
        try:
            num, den = _polyring_fraction(F, ring, norms, basis)
            num, den = _fraction_add(_polyring_jet(p, ring), ring.one,
                                     -num, den)
            for Q, S in pairs:
                s_num, s_den = _polyring_fraction(S, ring, norms, basis)
                s_num = -s_num * _polyring_jet(Q, ring)
                num, den = _fraction_add(num, den, s_num, s_den)
        except _ZeroDenominator:
            return False
        if num.rem(basis):
            return False
    return True


class _ZeroDenominator(Exception):
    pass


def _free_norms(e):
    if isinstance(e, Norm):
        return {e}
    if isinstance(e, Cutoff):
        return set()
    return set().union(*map(_free_norms, e.children()))


def _polyring_jet(p, ring):
    pad = (0,) * (ring.ngens - p.sig.n)
    return ring.from_dict({pad + alpha: QQ(c)
                           for alpha, c in p.coeffs.items()})


def _fraction_add(a, b, c, d):
    if b == d:
        return a + c, b
    return a * d + c * b, b * d


def _polyring_fraction(e, ring, norms, basis):
    if isinstance(e, Const):
        return ring(QQ(e.value)), ring.one
    if isinstance(e, Coord):
        return ring.gens[len(basis) + e.i], ring.one
    if isinstance(e, Add):
        num, den = ring.zero, ring.one
        for t in e.terms:
            num, den = _fraction_add(
                num, den, *_polyring_fraction(t, ring, norms, basis))
        return num, den
    if isinstance(e, Mul):
        num, den = ring.one, ring.one
        for f in e.factors:
            f_num, f_den = _polyring_fraction(f, ring, norms, basis)
            num, den = num * f_num, den * f_den
        return num, den
    if isinstance(e, Pow):
        num, den = _polyring_fraction(e.base, ring, norms, basis)
        return num ** e.k, den ** e.k
    if isinstance(e, Div):
        a, b = _polyring_fraction(e.num, ring, norms, basis)
        c, d = _polyring_fraction(e.den, ring, norms, basis)
        c = c.rem(basis)
        if not c:
            raise _ZeroDenominator
        return a * d, b * c
    if isinstance(e, Cutoff):
        return (ring.one if e.order == 0 else ring.zero), ring.one
    if isinstance(e, Norm):
        return norms[e], ring.one
    raise DomainError(f"node {type(e).__name__} has no symbolic form")


class PolyParser(_Parser):
    """Recursive-descent parser producing an untruncated polynomial dict."""

    def parse_sum(self):
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        poly = _poly_scale(self.parse_product(), sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_product()
                poly = _poly_add(poly, _poly_scale(rhs, -1 if val == "-" else 1))
            else:
                return poly

    def parse_product(self):
        poly = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                poly = _poly_mul(poly, self.parse_factor(), self.n)
            elif kind == "op" and val == "/":
                self.next()
                divisor = self.parse_factor()
                const = _poly_as_constant(divisor)
                if const is None:
                    raise ParseError("division by a non-constant polynomial", pos)
                if const == 0:
                    raise ParseError("division by zero", pos)
                poly = _poly_scale(poly, Fraction(1, 1) / const)
            elif kind in ("name",) or (kind == "op" and val == "("):
                poly = _poly_mul(poly, self.parse_factor(), self.n)
            else:
                return poly

    def parse_factor(self):
        kind, val, pos = self.next()
        if kind == "num":
            base = {(0,) * self.n: val}
        elif kind == "name":
            if val not in self.names:
                raise ParseError(f"unknown variable {val!r}", pos)
            e = [0] * self.n
            e[self.names[val]] = 1
            base = {tuple(e): Fraction(1)}
        elif kind == "op" and val == "(":
            base = self.parse_sum()
            self.expect_op(")")
        elif kind == "op" and val == "-":
            return _poly_scale(self.parse_factor(), -1)
        else:
            raise ParseError("expected a term", pos)
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, pos = self.next()
            if kind != "num" or exp.denominator != 1 or exp < 0:
                raise ParseError("exponent must be a non-negative integer", pos)
            out = {(0,) * self.n: Fraction(1)}
            for _ in range(int(exp)):
                out = _poly_mul(out, base, self.n)
            return out
        return base


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def _poly_scale(a, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def _poly_mul(a, b, n):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(ka[i] + kb[i] for i in range(n))
            out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def _poly_as_constant(a):
    if not a:
        return Fraction(0)
    if len(a) == 1:
        (k, v), = a.items()
        if sum(k) == 0:
            return v
    return None


def jet_parse(text, sig, truncate=False):
    poly = PolyParser(text, sig.n).parse()
    over = [k for k in poly if sum(k) > sig.m]
    if over and not truncate:
        worst = max(over, key=sum)
        names = variable_names(sig.n)
        term = "*".join(f"{nm}^{e}" if e > 1 else nm
                        for nm, e in zip(names, worst) if e) or "1"
        raise DegreeOverflowError(
            f"term {term} has degree {sum(worst)} > m={sig.m}")
    return Jet(sig, {k: v for k, v in poly.items() if sum(k) <= sig.m})


class ExprParser(_ExprParser):
    """The expression rules over the smart constructors; the names
    (abs2, norm, theta) are symfun's, and their arguments are
    parsed by these rules."""

    def parse_sum(self):
        kind, val, _ = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.next()
            neg = val == "-"
        e = self.parse_product()
        if neg:
            e = mul(Const(-1), e)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_product()
                e = add(e, mul(Const(-1), rhs) if val == "-" else rhs)
            else:
                return e

    def parse_product(self):
        e = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                e = mul(e, self.parse_factor())
            elif kind == "op" and val == "/":
                self.next()
                e = div(e, self.parse_factor())
            elif kind == "name" or (kind == "op" and val == "("):
                e = mul(e, self.parse_factor())
            else:
                return e

    def parse_factor(self):
        kind, val, pos = self.next()
        if kind == "num":
            base = Const(val)
        elif kind == "name":
            base = self.named(val, pos)
        elif kind == "op" and val == "(":
            base = self.parse_sum()
            self.expect_op(")")
        elif kind == "op" and val == "-":
            return mul(Const(-1), self.parse_factor())
        else:
            raise ParseError("expected a term", pos)
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, pos = self.next()
            neg = False
            if kind == "op" and exp == "-":
                neg = True
                kind, exp, pos = self.next()
            if kind != "num" or exp.denominator != 1:
                raise ParseError("exponent must be an integer", pos)
            k = -int(exp) if neg else int(exp)
            return ipow(base, k)
        return base


def expr_parse(text, n, cutoff=None):
    return ExprParser(text, n, cutoff=cutoff).parse()
