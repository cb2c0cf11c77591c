"""Scalar reference loops for the sampled checks that run on compiled
kernels.

These are the point-by-point loops over expr_eval that
verifier._sampled_bound_check, verifier._shell_sweep and
verifier.measure_chi_constant replaced.  test_compiled_callers.py
requires the compiled callers to return exactly what these return,
witnesses included.
"""

import numpy as np

from jetideals.errors import DomainError
from jetideals.jetring import monomials
from jetideals.symfun import ZERO, expr_derive, expr_eval
from jetideals.verifier import (FAIL, PASS, _random_unit, _region_directions,
                                chi_expr)


def _try_eval(e, x):
    try:
        return expr_eval(e, x)
    except DomainError:
        return None


def shell_sweep(expr, region, m, n, seed, k_lo, k_hi, weight):
    rng = np.random.default_rng(seed)
    derivs = [(alpha, expr_derive(expr, alpha))
              for alpha in monomials(m, n)]
    dirs = _region_directions(region, n, rng)
    shells = []
    witness_pool = []
    for k in range(k_lo, k_hi + 1):
        top = 0.0
        top_point = None
        for frac in (0.55, 0.75, 1.0):
            s = frac * 2.0 ** -k
            for u in dirs:
                x = tuple(s * c for c in u)
                for alpha, d_expr in derivs:
                    if d_expr == ZERO:
                        continue
                    val = _try_eval(d_expr, x)
                    if val is None:
                        continue
                    ratio = abs(val) * weight(alpha, s)
                    if ratio > top:
                        top = ratio
                        top_point = (alpha, x, abs(val))
        shells.append((k, top))
        witness_pool.append(top_point)
    return shells, witness_pool


def measure_chi_constant(m, n, seed=0):
    chi = chi_expr(n)
    rng = np.random.default_rng(seed)
    top = 1.0
    for alpha in monomials(m, n):
        d = expr_derive(chi, alpha)
        for s in np.geomspace(0.26, 3.9, 40):
            for _ in range(20):
                u = _random_unit(rng, n)
                val = _try_eval(d, tuple(float(s) * c for c in u))
                if val is not None:
                    top = max(top, abs(val))
    return 2.0 ** m * top


def sampled_bound_check(named_exprs, points, m, n, bound_fn):
    results = []
    verdict = PASS
    for name, G in named_exprs:
        worst = 0.0
        witness = None
        for alpha in monomials(m, n):
            d = expr_derive(G, alpha)
            if d == ZERO:
                continue
            limit = bound_fn(name, alpha)
            for x in points:
                val = _try_eval(d, x)
                if val is None:
                    continue
                ratio = abs(val) / limit
                if ratio > worst:
                    worst = ratio
                    if ratio > 1.0 + 1e-9:
                        witness = {"alpha": list(alpha), "point": list(x),
                                   "value": abs(val), "bound": limit}
        results.append({"name": name, "max_ratio": worst,
                        "witness": witness})
        if witness is not None:
            verdict = FAIL
    return verdict, results
