"""Certificate verification: flat/tame bounds, negligibility, strong
(directional) implication, and the annulus-scale conditions C / C* / C**.

Verdicts are three-valued: "pass", "fail" (a concrete witness point
violates a bound), or "inconclusive" (budget exhausted).  Interval
methods are one-sided, so absence of a certificate is never treated as a
disproof.  Aggregation is the meet fail < inconclusive < pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from .algebraic import Ray, Root
from .directions import (ExactDirection, allow_overapprox,
                         forbidden_certificate_search)
from .errors import DomainError
from .geometry import DELTA_FLOOR, Cone, Direction
from .ideal import JetIdeal
from .interval import Interval
from .jetring import Jet, _collect, _Poly, monomials
from .regions import (_cutoff_values, _dome_sup, _region_boxes,
                      _region_signs)
from .symfun import (KERNELS, Const, Coord, Cutoff, DEFAULT_CUTOFF, Norm,
                     ScalarExpr, ZERO, add, collect_cutoffs, compile_expr,
                     compile_exprs, div, expr_derive, expr_enclose,
                     expr_str, fold, hom_degree, ipow, mul)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
_ORDER = {FAIL: 0, INCONCLUSIVE: 1, PASS: 2}
# annulus identity result -> verdict (None: some cutoff may lie in its
# band on the region, so no exact decision was made)
_IDENTITY_VERDICT = {True: PASS, False: FAIL, None: INCONCLUSIVE}
STRONG_DELTA = 0.5   # cone opening a strong check covers around a direction


def meet(*verdicts) -> str:
    """Order-independent aggregation: fail < inconclusive < pass."""
    return min(verdicts, key=_ORDER.__getitem__, default=PASS)


def _first_max(ratios):
    """(index, value) of the first largest entry, NaN entries skipped;
    the value is -inf when every entry is NaN."""
    ratios = np.where(np.isnan(ratios), -np.inf, ratios)
    if not ratios.size:
        return None, -math.inf
    j = int(np.argmax(ratios))
    return j, float(ratios[j])


def _point_array(points, n):
    return np.array(points, dtype=float).reshape(len(points), n)


# ---------------------------------------------------------------------------
# Sampling helpers.
# ---------------------------------------------------------------------------

def _row_dots(a, b):
    """Dot product of each row of the (k, n) array a with the matching
    row of b, or with b itself when it is one vector.  Stacked matmul
    takes one BLAS dot per row, bit for bit what np.dot and
    np.linalg.norm give that row; a sum of products written out rounds
    differently."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _unit_rows(rng, count, n, omega=None):
    """count random unit vectors, projected off the unit vector omega
    when it is given, as a (count, n) array.

    A row is one standard_normal(n) draw divided by its norm; a row whose
    norm is at most 1e-9 is dropped and the shortfall drawn again.  The
    rows and the generator state afterwards are those of count successive
    one-vector draws, each repeated until its norm passes."""
    rows = []
    while count:
        v = rng.standard_normal((count, n))
        if omega is not None:
            w = np.asarray(omega, dtype=float)
            v = v - _row_dots(v, w)[:, None] * w
        norm = np.sqrt(_row_dots(v, v))
        keep = norm > 1e-9
        rows.append(v[keep] / norm[keep, None])
        count -= len(rows[-1])
    return np.concatenate(rows) if rows else np.empty((0, n))


def _dome_directions(rng, omegas, delta, count):
    """Directions inside the dome around a finite Omega, an (N, n) array:
    the centers, then per center w a batch of w + t v normalized, t
    uniform below 0.98 delta and v a random unit orthogonal to w (draws
    per center: the t batch, then the v batch)."""
    omegas = np.array([tuple(w) for w in omegas], dtype=float)
    per = max(1, count // max(1, len(omegas)))
    blocks = [omegas]
    for w in omegas:
        t = rng.uniform(0, delta * 0.98, per)
        u = w + t[:, None] * _unit_rows(rng, per, len(w), w)
        blocks.append(u / np.sqrt(_row_dots(u, u))[:, None])
    return np.concatenate(blocks)


def _cutoff_feature_scales(exprs):
    """Absolute argument breakpoints of every cutoff node in the trees."""
    return [(float(c.scale * c.spec.a), float(c.scale * c.spec.b))
            for c in collect_cutoffs(exprs)]


def _unit_annulus_samples(n, K, omegas, rel_scales, rng):
    """Deterministic sample set on Ann_K(1), an (N, n) array: 40 random
    directions at 9 radii, enriched with whisker points around each
    direction of Omega at the given relative transverse scales (cutoff
    breakpoints divided by the working radius).

    The directions are drawn as numpy batches (_unit_rows); the points,
    their order and the generator state afterwards are those of the
    per-point loop: per direction, each radius in turn; per direction w
    of Omega, per sorted transverse scale t, three transverse units wt,
    each giving s w + t wt at every radius s that lies in the annulus."""
    radii = np.array([float(K ** t) for t in np.linspace(-0.95, 0.95, 9)])
    blocks = [(_unit_rows(rng, 40, n)[:, None, :]
               * radii[:, None]).reshape(-1, n)]
    t_values = set()
    for lo, hi in rel_scales:
        for f in (0.25, 0.5, 0.95, 1.0):
            t_values.add(lo * f)
        t_values.add(0.5 * (lo + hi))
        for f in (0.95, 1.0, 1.5, 4.0):
            t_values.add(hi * f)
    t_values.add(1e-6)
    ts = np.array(sorted(t_values))
    for w in omegas or []:
        w = np.asarray(w, dtype=float)
        wt = _unit_rows(rng, 3 * len(ts), n, w).reshape(len(ts), 3, 1, n)
        # x[t, k, s] = s w + t wt[t, k]
        x = (radii[:, None] * w + ts[:, None, None, None] * wt).reshape(-1, n)
        # |x|^2 summed left to right from 0, then one IEEE square root
        square = np.zeros(len(x))
        for i in range(n):
            square += x[:, i] * x[:, i]
        norm = np.sqrt(square)
        blocks.append(x[(1.0 / K < norm) & (norm < K)])
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# Flatness and tameness shell sweeps.
# ---------------------------------------------------------------------------

class ShellReport:
    """Measured shell-sup table for a flat or tame check."""

    def __init__(self, kind, expr, region, m, shells, verdict, constant=None,
                 witness=None, notes=()):
        self.kind = kind
        self.expr = expr
        self.region = region
        self.m = m
        self.shells = shells          # list of (k, measured sup)
        self.verdict = verdict
        self.constant = constant      # tame: measured uniform bound
        self.witness = witness
        self.notes = list(notes)

    def to_json(self):
        return {"kind": self.kind, "expr": expr_str(self.expr),
                "m": self.m,
                "shells": [[k, v] for k, v in self.shells],
                "verdict": self.verdict, "constant": self.constant,
                "witness": self.witness, "notes": self.notes}


SWEEP_DIRECTIONS = 40        # directions per sweep
SHELLS = (4, 24)             # a sweep's shells 2^-k, k from 4 to 24


def _region_directions(region, n, seed):
    """The sample directions of a shell sweep, an (N, n) array from a
    fresh default_rng(seed): inside the dome of a Cone region, else
    anywhere on the sphere."""
    rng = np.random.default_rng(seed)
    if isinstance(region, Cone):
        return _dome_directions(rng, region.omega_set, region.delta,
                                SWEEP_DIRECTIONS)
    return _unit_rows(rng, SWEEP_DIRECTIONS, n)


def _shell_sweep(expr, region, m, n, seed, k_lo, k_hi, weight):
    """Per-shell measured sup of |d^alpha e(x)| * weight(alpha, |x|).

    A shell's witness is its first point, in (radius, direction,
    alpha) order, that reaches the shell's sup.  A shell where no
    nonzero derivative evaluates at any sample has sup None: it carries
    no evidence."""
    index, derivs = _derivative_table((expr,), m, n)
    dirs = _region_directions(region, n, seed)
    fracs = (0.55, 0.75, 1.0)
    radii = [frac * 2.0 ** -k for k in range(k_lo, k_hi + 1)
             for frac in fracs]
    # the (radius, direction) grid, one IEEE product per coordinate
    points = (np.asarray(radii)[:, None, None]
              * _point_array(dirs, n)[None]).reshape(-1, n)
    columns = compile_exprs(derivs)(points)
    # ratios[point, alpha], points in sweep order
    ratios = np.empty((len(points), len(derivs)))
    for t, ((_, alpha), (vals, _)) in enumerate(zip(index, columns)):
        weights = np.repeat([weight(alpha, s) for s in radii], len(dirs))
        ratios[:, t] = np.abs(vals) * weights
    per_shell = len(fracs) * len(dirs) * len(derivs)
    shells = []
    witness_pool = []
    for i, k in enumerate(range(k_lo, k_hi + 1)):
        j, top = _first_max(ratios.ravel()[i * per_shell:(i + 1) * per_shell])
        if top > 0.0:
            p, t = divmod(i * per_shell + j, len(derivs))
            shells.append((k, top))
            witness_pool.append((index[t][1], tuple(points[p].tolist()),
                                 abs(float(columns[t][0][p]))))
        else:
            shells.append((k, None if derivs and top == -math.inf else 0.0))
            witness_pool.append(None)
    return shells, witness_pool


def _blind_note(shells):
    blind = [k for k, v in shells if v is None]
    return f"no evaluable sample in shells {blind}"


def check_flat(F: ScalarExpr, region, m: int, n: int,
               seed: int = 0) -> ShellReport:
    """Shell test of d^alpha F = o(|x|^(m-|alpha|)).

    pass: shell sups strictly decrease over the last 8 shells and the
    final value is below 1e-3 of the first; fail: clear growth; anything
    else is inconclusive.  The finite-trend contract replaces the limit.
    """
    shells, _ = _shell_sweep(F, region, m, n, seed, *SHELLS,
                             weight=lambda a, s: s ** (sum(a) - m))
    vals = [v for _, v in shells]
    notes = ["pass = strictly decreasing over last 8 shells and "
             "final < 1e-3 * first"]
    if None in vals:
        return ShellReport("flat", F, region, m, shells, INCONCLUSIVE,
                           notes=notes + [_blind_note(shells)])
    if max(vals) == 0.0:
        return ShellReport("flat", F, region, m, shells, PASS, notes=notes)
    tail = vals[-8:]
    decreasing = all(a > b for a, b in zip(tail, tail[1:]))
    small = vals[-1] < 1e-3 * vals[0] if vals[0] > 0 else True
    if decreasing and small:
        verdict = PASS
    elif vals[-1] > 10.0 * vals[0] and all(a <= b for a, b in zip(tail, tail[1:])):
        verdict = FAIL
    else:
        verdict = INCONCLUSIVE
    return ShellReport("flat", F, region, m, shells, verdict, notes=notes)


def check_tame(S: ScalarExpr, region, m: int, n: int, seed: int = 0,
               bound=None) -> ShellReport:
    """Shell test of d^alpha S = O(|x|^(-|alpha|)).

    pass: the measured shell sups stay uniformly bounded (no growth
    between the first and last 8 shells) and, when a constant is
    supplied, below it; a sampled point above the supplied constant is a
    genuine witness and fails.  A supplied constant must be finite (a
    NaN would pass every comparison unchecked).
    """
    if bound is not None and not math.isfinite(bound):
        raise DomainError(f"need a finite tameness bound, got {bound}")
    shells, pool = _shell_sweep(S, region, m, n, seed, *SHELLS,
                                weight=lambda a, s: s ** sum(a))
    vals = [v for _, v in shells]
    if None in vals:
        return ShellReport("tame", S, region, m, shells, INCONCLUSIVE,
                           notes=[_blind_note(shells)])
    measured = max(vals)
    witness = None
    if bound is not None and measured > bound:
        idx = vals.index(measured)
        alpha, x, raw = pool[idx]
        witness = {"alpha": list(alpha), "point": list(x), "value": raw,
                   "claimed_bound": bound}
        return ShellReport("tame", S, region, m, shells, FAIL,
                           constant=measured, witness=witness)
    head = max(vals[:8]) if any(vals[:8]) else 0.0
    tail = max(vals[-8:])
    if head == 0.0:
        verdict = PASS if tail == 0.0 else FAIL
    elif tail <= 2.0 * head:
        verdict = PASS
    elif tail > 8.0 * head:
        verdict = FAIL
    else:
        verdict = INCONCLUSIVE
    return ShellReport("tame", S, region, m, shells, verdict,
                       constant=measured)


# ---------------------------------------------------------------------------
# Negligibility.
# ---------------------------------------------------------------------------

class NegligibilityCertificate:
    """The record of a negligibility check, for every eps > 0 at once.

    F is negligible for Omega when for every eps > 0 there are delta,
    r > 0 such that on Gamma(Omega, delta, r), for |alpha| <= m and
    k = m - |alpha|, (a) |d^alpha F(x)| <= eps |x|^k and (b) |d^alpha
    F(x) - sum_{|beta| <= k} d^(alpha+beta) F(y) (x - y)^beta / beta!|
    <= eps |x - y|^k.  The record's one opening delta0 and its rows'
    constants give (a) with delta(eps) = min(delta0, eps / L'), L' the
    largest `lipschitz` of a row, and r(eps) = min(1, (eps / sup)^(1 /
    gap)), the least over the rows with a `dome_sup_upper`; (b) holds
    wherever (a) holds with eps / c, c = c(m, n, theta) the `constant`
    of condition_b.  check_negligible derives all three.
    """

    def __init__(self, F, omegas, m, records, verdict):
        self.F = F
        self.omegas = omegas
        self.m = m
        self.records = records
        self.verdict = verdict

    def to_json(self):
        return {"F": expr_str(self.F),
                "omegas": [list(w) for w in self.omegas],
                "m": self.m, "records": self.records,
                "verdict": self.verdict}


def check_negligible(F: ScalarExpr, omegas, m: int, n: int):
    """Check that F is negligible for the direction set Omega, for every
    eps at once (see NegligibilityCertificate).

    A direction is a vector of floats or Fractions, read as the unit
    vector of its exact value (a float is dyadic), or an ExactDirection,
    read at its ray; exact duplicates are dropped.  The opening delta0
    is the least of 0.05 and a quarter of the least distance D between
    two directions, so the domes are disjoint convex components; below
    DELTA_FLOOR the check is inconclusive.  Each nonzero G = d^alpha F
    must be homogeneous of degree k + gap, gap >= 0 (read off the
    tree), else the check is inconclusive.
    A dome sup is the largest interval enclosure over the boxes
    w +- delta0 (_region_boxes at radius 1, one per direction w): each
    dome direction u lies in its box, as |u_i - w_i| <= |u - w| <
    delta0.  A box with no enclosure, or an infinite one, leaves the
    row inconclusive ("unbounded enclosure").
    - gap > 0: G(x) = |x|^(k + gap) G(x/|x|), so (a) holds for
      |x| < r(eps) with sup the dome sup of |G|.
    - gap = 0: |G(t w)| = |G(w)| t^k, so G(w) must be 0 at each
      direction w, which is decided exactly.  For F with a ring table
      (_ring_table), G = P_alpha / D^k_alpha has the sign of
      P_alpha(u) times sign(D(u))^k_alpha at the unit vector u of w,
      sign(D(u)) taken once per direction; _sign_at decides the rest
      (no table, or D(u) = 0).  Where G(w) is not 0 the check fails,
      with the witness 0.5 w for eps = |G(w)| / 2.  With
      L the largest dome sup of the |d_i G|, the box is convex and
      holds the segment from w to u, so |G(u)| <= L sum_i |u_i - w_i|
      <= L' |u - w|, L' = sqrt(n) L: (a) holds with delta(eps).  For
      |alpha| < m the d_i G are rows of the same table; the
      |alpha| = m rows bound order m + 1 derivatives.
    Condition (b) follows from (a) with eps' on the same cone.  Within
    one convex component, Taylor's theorem with integral remainder on
    [y, x] writes the left side of (b) as sum_{|beta| = k} (k / beta!)
    (x - y)^beta int_0^1 (1 - t)^(k-1) (d^(alpha+beta) F(y + t(x - y))
    - d^(alpha+beta) F(y)) dt with |alpha + beta| = m, at most
    2 eps' (n^k / k!) |x - y|^k (k = 0 directly).  Across components
    the directions are theta = 2 asin(D/2) - 4 asin(delta0/2) apart, so
    |x|, |y| <= |x - y| / s, s = sin(min(theta, pi/2)), and the
    triangle inequality gives eps' |x - y|^k (s^-k + sum_{j <= k}
    (n^j / j!) s^(j-k)).  c(m, n, theta) is the largest of these
    factors over k <= m (_condition_b), and F is negligible with
    delta(eps / c) and r(eps / c).
    """
    dirs = _distinct_directions(omegas)
    vecs = [vec for vec, _ in dirs]
    least = min((math.dist(a, b) for i, a in enumerate(vecs)
                 for b in vecs[:i]), default=math.inf)
    delta0 = min(0.05, least / 4)
    if not dirs or delta0 < DELTA_FLOOR:
        record = ({"vacuous": True, "verdict": PASS,
                   "note": "empty direction set: every C^m function "
                           "qualifies"} if not dirs else
                  {"delta0": delta0, "verdict": INCONCLUSIVE,
                   "note": "two directions are closer than 4 DELTA_FLOOR"})
        return NegligibilityCertificate(F, vecs, m, [record],
                                        record["verdict"])

    index, table = _derivative_table((F,), m, n)
    derivs = {alpha: G for (_, alpha), G in zip(index, table)}
    record, rows, verdict = {"delta0": delta0}, [], PASS
    den_signs = {}   # ray -> sign of the ring table's D at its unit vector
    for alpha in monomials(m, n):
        G = derivs.get(alpha, ZERO)
        row = {"alpha": list(alpha)}
        rows.append(row)
        d = None if G == ZERO else hom_degree(G)
        gap = None if d is None else d - (m - sum(alpha))
        if G == ZERO or gap is None or gap < 0:
            row["status"] = ("zero" if G == ZERO
                             else "no homogeneity reduction")
            verdict = meet(verdict, PASS if G == ZERO else INCONCLUSIVE)
            continue
        row["homogeneity_gap"] = gap
        if gap == 0:
            verdict = meet(verdict, _zero_on_directions(
                F, G, alpha, dirs, m, n, row, den_signs))
            if "witness" in row:
                record.setdefault("witness", row["witness"])

    # a sup cannot fail, so the sups run only when all else passed
    boxes, sups = _region_boxes(vecs, delta0, 1, 1), {}
    for alpha, row in zip(monomials(m, n), rows):
        if "homogeneity_gap" not in row:
            continue
        if verdict != PASS:
            row.setdefault("status", "sup not taken: verdict decided")
            continue
        gap = row["homogeneity_gap"]
        bounded = [alpha] if gap else [
            tuple(a + (i == j) for j, a in enumerate(alpha))
            for i in range(n)]
        for beta in bounded:
            if beta not in sups:
                tree = expr_derive(F, beta)
                sups[beta] = (0.0 if tree == ZERO
                              else _dome_sup(tree, boxes))
            if not math.isfinite(sups[beta]):
                row.update(status="unbounded enclosure",
                           derivative=list(beta))
                verdict = INCONCLUSIVE
                break
        else:
            top = max(sups[beta] for beta in bounded)
            if gap:
                row.update(status="radius absorbed", dome_sup_upper=top)
            else:
                # times 1 + 2^-40, above the roundings of the floats
                row.update(status="lipschitz", gradient_sup_upper=top,
                           lipschitz=math.sqrt(n) * top * (1 + 2 ** -40),
                           certified=True)
    record.update(condition_a=rows,
                  condition_b=_condition_b(least, delta0, m, n, verdict),
                  verdict=verdict)
    return NegligibilityCertificate(F, vecs, m, [record], verdict)


def _distinct_directions(omegas):
    """(unit float vector, exact ray) of each distinct direction: a
    vector of floats (dyadic) or Fractions is the ray of its value."""
    found = {}
    for w in omegas:
        if isinstance(w, ExactDirection):
            found.setdefault(w.sym, (w.vec, w.sym))
            continue
        coords = [Fraction(c) for c in w]
        if not any(coords):
            raise DomainError("need every direction nonzero")
        key = tuple(c / max(map(abs, coords)) for c in coords)   # per ray
        ray = Ray(Root.rational(0), [(c,) for c in key])
        found.setdefault(key, (ray.unit(), ray))
    return list(found.values())


def _zero_on_directions(F, G, alpha, dirs, m, n, row, den_signs):
    """Fill the gap-0 row of G = d^alpha F, and give its verdict: fail
    with a witness where G is not 0, else inconclusive where that is
    undecided.  Each sign comes from F's ring table (_table_sign), or
    from _sign_at where the table does not decide it."""
    undecided = None
    for vec, ray in dirs:
        sign, how = (_table_sign(F, alpha, ray, m, n, den_signs)
                     or _sign_at(G, vec, ray, n))
        if sign:
            # |G(t w)| = |G(w)| t^k on the ray: at t = 1/2, eps = |G(w)|/2
            center = tuple(0.5 * c for c in vec)
            value = _value_at(G, center, n)
            if value > 0.0:
                row.update(status=f"nonzero at omega ({how})", witness={
                    "alpha": list(alpha), "point": list(center),
                    "value": value, "bound": value / 2,
                    "eps": value / 2 / 0.5 ** (m - sum(alpha))})
                return FAIL
            sign, how = None, (f"nonzero at omega ({how}), with no float "
                               "value at its center")
        if sign is None and not undecided:
            undecided = {"status": how, "omega": list(vec)}
    row.update(undecided or {"status": "zero at omega"})
    return INCONCLUSIVE if undecided else PASS


def _table_sign(F, alpha, ray, m, n, den_signs):
    """(sign, "ring") of d^alpha F = P_alpha / D^k_alpha at the unit
    vector u of the ray, from F's ring table: sign(P_alpha(u)) times
    sign(D(u))^k_alpha, both by Ray.sign_of; None where F has no table
    or D(u) = 0.  den_signs keeps sign(D(u)) per ray for one check."""
    table = _ring_table(F, m, n)
    if table is None:
        return None
    den, nums = table
    if ray not in den_signs:
        den_signs[ray] = ray.sign_of(den.items())
    if not den_signs[ray]:
        return None
    num, k = nums[alpha]
    return ray.sign_of(num.items()) * den_signs[ray] ** k, "ring"


def _value_at(G, point, n):
    """|G(point)|: exact, by the ring fold (_RingFraction) with each
    coordinate the point's dyadic value, where G has no free norm, else
    evaluated in floats; 0.0 where it has no float value there."""
    if _free_norms([G]):
        vals, ok = compile_expr(G)(_point_array([point], n))
        return abs(float(vals[0])) if ok[0] else 0.0
    one = _Poly({(): Fraction(1)})
    leaves = {Coord(i): one * Fraction(c) for i, c in enumerate(point)}
    try:
        num, den = fold((G,), _RingFraction(one, leaves, []))[0]
    except _ZeroDenominator:
        return 0.0
    value = abs(num.get((), 0) / den[()])
    return float(value) if value <= sys.float_info.max else 0.0


def _sign_at(G, vec, ray, n):
    """The sign of the homogeneous G at the unit vector u of a direction,
    and how it was decided: (sign, "ring"), (sign, "interval"), or
    (None, the reason).  The gap-0 rows of check_negligible come here
    only where F's ring table does not decide them (_table_sign): F
    holds a norm or a cutoff, its fold divides by zero, or its
    denominator vanishes at u, as z does for x^2 + y^3/z at (1, 0, 0),
    where the row of 2x is still decided.  The ring (_RingFraction)
    reads G at u as a quotient of polynomials, the full norm as 1 and
    |x_i| as sign(u_i) x_i, and Ray.sign_of takes both signs exactly.  A
    norm of 2 to n - 1 coordinates is out of its reach (a homogeneous G
    has no cutoff): an enclosure over the box one step around vec, which
    holds u, decides a sign that excludes 0, as G vanishes at vec iff at
    u.
    """
    norms = _free_norms([G])
    if any(1 < len(e.indices) < n for e in norms):
        box = [Interval(math.nextafter(c, -math.inf),
                        math.nextafter(c, math.inf)) for c in vec]
        try:
            enc = expr_enclose(G, box)
        except DomainError:
            return None, "no enclosure at omega"
        sign = (enc.lo > 0) - (enc.hi < 0)
        return (sign, "interval") if sign else (None, (
            "not decided at omega: out of the ring's reach, and the "
            "enclosure holds 0"))
    leaves = {}
    for i in range(n):
        e_i = tuple(int(i == j) for j in range(n))
        leaves[Coord(i)] = _Poly({e_i: Fraction(1)})
        if Norm((i,)) in norms:
            leaves[Norm((i,))] = leaves[Coord(i)] * (
                ray.sign_of([(e_i, 1)]) or 1)
    one = leaves[Norm(range(n))] = _Poly({(0,) * n: Fraction(1)})
    try:
        num, den = fold((G,), _RingFraction(one, leaves, []))[0]
    except _ZeroDenominator:
        return None, "undefined at omega"
    den_sign = ray.sign_of(den.items())
    if not den_sign:
        return None, "undefined at omega"
    return ray.sign_of(num.items()) * den_sign, "ring"


def _condition_b(least, delta0, m, n, verdict_a):
    """Condition (b)'s record: it holds where (a) holds with eps /
    constant, c(m, n, theta) of check_negligible, theta the domes'
    separation; s is taken 1e-12 low, so rounding cannot lower c."""
    factors = [2 * n ** k / math.factorial(k) for k in range(m + 1)]
    theta = None
    if math.isfinite(least):
        theta = 2 * math.asin(min(1.0, least / 2)) - 4 * math.asin(delta0 / 2)
        s = math.sin(min(theta, math.pi / 2)) * (1 - 1e-12)
        factors += [s ** -k + sum(n ** j / math.factorial(j) * s ** (j - k)
                                  for j in range(k + 1))
                    for k in range(m + 1)]
    return {"method": "separation", "constant": max(factors),
            "separation_angle": theta,
            "verdict": PASS if verdict_a == PASS else INCONCLUSIVE}


# ---------------------------------------------------------------------------
# Symbolic identity residuals.
# ---------------------------------------------------------------------------

def symbolic_residual_zero(p: Jet, terms, F: ScalarExpr):
    """Exact check that p - sum S_l Q_l - F vanishes as a function; None
    when F or some S_l holds a cutoff, whose value near 0 is not
    certified here."""
    pairs = [(Q, S) for Q, S, _ in terms]
    if collect_cutoffs([F] + [S for _, S in pairs]):
        return None
    return _identity_zero(p, pairs, F, {})


def _identity_zero(p: Jet, pairs, F: ScalarExpr, values, signs=None) -> bool:
    """Exact check that p - F - sum S_l Q_l vanishes (pairs lists
    (Q_l, S_l)), each cutoff node read as its constant in `values`.

    Each term becomes a (numerator, denominator) pair of polynomials over
    QQ (_Poly), with no gcd taken, and the residual is zero iff the
    numerator of their sum is 0.  A Norm node over k >= 2 coordinates,
    outside every cutoff, is a generator r_j with r_j^2 = s_j, the sum of
    its squared coordinates.  Every denominator and the final numerator
    are reduced to degree <= 1 in each r_j, by r_j^e -> r_j^(e mod 2)
    s_j^(e div 2).  That is the unique remainder modulo {r_j^2 - s_j}, a
    Groebner basis in any order with the r_j first (its leading monomials
    are coprime).  The s_j are distinct irreducibles, so the products of
    their roots are linearly independent over QQ(x): the ring is a
    domain, and a reduced 0 is the zero function.  A one-coordinate norm
    is |x_i|, read as x_i and as -x_i, once per sign pattern: the
    identity must hold in every orthant.  `signs` ({i: signs}) narrows
    the signs that |x_i| is read with, to the orthants a region meets.
    A term whose denominator is identically zero (in some orthant) is
    defined nowhere there, so the identity fails.
    """
    pairs = list(pairs)
    trees = [F] + [S for _, S in pairs]
    found = sorted(_free_norms(trees), key=lambda e: e.indices)
    signed = [e for e in found if len(e.indices) == 1]
    roots = [e for e in found if len(e.indices) > 1]
    k, n = len(roots), p.sig.n
    gens = [_Poly({tuple(int(i == j) for i in range(k + n)): Fraction(1)})
            for j in range(k + n)]
    one, xs = _Poly({(0,) * (k + n): Fraction(1)}), gens[k:]
    squares = [sum((xs[i] ** 2 for i in e.indices), _Poly()) for e in roots]
    leaves = {Coord(i): x for i, x in enumerate(xs)}
    leaves.update(zip(roots, gens))
    leaves.update((cut, one * value) for cut, value in values.items())
    multipliers = [one] + [_ring_jet(Q, k) for Q, _ in pairs]
    for pattern in itertools.product(*((signs or {}).get(e.indices[0], (1, -1))
                                       for e in signed)):
        leaves.update((e, xs[e.indices[0]] * s)
                      for e, s in zip(signed, pattern))
        try:
            fractions = fold(trees, _RingFraction(one, leaves, squares))
        except _ZeroDenominator:
            return False
        num, den = _ring_jet(p, k), one
        for Q, (t_num, t_den) in zip(multipliers, fractions):
            num, den = _fraction_add(num, den, t_num * -1 * Q, t_den)
        if num.rem(squares):
            return False
    return True


class _ZeroDenominator(Exception):
    """The tree divides by an identically zero function."""


def _free_norms(exprs) -> set:
    """The Norm nodes of the trees outside every cutoff."""
    return set().union(*fold(exprs, _FreeNorms()))


class _FreeNorms:
    """Hooks of _free_norms: each node folds to its free Norm nodes."""

    def norm(self, e, visit): return frozenset((e,))
    def cutoff(self, e, visit): return frozenset()

    def add(self, e, visit):
        return frozenset().union(*map(visit, e.children()))

    const = coord = mul = pow = div = add


def _ring_jet(p: Jet, k):
    """p in the identity ring, after k generators r_j."""
    pad = (0,) * k
    return _collect((pad + alpha, Fraction(c, p.den))
                    for alpha, c in zip(p.sig.monomials, p.nums) if c)


def _fraction_add(a, b, c, d):
    """a/b + c/d as a (numerator, denominator) pair."""
    if b == d:
        return a + c, b
    return a * d + c * b, b * d


class _RingFraction:
    """Hooks of _identity_zero: each node folds to a (numerator,
    denominator) pair of _Poly, each Coord, Norm and Cutoff node to its
    value in `leaves`; a denominator is reduced before its zero test."""

    def __init__(self, one, leaves, squares):
        self.one, self.leaves, self.squares = one, leaves, squares

    def const(self, e, visit): return self.one * e.value, self.one
    def coord(self, e, visit): return self.leaves[e], self.one
    norm = cutoff = coord

    def add(self, e, visit):
        num, den = _Poly(), self.one
        for t in e.terms:
            num, den = _fraction_add(num, den, *visit(t))
        return num, den

    def mul(self, e, visit):
        num, den = self.one, self.one
        for f in e.factors:
            f_num, f_den = visit(f)
            num, den = num * f_num, den * f_den
        return num, den

    def pow(self, e, visit):
        num, den = visit(e.base)
        return num ** e.k, den ** e.k

    def div(self, e, visit):
        a, b = visit(e.num)
        c, d = visit(e.den)
        c = c.rem(self.squares)
        if not c:
            raise _ZeroDenominator
        return a * d, b * c


class _DefinedFraction(_RingFraction):
    """Hooks of _ring_table: _RingFraction, but a quotient by c/d keeps d
    as a factor of its denominator, (a d^2) / (b c d), so the fold's
    denominator is 0 wherever the tree divides by 0 or by an undefined
    subtree (x / (z / x) folds to x^3 / (z x), not x^2 / z)."""

    def div(self, e, visit):
        num, den = super().div(e, visit)
        d = visit(e.den)[1]
        return num * d, den * d


# ---------------------------------------------------------------------------
# Strong (directional) implication.
# ---------------------------------------------------------------------------

class ImplicationCertificate:
    """A claimed decomposition p = sum S_l Q_l + F with tameness
    constants, a direction scope, and optional annulus-scale data."""

    def __init__(self, ideal: JetIdeal, target: Jet, terms, F: ScalarExpr,
                 scope="global", annulus=None):
        self.ideal = ideal
        self.target = target
        self.terms = [(Q, S, float(C)) for Q, S, C in terms]
        if not all(math.isfinite(C) for _, _, C in self.terms):
            raise DomainError("need every tameness constant C finite")
        self.F = F
        self.scope = scope
        self.annulus = annulus

    def to_json(self):
        return {
            "ideal": {"m": self.ideal.sig.m, "n": self.ideal.sig.n,
                      "generators": [str(g) for g in self.ideal.generators]},
            "target": str(self.target),
            "terms": [{"Q": str(Q), "S": expr_str(S), "C": C}
                      for Q, S, C in self.terms],
            "F": expr_str(self.F),
            "scope": self.scope if self.scope == "global"
            else [list(w) for w in self.scope],
            **({"annulus": self.annulus} if self.annulus else {}),
        }


def check_strong_directional(cert: ImplicationCertificate, omega: Direction,
                             seed: int = 0) -> dict:
    """Verify strong implication in one direction.

    For a forbidden direction the decomposition F = p, S = 0 always
    works, so a forbidden-direction certificate alone yields a pass.
    For an allowed direction all three conditions are checked: F
    negligible near omega, each S_l tame below its stated constant, and
    the identity exactly zero symbolically.  A cutoff in F or an S_l
    makes the identity inconclusive, the cutoffs named in "uncertified".
    """
    return _strong_direction(
        cert, omega,
        lambda: symbolic_residual_zero(cert.target, cert.terms, cert.F),
        seed)


def _strong_direction(cert, omega, residual, seed):
    """The body of check_strong_directional; `residual()` gives the
    direction-independent identity check, called only where it is
    needed (after the negligibility and tameness checks)."""
    I = cert.ideal
    m, n = I.sig.m, I.sig.n
    report = {"omega": list(omega.vec)}
    for Q, _, _ in cert.terms:
        if not I.contains(Q):
            raise DomainError(f"certificate jet {Q} is not in the ideal")

    allowed = allow_overapprox(I)
    is_allowed = None
    if allowed.is_finite:
        is_allowed = any(math.dist(omega.vec, d.vec) <= 1e-9
                         for d in allowed.directions)
    if is_allowed is False and allowed.exact:
        fc = forbidden_certificate_search(
            I.basis_jets() or list(I.generators), omega)
        if fc is not None:
            report.update({
                "verdict": PASS, "trivial": True,
                "note": "forbidden direction: F = p, S = 0 always works",
                "forbidden_certificate": fc.to_json()})
            return report

    # the negligibility scope: directions of Allow(I) near omega
    local = [d for d in (allowed.directions if allowed.is_finite else ())
             if math.dist(d.vec, omega.vec) < STRONG_DELTA] \
        or [tuple(omega.vec)]

    neg = check_negligible(cert.F, local, m, n)
    report["negligibility"] = neg.to_json()

    tame_reports = []
    cone = Cone([Direction(w, normalize=True) for w in neg.omegas],
                STRONG_DELTA, 1.0)
    for idx, (Q, S, C) in enumerate(cert.terms):
        tr = check_tame(S, cone, m, n, seed=seed + idx, bound=C)
        tame_reports.append(tr.to_json())
    report["tameness"] = tame_reports

    residual_ok = residual()
    report["identity_residual_zero"] = residual_ok
    if residual_ok is None:
        report["uncertified"] = list(dict.fromkeys(
            expr_str(cut, n) for cut in
            collect_cutoffs([cert.F] + [S for _, S, _ in cert.terms])))

    verdict = meet(neg.verdict,
                   *(t["verdict"] for t in tame_reports),
                   _IDENTITY_VERDICT[residual_ok])
    report["verdict"] = verdict
    return report


def check_strong_global(cert: ImplicationCertificate,
                        seed: int = 0) -> dict:
    """Verify strong implication over every allowed direction.

    An empty allowed set passes vacuously.  Otherwise the certificate's
    scope must cover every allowed direction; a per-direction check runs
    for each, and the conclusions (membership in the closure, closedness
    of the ideal) are recorded from the verified facts.
    """
    I, p = cert.ideal, cert.target
    allowed = allow_overapprox(I)
    report = {"target": str(p)}
    if allowed.is_finite and not allowed.directions:
        report.update({
            "verdict": PASS, "vacuous": True,
            "note": "no allowed directions: every jet is implied and the "
                    "closure is the whole maximal ideal"})
        return report
    if not allowed.is_finite:
        report.update({"verdict": INCONCLUSIVE,
                       "note": "allowed set not resolved to a finite list"})
        return report

    if cert.scope == "global":
        scope = [d.vec for d in allowed.directions]
    else:
        scope = [tuple(float(c) for c in w) for w in cert.scope]
        for d in allowed.directions:
            if not any(math.dist(d.vec, w) <= 1e-9 for w in scope):
                raise DomainError(
                    f"uncovered allowed direction {d.vec}")

    # the identity does not depend on the direction: check it once, when
    # the first direction gets that far
    residual = functools.cache(
        lambda: symbolic_residual_zero(p, cert.terms, cert.F))
    sub = [_strong_direction(cert, Direction(w, normalize=True), residual,
                             seed)
           for w in scope]
    report["directions"] = sub
    verdict = meet(*(r["verdict"] for r in sub))
    report["verdict"] = verdict
    if verdict == PASS:
        conclusions = ["target is implied by the ideal: p lies in cl(I)"]
        if not I.contains(p):
            conclusions.append("p is not in I itself, so I is not closed")
        report["conclusions"] = conclusions
    return report


# ---------------------------------------------------------------------------
# Annulus-scale conditions C / C* / C**.
# ---------------------------------------------------------------------------

def expr_scale_coords(e: ScalarExpr, rho) -> ScalarExpr:
    """e(rho * x) as an expression (rho an exact positive Fraction).

    No check in this package calls it: check_annulus_condition decides
    every variant on the unscaled trees.  It is kept as the reference
    for the rescaled functions Ftilde and Stilde_l of C* and C**."""
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("need rho > 0")
    return fold((e,), _Rescale(rho))[0]


class _Rescale:
    """Hooks of expr_scale_coords: each node at rho * x."""

    def __init__(self, rho):
        self.rho = Const(rho)

    def const(self, e, visit): return e
    def coord(self, e, visit): return mul(self.rho, e)
    def add(self, e, visit): return add(*map(visit, e.terms))
    def mul(self, e, visit): return mul(*map(visit, e.factors))
    def pow(self, e, visit): return ipow(visit(e.base), e.k)
    def div(self, e, visit): return div(visit(e.num), visit(e.den))
    norm = coord

    def cutoff(self, e, visit):
        return Cutoff(e.spec, visit(e.arg), e.scale, e.order)


def chi_expr(n: int) -> ScalarExpr:
    """Radial bump: 1 on 1/2 < |x| < 2, 0 outside 1/4 < |x| < 4."""
    full = Norm(range(n))
    outer = Cutoff(DEFAULT_CUTOFF, full, Fraction(1, 2))
    inner = Cutoff(DEFAULT_CUTOFF, div(Const(1), full), Fraction(1, 2))
    return mul(outer, inner)


def _chi_points(rng, n):
    """800 points on 0.26 <= |x| <= 3.9: 20 random directions at each of
    40 geometric radii, drawn as one numpy batch (_unit_rows), so they
    equal the points of 800 successive one-direction draws."""
    radii = np.repeat(np.geomspace(0.26, 3.9, 40), 20)
    return radii[:, None] * _unit_rows(rng, len(radii), n)


@functools.lru_cache(maxsize=KERNELS)
def measure_chi_constant(m: int, n: int, seed: int = 0) -> float:
    """C_hat = 2^m * max(1, measured C^m norm of the chi bump).

    Each derivative is measured on its own 800 random points
    (_chi_points), one batch after another from one generator.  The
    constant depends on (m, n, seed) alone, so it is kept for the
    process, as the derivative tables are (KERNELS)."""
    chi = chi_expr(n)
    rng = np.random.default_rng(seed)
    top = 1.0
    for alpha in monomials(m, n):
        vals, _ = compile_expr(expr_derive(chi, alpha))(_chi_points(rng, n))
        _, measured = _first_max(np.abs(vals))
        top = max(top, measured)
    return 2.0 ** m * top


@functools.lru_cache(maxsize=KERNELS)
def _ring_table(F, m, n):
    """F's derivatives of order <= m as exact quotients of polynomials:
    (D, {alpha: (P_alpha, k_alpha)}) with d^alpha F = P_alpha /
    D^k_alpha, D the denominator of F's fold by _DefinedFraction; None
    where F holds a norm or a cutoff, or its fold divides by zero.  D
    vanishes wherever a divisor of the tree does or is undefined, so
    where D(u) != 0 the fold of every derived tree (expr_derive) has a
    denominator that is not 0 at u either: its divisors are F's, or
    their squares.  Each row comes from one of order one less by the
    quotient rule d_i(P / D^k) = (d_i P D - k P d_i D) / D^(k + 1), or
    d_i P / D^k where D is free of x_i.  Tables are kept for the
    process, as the derivative tables are (KERNELS)."""
    if collect_cutoffs([F]) or _free_norms([F]):
        return None
    one = _Poly({(0,) * n: Fraction(1)})
    leaves = {Coord(i): _Poly({tuple(int(i == j) for j in range(n)):
                               Fraction(1)}) for i in range(n)}
    try:
        num, den = fold((F,), _DefinedFraction(one, leaves, []))[0]
    except _ZeroDenominator:
        return None
    grads = [den.diff(i) for i in range(n)]
    nums = {(0,) * n: (num, 1)}
    for alpha in monomials(m, n)[1:]:
        i = max(j for j, a in enumerate(alpha) if a)
        p, k = nums[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]
        nums[alpha] = ((p.diff(i) * den + p * grads[i] * -k, k + 1)
                       if grads[i] else (p.diff(i), k))
    return den, nums


@functools.lru_cache(maxsize=KERNELS)
def _derivative_table(exprs, m, n):
    """Every nonzero derivative of order <= m of the trees (a tuple),
    tree by tree in monomial order: the (row, alpha) of each, and the
    derivatives.  Tables are kept for the process, as their kernels
    are (KERNELS)."""
    index, trees = [], []
    for row, G in enumerate(exprs):
        for alpha in monomials(m, n):
            d = expr_derive(G, alpha)
            if d != ZERO:
                index.append((row, alpha))
                trees.append(d)
    return tuple(index), tuple(trees)


def _row_maxima(rows, index, limits, columns):
    """Per row, from one (values, ok) column per (row, alpha) of index
    and its bound: the sup of |value| / bound, the first (alpha, sample,
    |value|, bound) in sampling order that reaches it (None when no
    sample is above 0), and the count of samples where some column of
    the row is not ok."""
    out = []
    for row in range(rows):
        picks = [k for k, (r, _) in enumerate(index) if r == row]
        if not picks:
            out.append((0.0, None, 0))
            continue
        vals = np.array([columns[k][0] for k in picks])
        bounds = np.array([limits[k] for k in picks])
        # alpha-major order: the first maximum is the first in sampling order
        j, ratio = _first_max((np.abs(vals) / bounds[:, None]).ravel())
        at = None
        if ratio > 0.0:
            t, j = divmod(j, vals.shape[1])
            at = (index[picks[t]][1], j, abs(float(vals[t, j])),
                  limits[picks[t]])
        undefined = ~np.array([columns[k][1] for k in picks]).all(axis=0)
        out.append((max(ratio, 0.0), at, int(undefined.sum())))
    return out


def _sampled_bound_check(named_exprs, points, m, n, bound_fn):
    """_row_maxima of |d^alpha G| / bound_fn(name, alpha) over the
    samples, an (N, n) array of points, one row per (name, G): the
    derivative table of all rows runs on one compiled kernel."""
    index, trees = _derivative_table(tuple(G for _, G in named_exprs), m, n)
    limits = [bound_fn(named_exprs[row][0], alpha) for row, alpha in index]
    return _row_maxima(len(named_exprs), index, limits,
                       compile_exprs(trees)(points))


def _leibniz_columns(chi, scaled, points, rho, m, n):
    """d^alpha H at the samples (an (N, n) array) for H(x) =
    chi(x) c G(rho x), one row per (c, G) of scaled with c and rho exact:
    the (row, alpha) index and one (values, ok) column per entry.

    By Leibniz and the chain rule d^alpha H(x) is the sum over
    beta <= alpha of binom(alpha, beta) c rho^|alpha-beta|
    d^beta chi(x) (d^(alpha-beta) G)(rho x).  chi's table runs at the
    points and the tables of the G at rho times the points, so no table
    depends on c or rho.  The terms run in monomial order of beta, each
    as (coefficient * chi value) * G value with the coefficient rounded
    once from its exact value, summed from 0.0.  A term with a zero
    factor tree is left out, and a sample is ok where both factors of
    every term are; an alpha with no term has no column."""
    chi_index, chi_trees = _derivative_table((chi,), m, n)
    chi_cols = dict(zip((beta for _, beta in chi_index),
                        compile_exprs(chi_trees)(points)))
    g_index, g_trees = _derivative_table(tuple(G for _, G in scaled), m, n)
    g_cols = dict(zip(g_index, compile_exprs(g_trees)(float(rho) * points)))
    index, columns = [], []
    for row, (c, _) in enumerate(scaled):
        for alpha in monomials(m, n):
            acc, ok, terms = 0.0, True, 0
            for beta in monomials(sum(alpha), n):
                rest = tuple(a - b for a, b in zip(alpha, beta))
                if (min(rest) < 0 or beta not in chi_cols
                        or (row, rest) not in g_cols):
                    continue
                coef = float(math.prod(map(math.comb, alpha, beta)) * c
                             * rho ** sum(rest))
                (d_chi, chi_ok), (d_g, g_ok) = chi_cols[beta], g_cols[row, rest]
                acc = acc + coef * d_chi * d_g
                ok = ok & chi_ok & g_ok
                terms += 1
            if terms:
                index.append((row, alpha))
                columns.append((acc, ok))
    return index, columns


def _leibniz_bound_check(chi, scaled, points, rho, m, n, limit):
    """_row_maxima of |d^alpha H| / limit over the samples, H and its
    derivatives as in _leibniz_columns."""
    index, columns = _leibniz_columns(chi, scaled, points, rho, m, n)
    return _row_maxima(len(scaled), index, [limit] * len(index), columns)


def _bound_rows(names, maxima, points, unit=False):
    """Report rows and verdict of the rows' maxima, witness points
    taken from points.

    A sampled value above its bound is a true function value, hence a
    genuine witness: verdict fail.  Otherwise pass with the measured
    margins (sampling cannot disprove the sup, so the bounds themselves
    are reported for scrutiny).  A row counts as "skipped" the samples
    where some derivative of its function does not evaluate; the key
    appears only when there are any.  unit: the rows are of functions
    rescaled to the bound 1, so a witness's value is its ratio."""
    rows = []
    verdict = PASS
    for name, (ratio, at, skipped) in zip(names, maxima):
        witness = None
        if ratio > 1.0 + 1e-9:
            alpha, j, value, limit = at
            if unit:
                value, limit = ratio, 1.0
            witness = {"alpha": list(alpha), "point": points[j].tolist(),
                       "value": value, "bound": limit}
            verdict = FAIL
        row = {"name": name, "max_ratio": ratio, "witness": witness}
        if skipped:
            row["skipped"] = skipped
        rows.append(row)
    return verdict, rows


def check_annulus_condition(variant: str, params: dict, p: Jet, Q_list,
                            F: ScalarExpr, S_list, omegas,
                            seed: int = 0) -> dict:
    """Verify one of the three annulus-scale formulations.

    variant "C":  |d^a F| <= eps rho^(m-|a|) and |d^a S_l| <= A rho^(-|a|)
                  on Ann_4(rho); identity p = F + sum S_l Q_l on
                  Ann_2(rho) near Omega.
    variant "C*": the rescaled functions Ftilde = eps^-1 rho^-m F(rho x),
                  Stilde_l = A^-1 S_l(rho x) obey |d^a| <= 1 on
                  1/4 < |x| < 4; identity p(rho x) = eps rho^m Ftilde +
                  sum A Stilde_l Q_l(rho x) on 1/2 < |x| < 2 near Omega.
    variant "C**": F* = chi Ftilde, S*_l = A chi Stilde_l obey global
                  bounds <= A_target; same identity (chi = 1 there).

    A, eps, delta, r and a given A_target must be finite and positive,
    and 0 < rho <= r; otherwise DomainError.  These values come from
    certificate files, and a negative A or eps would turn every bound
    row into a pass.

    Bounds are checked on a deterministic cutoff-aware sample set (a
    violation is a genuine witness); the identity is decided exactly,
    once per direction of Omega: each cutoff is certified constant on
    that direction's region, on either plateau of theta, and the
    residual with those values is tested for zero in a polynomial ring
    (_scaled_identity).  A cutoff that may lie in its band there makes
    the identity inconclusive; no point is sampled to decide it.

    Every variant's bound rows come from the derivative tables of F and
    the S_l, kept for the process with their compiled kernels, so no
    draw of rho, eps or A derives or compiles a table again.  C's rows
    hold d^a F and d^a S_l at the points rho u of the unit samples u.
    By the chain rule d^a Ftilde(u) = (d^a F)(rho u) / (eps rho^(m-|a|))
    and d^a Stilde_l(u) = (d^a S_l)(rho u) / (A rho^-|a|): each C* ratio
    to the bound 1 is C's ratio at rho u.  So C* runs C's row check and
    reports its rows under its own names, equal to C's bit for bit; a
    witness is reported at its unit sample u, with the ratio as its
    value.  C** sums d^a F* and d^a S*_l by Leibniz from chi's table at
    the samples (wider ones, where chi kills everything outside
    1/4 < |x| < 4) and those of F and the S_l at rho times the samples
    (_leibniz_bound_check).

    All three variants decide one identity, C's, on C's trees
    (_scaled_identity).  The identities of C* and C** are C's under the
    substitution x -> rho x: with rho > 0 rational it is a ring
    automorphism that sends a Norm to rho times it, keeps each cutoff's
    certified value and keeps every identically zero denominator, and it
    maps 1/2 < |x| < 2 near Omega onto C's region rho/2 < |y| < 2 rho
    near Omega.  The scales eps rho^m and A cancel against those of
    Ftilde and Stilde_l, and chi is 1 on the region.
    """
    m, n = p.sig.m, p.sig.n
    for key in ("A", "eps", "delta", "r", "A_target"):
        if key in params and not 0 < float(params[key]) < math.inf:
            raise DomainError(f"need {key} finite and > 0")
    A = float(params["A"])
    eps = float(params["eps"])
    delta = float(params["delta"])
    r = float(params["r"])
    rho = float(params["rho"])
    if not 0 < rho <= r:
        raise DomainError("need 0 < rho <= r")
    if variant not in ("C", "C*", "C**"):
        raise DomainError(f"unknown variant {variant!r}")
    omegas = [tuple(float(c) for c in w) for w in omegas]
    rng = np.random.default_rng(seed)

    scales = _cutoff_feature_scales([F] + list(S_list))
    rel_scales = [(lo / rho, hi / rho) for lo, hi in scales]
    unit_pts = _unit_annulus_samples(n, 4.0, omegas, rel_scales, rng)
    named = [("F", F)] + [(f"S{i+1}", S) for i, S in enumerate(S_list)]

    report = {"variant": variant, "params": dict(params)}
    extra = {}

    if variant != "C**":
        def bound(name, alpha):
            if name == "F":
                return eps * rho ** (m - sum(alpha))
            return A * rho ** (-sum(alpha))

        pts = rho * unit_pts
        maxima = _sampled_bound_check(named, pts, m, n, bound)
    if variant == "C":
        verdict_b, rows = _bound_rows([name for name, _ in named], maxima,
                                      pts)
    elif variant == "C*":
        verdict_b, rows = _bound_rows(
            [name[0] + "tilde" + name[1:] for name, _ in named], maxima,
            unit_pts, unit=True)
    else:
        chi_constant = measure_chi_constant(m, n, seed=seed)
        A_target = float(params.get("A_target",
                                    chi_constant * A + chi_constant))
        # global bound: sample a wider radial range, where chi kills
        # everything outside 1/4 < |x| < 4; Fstar = chi f_scale F(rho x)
        # and S*_l = chi S_l(rho x), as A cancels exactly
        rho_frac = Fraction(rho)
        f_scale = 1 / (Fraction(eps) * rho_frac ** m)
        wide = np.concatenate([unit_pts, 3.8 * unit_pts[:200]])
        maxima = _leibniz_bound_check(
            chi_expr(n), [(f_scale, F)] + [(Fraction(1), S) for S in S_list],
            wide, rho_frac, m, n, A_target)
        verdict_b, rows = _bound_rows(
            [name[0] + "star" + name[1:] for name, _ in named], maxima, wide)
        extra = {"chi_constant": chi_constant, "A_target": A_target}
    identity = _scaled_identity(p, Q_list, F, S_list, omegas, delta, rho, n)
    report.update({"bounds": rows, **extra, "identity": identity})
    report["verdict"] = meet(verdict_b, _IDENTITY_VERDICT[identity["zero"]])
    return report


def _scaled_identity(p, Q_list, F, S_list, omegas, delta, rho, n):
    """The identity record of p = F + sum S_l Q_l on rho/2 < |x| < 2 rho
    near Omega, the one identity of every annulus variant.  It is decided
    exactly (_identity_zero) once per direction of Omega, with each
    cutoff at its value certified over that direction's region box
    (regions._cutoff_values) and each |x_i| read with the signs x_i takes
    on the region (regions._region_signs); equal (values, signs) keys
    share one decision.  zero is False if some direction decides False,
    else None if some direction has a cutoff that may lie in its band
    (named in "uncertified"), else True.
    """
    trees = [F] + list(S_list)
    norms = _free_norms(trees)
    signed = sorted({e.indices[0] for e in norms if len(e.indices) == 1})
    s_range = (Fraction(rho) / 2, 2 * Fraction(rho))
    pairs = list(zip(Q_list, S_list))
    identity = {"method": "plateau-certified symbolic", "zero": True}
    decided, uncertified = {}, {}
    for w, box in zip(omegas, _region_boxes(omegas, delta, *s_range)):
        values = _cutoff_values(trees, box, s_range, n)
        if values is None:
            uncertified.update(
                (expr_str(cut, n), None) for cut in collect_cutoffs(trees)
                if _cutoff_values([cut], box, s_range, n) is None)
            continue
        signs = _region_signs(w, delta, signed)
        key = (tuple(values.items()), tuple(signs.items()))
        if key not in decided:
            decided[key] = _identity_zero(p, pairs, F, values, signs)
        if not decided[key]:
            identity["zero"] = False
            return identity
    if uncertified:
        identity.update(zero=None, uncertified=list(uncertified))
    return identity
