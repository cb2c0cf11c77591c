"""Allowed and forbidden directions of jet ideals.

Allowed directions of an ideal are over-approximated by the common zero
set on the sphere of the lowest homogeneous parts of the generators; the
containment is an equality when every generator is homogeneous.  Every
exact direction is an `algebraic.Ray`, whose float coordinates are
correctly rounded and at which `exact_zero_residual` decides a jet's
sign over QQ.  In the plane the zero set is the real roots of the gcd
over QQ of the dehomogenized parts.  In higher dimensions a part
c*u_i^k forces u_i = 0 and a linear part is made a coordinate and
forced, so the system is reduced exactly, and what is left in two
variables goes to the plane solver.  Two or more nonlinear parts in
three free variables are solved by resultants over QQ
(`_space_zero_set`).  A set that is not finite, or that neither solver
settles, falls back to an interval-certified patch cover.

Forbidden-direction certificates assert sum_l |Q_l(x)| > c|x|^m on a
cone.  Writing x = s*u with u on the sphere and pulling the homogeneous
scaling out of each Q_l reduces this to positivity of a polynomial in
(s, u) on a compact set, which branch-and-bound interval evaluation can
settle; the polynomial is compiled once per search.  The search walks
one cell at a time, depth first, over a sphere-cover tree kept across
searches, and splits only what the sum reads: the radius s only when
some monomial has positive s-degree, and a patch only into halves that
may meet the dome (see certify_lower_bound).  The allowed-set patch
cover encloses sum |p_i| with the same compiled evaluator.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from . import algebraic
from .algebraic import Ray, Root
from .errors import DomainError
from .geometry import sphere_cover
from .ideal import JetIdeal
from .interval import Interval
from .jetring import (MORE_THAN_M, DiffeoJet, Jet, RingSignature,
                      jet_compose)
from .regions import Dome

CERTIFIED_FORBIDDEN = "certified_forbidden"
CANDIDATE_ALLOWED = "candidate_allowed"


class ExactDirection:
    """A direction with float coordinates and, when available, exact
    data `sym`: the `algebraic.Ray` whose unit vector it is."""

    __slots__ = ("vec", "sym")

    def __init__(self, vec, sym=None):
        self.vec = tuple(float(c) for c in vec)
        self.sym = sym

    def __repr__(self):
        return f"ExactDirection({self.vec})"


class DirectionSet:
    """Certified description of a closed subset of the sphere.

    Either a finite list of directions (exact=True means the list is
    provably the whole set) or a list of (SpherePatch, status, bound)
    triples where status is certified_forbidden or candidate_allowed.
    """

    __slots__ = ("n", "exact", "directions", "patches")

    def __init__(self, n, exact, directions=None, patches=None):
        if (directions is None) == (patches is None):
            raise ValueError("need exactly one of directions / patches")
        self.n = n
        self.exact = bool(exact)
        # tuples: an ideal shares its allowed set with every caller
        self.directions = tuple(directions) if directions is not None else None
        self.patches = tuple(patches) if patches is not None else None

    @property
    def is_finite(self) -> bool:
        return self.directions is not None

    def is_empty(self) -> bool:
        if self.is_finite:
            return not self.directions
        return all(status == CERTIFIED_FORBIDDEN for _, status, _ in self.patches)

    def candidate_patches(self):
        if self.is_finite:
            raise DomainError("direction set is finite, not a patch cover")
        return [p for p, status, _ in self.patches if status == CANDIDATE_ALLOWED]

    def to_json(self):
        if self.is_finite:
            return {"exact": self.exact,
                    "directions": [list(d.vec) for d in self.directions]}
        return {"exact": self.exact,
                "patches": [{"axis": p.axis, "sign": p.sign,
                             "box": [list(b) for b in p.box],
                             "status": status,
                             "lower_bound": bound}
                            for p, status, bound in self.patches]}

    def __repr__(self):
        if self.is_finite:
            return f"DirectionSet(n={self.n}, exact={self.exact}, {len(self.directions)} directions)"
        cand = len(self.candidate_patches())
        return f"DirectionSet(n={self.n}, patches={len(self.patches)}, candidates={cand})"


def _lowest_parts(I: JetIdeal):
    parts = []
    for g in I.generators:
        if g.is_zero():
            continue
        parts.append(g.lowest_homogeneous_part())
    if not parts:
        raise DomainError("zero ideal has no direction data")
    return parts


def _is_homogeneous(p: Jet) -> bool:
    return p.is_zero() or p.degree() == p.order_of_vanishing()


# ---------------------------------------------------------------------------
# Allowed directions.
# ---------------------------------------------------------------------------

def allow_overapprox(I: JetIdeal, budget: int = 8) -> DirectionSet:
    """Common zero set on the sphere of the generators' lowest parts.

    The result contains every allowed direction; the `exact` flag is set
    when all generators are homogeneous, in which case it equals the
    allowed set.  It is computed once per ideal instance and budget
    (kept on the instance) and shared by later calls.
    """
    found = I._allowed.get(budget)
    if found is None:
        found = I._allowed[budget] = _allowed_set(I, budget)
    return found


def _allowed_set(I: JetIdeal, budget: int) -> DirectionSet:
    parts = _lowest_parts(I)
    exact = all(_is_homogeneous(g) for g in I.generators)
    if I.sig.n == 2:
        dirs = _plane_zero_set(parts)
        return DirectionSet(2, exact, directions=dirs)
    dirs = _exact_zero_set(parts, I.sig.n)
    if dirs is not None:
        return DirectionSet(I.sig.n, exact, directions=dirs)
    patches = _patch_zero_cover(parts, I.sig.n, budget)
    return DirectionSet(I.sig.n, False, patches=patches)


def _plane_zero_set(parts):
    """Exact common roots on S^1 via dehomogenization p(1, t).

    The common roots of the p_i(1, t) are the real roots of their gcd
    over QQ (`algebraic.real_roots`); each root t gives the rays (1, t)
    and (-1, -t), and (0, +-1) are tested apart.
    """
    dirs = []
    # vertical directions: all parts vanish at (0, 1) (and by homogeneity
    # symmetry at (0, -1)); p(0, 1) sums the coefficients free of x,
    # whose numerators sum to 0 with it
    if all(sum(c for a, c in zip(p.sig.monomials, p.nums) if a[0] == 0) == 0
           for p in parts):
        for s in (1, -1):
            ray = Ray(Root.rational(0), ((), (Fraction(s),)))
            dirs.append(ExactDirection(ray.unit(), ray))
    common = functools.reduce(algebraic.gcd, map(_at_x_one, parts))
    for root in algebraic.real_roots(common):
        ray = Ray(root, ((Fraction(1),), (Fraction(0), Fraction(1))))
        vec = ray.unit()
        dirs.append(ExactDirection(vec, ray))
        # the negated floats, so a zero coordinate reads -0.0
        dirs.append(ExactDirection(tuple(-c for c in vec), ray.negated()))
    return dirs


def _at_x_one(p: Jet):
    """p(1, t) as a polynomial over QQ, read off the jet's numerators."""
    nums = [0] * (p.sig.m + 1)
    for (_, j), c in zip(p.sig.monomials, p.nums):
        nums[j] += c
    return algebraic.trim([Fraction(c, p.den) for c in nums])


def _exact_zero_set(parts, n):
    """Exact common zeros on S^{n-1} of homogeneous parts, sorted by
    `vec`; None when the set is not finite or not tractable.

    A part c*u_i^k forces u_i = 0 and a linear part is made a coordinate
    and so forced, so the system is first reduced exactly
    (`_reduce_forced`).  At most two free variables leave a plane
    problem or nothing; with three or more, one part is a hypersurface
    (finite on the sphere only if empty), two or more parts in three
    free variables go to `_space_zero_set`, and four or more free
    variables are left to the patch cover.
    """
    free, system, basis = _reduce_forced(parts, n)
    if not free:
        return []
    if len(free) == 1:
        if system:
            return []
        rays = [Ray(Root.rational(0), [(Fraction(s),)]) for s in (-1, 1)]
    elif not system:
        return None  # a great circle or larger: no finite list
    elif len(free) == 2:
        rays = _plane_rays(system, *free)
    elif len(system) == 1:
        # one hypersurface meets the sphere in a positive-dimensional
        # complex set; only c*|w|^(2j) misses it altogether
        return [] if _is_sphere_power(system[0], free) else None
    else:
        rays = _space_zero_set(system, free) if len(free) == 3 else None
        if rays is None:
            return None
    dirs = []
    for ray in rays:
        lifted = Ray(ray.root, _lift(basis, free, ray.coords))
        dirs.append(ExactDirection(lifted.unit(), lifted))
    return sorted(dirs, key=lambda d: d.vec)


def _forced_zero(p: Jet):
    """i if p is c*u_i^k, a monomial in one variable; otherwise None."""
    if len(p.coeffs) == 1:
        (alpha,) = p.coeffs
        used = [i for i, a in enumerate(alpha) if a]
        if len(used) == 1:
            return used[0]
    return None


def _reduce_forced(parts, n):
    """(free variables, remaining parts, basis) once every forced
    w_i = 0 is substituted: each part loses the terms that contain a
    forced variable, and parts that become zero drop out.

    A linear part a.w with two or more terms is made the coordinate w_j
    of its first variable by the rational change w = A w' (row j of A
    solves a.w = w'_j for w_j, the other rows keep their variable), and
    is then forced.  The original variables are u = basis w in the
    final coordinates w; basis is the product of the changes made.
    """
    free, system = list(range(n)), list(parts)
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    while True:
        forced = {i for i in map(_forced_zero, system) if i is not None}
        if forced:
            free = [i for i in free if i not in forced]
            system = [Jet(p.sig, {a: c for a, c in p.coeffs.items()
                                  if not any(a[i] for i in forced)})
                      for p in system]
            system = [p for p in system if not p.is_zero()]
            continue
        linear = next((p for p in system if p.degree() == 1), None)
        if linear is None:
            return free, system, basis
        a = [linear.coeffs.get(tuple(int(i == k) for i in range(n)), 0)
             for k in range(n)]
        j = next(k for k, c in enumerate(a) if c)
        change = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
        change[j] = [(int(k == j) - (a[k] if k != j else 0)) / a[j]
                     for k in range(n)]
        phi = DiffeoJet.linear(linear.sig, change)
        system = [jet_compose(p, phi) for p in system]
        basis = [[sum(row[i] * change[i][k] for i in range(n))
                  for k in range(n)] for row in basis]


def _lift(basis, free, coords):
    """The coordinates u = basis w of the point w with the given
    coordinates on the free variables and zeros elsewhere."""
    out = []
    for row in basis:
        total = ()
        for k, c in zip(free, coords):
            total = algebraic.add(total, algebraic.scale(c, row[k]))
        out.append(total)
    return out


def _plane_rays(system, i, j):
    """Rays in (u_i, u_j) of the common zeros of the parts' terms in
    u_i and u_j alone; None if no such term is left (a great circle)."""
    sig = RingSignature(system[0].sig.m, 2)
    plane = [Jet(sig, {(a[i], a[j]): c for a, c in p.coeffs.items()
                       if a[i] + a[j] == sum(a)}) for p in system]
    plane = [p for p in plane if not p.is_zero()]
    return [d.sym for d in _plane_zero_set(plane)] if plane else None


_SHEARS = 4  # seeded shears tried before a system goes to the patch cover


def _space_zero_set(system, free):
    """Rays in the free variables (a, b, c) of the common zeros of two
    or more parts; None if no seeded shear settles them.

    Under a seeded lower unitriangular shear w = A w', the zeros with
    c = 0 are the plane problem of the terms free of c.  On the chart
    c = 1, two seeded combinations g1, g2 of the parts, of degree 2 or
    more in a with constant leading coefficients, have resultant R(b)
    and first subresultant s1(b) a + s0(b) in a.  Each zero lies over a
    real root of R; where s1 does not vanish, g1 and g2 have the one
    common root a = -s0/s1 there, the ray (-s0, b s1, s1), kept if every
    part vanishes at it.  Any other case (a root where s1 vanishes may
    hold more zeros) goes to the next shear.
    """
    sig = system[0].sig
    a, b, c = free
    for seed in range(_SHEARS):
        rng = random.Random(seed)
        change = [[Fraction(int(i == k)) for k in range(sig.n)]
                  for i in range(sig.n)]
        for i, k in itertools.combinations(free, 2):
            change[k][i] = Fraction(rng.randint(-9, 9))
        phi = DiffeoJet.linear(sig, change)
        parts = [jet_compose(p, phi) for p in system]
        rays = _plane_rays(parts, a, b)
        g1, g2 = (_chart(parts, [rng.randint(1, 9) for _ in parts], a, b)
                  for _ in range(2))
        if rays is None or any(len(g) < 3 or len(g[-1]) > 1
                               for g in (g1, g2)):
            continue
        (resultant,) = _minors(_sylvester(g1, g2, 0))
        if not resultant:
            continue
        s1, s0 = _minors(_sylvester(g1, g2, 1))
        for root in algebraic.real_roots(resultant):
            if not root.sign(s1):
                break
            ray = Ray(root, (algebraic.scale(s0, -1), (0,) + s1, s1))
            if not any(ray.sign_of(((e[a], e[b], e[c]), v)
                                   for e, v in p.coeffs.items())
                       for p in parts):
                rays += [ray, ray.negated()]
        else:
            # a plane ray's two coordinates lift with c = 0
            shear = [change[i] for i in free]
            return [Ray(r.root, _lift(shear, free, r.coords)) for r in rays]
    return None


def _chart(parts, weights, a, b):
    """sum_k weights[k] parts[k](a, b, 1) as its coefficients of 1, a,
    a^2, ..., each a polynomial in b."""
    m = parts[0].sig.m
    grid = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for p, w in zip(parts, weights):
        for e, v in p.coeffs.items():
            grid[e[a]][e[b]] += w * v
    return algebraic.trim(map(algebraic.trim, grid))


def _sylvester(f, g, k):
    """The rows a^i f (i < deg g - k) and a^i g (i < deg f - k) over
    a^(deg f + deg g - k - 1), ..., a, 1, whose `_minors` are the
    coefficients of the k-th subresultant of f and g in a."""
    width = len(f) + len(g) - 2 - k
    return [[p[e - i] if 0 <= e - i < len(p) else ()
             for e in reversed(range(width))]
            for p, q in ((f, g), (g, f)) for i in range(len(q) - 1 - k)]


def _minors(rows):
    """The determinants, up to one sign, of a k x (k + j) matrix over
    QQ[b] on its first k - 1 columns and each one of the others, by
    fraction-free (Bareiss) elimination; all () if the first k - 1
    columns have rank below k - 1."""
    rows, prev, k = [list(r) for r in rows], (Fraction(1),), len(rows)
    for i in range(k - 1):
        pivot = next((r for r in range(i, k) if rows[r][i]), None)
        if pivot is None:
            return [()] * (len(rows[0]) - k + 1)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for r in range(i + 1, k):
            rows[r] = [algebraic.quo_rem(algebraic.add(algebraic.mul(
                rows[i][i], x), algebraic.scale(algebraic.mul(rows[r][i], y),
                                                -1)), prev)[0]
                       for x, y in zip(rows[r], rows[i])]
        prev = rows[i][i]
    return rows[-1][k - 1:]


def _is_sphere_power(p: Jet, free) -> bool:
    """True if p = c * (sum of u_i^2 over the free variables)^j."""
    k = p.degree()
    if k % 2:
        return False
    n = p.sig.n
    square = Jet(p.sig, {tuple(2 * (j == i) for j in range(n)): 1
                         for i in free})
    power = Jet.constant(p.sig, 1)
    for _ in range(k // 2):
        power = power * square
    return p == power.scale(p.coeffs.get(next(iter(power.coeffs)), 0))


def _patch_zero_cover(parts, n, budget):
    """Patch cover with interval positivity certificates for sum |p_i|,
    the p_i homogeneous, enclosed by the compiled evaluator with no s."""
    compiled = _compile_scaled(parts)
    work = [(p, 0) for p in sphere_cover(n, 0)]
    out = []
    while work:
        patch, depth = work.pop()
        lower = _eval_scaled(compiled, None, patch.direction_enclosure()).lo
        if lower > 0.0:
            out.append((patch, CERTIFIED_FORBIDDEN, lower))
        elif depth < budget:
            work.extend((q, depth + 1) for q in patch.subdivide_all())
        else:
            out.append((patch, CANDIDATE_ALLOWED, None))
    return out


def exact_zero_residual(direction: ExactDirection, p: Jet) -> int:
    """The sign (-1, 0 or 1) of p at an exact direction, decided over QQ
    by `Ray.sign_of`: 0 iff p vanishes there.

    Used to confirm zero residual for reported allowed directions.
    """
    if direction.sym is None:
        raise DomainError("direction carries no exact data")
    # the numerators are p times its positive denominator
    return direction.sym.sign_of(zip(p.sig.monomials, p.nums))


# ---------------------------------------------------------------------------
# Forbidden-direction certificates.
# ---------------------------------------------------------------------------

class ForbiddenCertificate:
    """Record of an interval-verified bound sum |Q_l(x)| > c|x|^m on the
    cone of opening delta around omega (omega None = whole sphere)."""

    __slots__ = ("jets", "omega", "c", "delta", "r", "bound", "depth")

    def __init__(self, jets, omega, c, delta, r, bound, depth):
        self.jets = tuple(jets)
        self.omega = omega
        self.c = float(c)
        self.delta = float(delta)
        self.r = float(r)
        self.bound = float(bound)
        self.depth = int(depth)

    def to_json(self):
        return {"Q": [str(q) for q in self.jets],
                "omega": list(self.omega.vec) if self.omega else None,
                "c": self.c, "delta": self.delta, "r": self.r,
                "interval_lower_bound": self.bound,
                "max_depth": self.depth}

    def __repr__(self):
        where = f"omega={self.omega.vec}" if self.omega else "whole sphere"
        return f"ForbiddenCertificate({where}, c={self.c}, bound={self.bound})"


def _compile_scaled(jets):
    """sum_l |Q_l(s u)| / s^{k_l}, compiled once per search; k_l is the
    order of Q_l, and no Q_l may be zero.

    Q_l(s u) / s^{k_l} = sum_alpha c_alpha s^{|alpha| - k_l} u^alpha, so
    each monomial becomes (c_alpha as an Interval, its s-degree
    |alpha| - k_l, its factors (i, alpha_i) with alpha_i > 0).  Also
    returned: the distinct factors, whose powers u_i^a a cell computes
    once, and the top s-degree, 0 when the sum never reads s.
    """
    polys = []
    for q in jets:
        k = q.order_of_vanishing()
        polys.append(tuple(
            (Interval.exact(Fraction(c, q.den)), sum(alpha) - k,
             tuple((i, a) for i, a in enumerate(alpha) if a))
            for alpha, c in zip(q.sig.monomials, q.nums) if c))
    factors = sorted({f for poly in polys for _, _, fs in poly for f in fs})
    top = max(d for poly in polys for _, d, _ in poly)
    return polys, factors, top


_ONE = Interval(1.0, 1.0)
_ZERO = Interval(0.0, 0.0)


def _eval_scaled(compiled, s, u):
    """Enclosure of sum_l |Q_l(s u)/s^{k_l}| for s >= 0 on one cell: s
    an Interval, u the patch's direction enclosure.  A monomial of
    s-degree 0 takes its coefficient as it is, so s is read only when
    the top s-degree is positive (it may be None otherwise)."""
    polys, factors, top = compiled
    s_pows = [_ONE, s]
    for _ in range(top - 1):
        s_pows.append(s_pows[-1] * s)
    u_pows = {f: u[f[0]].ipow(f[1]) for f in factors}
    total = _ZERO
    for poly in polys:
        term = _ZERO
        for c, d, monomial in poly:
            mono = c * s_pows[d] if d else c
            for f in monomial:
                mono = mono * u_pows[f]
            term = term + mono
        total = total + abs(term)
    return total


# The sphere-cover tree of the walks, one per n, kept across searches:
# a patch keeps its subdivide() halves and its direction enclosure, so
# later searches reuse the patches and enclosures of earlier ones.  A
# walk keeps new halves while the tree holds fewer than
# DOME_TREE_PATCHES patches and makes the rest afresh without keeping
# them; a full tree is replaced before the next walk.
DOME_TREE_PATCHES = 65536
_trees = {}


def _patch_tree(n):
    """[roots, patches held] of the kept tree of S^{n-1}."""
    tree = _trees.get(n)
    if tree is None or tree[1] >= DOME_TREE_PATCHES:
        roots = sphere_cover(n, 0)
        tree = _trees[n] = [roots, len(roots)]
    return tree


def certify_lower_bound(jets, omega, delta, budget, n, target: float = 0.0):
    """Certified lower bound above `target` for sum |Q_l(s u)| / s^m over
    the dome around omega, s in [0, 1]; returns (bound, depth) or
    (None, depth) when some cell cannot be pushed past the target.

    Since each Q_l has order 1 <= k_l <= m, s^{k_l} >= s^m for s <= 1
    and the scaled sum dominates; a positive infimum of the scaled sum
    therefore gives the cone inequality for every 0 < |x| < 1.

    A cell is a sphere patch (face axis, sign and box) times an s
    interval, walked one at a time, depth first, over the kept patch
    tree (_patch_tree), whose patches keep their direction enclosures.
    A cell whose enclosure stays at or below the target is split in
    two at a midpoint: s when the sum reads s and its width is the
    largest, else the first longest box axis (SpherePatch.subdivide).
    A sum with no monomial of positive s-degree never reads s, so its
    cells keep s = [0, 1] and only their patches split.  A half that
    misses the dome (Dome.meets) is dropped at the split, and a cell
    still uncertified at depth `budget` fails the search.
    """
    for q in jets:
        k = q.order_of_vanishing()
        if k == MORE_THAN_M or k < 1:
            raise DomainError("certificate jets must have order >= 1")
    compiled = _compile_scaled(jets)
    reads_s = compiled[2] > 0
    tree = _patch_tree(n)
    roots = tree[0]
    dome = None if omega is None else Dome(roots, [omega.vec], delta)
    unit = Interval(0.0, 1.0)
    work = [(p, unit, 0) for p in (roots if dome is None else dome.roots)]
    best = math.inf
    max_depth = 0
    while work:
        patch, s, depth = work.pop()
        if depth > max_depth:
            max_depth = depth
        lower = _eval_scaled(compiled, s, patch.direction_enclosure()).lo
        if lower > target:
            if lower < best:
                best = lower
            continue
        if depth >= budget:
            return None, max_depth
        depth += 1
        if reads_s and all(s.hi - s.lo >= hi - lo for lo, hi in patch.box):
            a, b = s.split()
            work.append((patch, a, depth))
            work.append((patch, b, depth))
            continue
        halves = patch.halves
        if halves is None:
            if tree[1] < DOME_TREE_PATCHES:
                tree[1] += 2
                halves = patch.subdivide()
            else:
                halves = patch.split()
        for half in halves:
            if dome is None or dome.meets(half):
                work.append((half, s, depth))
    if not math.isfinite(best):
        return None, max_depth
    return best, max_depth


def forbidden_certificate_search(jets, omega, budget: int = 12,
                                 delta: float = 1.0):
    """Search for a forbidden-direction certificate around omega.

    Returns a ForbiddenCertificate on success and None when the budget
    runs out (inconclusive, not a disproof).  omega=None certifies the
    whole sphere at once.
    """
    jets = list(jets)
    if not jets:
        raise DomainError("need at least one jet")
    n = jets[0].sig.n
    bound, depth = certify_lower_bound(jets, omega, delta, budget, n)
    if bound is None:
        return None
    # report a strict constant slightly below the proven infimum
    c = bound * (1.0 - 2.0 ** -20)
    return ForbiddenCertificate(jets, omega, c, delta, 1.0, bound, depth)


def verify_forbidden_certificate(jets, c, omega=None, delta: float = 1.0,
                                 budget: int = 12):
    """Check a claimed constant: proves sum |Q_l(x)| > c|x|^m on the cone.

    Returns (verdict, bound, depth) with verdict in {"pass",
    "inconclusive"}; interval methods cannot refute the claim.
    """
    jets = list(jets)
    n = jets[0].sig.n
    bound, depth = certify_lower_bound(jets, omega, delta, budget, n, target=c)
    if bound is not None and bound > c:
        return "pass", bound, depth
    return "inconclusive", bound, depth
