"""Directions on the sphere, cones, annuli, sphere covers, and a
tangent-direction estimator for sampled point sets.

The sphere S^{n-1} is parametrized by central projection from the faces
of the cube [-1,1]^n: a face point v (one coordinate frozen at +-1) maps
to v/|v|.  Boxes in face charts map to well-behaved patches with easy
interval enclosures, and there are no pole singularities.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

from .errors import DimensionMismatchError, DomainError, JetIdealsError
from .interval import Interval, box_norm

_NORM_TOL = 1e-12
# The narrowest cone opening: a direction drawn around w (w + t v,
# normalized) can land outside a dome narrower than about 2e-15.
DELTA_FLOOR = 1e-14


class Direction:
    """A unit vector in R^n (norm within 1e-12 of 1)."""

    __slots__ = ("vec",)

    def __init__(self, vec, normalize=False):
        vec = tuple(float(c) for c in vec)
        norm = math.sqrt(sum(c * c for c in vec))
        if normalize:
            if norm == 0:
                raise DomainError("cannot normalize the zero vector")
            vec = tuple(c / norm for c in vec)
        elif abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"vector has norm {norm}, not 1")
        self.vec = vec

    @property
    def n(self) -> int:
        return len(self.vec)

    def dist(self, other: "Direction") -> float:
        return math.dist(self.vec, other.vec)

    def __eq__(self, other):
        return isinstance(other, Direction) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return f"Direction({self.vec})"

    def __iter__(self):
        return iter(self.vec)


def direction_of(x) -> Direction:
    """x/|x| for a nonzero point."""
    return Direction(x, normalize=True)


class Cone:
    """Gamma(Omega, delta, r): points x with 0 < |x| < r whose direction
    lies within delta of the direction set Omega."""

    __slots__ = ("omega_set", "delta", "r")

    def __init__(self, omega_set, delta, r):
        if not (DELTA_FLOOR <= delta < math.inf and 0 < r < math.inf):
            raise ValueError(f"need delta >= {DELTA_FLOOR} and r > 0, both finite")
        if isinstance(omega_set, Direction):
            omega_set = [omega_set]
        self.omega_set = tuple(omega_set)
        self.delta = float(delta)
        self.r = float(r)

    def contains(self, x) -> bool:
        norm = math.sqrt(sum(float(c) ** 2 for c in x))
        if norm == 0 or norm >= self.r:
            return False
        return dome_membership(x, self.omega_set, self.delta)

    def __repr__(self):
        return f"Cone(|Omega|={len(self.omega_set)}, delta={self.delta}, r={self.r})"


class Annulus:
    """Ann_K(r): points x with r/K < |x| < K*r."""

    __slots__ = ("K", "r")

    def __init__(self, K, r):
        if K < 1 or r <= 0:
            raise ValueError("need K >= 1 and r > 0")
        self.K = float(K)
        self.r = float(r)

    @property
    def inner(self) -> float:
        return self.r / self.K

    @property
    def outer(self) -> float:
        return self.r * self.K

    def contains(self, x) -> bool:
        norm = math.sqrt(sum(float(c) ** 2 for c in x))
        return self.inner < norm < self.outer

    def __repr__(self):
        return f"Annulus(K={self.K}, r={self.r})"


def dome_membership(x, omega_set, delta) -> bool:
    """True iff dist(x/|x|, Omega) < delta.  Always False for empty Omega."""
    norm = math.sqrt(sum(float(c) ** 2 for c in x))
    if norm == 0:
        raise DomainError("zero vector has no direction")
    omega_set = tuple(omega_set)
    if not omega_set:
        return False
    u = [float(c) / norm for c in x]
    return min(math.dist(u, tuple(w)) for w in omega_set) < delta


# ---------------------------------------------------------------------------
# Sphere covers.
# ---------------------------------------------------------------------------

class SpherePatch:
    """Image under central projection of a box on one cube face.

    The face is coordinate `axis` frozen at `sign` (+1/-1); `box` is a
    tuple of (lo, hi) pairs for the remaining n-1 coordinates, each
    within [-1, 1].  A patch computes its direction enclosure once and
    keeps it, and keeps its subdivide() halves in `halves` (None until
    then).
    """

    __slots__ = ("n", "axis", "sign", "box", "_enc", "halves")

    def __init__(self, n, axis, sign, box):
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != n - 1:
            raise DimensionMismatchError("box must have n-1 coordinate ranges")
        self.n = n
        self.axis = axis
        self.sign = sign
        self.box = box
        self._enc = None
        self.halves = None

    def __repr__(self):
        return f"SpherePatch(axis={self.axis}, sign={self.sign:+d}, box={self.box})"

    def face_intervals(self):
        """The patch as an interval box in ambient coordinates (pre-projection)."""
        out = []
        it = iter(self.box)
        for i in range(self.n):
            if i == self.axis:
                out.append(Interval(float(self.sign), float(self.sign)))
            else:
                lo, hi = next(it)
                out.append(Interval(lo, hi))
        return out

    def direction_enclosure(self):
        """Interval box (a tuple) guaranteed to contain u = v/|v| for all
        face points v."""
        if self._enc is None:
            face = self.face_intervals()
            norm = box_norm(face)
            self._enc = tuple(c / norm for c in face)
        return self._enc

    def subdivide(self):
        """Split the longest box axis in half; returns two patches.  The
        patch keeps them (`halves`), so every later call returns the
        same two, with the direction enclosures they keep."""
        if self.halves is None:
            self.halves = self.split()
        return self.halves

    def split(self):
        """subdivide's two patches, made afresh and not kept."""
        widths = [hi - lo for lo, hi in self.box]
        j = widths.index(max(widths))
        lo, hi = self.box[j]
        mid = 0.5 * (lo + hi)
        left = list(self.box)
        right = list(self.box)
        left[j] = (lo, mid)
        right[j] = (mid, hi)
        return (SpherePatch(self.n, self.axis, self.sign, left),
                SpherePatch(self.n, self.axis, self.sign, right))

    def subdivide_all(self):
        """Split every box axis in half; returns 2^(n-1) patches."""
        halves = []
        for lo, hi in self.box:
            mid = 0.5 * (lo + hi)
            halves.append([(lo, mid), (mid, hi)])
        return tuple(SpherePatch(self.n, self.axis, self.sign, combo)
                     for combo in itertools.product(*halves))


def sphere_cover(n: int, depth: int = 0):
    """Cover of S^{n-1} by cube-face patches, each face split depth times.

    2n faces, each subdivided into 2^(depth*(n-1)) boxes: n=2 depth 0
    gives 4 patches, n=3 depth 1 gives 24.
    """
    if n not in (2, 3, 4):
        raise DomainError(f"sphere_cover supports n in {{2,3,4}}, got {n}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    patches = []
    full = tuple((-1.0, 1.0) for _ in range(n - 1))
    for axis in range(n):
        for sign in (1, -1):
            patches.append(SpherePatch(n, axis, sign, full))
    for _ in range(depth):
        patches = [sub for p in patches for sub in p.subdivide_all()]
    return patches


# ---------------------------------------------------------------------------
# Tangent-direction estimation from samples.
# ---------------------------------------------------------------------------

def estimate_tangent_directions(points, delta_out, start_scale=None):
    """Directions toward which the sampled set keeps accumulating.

    Points are binned into dyadic shells |x| in (2^{-k-1}, 2^{-k}].  A
    candidate direction survives if every nonempty shell at or below the
    start scale contributes a point whose direction is within delta_out.
    Candidates are the directions of the innermost-shell points, thinned
    to a delta_out-net.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    pts = [p for p in pts if any(c != 0 for c in p)]
    if not pts:
        raise DomainError("no nonzero sample points")

    shells = {}
    for p in pts:
        norm = math.sqrt(sum(c * c for c in p))
        k = max(0, math.floor(-math.log2(norm)))
        shells.setdefault(k, []).append(direction_of(p))

    ks = sorted(shells)
    if start_scale is None:
        # skip the outermost quarter of scales: tangency is about x -> 0
        start = ks[len(ks) // 4] if len(ks) > 3 else ks[0]
    else:
        start = start_scale
    active = [k for k in ks if k >= start]
    if not active:
        raise DomainError("no shells at or below the start scale")

    innermost = max(active)
    candidates = shells[innermost]
    survivors = []
    for omega in candidates:
        if all(any(omega.dist(u) < delta_out for u in shells[k])
               for k in active):
            survivors.append(omega)

    # thin to a delta_out-net
    net = []
    for omega in survivors:
        if all(omega.dist(w) >= delta_out for w in net):
            net.append(omega)
    return net


def read_point_cloud(text):
    """Parse CSV point data: one point per line, rational or decimal."""
    points = []
    for row in csv.reader(io.StringIO(text)):
        if not row or all(not cell.strip() for cell in row):
            continue
        point = []
        for cell in row:
            cell = cell.strip()
            try:
                point.append(float(Fraction(cell) if "/" in cell else cell))
            except (ValueError, ZeroDivisionError):
                raise JetIdealsError(
                    f"point cloud cell {cell!r} is not a number") from None
        points.append(tuple(point))
    if points and len({len(p) for p in points}) != 1:
        raise DimensionMismatchError("points have inconsistent dimension")
    return points
