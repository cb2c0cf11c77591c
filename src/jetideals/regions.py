"""The dome Gamma(Omega, delta) on the sphere and the regions built on
it.  `Dome.meets` is the package's one test of a sphere patch against a
dome, and the forbidden-cone search in `directions` is its one caller.
`_region_boxes` encloses a radial range times a ball around each
direction in one interval box.  The annulus identity reads each
cutoff's constant value, on either plateau, over such a box
(`_cutoff_values`) and the signs each coordinate takes there
(`_region_signs`); the negligibility check bounds each derivative over
the boxes at radius 1 (`_dome_sup`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .interval import Interval
from .symfun import Const, Div, Norm, collect_cutoffs, compile_interval


class Dome:
    """The patches of a sphere cover that may meet the union of
    delta-balls around a finite direction set: a superset, which is the
    sound side.  `roots` are the cover patches kept.  The forbidden-cone
    search builds one per search and tests its split cells by `meets`."""

    __slots__ = ("omegas", "delta", "roots")

    def __init__(self, cover, omegas, delta):
        self.omegas = tuple(tuple(w) for w in omegas)
        self.delta = delta
        self.roots = tuple(p for p in cover if self.meets(p))

    def meets(self, patch) -> bool:
        """Whether the patch may meet the dome: the float distance from
        its direction enclosure to some omega is below delta.  The
        distance to the box underestimates that of every direction of
        the patch, so a patch that holds a dome direction meets it."""
        enc = patch.direction_enclosure()
        for w in self.omegas:
            d2 = 0.0
            for iv, wc in zip(enc, w):
                if wc < iv.lo:
                    d2 += (iv.lo - wc) ** 2
                elif wc > iv.hi:
                    d2 += (wc - iv.hi) ** 2
            if math.sqrt(d2) < self.delta:
                return True
        return False


# ---------------------------------------------------------------------------
# Radial ranges times the dome: the annulus identity and, at s = 1, the
# negligibility sups.
# ---------------------------------------------------------------------------

def _region_boxes(omegas, delta, s_lo, s_hi):
    """One interval box per direction w, enclosing the region
    {s*u : s in [s_lo, s_hi], |u| = 1, |u - w| < delta}: each u_i lies
    within delta of w_i, as |u_i - w_i| <= |u - w|."""
    s_iv = Interval(s_lo, s_hi)
    spread = Interval(-delta, delta)
    return [[s_iv * (c + spread) for c in w] for w in omegas]


def _dome_sup(expr, boxes):
    """Certified upper bound of |expr| over the boxes, one interval
    enclosure each; inf where a box has no enclosure (a DomainError)."""
    enclose = compile_interval(expr)
    top = 0.0
    for box in boxes:
        try:
            top = max(top, abs(enclose(box)).hi)
        except DomainError:
            return math.inf
    return top


def _region_signs(w, delta, indices):
    """{i: signs} for each i in indices: the signs x_i takes on the
    region {s*u : s > 0, |u| = 1, |u - w| < delta}, (sign of w_i,) where
    every point has it, else (1, -1).  Decided in exact Fractions of the
    float w and delta: the region's u form the cap u.w > c, with
    c = (1 + |w|^2 - delta^2)/2, and u_i keeps w_i's sign over the cap
    iff c > 0 and w_i^2 + c^2 > |w|^2 (the cap's angular radius plus the
    angle from w to the x_i axis is below pi/2)."""
    if not indices:
        return {}
    w = [Fraction(c) for c in w]
    norm2 = sum(c * c for c in w)
    c = (1 + norm2 - Fraction(delta) ** 2) / 2
    return {i: ((1 if w[i] > 0 else -1),)
            if w[i] and c > 0 and w[i] ** 2 + c ** 2 > norm2 else (1, -1)
            for i in indices}


def _cutoff_values(exprs, box, s_range, n):
    """{cutoff node: value} for every cutoff theta^(k)(g / scale) of the
    trees over one direction's region box, or None when some cutoff may
    lie in its band.  Exact comparisons certify the 1-plateau (value 1,
    0 for a derivative) where g <= a*scale and the 0-plateau (0) where
    g >= b*scale.  A full-vector norm g, or c/norm with c > 0, is read
    from the radial range s_range = (s_lo, s_hi): its box enclosure is
    wider and would put in the band a plateau the region only touches.
    """
    full, (s_lo, s_hi) = tuple(range(n)), map(Fraction, s_range)
    values = {}
    for cut in collect_cutoffs(exprs):
        arg = cut.arg
        if isinstance(arg, Norm) and arg.indices == full:
            lo, hi = s_lo, s_hi
        elif (isinstance(arg, Div)
                and isinstance(arg.num, Const) and arg.num.value > 0
                and isinstance(arg.den, Norm) and arg.den.indices == full):
            lo, hi = arg.num.value / s_hi, arg.num.value / s_lo
        else:
            try:
                enc = compile_interval(arg)(box)
            except DomainError:
                return None
            lo, hi = enc.lo, enc.hi
        # float and Fraction compare exactly, infinities included
        if hi <= cut.spec.a * cut.scale:
            values[cut] = int(cut.order == 0)
        elif lo >= cut.spec.b * cut.scale:
            values[cut] = 0
        else:
            return None
    return values
