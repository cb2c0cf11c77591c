"""Exact linear algebra over the rationals.

Inputs are rows of anything `Fraction` accepts (ints, Fractions,
floats); a row of ints, such as a jet's numerators, is taken as it is.
Elimination runs on integer rows: each row's denominators are cleared
once, and rows are combined fraction-free as a*row - b*pivot_row and
kept primitive by their gcd.  A subspace is held only as its reduced
row echelon rows, each scaled to its unique primitive integer multiple
with a positive pivot, which makes equality and membership testing
canonical; a row over its pivot entry is the RREF basis row, and the
jet that `ideal` wraps around it is already in canonical form.
Dimensions stay small (a few hundred at most), so plain dense
elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row):
    """A primitive integer row spanning the same line as `row`, a
    positive multiple of it."""
    if not isinstance(row, (list, tuple)):
        row = list(row)
    if not all(type(a) is int for a in row):
        row = [a if isinstance(a, (int, Fraction)) else Fraction(a)
               for a in row]
        den = lcm(*(a.denominator for a in row))
        row = [a.numerator * (den // a.denominator) for a in row]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else list(row)


def _reduce(row, pivot_row, col):
    """row with its entry in col eliminated by pivot_row, kept primitive."""
    a, p = row[col], pivot_row[col]
    g = gcd(a, p)
    a, p = a // g, p // g
    out = [p * x - a * y for x, y in zip(row, pivot_row)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Each row is a tuple of ints: the primitive integer multiple of its
    RREF row with a positive entry in its pivot column.
    """
    rows = [_integer_row(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = _reduce(rows[r], pivot_row, col)
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    # every row is primitive already; only the sign of its pivot is free
    return [tuple(row) if row[col] > 0 else tuple(-a for a in row)
            for row, col in zip(rows, pivots)], pivots


class Subspace:
    """A linear subspace of Q^d in canonical form: `rows` as `rref`
    returns them, with their pivot columns."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        vectors = [v if isinstance(v, (list, tuple)) else list(v)
                   for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        self.rows, self.pivots = rref(vectors)

    @classmethod
    def _reduced(cls, ambient_dim, rows, pivots):
        """A subspace from rows already in `rref`'s form, with their
        pivots."""
        space = cls.__new__(cls)
        space.ambient_dim = ambient_dim
        space.rows, space.pivots = rows, pivots
        return space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim} in Q^{self.ambient_dim})"

    def contains(self, vector) -> bool:
        """Membership test by reduction against the RREF rows."""
        v = _integer_row(vector)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                v = _reduce(v, row, piv)
        return not any(v)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace(self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus without the [u|u] block: each row w of other is
        reduced by these rows to left = k*w - (a vector u of this span),
        which gives the row [left | left - k*w] = [left | -u].  The rows
        whose left half rref makes zero hold the intersection in their
        right halves.  The [u|u] rows pivot where every left is zero,
        so they would never change those rows."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        d = self.ambient_dim
        mixed = []
        for w in other.rows:
            left, k = w, 1
            for row, piv in zip(self.rows, self.pivots):
                a = left[piv]
                if a:
                    p = row[piv]
                    g = gcd(a, p)
                    a, p = a // g, p // g
                    left = [p * x - a * y for x, y in zip(left, row)]
                    k *= p
            mixed.append([*left, *(x - k * y for x, y in zip(left, w))])
        reduced, pivots = rref(mixed)
        # the rows pivoting in the right half come last; their left
        # halves are zero, so their right halves are in rref's form
        k = sum(p < d for p in pivots)
        return Subspace._reduced(d, [row[d:] for row in reduced[k:]],
                                 [p - d for p in pivots[k:]])

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.rows)
