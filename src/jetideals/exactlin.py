"""Exact linear algebra over the rationals.

Inputs are rows of anything `Fraction` accepts (ints, Fractions,
floats).  Elimination runs on integer rows: each row's denominators
are cleared once, rows are combined fraction-free as a*row - b*pivot_row
and kept primitive by their gcd, and the pivots are divided out only at
the end.  Subspaces are stored as reduced row echelon bases of
Fractions, which makes equality and membership testing canonical.
Dimensions stay small (a few hundred at most), so plain dense
elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_row(row):
    """A primitive integer row spanning the same line as `row`."""
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

    The rows are tuples of Fraction, each with a 1 in its pivot column.
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
    basis = []
    for row, col in zip(rows, pivots):
        p = row[col]
        basis.append(tuple(Fraction(a, p) if a else _ZERO for a in row))
    return basis, pivots


class Subspace:
    """A linear subspace of Q^d in canonical (RREF basis) form.

    `_rows` holds the basis as primitive integer rows (each a positive
    multiple of its RREF row), filled on first use by contains or
    intersect.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_rows")

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        vectors = [v if isinstance(v, (list, tuple)) else list(v)
                   for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        self.basis, self.pivots = rref(vectors)
        self._rows = None

    @classmethod
    def _reduced(cls, ambient_dim, basis, pivots):
        """A subspace from a basis already in RREF, with its pivots."""
        space = cls.__new__(cls)
        space.ambient_dim = ambient_dim
        space.basis, space.pivots = basis, pivots
        space._rows = None
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.basis)))

    def __repr__(self):
        return f"Subspace(dim={self.dim} in Q^{self.ambient_dim})"

    def _integer_basis(self):
        if self._rows is None:
            self._rows = [_integer_row(r) for r in self.basis]
        return self._rows

    def contains(self, vector) -> bool:
        """Membership test by reduction against the RREF basis."""
        v = _integer_row(vector)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        for row, piv in zip(self._integer_basis(), self.pivots):
            if v[piv]:
                v = _reduce(v, row, piv)
        return not any(v)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row-reduce [[u|u],[w|0]]; intersection basis shows
        up in the right half of rows whose left half is zero."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        d = self.ambient_dim
        zero = [0] * d
        block = ([u + u for u in self._integer_basis()]
                 + [w + zero for w in other._integer_basis()])
        reduced, pivots = rref(block)
        # the rows pivoting in the right half come last; their left
        # halves are zero and their right halves are already in RREF
        k = sum(p < d for p in pivots)
        return Subspace._reduced(d, [row[d:] for row in reduced[k:]],
                                 [p - d for p in pivots[k:]])

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other._integer_basis())
