"""Exact sparse linear algebra over Fraction or GaussianRational entries.

Rows are sparse maps column -> coefficient; columns may be ints or tuples
(one kind per matrix).  Pivot sets are kept fully reduced: every pivot column
is eliminated from every other pivot row, so reducing a row is a single pass
and kernel extraction reads coefficients straight off the pivot rows.  A new
row is reduced against the existing pivots before it is added, so only its
own pivot column can appear elsewhere; adding it scans the existing pivot
rows once and clears that column from each.  No reverse column index is kept.
"""

from __future__ import annotations

from fractions import Fraction


class Echelon:
    """Incremental fully-reduced echelon form of a set of sparse rows."""

    def __init__(self, rows=()):
        self.pivot_rows: dict = {}  # pivot column -> row dict with leading 1
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Reduce a row against the pivots (new dict; single pass suffices
        because pivot rows contain no other pivot columns)."""
        r = {c: v for c, v in row.items() if v}
        for c in [c for c in r if c in self.pivot_rows]:
            _subtract(r, r[c], self.pivot_rows[c])
        return r

    def add(self, row: dict):
        """Reduce and, if independent, register a new pivot.

        Returns the pivot column, or None when the row was dependent."""
        r = self.reduce(row)
        if not r:
            return None
        c = min(r)
        # not 1 / r[c]: on an int that is a float
        inv = Fraction(1) / r[c]
        r = {cc: vv * inv for cc, vv in r.items()}
        for prow in self.pivot_rows.values():
            if c in prow:
                _subtract(prow, prow[c], r)
        self.pivot_rows[c] = r
        return c


def _subtract(target: dict, f, row: dict) -> None:
    """target -= f * row in place, dropping the entries that cancel."""
    for c, v in row.items():
        nv = target.get(c, 0) - f * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def rank_of(rows) -> int:
    return Echelon(rows).rank


def kernel_basis(rows, ncols: int) -> list[dict]:
    """Basis of the right kernel of the matrix with the given sparse rows over
    integer columns 0..ncols-1."""
    pivots = Echelon(rows).pivot_rows
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for p, prow in pivots.items():
            v = prow.get(free)
            if v:
                vec[p] = -v
        out.append(vec)
    return out


class SpanSolver:
    """Express vectors in the span of a fixed independent list of sparse
    vectors (columns may be arbitrary mutually comparable keys).

    Vector ``pos`` enters the echelon form as the row with columns
    ``(0, key)`` augmented by ``(1, pos) -> 1``; the augmented columns sort
    after every vector column, so a pivot that lands on one marks a dependent
    vector, and a reduced vector carries minus its coordinates there."""

    def __init__(self, vectors):
        self._ech = Echelon()
        for pos, vec in enumerate(vectors):
            row = _tagged(vec)
            row[(1, pos)] = Fraction(1)
            if self._ech.add(row)[0] == 1:
                raise ValueError(f"basis vector {pos} depends on earlier ones")

    def express(self, vector) -> dict:
        """Sparse coordinates {position: nonzero coefficient} in the span, by
        increasing position; raises ValueError outside the span."""
        r = self._ech.reduce(_tagged(vector))
        if any(c[0] == 0 for c in r):
            raise ValueError("vector is not in the span")
        return {c[1]: -v for c, v in sorted(r.items())}

    def contains(self, vector) -> bool:
        return all(c[0] == 1 for c in self._ech.reduce(_tagged(vector)))


def _tagged(vector) -> dict:
    return {(0, c): v for c, v in vector.items()}
