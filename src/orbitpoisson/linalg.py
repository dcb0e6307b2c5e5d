"""Exact sparse linear algebra over the rationals and the Gaussian rationals.

Input rows are sparse maps column -> entry; columns may be ints or tuples
(one kind per matrix).  An entry is one of
- an int;
- a Fraction;
- a GaussianRational;
- an ``(re, im)`` pair of ints, the Gaussian integer ``re + im*i``.
Each row is converted once, on entry, to Gaussian-integer numerators over
one positive denominator in lowest terms: ``(D, re, im)`` with ``re`` and
``im`` sparse maps column -> nonzero int, the entry at a column being
``(re + im*i) / D``.  A row of ints and pairs is read as it is, over D = 1;
a row with a Fraction or a GaussianRational is brought to the lcm of its
denominators.  Real data leaves every ``im`` empty, so it does no
Gaussian work.  Clearing column c of a row r with the pivot row p of c is
the integer-preserving step of Bareiss (Math. Comp. 22, 1968),
``r <- D_p * r - r[c] * p``, followed by division by the gcd of the
denominator and every numerator.  Values are made only at the boundary, by
``reduce`` and ``kernel_basis``: an entry is a Fraction when its imaginary
part is 0 and a GaussianRational otherwise.

Pivot sets are kept fully reduced: every pivot row is 1 at its pivot column
(its smallest one), and that column is eliminated from every other pivot
row, so a row is reduced in a single pass and kernel extraction reads
coefficients straight off the pivot rows.  A new row is reduced against the
existing pivots before it is added, so only its own pivot column can appear
elsewhere; it is scaled to a leading 1 by the conjugate of its leading
entry, and adding it scans the existing pivot rows once and clears that
column from each with the same step.  No reverse column index is kept.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussianRational, _gq


class Echelon:
    """Incremental fully-reduced echelon form of a set of sparse rows."""

    def __init__(self, rows=()):
        # pivot column -> (D, re, im) with the leading 1 at re[column] == D
        self.pivot_rows: dict = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Reduce a row against the pivots; a new dict of values."""
        return _values(*self._reduce(*_numerators(row)))

    def _reduce(self, d: int, re: dict, im: dict) -> tuple:
        # one pass clears every pivot column of the row at once: clearing one
        # leaves the others, which no pivot row contains, unchanged
        pivots = self.pivot_rows
        hits = [(c, pivots[c]) for c in (re.keys() | im.keys() if im else re) if c in pivots]
        return _eliminate(d, re, im, hits)

    def add(self, row: dict):
        """Reduce and, if independent, register a new pivot.

        Returns the pivot column, or None when the row was dependent."""
        _, re, im = self._reduce(*_numerators(row))
        if not re and not im:
            return None
        c = min(re.keys() | im.keys() if im else re)
        zr, zi = re.get(c, 0), im.get(c, 0)
        # (re + im*i) / D divided by its leading z / D is
        # (re + im*i) * conj(z) / |z|^2
        new = _lowest(zr * zr + zi * zi, *_times(re, im, zr, -zi))
        pivots = self.pivot_rows
        for p, (pd, pre, pim) in pivots.items():
            if c in pre or c in pim:
                pivots[p] = _eliminate(pd, pre, pim, [(c, new)])
        pivots[c] = new
        return c


def _numerators(row: dict) -> tuple[int, dict, dict]:
    """The row as (D, re, im) in lowest terms, zero entries dropped.  A row
    of ints and (re, im) pairs is already numerators over D = 1."""
    re, im, values = {}, {}, {}
    for c, v in row.items():
        if type(v) is tuple:
            if v[0]:
                re[c] = v[0]
            if v[1]:
                im[c] = v[1]
        elif type(v) is int:
            if v:
                re[c] = v
        elif v:
            values[c] = v
    if not values:
        return 1, re, im
    parts = []  # (imaginary, column, numerator, denominator)
    for c, v in values.items():
        if isinstance(v, GaussianRational):
            if v.re:
                parts.append((False, c, *v.re.as_integer_ratio()))
            if v.im:
                parts.append((True, c, *v.im.as_integer_ratio()))
        else:
            parts.append((False, c, *v.as_integer_ratio()))
    d = lcm(*(q for *_, q in parts))
    # with D the lcm of the denominators, no prime divides D and every numerator
    if d != 1:
        re = {c: n * d for c, n in re.items()}
        im = {c: n * d for c, n in im.items()}
    for imaginary, c, n, q in parts:
        (im if imaginary else re)[c] = n * (d // q)
    return d, re, im


def _axpy(target: dict, f: int, source: dict) -> None:
    """target += f * source in place, f nonzero, dropping the entries that
    cancel."""
    for c, v in source.items():
        x = target.get(c, 0) + f * v
        if x:
            target[c] = x
        else:
            del target[c]


def _times(re: dict, im: dict, fr: int, fi: int) -> tuple[dict, dict]:
    """Numerators of (re + im*i) * (fr + fi*i), new maps."""
    out_re = {c: fr * v for c, v in re.items()} if fr else {}
    out_im = {c: fr * v for c, v in im.items()} if fr else {}
    if fi:
        _axpy(out_re, -fi, im)
        _axpy(out_im, fi, re)
    return out_re, out_im


def _eliminate(d: int, re: dict, im: dict, hits: list) -> tuple:
    """Clear from the row (d, re, im) the columns c of ``hits``, pairs
    (c, pivot row of c); each pivot row is 1 at its c and 0 at the others'.
    With L the lcm of their denominators D_p the numerators become
    L * row - sum of row[c] * (L / D_p) * p over d * L, in lowest terms; with
    one pivot this is D_p * row - row[c] * p.  L and the multipliers row[c] *
    (L / D_p) are first divided by their gcd, which often leaves L = 1 and
    the row unscaled.  Returns the new (d, re, im), which may reuse re, im."""
    big = lcm(*(p[0] for _, p in hits))
    coeffs = [(re.get(c, 0) * (big // p[0]), im.get(c, 0) * (big // p[0]), p) for c, p in hits]
    g = gcd(big, *(f for fr, fi, _ in coeffs for f in (fr, fi)))
    if g != 1:
        big //= g
        coeffs = [(fr // g, fi // g, p) for fr, fi, p in coeffs]
    if big != 1:
        re = {k: v * big for k, v in re.items()}
        im = {k: v * big for k, v in im.items()}
    for fr, fi, (_, pre, pim) in coeffs:
        if fr:
            _axpy(re, -fr, pre)
            if pim:
                _axpy(im, -fr, pim)
        if fi:
            _axpy(im, -fi, pre)
            if pim:
                _axpy(re, fi, pim)
    return _lowest(d * big, re, im)


def _lowest(d: int, re: dict, im: dict) -> tuple:
    """(d, re, im) divided by the gcd of d and every numerator."""
    g = gcd(d, *re.values(), *im.values())
    if g == 1:
        return d, re, im
    return d // g, {k: v // g for k, v in re.items()}, {k: v // g for k, v in im.items()}


def _value(d: int, re: int, im: int):
    """The entry (re + im*i) / d: a Fraction when im is 0."""
    if im:
        return _gq(Fraction(re, d), Fraction(im, d))
    return Fraction(re, d)


def _values(d: int, re: dict, im: dict) -> dict:
    return {c: _value(d, re.get(c, 0), im.get(c, 0))
            for c in (re.keys() | im.keys() if im else re)}


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
        for p, (d, re, im) in pivots.items():
            if free in re or free in im:
                vec[p] = _value(d, -re.get(free, 0), -im.get(free, 0))
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
            row[(1, pos)] = 1
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
