"""Exact Gaussian-rational scalars and their string grammar.

Every coefficient in this package is a Gaussian rational ``a + b*i`` with
``a``, ``b`` Python ``Fraction``s, so all computations are exact.  The string
grammar accepted by :func:`parse_scalar` is

    scalar  :=  term | term ('+'|'-') term
    term    :=  rational | rational '*'? 'i' | 'i'
    rational:=  ['+'|'-'] digits ['/' digits]

with at most one real and one imaginary term.  :func:`format_scalar` emits a
canonical form (``"3"``, ``"-1/2"``, ``"2*i"``, ``"1/2-3/4*i"``) that
round-trips losslessly.
"""

from __future__ import annotations

import re
from fractions import Fraction


class GaussianRational:
    """Immutable exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im:
                raise TypeError("real part is already a GaussianRational")
            self.re = re.re
            self.im = re.im
            return
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.im or other.im:
            return _gq(self.re + other.re, self.im + other.im)
        return _gq(self.re + other.re, _F0)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.im or other.im:
            return _gq(self.re - other.re, self.im - other.im)
        return _gq(self.re - other.re, _F0)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _gq(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.im or other.im:
            return _gq(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return _gq(self.re * other.re, _F0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __neg__(self):
        return _gq(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def reciprocal(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gq(self.re / n, -self.im / n)

    def conjugate(self) -> "GaussianRational":
        return _gq(self.re, -self.im)

    # -- predicates & protocol ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _gq(re: Fraction, im: Fraction) -> GaussianRational:
    z = GaussianRational.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


def _coerce(x) -> GaussianRational | None:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _gq(Fraction(x), _F0)
    return None


_F0 = Fraction(0)
_F1 = Fraction(1)

ONE = _gq(_F1, _F0)


def as_scalar(x) -> GaussianRational:
    """Coerce an int, Fraction, GaussianRational, or grammar string."""
    if isinstance(x, str):
        return parse_scalar(x)
    z = _coerce(x)
    if z is None:
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")
    return z


_TERM = re.compile(
    r"""(?P<sign>[+-]?)
        (?:
            (?P<num>\d+)(?:/(?P<den>\d+))?(?:\*?(?P<ti>i))?
          | (?P<bi>i)
        )""",
    re.VERBOSE,
)


def parse_scalar(text: str) -> GaussianRational:
    """Parse the exact-scalar grammar; raises ValueError on malformed input."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    re_part = _F0
    im_part = _F0
    seen_re = seen_im = False
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or (not first and m.group("sign") == ""):
            raise ValueError(f"malformed scalar {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("bi"):
            value = _F1
            imaginary = True
        else:
            den = int(m.group("den") or 1)
            if not den:
                raise ValueError(f"zero denominator in {text!r}")
            value = Fraction(int(m.group("num")), den)
            imaginary = bool(m.group("ti"))
        if imaginary:
            if seen_im:
                raise ValueError(f"duplicate imaginary term in {text!r}")
            im_part = sign * value
            seen_im = True
        else:
            if seen_re:
                raise ValueError(f"duplicate real term in {text!r}")
            re_part = sign * value
            seen_re = True
        pos = m.end()
        first = False
    return _gq(re_part, im_part)


def format_scalar(z: GaussianRational) -> str:
    """Canonical lossless rendering of a Gaussian rational."""
    if not z.im:
        return str(z.re)
    imag = str(abs(z.im)) + "*i"
    if not z.re:
        return imag if z.im > 0 else f"-{imag}"
    joiner = "+" if z.im > 0 else "-"
    return str(z.re) + joiner + imag
