"""Sparse exterior algebra over a Chevalley basis, with the Schouten bracket.

A multivector of degree k is stored as a map from strictly increasing tuples
of basis indices to nonzero Gaussian-rational coefficients.  The Schouten
bracket follows the classical convention

    [[X_1^...^X_k, Y_1^...^Y_l]] =
        sum_{i,j} (-1)^{i+j} [X_i, Y_j] ^ X_(i-hat) ^ Y_(j-hat),

which restricts to the Lie bracket in degree one and is symmetric on a pair
of bivectors.  The kernel accumulates Gaussian-integer numerators over one
common denominator per call, the product of the two operands' denominators
and the basis's bracket denominator; its results are still Gaussian
rationals, one per output term.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable

from .chevalley import ChevalleyBasis, Element
from .levi import LeviDatum
from .roots import negate
from .scalars import _F0, GaussianRational, _gq, as_scalar

Key = tuple[int, ...]


class Multivector:
    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Key, GaussianRational] | None = None):
        self.degree = degree
        self.terms: dict[Key, GaussianRational] = {}
        if terms:
            for key, coeff in terms.items():
                if len(key) != degree:
                    raise ValueError(f"term {key} has wrong degree (expected {degree})")
                if list(key) != sorted(set(key)):
                    raise ValueError(f"term {key} is not strictly increasing")
                c = as_scalar(coeff)
                if c:
                    self.terms[key] = c

    @staticmethod
    def zero(degree: int) -> "Multivector":
        return Multivector(degree)

    @staticmethod
    def basis_element(indices: Iterable[int], coeff=1) -> "Multivector":
        idx = tuple(indices)
        return Multivector(len(idx), {idx: as_scalar(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def _accumulate(self, key: Key, coeff: GaussianRational) -> None:
        cur = self.terms.get(key)
        cur = coeff if cur is None else cur + coeff
        if cur:
            self.terms[key] = cur
        else:
            self.terms.pop(key, None)

    def __add__(self, other: "Multivector") -> "Multivector":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")
        out = Multivector(self.degree, dict(self.terms))
        for key, coeff in other.terms.items():
            out._accumulate(key, coeff)
        return out

    def __sub__(self, other: "Multivector") -> "Multivector":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in subtraction")
        out = Multivector(self.degree, dict(self.terms))
        for key, coeff in other.terms.items():
            out._accumulate(key, -coeff)
        return out

    def __neg__(self) -> "Multivector":
        return self.scale(-1)

    def scale(self, factor) -> "Multivector":
        f = as_scalar(factor)
        out = Multivector.zero(self.degree)
        if f:
            out.terms = {key: coeff * f for key, coeff in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def coefficient(self, key: Key) -> GaussianRational:
        return self.terms.get(tuple(key), as_scalar(0))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self):
        return f"Multivector(deg={self.degree}, {len(self.terms)} terms)"

    def pretty(self, basis: ChevalleyBasis) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            names = "^".join(basis.basis_name(i) for i in key)
            parts.append(f"({self.terms[key]})*{names}")
        return " + ".join(parts)


def _merge_sorted(a: Key, b: Key) -> tuple[int, Key] | None:
    """Merge two strictly increasing tuples, returning (sign, merged)."""
    if len(a) == 1:
        return _insert_front(a[0], b)
    if len(b) == 1:
        ins = _insert_front(b[0], a)
        # a ^ z = (-1)^len(a) z ^ a
        if ins is None or not len(a) & 1:
            return ins
        return -ins[0], ins[1]
    i = j = 0
    inversions = 0
    out = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            inversions += len(a) - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inversions & 1 else 1, tuple(out))


def _insert_front(z: int, rest: Key) -> tuple[int, Key] | None:
    """Normalize z ^ rest, returning (sign, sorted tuple)."""
    pos = bisect_left(rest, z)
    if pos < len(rest) and rest[pos] == z:
        return None
    sign = -1 if pos & 1 else 1
    return sign, rest[:pos] + (z,) + rest[pos:]


def wedge(u: Multivector, v: Multivector) -> Multivector:
    out = Multivector.zero(u.degree + v.degree)
    for ka, ca in u.terms.items():
        for kb, cb in v.terms.items():
            merged = _merge_sorted(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            out._accumulate(key, ca * cb * sign)
    return out


def schouten(basis: ChevalleyBasis, u: Multivector, v: Multivector,
             levi: LeviDatum | None = None, *, u_groups=None) -> Multivector:
    """Schouten bracket of homogeneous multivectors; degree adds minus one.

    With a Levi datum only the terms on the orbit tangent space are formed:
    the result is ``project_to_m`` of the full bracket, in the same term
    order, without building the stabilizer terms. Factors are grouped by
    basis index, so each bracket [X_i, Y_j] is looked up once per index pair.

    The sums run on Gaussian-integer numerators, (re, im) int pairs over the
    one denominator D_u * D_v * bracket_denominator, with the bracket's ints
    read straight off ``basis.bracket_table``; a key whose sum reaches
    zero is dropped at once, as in ``_accumulate``, so a later term puts it
    back at the end. Each surviving sum becomes one Gaussian rational.

    A caller that brackets one u with many v builds u's
    ``_grouped_splits(u, gamma_indices(basis, levi))`` once and passes it as
    ``u_groups``."""
    if u.degree == 0 or v.degree == 0:
        return Multivector.zero(max(u.degree + v.degree - 1, 0))
    banned = frozenset() if levi is None else gamma_indices(basis, levi)
    table = basis.bracket_table
    den_a, groups_a = _grouped_splits(u, banned) if u_groups is None else u_groups
    den_b, groups_b = _grouped_splits(v, banned)
    sums: dict = {}  # key -> (re, im), then the Gaussian rational
    for x, splits_a in groups_a:
        for y, splits_b in groups_b:
            # the table is keyed in increasing index order; [X_y, X_x] = -[X_x, X_y]
            br = table.get((x, y) if x < y else (y, x))
            if not br:
                continue
            flip = -1 if x > y else 1
            br = [(z, flip * n) for z, n in br if z not in banned]
            if not br:
                continue
            for sa, (ra, ia), rest_a in splits_a:
                for sb, (rb, ib), rest_b in splits_b:
                    merged = _merge_sorted(rest_a, rest_b)
                    if merged is None:
                        continue
                    msign, rest = merged
                    sign = sa * sb * msign
                    re, im = sign * (ra * rb - ia * ib), sign * (ra * ib + ia * rb)
                    for z, n in br:
                        ins = _insert_front(z, rest)
                        if ins is None:
                            continue
                        isign, key = ins
                        m = n if isign == 1 else -n
                        cur = sums.get(key)
                        if cur is None:
                            sums[key] = (re * m, im * m)
                        else:
                            tr, ti = cur[0] + re * m, cur[1] + im * m
                            if tr or ti:
                                sums[key] = (tr, ti)
                            else:
                                del sums[key]
    den = den_a * den_b * basis.bracket_denominator
    for key, (re, im) in sums.items():  # in place: no second dict of terms
        sums[key] = _gq(Fraction(re, den), Fraction(im, den) if im else _F0)
    out = Multivector.zero(u.degree + v.degree - 1)
    out.terms = sums
    return out


def _gaussian_numerators(terms: dict) -> tuple[int, dict]:
    """The common denominator D of the coefficients of a terms dict, the lcm
    of their denominators, and {key: (re, im)} in the order of ``terms``,
    with (re + im*i) / D the coefficient at ``key``."""
    den = lcm(*(d for c in terms.values() for d in (c.re.denominator, c.im.denominator)))
    return den, {
        key: (c.re.numerator * (den // c.re.denominator),
              c.im.numerator * (den // c.im.denominator))
        for key, c in terms.items()
    }


def _grouped_splits(
    w: Multivector, banned: frozenset[int]
) -> tuple[int, list[tuple[int, list]]]:
    """The common denominator D of w's coefficients, and every factor of
    every term of w whose removal leaves no banned index, grouped by factor
    in increasing order: (factor, [((-1)^position, (re, im), rest of the
    key), ...]) with terms in the order of w and (re + im*i) / D the
    coefficient. The group order does not depend on ``banned``, which keeps
    a projected bracket in the term order of the full one."""
    den, nums = _gaussian_numerators(w.terms)
    groups: dict[int, list] = {}
    for key, num in nums.items():
        for p, x in enumerate(key):
            rest = key[:p] + key[p + 1 :]
            if banned.isdisjoint(rest):
                groups.setdefault(x, []).append((-1 if p & 1 else 1, num, rest))
    return den, sorted(groups.items())


def ad_action(basis: ChevalleyBasis, x: Element, u: Multivector) -> Multivector:
    """Extension of ad(x) to the exterior algebra as a derivation: the
    Schouten bracket with x read as a degree-one multivector."""
    return schouten(basis, Multivector(1, {(i,): c for i, c in x.items()}), u)


def gamma_indices(basis: ChevalleyBasis, levi: LeviDatum) -> frozenset[int]:
    """Basis indices spanning the stabilizer subalgebra: the whole Cartan
    subalgebra plus the root vectors of roots inside the Levi subset."""
    banned = set(range(basis.rank))
    for mu in levi.omega_gamma:
        banned.add(basis.index_of_root[mu])
    return frozenset(banned)


def project_to_m(
    u: Multivector, basis: ChevalleyBasis, levi: LeviDatum
) -> Multivector:
    """Drop every term containing a stabilizer-subalgebra factor."""
    banned = gamma_indices(basis, levi)
    out = Multivector.zero(u.degree)
    out.terms = {key: c for key, c in u.terms.items() if banned.isdisjoint(key)}
    return out


def diagonal_bivector(basis: ChevalleyBasis, coeffs) -> Multivector:
    """Diagonal tensor sum c(alpha) E_alpha ^ E_{-alpha} with one coefficient
    per positive root (no class constraint); terms follow the order of
    ``coeffs``."""
    out = Multivector.zero(2)
    for alpha, c in coeffs.items():
        cc = as_scalar(c)
        if not cc:
            continue
        i = basis.index_of_root[alpha]
        j = basis.index_of_root[negate(alpha)]
        # j < i in the global order, so E_alpha ^ E_{-alpha} = -(e_j ^ e_i)
        out._accumulate((j, i), -cc)
    return out


def r_matrix(basis: ChevalleyBasis, levi: LeviDatum | None = None) -> Multivector:
    """Sum of E_alpha ^ E_{-alpha} over positive roots; with a Levi datum the
    sum is truncated to positive roots outside the Levi subset."""
    return diagonal_bivector(basis, {
        alpha: 1 for alpha in basis.rs.positive_roots
        if levi is None or alpha not in levi.omega_gamma
    })


def phi(basis: ChevalleyBasis) -> Multivector:
    """The invariant trivector: the r-matrix bracketed with itself."""
    if basis._phi_cache is None:
        r = r_matrix(basis)
        basis._phi_cache = schouten(basis, r, r)
    return basis._phi_cache
