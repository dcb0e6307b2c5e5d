"""Chevalley-type basis with exact structure constants, normalized so that the
trace form pairs opposite root vectors to 1.

Construction goes in two stages.  First an integral basis {x_mu} is built with
the classical extraspecial-pair sign convention (Carter, Simple Groups of Lie
Type, ch. 4): positive roots are totally ordered by (height, coordinates); for
each non-simple positive root the minimal decomposition pair gets a positive
structure constant p+1, the four-root relation fixes the other positive pairs,
and every remaining constant follows from the antisymmetry, negation and norm
rules, applied when the constant is asked for.  Second, the Killing form is
fixed by one exact scale.  The algebra is simple, so K = s ( , ) for the root
form ( , ), and s is read off a single trace of the adjoint action,
s = |a_1|^2 / 4 * sum_mu <mu, a_1^vee>^2.  Then mu(t_i) = (mu, a_i) / s, and
by invariance K(x_mu, x_{-mu}) = K(h_mu, h_mu) / 2 = 2 s / |mu|^2 for the
coroot h_mu = [x_mu, x_{-mu}]; each negative root vector is rescaled so that
K(E_mu, E_{-mu}) = 1.  In the rescaled basis [E_mu, E_{-mu}] = t_mu,
the Killing-dual of mu, and the cyclic identity

    N(a, b) = N(b, c) = N(c, a)   whenever a + b + c = 0

holds with equal (unweighted) values.

The normalized constants live once, in the index-keyed bracket table: each
entry is rescaled from the integral constant as the table is built, and both
bracket_index and structure_constant read it.  bracket_denominator, the lcm
of the table's denominators, turns every coefficient into an integer.

Basis layout: indices 0..rank-1 are the Cartan elements t_1..t_rank (duals of
the simple roots), index rank+k is E_mu for the k-th root in the global
(height, coordinates) order; negative roots therefore come first.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import lcm

from .roots import Coords, InternalInvariantError, RootSystem, add, negate, sub
from .scalars import GaussianRational, as_scalar

#: A Lie-algebra element: sparse map from basis index to exact coefficient.
Element = dict[int, GaussianRational]


class ChevalleyBasis:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        self.root_order: tuple[Coords, ...] = rs.all_roots_sorted()
        self.index_of_root = {r: self.rank + k for k, r in enumerate(self.root_order)}
        self.dim = self.rank + len(self.root_order)

        self._norm = {r: rs.inner(r, r) for r in rs.roots}
        self._n_int = _integral_constants(rs, self._norm)
        scale = self._killing_scale()
        self._killing_c = self._killing_opposite_pairs(scale)
        self._weights = self._weight_table(scale)
        self._table = self._bracket_table()
        #: lcm of the denominators of every bracket_index coefficient
        self.bracket_denominator = lcm(
            *(c.denominator for entries in self._table.values() for _, c in entries)
        )
        self._theta = self._theta_table()
        self._phi_cache = None

    # -- integral layer -------------------------------------------------------

    def integral_structure_constant(self, a: Coords, b: Coords) -> int:
        """N(a,b) in the integral basis; 0 when a+b is not a root."""
        value = self._n_int(a, b)
        if value.denominator != 1:
            raise InternalInvariantError(
                f"structure constant {value} of {a} + {b} is not an integer"
            )
        return int(value)

    def string_length_p(self, a: Coords, b: Coords) -> int:
        """Largest p with b - p*a a root."""
        return _string_length(self.rs._root_set, a, b)

    def killing_opposite(self, alpha: Coords) -> int:
        """Trace-form pairing of the integral vectors x_alpha, x_{-alpha}."""
        key = alpha if min(alpha) >= 0 else negate(alpha)
        return self._killing_c[key]

    def _killing_scale(self) -> Fraction:
        # The algebra is simple, so its invariant form is unique up to scale:
        # K = s ( , ).  One trace fixes s: K(h_1, h_1) = sum_mu <mu, a_1^vee>^2
        # and (h_1, h_1) = 4 / |a_1|^2 for the coroot h_1.
        total = sum(self.rs.coroot_pairing(mu, 0) ** 2 for mu in self.rs.roots)
        return self._norm[self.rs.simple_roots[0]] * total / 4

    def _killing_opposite_pairs(self, s: Fraction) -> dict[Coords, int]:
        # by invariance K(x_a, x_{-a}) = K(h_a, h_a) / 2 = 2 s / |a|^2
        out = {}
        for alpha in self.rs.positive_roots:
            value = 2 * s / self._norm[alpha]
            if value.denominator != 1 or value <= 0:
                raise InternalInvariantError(
                    f"Killing pairing {value} of x_{alpha} is not a positive integer"
                )
            out[alpha] = int(value)
        return out

    def _weight_table(self, s: Fraction) -> dict[Coords, tuple[Fraction, ...]]:
        # weights[mu][i] = mu(t_i) = (mu, a_i) / s = <mu, a_i^vee> |a_i|^2 / 2s
        rs = self.rs
        half = [self._norm[a] / (2 * s) for a in rs.simple_roots]
        return {
            mu: tuple(rs.coroot_pairing(mu, i) * h for i, h in enumerate(half))
            for mu in rs.roots
        }

    # -- normalized layer ------------------------------------------------------

    def _scale(self, mu: Coords) -> Fraction:
        # E_mu = x_mu / scale(mu)
        if min(mu) >= 0:
            return Fraction(1)
        return Fraction(self._killing_c[negate(mu)])

    def structure_constant(self, a: Coords, b: Coords) -> Fraction:
        """Normalized N(a,b), read off the bracket table; 0 when a+b is not a
        root (a = -b included)."""
        for k, c in self.bracket_index(self.index_of_root[a], self.index_of_root[b]):
            if k >= self.rank:
                return c
        return Fraction(0)

    def weight(self, mu: Coords, i: int) -> Fraction:
        """mu(t_i), the action of the i-th Cartan basis element on E_mu."""
        return self._weights[mu][i]

    # -- bracket table ----------------------------------------------------------

    def _bracket_table(self) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        table: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        n = self.rank
        for k, mu in enumerate(self.root_order):
            i_mu = n + k
            w = self._weights[mu]
            for i in range(n):
                if w[i]:
                    table[(i, i_mu)] = ((i_mu, w[i]),)
            for l in range(k + 1, len(self.root_order)):
                nu = self.root_order[l]
                i_nu = n + l
                if nu == negate(mu):
                    entries = tuple(
                        (i, Fraction(c)) for i, c in enumerate(mu) if c
                    )
                    table[(i_mu, i_nu)] = entries
                else:
                    s = add(mu, nu)
                    if s in self.rs._root_set:
                        n_norm = (
                            Fraction(self.integral_structure_constant(mu, nu))
                            * self._scale(s) / (self._scale(mu) * self._scale(nu))
                        )
                        table[(i_mu, i_nu)] = ((self.index_of_root[s], n_norm),)
        return table

    def bracket_index(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """Bracket of two basis elements as ((index, coefficient), ...)."""
        if i == j:
            return ()
        if i < j:
            return self._table.get((i, j), ())
        entries = self._table.get((j, i), ())
        return tuple((k, -c) for k, c in entries)

    def _theta_table(self) -> tuple[tuple[int, Fraction], ...]:
        out = [(i, Fraction(-1)) for i in range(self.rank)]
        for k, mu in enumerate(self.root_order):
            scale = -self._scale(negate(mu)) / self._scale(mu)
            out.append((self.index_of_root[negate(mu)], scale))
        return tuple(out)

    # -- element-level operations ------------------------------------------------

    def root_vector(self, mu: Coords, coeff=1) -> Element:
        return {self.index_of_root[mu]: as_scalar(coeff)}

    def cartan_element(self, t_coords) -> Element:
        return {
            i: as_scalar(c) for i, c in enumerate(t_coords) if as_scalar(c)
        }

    def t_alpha(self, mu: Coords) -> Element:
        """The Killing dual of a root, i.e. the value of [E_mu, E_{-mu}]."""
        return self.cartan_element(mu)

    def bracket(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the basis bracket."""
        out: Element = {}
        for i, ci in x.items():
            for j, cj in y.items():
                c = ci * cj
                for k, f in self.bracket_index(i, j):
                    v = out.get(k)
                    v = c * f if v is None else v + c * f
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        return out

    def cartan_involution(self, x: Element) -> Element:
        """The involutive automorphism acting as -1 on the Cartan subalgebra
        and sending each root vector to a multiple of its opposite."""
        out: Element = {}
        for i, c in x.items():
            j, scale = self._theta[i]
            v = out.get(j)
            v = c * scale if v is None else v + c * scale
            if v:
                out[j] = v
            else:
                out.pop(j, None)
        return out

    def theta_index(self, i: int) -> tuple[int, Fraction]:
        return self._theta[i]

    def killing(self, x: Element, y: Element) -> GaussianRational:
        """Trace-form pairing, exact."""
        total = as_scalar(0)
        for i, ci in x.items():
            for j, cj in y.items():
                g = self.killing_gram_entry(i, j)
                if g:
                    total = total + ci * cj * g
        return total

    def killing_gram_entry(self, i: int, j: int) -> Fraction:
        n = self.rank
        if i < n and j < n:
            # K(t_i, t_j) = alpha_j(t_i)
            return self._weights[self.rs.simple_roots[j]][i]
        if i < n or j < n:
            return Fraction(0)
        mu = self.root_order[i - n]
        nu = self.root_order[j - n]
        return Fraction(1) if nu == negate(mu) else Fraction(0)

    def basis_name(self, i: int) -> str:
        if i < self.rank:
            return f"t{i + 1}"
        mu = self.root_order[i - self.rank]
        return f"E[{','.join(map(str, mu))}]"

    def __repr__(self):
        return f"ChevalleyBasis({self.rs.type_label}{self.rs.rank})"


def build_chevalley_basis(rs: RootSystem) -> ChevalleyBasis:
    """Construct the normalized basis; total for every valid root system."""
    return ChevalleyBasis(rs)


# -- integral structure constants ------------------------------------------------


def _integral_constants(
    rs: RootSystem, norm: dict[Coords, Fraction]
) -> Callable[[Coords, Coords], Fraction]:
    """The sign and norm rules over the extraspecial-derived positive pairs."""
    positives = rs.positive_roots
    pos_set = rs._positive_set
    root_set = rs._root_set
    order = {r: k for k, r in enumerate(positives)}

    special: dict[tuple[Coords, Coords], Fraction] = {}

    def n_pos(a: Coords, b: Coords) -> Fraction:
        if order[a] < order[b]:
            return special[(a, b)]
        return -special[(b, a)]

    def n_any(u: Coords, v: Coords) -> Fraction:
        # 0 when u+v is not a root (u = -v included)
        w = add(u, v)
        if w not in root_set:
            return Fraction(0)
        u_pos = u in pos_set
        v_pos = v in pos_set
        if u_pos and v_pos:
            return n_pos(u, v)
        if not u_pos and not v_pos:
            return -n_any(negate(u), negate(v))
        if not u_pos:
            return -n_any(v, u)
        vp = negate(v)
        if w in pos_set:
            # pair (vp, w) sums to u
            return -norm[w] / norm[u] * n_pos(vp, w)
        wp = negate(w)
        # pair (wp, u) sums to vp
        return norm[w] / norm[vp] * n_pos(wp, u)

    # extraspecial decomposition of each non-simple positive root
    extraspecial: dict[Coords, tuple[Coords, Coords]] = {}
    for s in positives:
        if sum(s) < 2:
            continue
        for a in positives:
            b = sub(s, a)
            if b in pos_set and order[a] < order[b]:
                extraspecial[s] = (a, b)
                break
        else:
            raise InternalInvariantError(f"no decomposition pair for {s}")

    for s in positives:  # ordered by height, so lower constants exist first
        if sum(s) < 2:
            continue
        a, b = extraspecial[s]
        special[(a, b)] = Fraction(_string_length(root_set, a, b) + 1)
        ns = norm[s]
        pairs = [
            (x, sub(s, x))
            for x in positives
            if sub(s, x) in pos_set and order[x] < order[sub(s, x)]
        ]
        for x, y in pairs:
            if (x, y) == (a, b):
                continue
            # four-root relation on (x, y, -a, -b)
            t2 = Fraction(0)
            d1 = sub(y, a)
            if d1 in root_set:
                t2 = n_any(y, negate(a)) * n_any(x, negate(b)) / norm[d1]
            t3 = Fraction(0)
            d2 = sub(x, a)
            if d2 in root_set:
                t3 = n_any(negate(a), x) * n_any(y, negate(b)) / norm[d2]
            value = ns * (t2 + t3) / special[(a, b)]
            if value.denominator != 1 or not value:
                raise InternalInvariantError(
                    f"structure constant {value} of {x} + {y} = {s} is not a nonzero integer"
                )
            special[(x, y)] = value

    return n_any


def _string_length(root_set, a: Coords, b: Coords) -> int:
    p = 0
    cur = sub(b, a)
    while cur in root_set:
        p += 1
        cur = sub(cur, a)
    return p
