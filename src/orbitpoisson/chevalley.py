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

The normalized constants live once, in bracket_table: {(i, j): ((z, n), ...)}
for i < j, each n an int over bracket_denominator, the least common
denominator of the coefficients.  Its Cartan rows are the weights mu(t_i).
The Schouten kernel and the Levi rows read these ints; bracket_index,
structure_constant, weight and killing_gram_entry are Fraction views of them.

The build runs on Python ints throughout.  Roots enter by their additive keys
(roots.RootSystem.key), so "is a + b a root" is one int addition and one
lookup; squared lengths enter as int numerators over one common denominator,
of which only ratios are used; and the sign and norm rules and the four-root
relation divide exactly, raising InternalInvariantError on a remainder.  The
table's entries are made as int quotients and put over bracket_denominator
in one pass at the end.

Basis layout: indices 0..rank-1 are the Cartan elements t_1..t_rank (duals of
the simple roots), index rank+k is E_mu for the k-th root in the global
(height, coordinates) order; negative roots therefore come first.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .roots import Coords, InternalInvariantError, RootSystem, negate
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
        self._key = {r: rs.key(r) for r in self.root_order}
        self._index_of_key = {k: self.rank + i for i, k in enumerate(self._key.values())}
        # squared lengths as int numerators over one common denominator
        den = lcm(*(v.denominator for v in self._norm.values()))
        norm = {self._key[r]: v.numerator * (den // v.denominator) for r, v in self._norm.items()}
        self._n_int = _integral_constants(
            rs.rank, [self._key[r] for r in rs.positive_roots], norm
        )
        # pairing[mu][i] = <mu, a_i^vee>, the dot product with column i of the Cartan matrix
        columns = list(zip(*rs.cartan))
        pairing = {mu: tuple(sum(map(mul, mu, col)) for col in columns) for mu in rs.roots}
        scale = self._killing_scale(pairing)
        self._killing_c = self._killing_opposite_pairs(scale, norm, den)
        # E_mu = x_mu / x_scale[key(mu)]: 1 on positive roots
        x_scale = {k: 1 for k in norm if k > 0}
        x_scale.update((-self._key[a], c) for a, c in self._killing_c.items())
        # weights mu(t_i) = (mu, a_i) / s = <mu, a_i^vee> |a_i|^2 / 2s: ints
        # pairing[mu][i] * half[i] over the one denominator 2 s den
        half = [norm[self._key[a]] * scale.denominator for a in rs.simple_roots]
        #: {(i, j): ((z, n), ...)} for i < j: [X_i, X_j] = sum n / bracket_denominator X_z
        self.bracket_table, self.bracket_denominator = self._bracket_table(
            x_scale, pairing, half, 2 * scale.numerator * den
        )
        self._theta = self._theta_table(x_scale)
        self._phi_cache = None

    # -- integral layer -------------------------------------------------------

    def integral_structure_constant(self, a: Coords, b: Coords) -> int:
        """N(a,b) in the integral basis; 0 when a+b is not a root."""
        return self._n_int(self._key[a], self._key[b])

    def string_length_p(self, a: Coords, b: Coords) -> int:
        """Largest p with b - p*a a root."""
        return _string_length(self._index_of_key, self._key[a], self._key[b])

    def killing_opposite(self, alpha: Coords) -> int:
        """Trace-form pairing of the integral vectors x_alpha, x_{-alpha}."""
        key = alpha if min(alpha) >= 0 else negate(alpha)
        return self._killing_c[key]

    def _killing_scale(self, pairing: dict[Coords, tuple[int, ...]]) -> Fraction:
        # The algebra is simple, so its invariant form is unique up to scale:
        # K = s ( , ).  One trace fixes s: K(h_1, h_1) = sum_mu <mu, a_1^vee>^2
        # and (h_1, h_1) = 4 / |a_1|^2 for the coroot h_1.
        total = sum(p[0] ** 2 for p in pairing.values())
        return self._norm[self.rs.simple_roots[0]] * total / 4

    def _killing_opposite_pairs(
        self, s: Fraction, norm: dict[int, int], den: int
    ) -> dict[Coords, int]:
        # by invariance K(x_a, x_{-a}) = K(h_a, h_a) / 2 = 2 s / |a|^2
        out = {}
        for alpha in self.rs.positive_roots:
            value, rem = divmod(2 * s.numerator * den, s.denominator * norm[self._key[alpha]])
            if rem or value <= 0:
                raise InternalInvariantError(
                    f"Killing pairing 2s/|a|^2 of x_{alpha} is not a positive integer"
                )
            out[alpha] = value
        return out

    # -- normalized layer ------------------------------------------------------

    def structure_constant(self, a: Coords, b: Coords) -> Fraction:
        """Normalized N(a,b), read off the bracket table; 0 when a+b is not a
        root (a = -b included)."""
        for k, c in self.bracket_index(self.index_of_root[a], self.index_of_root[b]):
            if k >= self.rank:
                return c
        return Fraction(0)

    def weight(self, mu: Coords, i: int) -> Fraction:
        """mu(t_i), the action of the i-th Cartan basis element on E_mu."""
        [(_, n)] = self.bracket_table.get((i, self.index_of_root[mu]), ((0, 0),))
        return Fraction(n, self.bracket_denominator)

    # -- bracket table ----------------------------------------------------------

    def _bracket_table(
        self, x_scale: dict[int, int], pairing: dict[Coords, tuple[int, ...]],
        half: list[int], w_den: int,
    ) -> tuple[dict[tuple[int, int], tuple[tuple[int, int], ...]], int]:
        # entries are made as (z, num, den), then put over their least common den
        raw: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}
        n = self.rank
        n_int = self._n_int
        index = self._index_of_key
        keys = list(index)
        for k, (mu, km) in enumerate(self._key.items()):
            i_mu = n + k
            for i, (c, h) in enumerate(zip(pairing[mu], half)):
                if c:
                    raw[(i, i_mu)] = ((i_mu, c * h, w_den),)
            s_mu = x_scale[km]
            for i_nu, kn in enumerate(keys[k + 1:], i_mu + 1):
                ks = km + kn
                if not ks:
                    # [E_mu, E_-mu] = t_mu
                    raw[(i_mu, i_nu)] = tuple((i, c, 1) for i, c in enumerate(mu) if c)
                elif ks in index:
                    # [E_mu, E_nu] = N(mu, nu) x_scale(s) / (x_scale(mu) x_scale(nu)) E_s
                    raw[(i_mu, i_nu)] = (
                        (index[ks], n_int(km, kn) * x_scale[ks], s_mu * x_scale[kn]),
                    )
        den = lcm(*{q // gcd(p, q) for entries in raw.values() for _, p, q in entries})
        table = {
            ij: tuple([(z, p * den // q) for z, p, q in entries]) for ij, entries in raw.items()
        }
        return table, den

    def bracket_numerators(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Bracket of two basis elements as ((index, n), ...), with
        n / bracket_denominator the coefficient at index."""
        if i < j:
            return self.bracket_table.get((i, j), ())
        return tuple((k, -n) for k, n in self.bracket_table.get((j, i), ()))

    def bracket_index(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """Bracket of two basis elements as ((index, coefficient), ...)."""
        d = self.bracket_denominator
        return tuple((k, Fraction(n, d)) for k, n in self.bracket_numerators(i, j))

    def _theta_table(self, x_scale: dict[int, int]) -> tuple[tuple[int, Fraction], ...]:
        out = [(i, Fraction(-1)) for i in range(self.rank)]
        for k in self._key.values():
            out.append((self._index_of_key[-k], Fraction(-x_scale[-k], x_scale[k])))
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
            return self.weight(self.rs.simple_roots[j], i)
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
    rank: int, positives: list[int], norm: dict[int, int]
) -> Callable[[int, int], int]:
    """The sign and norm rules over the extraspecial-derived positive pairs.

    Roots are given by their additive keys: ``positives`` in the (height,
    coordinates) order, so the first ``rank`` are the simple roots, and
    ``norm`` maps every root key to its squared length over one common
    denominator, of which only ratios are used. The returned N(u, v) takes two
    root keys."""
    order = {r: k for k, r in enumerate(positives)}
    special: dict[tuple[int, int], int] = {}

    def n_pos(a: int, b: int) -> int:
        if order[a] < order[b]:
            return special[(a, b)]
        return -special[(b, a)]

    def n_any(u: int, v: int) -> int:
        # 0 when u+v is not a root (u = -v included); a key's sign is its root's
        w = u + v
        if w not in norm:
            return 0
        if u < 0:
            if v < 0:
                return -n_pos(-u, -v)
            return -n_any(v, u)
        if v > 0:
            return n_pos(u, v)
        if w > 0:
            # pair (-v, w) sums to u
            return _exact(-norm[w] * n_pos(-v, w), norm[u])
        # pair (-w, u) sums to -v
        return _exact(norm[w] * n_pos(-w, u), norm[-v])

    # ordered by height, so lower constants exist first
    for k, s in enumerate(positives[rank:], rank):
        # every decomposition s = x + y into positive roots with x before y,
        # in the order of x; the first is the extraspecial pair
        pairs = [(x, s - x) for j, x in enumerate(positives[:k]) if order.get(s - x, -1) > j]
        if not pairs:
            raise InternalInvariantError(f"no decomposition pair for the root of key {s}")
        a, b = pairs[0]
        n_ab = _string_length(norm, a, b) + 1
        special[(a, b)] = n_ab
        for x, y in pairs[1:]:
            # four-root relation on (x, y, -a, -b):
            # N(x, y) N(a, b) = |s|^2 (N(y, -a) N(x, -b) / |y - a|^2
            #                          + N(-a, x) N(y, -b) / |x - a|^2)
            num, den = 0, 1
            d1 = y - a
            if d1 in norm:
                num, den = n_any(y, -a) * n_any(x, -b), norm[d1]
            d2 = x - a
            if d2 in norm:
                num, den = num * norm[d2] + n_any(-a, x) * n_any(y, -b) * den, den * norm[d2]
            value = _exact(norm[s] * num, den * n_ab)
            if not value:
                raise InternalInvariantError(
                    f"structure constant of the pair of keys ({x}, {y}) is zero"
                )
            special[(x, y)] = value

    return n_any


def _exact(num: int, den: int) -> int:
    """num / den, which must be an integer."""
    q, rem = divmod(num, den)
    if rem:
        raise InternalInvariantError(f"structure constant {num}/{den} is not an integer")
    return q


def _string_length(root_keys, a: int, b: int) -> int:
    """Largest p with b - p*a a root, on root keys; each step starts at a root,
    so every key tried is that of a sum of two roots."""
    p = 0
    cur = b - a
    while cur in root_keys:
        p += 1
        cur -= a
    return p
