"""Finite-dimensional exact linear algebra on the invariant exterior powers
of the orbit tangent space: bases, the Cartan-involution split, the bracket
differential and its cohomology, the Weyl-coset de Rham oracle, and tensor
multiplicity checks.

Every invariant space is the joint kernel, computed by _levi_kernel, of the
simple Levi root vectors E_gamma and E_{-gamma}: on weight-zero vectors the
Cartan acts by 0, and these generate the rest of the Levi algebra.  All
kernels are computed exactly over the rationals.

One index-level Levi action, _levi_rows, builds the operator rows of every
such kernel.  Its placement rule says where a bracket output goes: for wedge
monomials it is sorted in with the sign (-1)^slot of _insert_front, for the
tensor triples of tensor_multiplicity it replaces the factor in its slot.

The weight-zero monomial space splits under the class signature (the multiset
of quasiroots of the wedge factors), which the Levi operators preserve; the
kernel computation runs block by block.  The Levi rows are ints: the action
times the bracket table's one common denominator.

The differential runs on Gaussian-integer numerators, (re, im) int pairs,
from the Schouten image to the rank: each image is read off the owner
monomials and checked there on ints, and delta_k is kept as M_k = L_k delta_k
for one positive int L_k per degree, which neither its rank nor the d^2 = 0
check depends on.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import lcm, prod

from .brackets import InternalInvariantError, InvariantBivector, realize
from .chevalley import ChevalleyBasis
from .levi import LeviDatum, Quasiroot
from .linalg import kernel_basis, rank_of
from .multivec import (
    Multivector,
    _gaussian_numerators,
    _grouped_splits,
    _insert_front,
    gamma_indices,
    schouten,
)
from .roots import RootSystem, add, negate
from .scalars import as_scalar


def weight_zero_monomials(
    levi: LeviDatum, basis: ChevalleyBasis, k: int
) -> list[tuple[int, ...]]:
    """Strictly increasing k-tuples of tangent-root basis indices whose roots
    sum to zero, in ascending order.

    The tangent roots are m+ and -m+, so a weight-zero set S is exactly
    P + (-Q), where P is S's part in m+, Q is a subset of m+ and the weights
    agree: w(P) = w(Q).  For each split of k, the subsets of the smaller size
    are grouped by weight; those of the larger size are streamed and paired
    with the group of their weight, both ways round.  No nonempty set of
    positive roots sums to zero, so for k > 0 the smaller size starts at 1."""
    if k < 0 or k > levi.dim_m():
        return []
    index = basis.index_of_root

    def weight(roots):
        return tuple(map(sum, zip(*roots)))

    def monomial(p, q):
        return tuple(sorted([index[r] for r in p] + [index[negate(r)] for r in q]))

    out: list[tuple[int, ...]] = []
    for size in range(k - k // 2, max(k, 1)):
        groups: dict[tuple, list] = {}
        for q in combinations(levi.m_positive, k - size):
            groups.setdefault(weight(q), []).append(q)
        for p in combinations(levi.m_positive, size):
            for q in groups.get(weight(p), ()):
                out.append(monomial(p, q))
                if 2 * size != k:
                    out.append(monomial(q, p))
    out.sort()
    return out


def weight_zero_counts(levi: LeviDatum, cap: int) -> list[int] | None:
    """Number of weight-zero monomials in each degree 0..dim m, counted on
    the split of weight_zero_monomials without listing them:
    #_k = sum over n and w of c_n(w) c_{k-n}(w), with c_n(w) the number of
    n-subsets of m+ of weight w, from a subset-sum table over m+.

    None once the table holds more than ``cap`` pairs (n, w): each pair is
    at least the monomial P + (-P) for one n-subset P of weight w, so then
    there are more than ``cap`` weight-zero monomials in all."""
    table: dict[tuple, int] = {(0, (0,) * levi.rs.rank): 1}
    for root in levi.m_positive:
        for (n, w), c in list(table.items()):
            key = (n + 1, tuple(map(sum, zip(w, root))))
            table[key] = table.get(key, 0) + c
        if len(table) > cap:
            return None
    by_weight: dict[tuple, dict[int, int]] = {}
    for (n, w), c in table.items():
        by_weight.setdefault(w, {})[n] = c
    counts = [0] * (levi.dim_m() + 1)
    for sizes in by_weight.values():
        for n, c in sizes.items():
            for n2, c2 in sizes.items():
                counts[n + n2] += c * c2
    return counts


def _signature(levi: LeviDatum, basis: ChevalleyBasis, monomial) -> tuple:
    return tuple(
        sorted(levi.project(basis.root_order[i - basis.rank]) for i in monomial)
    )


def _levi_rows(basis: ChevalleyBasis, generators, columns, place) -> dict:
    """Stacked rows {(generator, image): {column: coefficient}} of the Levi
    root vectors (basis indices) acting as derivations on index-tuple columns,
    times the basis-wide bracket_denominator: the entries are the ints of
    ``basis.bracket_numerators``, and a row scaled by a nonzero constant keeps
    its kernel.
    ``place(t, slot, target)`` puts a bracket output into slot ``slot`` of ``t``
    as ``(sign, image)``, or gives None when the image vanishes.  A Levi root
    plus a tangent root is never 0, so no Cartan images occur."""
    rows: dict[tuple, dict[int, int]] = {}
    indices = {idx for t in columns for idx in t}
    for x in generators:
        brackets = {idx: basis.bracket_numerators(x, idx) for idx in indices}
        for j, t in enumerate(columns):
            for slot, idx in enumerate(t):
                for target, coeff in brackets[idx]:
                    placed = place(t, slot, target)
                    if placed is None:
                        continue
                    sign, image = placed
                    row = rows.setdefault((x, image), {})
                    row[j] = row.get(j, 0) + (coeff if sign > 0 else -coeff)
    return rows


def _levi_kernel(basis: ChevalleyBasis, levi: LeviDatum, columns, place) -> list[dict]:
    """Kernel vectors {column: coefficient} of the rows of _levi_rows for the
    raising E_gamma, gamma in sorted(Gamma), followed by the lowering
    E_{-gamma} in the same order.  A weight-zero vector killed by the raisers
    is invariant (highest-weight theory), so the lowering rows reduce to zero
    against the raising ones: the raising rows must come first, or a lowering
    row could set a pivot and reorder the terms of the kernel vectors."""
    simple = [levi.rs.simple_roots[g - 1] for g in sorted(levi.gamma)]
    roots = simple + [negate(s) for s in simple]
    rows = _levi_rows(basis, [basis.index_of_root[r] for r in roots], columns, place)
    return kernel_basis(rows.values(), len(columns))


def _wedge_place(t, slot, target):
    """Wedge monomials: ``target`` replaces factor ``slot``; moving it to the
    front passes ``slot`` factors, then ``_insert_front`` sorts it in."""
    ins = _insert_front(target, t[:slot] + t[slot + 1 :])
    if ins is None:
        return None
    sign, image = ins
    return (-sign if slot & 1 else sign), image


def _tensor_place(t, slot, target):
    """Tensor tuples: ``target`` replaces the factor in place."""
    return 1, t[:slot] + (target,) + t[slot + 1 :]


def invariant_basis(
    levi: LeviDatum, basis: ChevalleyBasis, k: int
) -> list[Multivector]:
    """Exact basis of the invariant subspace of the k-th exterior power of the
    tangent space.

    Every vector owns its first monomial: the coefficient there is 1 and no
    other vector of the degree contains it (the free column of its kernel
    vector, inside a signature block disjoint from the others).
    _owner_coordinates reads coordinates in this basis off the owners."""
    monos = weight_zero_monomials(levi, basis, k)
    blocks: dict[tuple, list[tuple[int, ...]]] = {}
    for m in monos:
        blocks.setdefault(_signature(levi, basis, m), []).append(m)
    vectors: list[Multivector] = []
    for sig in sorted(blocks):
        block = blocks[sig]
        for kern in _levi_kernel(basis, levi, block, _wedge_place):
            vectors.append(Multivector(k, {block[j]: as_scalar(c) for j, c in kern.items()}))
    return vectors


def _owned_numerators(vectors: list[Multivector]) -> tuple[int, dict, list[dict]]:
    """An invariant_basis list over one common denominator L: (L, {owned
    monomial: position}, numerators), vector i being numerators[i] / L with
    numerators[i] a map {monomial: (re, im)}; it is L at the monomial it
    owns."""
    nums = [_gaussian_numerators(v.terms) for v in vectors]
    den = lcm(*(d for d, _ in nums))
    owner = {next(iter(v.terms)): i for i, v in enumerate(vectors)}
    return den, owner, [_scaled(terms, den // d) for d, terms in nums]


def _scaled(terms: dict, f: int) -> dict:
    """{key: (re, im)} times the positive int f."""
    if f == 1:
        return terms
    return {key: (re * f, im * f) for key, (re, im) in terms.items()}


def _owner_columns(owned, images) -> tuple[int, list[dict]]:
    """Coordinates in an invariant basis, given by _owned_numerators, of the
    images (D, {monomial: (re, im)}), as sparse columns {position: (re, im)}
    by increasing position over one positive denominator M: (M, columns).
    The coordinate of vector i is the image's coefficient at the monomial
    that vector owns.  Each image must equal its combination term for term,
    so an image outside the span, or a wrong owner, raises instead of giving
    wrong coordinates."""
    den, owner, vectors = owned
    cols = []
    for d, img in images:
        coords = dict(sorted((owner[m], c) for m, c in img.items() if m in owner))
        # with vector i = W_i / L and the image N / D, the combination is
        # sum_i N[owner_i] W_i / (D L): it must equal L N term for term
        combo: dict = {}
        for i, (cr, ci) in coords.items():
            for m, (br, bi) in vectors[i].items():
                xr, xi = combo.get(m, (0, 0))
                combo[m] = (xr + cr * br - ci * bi, xi + cr * bi + ci * br)
        if {m: x for m, x in combo.items() if x != (0, 0)} != _scaled(img, den):
            raise InternalInvariantError("image fell outside the invariant space")
        cols.append((d, coords))
    common = lcm(*(d for d, _ in cols))
    return common, [_scaled(coords, common // d) for d, coords in cols]


def invariant_dimension(levi: LeviDatum, basis: ChevalleyBasis, k: int) -> int:
    return len(invariant_basis(levi, basis, k))


def theta_apply(basis: ChevalleyBasis, mv: Multivector) -> Multivector:
    """The Cartan involution extended multiplicatively to multivectors."""
    out = Multivector.zero(mv.degree)
    for key, coeff in mv.terms.items():
        scale = coeff
        images = []
        for i in key:
            j, s = basis.theta_index(i)
            images.append(j)
            scale = scale * s
        # theta permutes the basis, so the images are distinct
        inversions = sum(a > b for p, a in enumerate(images) for b in images[p + 1 :])
        out._accumulate(tuple(sorted(images)), -scale if inversions & 1 else scale)
    return out


def theta_split(
    basis: ChevalleyBasis, vectors: list[Multivector]
) -> tuple[list[Multivector], list[Multivector]]:
    """Split the theta-stable span of an invariant_basis list into
    (invariant, anti-invariant) parts."""
    if not vectors:
        return [], []
    n = len(vectors)
    images = (_gaussian_numerators(theta_apply(basis, v).terms) for v in vectors)
    den, cols = _owner_columns(_owned_numerators(vectors), images)
    t_rows: list[dict] = [{} for _ in range(n)]  # the matrix den * T of theta
    for j, col in enumerate(cols):
        for i, c in col.items():
            t_rows[i][j] = c

    def shifted(s) -> list[dict]:  # rows of den * (T + s*I)
        rows = []
        for i, row in enumerate(t_rows):
            re, im = row.get(i, (0, 0))
            rows.append({**row, i: (re + s * den, im)})
        return rows

    degree = vectors[0].degree

    def combine(kern) -> Multivector:
        return sum((vectors[j].scale(c) for j, c in kern.items()), Multivector.zero(degree))

    plus = [combine(kern) for kern in kernel_basis(shifted(-1), n)]
    minus = [combine(kern) for kern in kernel_basis(shifted(1), n)]
    if len(plus) + len(minus) != n:
        raise InternalInvariantError("theta eigensplit dimensions do not add up")
    return plus, minus


class InvariantComplex:
    """The invariant polyvector complex of an orbit with the differential
    given by the projected Schouten bracket with a fixed bivector.

    Each delta_k is kept as M_k = L_k delta_k: Gaussian-integer numerators
    over one positive denominator L_k per degree, which is dropped, since
    neither a rank nor a zero product depends on it.  The differential
    squares to zero exactly; this is asserted on the numerators for each
    consecutive pair of matrices."""

    def __init__(self, levi: LeviDatum, basis: ChevalleyBasis, v: InvariantBivector):
        self.levi = levi
        self.basis = basis
        self.bivector = v
        self._vmv = realize(v, basis)
        # every column of every delta_k brackets the same bivector
        self._vmv_groups = _grouped_splits(self._vmv, gamma_indices(basis, levi))
        self._bases: dict[int, list[Multivector]] = {}

    def basis_at(self, k: int) -> list[Multivector]:
        if k not in self._bases:
            self._bases[k] = invariant_basis(self.levi, self.basis, k)
        return self._bases[k]

    def differential(self, u: Multivector) -> Multivector:
        return schouten(self.basis, self._vmv, u, self.levi, u_groups=self._vmv_groups)

    def delta_matrix(self, k: int) -> list[dict[int, tuple[int, int]]]:
        """Sparse columns {position: (re, im)} of M_k = L_k delta_k: the
        images of the degree-k basis in degree-(k+1) coordinates, times one
        positive int L_k."""
        images = (_gaussian_numerators(self.differential(u).terms) for u in self.basis_at(k))
        return _owner_columns(_owned_numerators(self.basis_at(k + 1)), images)[1]

    def betti_numbers(self) -> list[int]:
        dim_m = self.levi.dim_m()
        deltas = [self.delta_matrix(k) for k in range(dim_m + 1)]
        for k in range(1, dim_m + 1):
            self._assert_square_zero(k, deltas[k - 1], deltas[k])
        ranks = [rank_of(cols) for cols in deltas]  # ranks of the transposes
        return [
            len(self.basis_at(k)) - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(dim_m + 1)
        ]

    def _assert_square_zero(self, k: int, prev_cols, cols) -> None:
        # M_k . M_{k-1}, a positive multiple of delta_k . delta_{k-1}, must
        # vanish entrywise
        for col in prev_cols:
            acc: dict[int, tuple[int, int]] = {}
            for j, (a, b) in col.items():
                for i, (c, d) in cols[j].items():
                    xr, xi = acc.get(i, (0, 0))
                    acc[i] = (xr + a * c - b * d, xi + a * d + b * c)
            if any(x != (0, 0) for x in acc.values()):
                raise InternalInvariantError(
                    f"differential does not square to zero at degree {k - 1}"
                )


def betti_numbers(
    levi: LeviDatum, basis: ChevalleyBasis, v: InvariantBivector
) -> list[int]:
    """Cohomology dimensions of the invariant complex for a verified
    bivector."""
    return InvariantComplex(levi, basis, v).betti_numbers()


class WeylBoundExceeded(ValueError):
    pass


def weyl_coset_count(rs: RootSystem, gamma) -> int:
    """|W / W_Gamma| from the heights of positive roots (Kostant): in a root
    system the exponent m occurs #height(m) - #height(m+1) times, and |W| is
    the product of m + 1 over the exponents."""
    def order(roots) -> int:
        count = Counter(sum(r) for r in roots)
        return prod((m + 1) ** (c - count[m + 1]) for m, c in count.items())

    levi = [r for r in rs.positive_roots
            if all(c == 0 or i + 1 in gamma for i, c in enumerate(r))]
    return order(rs.positive_roots) // order(levi)


def de_rham_betti(
    rs: RootSystem, gamma, weyl_bound: int = 60000
) -> list[int]:
    """Even-degree Betti numbers of the orbit from the length generating
    function of minimal coset representatives, computed by an orbit walk on a
    dominant weight with exactly the prescribed stabilizer.  The walk visits
    one weight per coset of W/W_Gamma; more than weyl_bound cosets are
    refused before it starts."""
    gamma = frozenset(gamma)
    cosets = weyl_coset_count(rs, gamma)
    if cosets > weyl_bound:
        raise WeylBoundExceeded(
            f"{cosets} cosets of the Weyl group quotient exceed {weyl_bound}"
        )
    n = rs.rank
    start = tuple(0 if (i + 1) in gamma else 1 for i in range(n))
    cartan = rs.cartan
    lengths = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for i in range(n):
                wi = w[i]
                if not wi:
                    continue
                img = tuple(
                    w[j] - wi * cartan[i][j] for j in range(n)
                )
                if img not in lengths:
                    lengths[img] = depth
                    nxt.append(img)
        frontier = nxt
    if len(lengths) != cosets:
        raise InternalInvariantError(
            f"orbit walk visited {len(lengths)} cosets, expected {cosets}"
        )
    top = max(lengths.values())
    betti = [0] * (2 * top + 1)
    for ell in lengths.values():
        betti[2 * ell] += 1
    free = [i for i in range(1, n + 1) if i not in gamma]
    if top >= 1 and betti[2] != len(free):
        raise InternalInvariantError("degree-2 Betti number must count removed nodes")
    return betti


def tensor_multiplicity(
    levi: LeviDatum, basis: ChevalleyBasis, q1: Quasiroot, q2: Quasiroot
) -> int:
    """Multiplicity of the class module of q1+q2 inside the tensor product of
    the class modules of q1 and q2, computed as the dimension of invariants in
    the triple tensor product with the dual class."""
    q1, q2 = tuple(q1), tuple(q2)
    s = add(q1, q2)
    if s not in levi.quasiroots:
        raise ValueError(f"{q1} + {q2} is not a quasiroot")
    c1 = levi.classes[q1]
    c2 = levi.classes[q2]
    c3 = levi.classes[negate(s)]
    idx = basis.index_of_root
    triples = [
        (idx[a], idx[b], idx[c])
        for a in c1
        for b in c2
        for c in c3
        if not any(add(add(a, b), c))
    ]
    return len(_levi_kernel(basis, levi, triples, _tensor_place))
