import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from orbitpoisson import (
    InternalInvariantError,
    InvariantComplex,
    LinearForm,
    Multivector,
    WeylBoundExceeded,
    ad_action,
    admissible_pairs,
    betti_numbers,
    build_chevalley_basis,
    build_levi,
    de_rham_betti,
    invariant_basis,
    invariant_dimension,
    kks,
    phi,
    project_to_m,
    realize,
    schouten,
    solve_compatible,
    solve_recursion,
    tensor_multiplicity,
    theta_apply,
    theta_split,
    verify_square,
    weight_zero_monomials,
)
from orbitpoisson import invariants
from orbitpoisson.invariants import weyl_coset_count
from orbitpoisson.linalg import SpanSolver
from orbitpoisson.roots import negate
from orbitpoisson.scalars import GaussianRational

from conftest import get_basis, get_levi, get_rs


def orbit_id(orbit) -> str:
    return f"{orbit[0]}{orbit[1]}{list(orbit[2])}"


# the nine cohomology_real benchmark orbits
BENCH_ORBITS = [
    ("C", 3, (1,)), ("A", 4, (1, 4)), ("A", 4, (2, 3)), ("A", 4, (1, 2)),
    ("B", 4, (2, 3, 4)), ("G", 2, ()), ("A", 3, ()), ("D", 4, (1, 2, 3)), ("C", 3, (1, 2)),
]


def test_weight_zero_enumeration_small():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    assert weight_zero_monomials(levi, tb, 0) == [()]
    assert weight_zero_monomials(levi, tb, 1) == []
    assert len(weight_zero_monomials(levi, tb, 2)) == 3  # opposite pairs
    assert len(weight_zero_monomials(levi, tb, 3)) == 2  # the two signed triangles
    # complements of weight-zero sets are weight-zero
    assert len(weight_zero_monomials(levi, tb, 4)) == 3
    assert len(weight_zero_monomials(levi, tb, 6)) == 1


# dim m <= 16, so the brute force walks at most 2^16 tuples per orbit
ENUMERATION_ORBITS = [
    ("G", 2, ()), ("A", 3, ()), ("B", 3, (1,)), ("C", 3, (1,)), ("D", 4, (1, 2, 3)),
    ("A", 4, (1, 4)),
]


@pytest.mark.parametrize("orbit", ENUMERATION_ORBITS, ids=orbit_id)
def test_weight_zero_monomials_match_brute_force(orbit):
    # list equality, so the ascending order is pinned as well as the set
    t, r, gamma = orbit
    levi = get_levi(t, r, gamma)
    tb = get_basis(t, r)
    root_of = {tb.index_of_root[root]: root for root in levi.m_roots}
    tangent = sorted(root_of)
    for k in range(-1, levi.dim_m() + 2):
        expected = [] if k < 0 else [
            m for m in combinations(tangent, k)
            if not any(map(sum, zip(*(root_of[i] for i in m))))
        ]
        assert weight_zero_monomials(levi, tb, k) == expected, k
    assert invariant_basis(levi, tb, 0) == [Multivector(0, {(): GaussianRational(1)})]


def test_invariant_dimensions_a2():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    dims = [invariant_dimension(levi, tb, k) for k in range(7)]
    assert dims == [1, 0, 3, 2, 3, 0, 1]


def test_no_invariant_vector_fields():
    for t, r, gamma in [("A", 3, ()), ("A", 3, (2,)), ("B", 2, (2,)), ("D", 4, (1, 2))]:
        levi = get_levi(t, r, gamma)
        tb = get_basis(t, r)
        assert invariant_dimension(levi, tb, 1) == 0


def test_degree_two_invariants_count_quasiroot_classes():
    for t, r, gamma in [("A", 3, (2,)), ("B", 3, (1,)), ("D", 4, (1, 2)), ("B", 2, (2,))]:
        levi = get_levi(t, r, gamma)
        tb = get_basis(t, r)
        assert invariant_dimension(levi, tb, 2) == len(levi.positive_quasiroots)


def test_invariant_vectors_are_killed_by_levi_generators():
    # the Schouten kernel, not the index-level rows the basis is solved
    # from, applies every E_{+-gamma} to every basis vector in every degree
    for t, r, gamma in BENCH_ORBITS + [("D", 4, (1, 2))]:
        levi = get_levi(t, r, gamma)
        tb = get_basis(t, r)
        simple = tb.rs.simple_roots
        roots = [x for g in sorted(gamma) for x in (simple[g - 1], negate(simple[g - 1]))]
        for k in range(levi.dim_m() + 1):
            for vec in invariant_basis(levi, tb, k):
                for root in roots:
                    assert ad_action(tb, tb.root_vector(root), vec).is_zero(), (t, r, gamma, k)


LEVI_ACTION_ORBITS = [("A", 3, (1,)), ("B", 3, (2,)), ("G", 2, ()), ("D", 4, (1, 3, 4))]


@pytest.mark.parametrize("orbit", LEVI_ACTION_ORBITS, ids=orbit_id)
def test_levi_rows_on_wedges_match_ad_action(orbit):
    # the G2 full flag has no Levi generators: it checks that no row comes out
    type_label, rank, gamma = orbit
    levi = get_levi(type_label, rank, gamma)
    tb = get_basis(type_label, rank)
    simple = tb.rs.simple_roots
    roots = [r for g in sorted(gamma) for r in (simple[g - 1], negate(simple[g - 1]))]
    for k in range(levi.dim_m() + 1):
        for m in weight_zero_monomials(levi, tb, k):
            for root in roots:
                x = tb.index_of_root[root]
                rows = invariants._levi_rows(tb, [x], [m], invariants._wedge_place)
                images = {image: row[0] for (_, image), row in rows.items() if row[0]}
                assert all(type(c) is int for c in images.values())
                # the rows are the action times the basis-wide bracket denominator
                mono = Multivector(k, {m: GaussianRational(1)})
                action = ad_action(tb, tb.root_vector(root), mono).terms
                assert images == {key: c * tb.bracket_denominator for key, c in action.items()}
            if not roots:
                assert invariants._levi_rows(tb, [], [m], invariants._wedge_place) == {}


def test_theta_split_bivectors_all_anti_invariant():
    for t, r, gamma in [("A", 2, ()), ("D", 4, (1, 2))]:
        levi = get_levi(t, r, gamma)
        tb = get_basis(t, r)
        plus, minus = theta_split(tb, invariant_basis(levi, tb, 2))
        assert len(plus) == 0
        assert len(minus) == len(levi.positive_quasiroots)


@pytest.mark.parametrize("gamma", [(1, 2), (2, 3), (2, 4)])
def test_theta_invariant_trivector_line_d4(gamma):
    levi = get_levi("D", 4, gamma)
    tb = get_basis("D", 4)
    plus, minus = theta_split(tb, invariant_basis(levi, tb, 3))
    assert len(plus) == 1
    phim = project_to_m(phi(tb), tb, levi)
    assert SpanSolver([v.terms for v in plus]).contains(phim.terms)


def test_betti_cp1():
    levi = get_levi("A", 1)
    tb = get_basis("A", 1)
    v = kks(levi, LinearForm(levi, [1]))
    assert betti_numbers(levi, tb, v) == [1, 0, 1]


def test_betti_a2_full_flag():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    v = kks(levi, LinearForm(levi, [1, 2]))
    betti = betti_numbers(levi, tb, v)
    assert betti == [1, 0, 2, 0, 2, 0, 1]
    assert betti == de_rham_betti(get_rs("A", 2), ())


def test_betti_recursion_bracket_nonzero_k():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    for seeds in ([1, 2], [5, 19], [3, 9], [4, 16]):
        out = solve_recursion(levi, seeds, 1)
        assert out.is_success, seeds
        assert verify_square(out.solution, 1, tb).ok, seeds
        assert betti_numbers(levi, tb, out.solution) == de_rham_betti(get_rs("A", 2), ()), seeds


def test_betti_a4_gamma_3_matches_oracle():
    # 1012 invariant vectors, 150 in the middle degree: the smallest orbit on
    # which exact rank used to dominate the cohomology
    levi = get_levi("A", 4, (3,))
    tb = get_basis("A", 4)
    betti = betti_numbers(levi, tb, kks(levi, LinearForm(levi, [1, 2, 3])))
    assert betti == de_rham_betti(get_rs("A", 4), (3,))
    assert all(b == 0 for b in betti[1::2])


def test_de_rham_oracle():
    assert de_rham_betti(get_rs("A", 2), ()) == [1, 0, 2, 0, 2, 0, 1]
    a3 = de_rham_betti(get_rs("A", 3), (2,))
    assert a3[2] == 2  # one Betti class per removed node
    assert sum(a3) == 12  # Euler characteristic equals the coset count
    assert de_rham_betti(get_rs("A", 2), (1, 2)) == [1]
    with pytest.raises(WeylBoundExceeded):
        de_rham_betti(get_rs("E", 6), (), weyl_bound=100)
    # |W(E7)| = 2903040 exceeds the bound, but this orbit has only 56 cosets
    e7 = de_rham_betti(get_rs("E", 7), (1, 2, 3, 4, 5, 6))
    assert sum(e7) == 56 and e7[2] == 1


def test_weyl_coset_count_refuses_before_the_walk():
    orbits = [("A", 2, ()), ("A", 3, (2,)), ("A", 2, (1, 2)), ("E", 7, (1, 2, 3, 4, 5, 6))]
    for t, r, gamma in orbits:
        rs = get_rs(t, r)
        assert weyl_coset_count(rs, gamma) == sum(de_rham_betti(rs, gamma))
    assert weyl_coset_count(get_rs("E", 8), ()) == 696729600  # |W(E8)|
    with pytest.raises(WeylBoundExceeded, match="696729600 cosets"):
        de_rham_betti(get_rs("E", 8), ())


@pytest.mark.parametrize("orbit", [("A", 2, ()), ("D", 4, (1, 2)), ("G", 2, ())] + BENCH_ORBITS,
                         ids=orbit_id)
def test_weight_zero_counts_match_the_enumeration(orbit):
    t, r, gamma = orbit
    levi, tb = get_levi(t, r, gamma), get_basis(t, r)
    counts = invariants.weight_zero_counts(levi, 10**6)
    assert counts == [len(weight_zero_monomials(levi, tb, k)) for k in range(levi.dim_m() + 1)]
    # the table has more than 10 pairs (n, w) only if there are more than 10
    # monomials in all
    assert (invariants.weight_zero_counts(levi, 10) is None) <= (sum(counts) > 10)


def test_de_rham_euler_is_weyl_quotient():
    rs = get_rs("D", 4)
    assert sum(de_rham_betti(rs, (1, 2))) == 192 // 6


def test_differential_squares_to_zero_via_complex():
    levi = get_levi("A", 3, (2,))
    tb = get_basis("A", 3)
    v = kks(levi, LinearForm(levi, [1, 1]))
    complex_ = InvariantComplex(levi, tb, v)
    betti = complex_.betti_numbers()  # internally asserts the square is zero
    assert betti == de_rham_betti(get_rs("A", 3), (2,))
    assert all(b == 0 for b in betti[1::2])


def test_tensor_multiplicity_d4():
    levi = get_levi("D", 4, (1, 2))
    tb = get_basis("D", 4)
    simple = [q for q in levi.positive_quasiroots if sum(q) == 1]
    assert tensor_multiplicity(levi, tb, simple[0], simple[1]) == 1
    assert tensor_multiplicity(levi, tb, simple[1], simple[0]) == 1
    with pytest.raises(ValueError):
        tensor_multiplicity(levi, tb, simple[0], simple[0])


def test_tensor_multiplicity_equal_classes_b2():
    # V_(1) is the standard module of the Levi sl2 and V_(2) is trivial, so
    # the trivial summand of std (x) std is its exterior square, once
    levi = get_levi("B", 2, (1,))
    tb = get_basis("B", 2)
    assert len(levi.classes[(1,)]) == 2 and len(levi.classes[(2,)]) == 1
    assert tensor_multiplicity(levi, tb, (1,), (1,)) == 1


def test_euler_characteristic_of_invariant_complex():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    dims = [invariant_dimension(levi, tb, k) for k in range(7)]
    euler = sum((-1) ** k * d for k, d in enumerate(dims))
    assert euler == sum(de_rham_betti(get_rs("A", 2), ()))


OWNER_ORBITS = [("A", 2, ()), ("D", 4, (1, 2))] + BENCH_ORBITS


@pytest.mark.parametrize("orbit", OWNER_ORBITS, ids=orbit_id)
def test_invariant_basis_vectors_own_their_first_monomial(orbit):
    t, r, gamma = orbit
    levi = get_levi(t, r, gamma)
    tb = get_basis(t, r)
    for k in range(levi.dim_m() + 1):
        vectors = invariant_basis(levi, tb, k)
        owners = [next(iter(v.terms)) for v in vectors]
        for i, v in enumerate(vectors):
            assert v.terms[owners[i]] == 1, (k, i)
            assert all(owners[i] not in w.terms for j, w in enumerate(vectors) if j != i), (k, i)


class _DroppedTermComplex(InvariantComplex):
    """A differential that loses one term of every nonzero image."""

    def differential(self, u):
        img = super().differential(u)
        if img.is_zero():
            return img
        terms = dict(img.terms)
        terms.pop(next(iter(terms)))
        return Multivector(img.degree, terms)


def test_image_outside_the_invariant_span_raises():
    levi = get_levi("A", 3, (2,))
    tb = get_basis("A", 3)
    v = kks(levi, LinearForm(levi, [1, 1]))
    with pytest.raises(InternalInvariantError, match="fell outside the invariant space"):
        _DroppedTermComplex(levi, tb, v).betti_numbers()


def test_a_wrong_owner_raises(monkeypatch):
    levi = get_levi("A", 3, (2,))
    tb = get_basis("A", 3)
    v = kks(levi, LinearForm(levi, [1, 1]))
    basis = invariants.invariant_basis

    def reversed_terms(levi, tb, k):
        return [Multivector(k, dict(reversed(w.terms.items()))) for w in basis(levi, tb, k)]

    monkeypatch.setattr(invariants, "invariant_basis", reversed_terms)
    with pytest.raises(InternalInvariantError, match="fell outside the invariant space"):
        InvariantComplex(levi, tb, v).betti_numbers()


class _TwoFormComplex(InvariantComplex):
    """A differential that brackets with the complex's own bivector in even
    degrees and with the bivector of a second form in odd degrees."""

    def __init__(self, levi, tb, v, w):
        super().__init__(levi, tb, v)
        self._other = realize(w, tb)

    def differential(self, u):
        if u.degree % 2 == 0:
            return super().differential(u)
        return schouten(self.basis, self._other, u, self.levi)


@pytest.mark.parametrize("gamma, lam, other, degree", [
    ((), (1, 2, 3), (1, 1, 5), 2),
    ((2,), (1, 1), (1, 3), 3),
])
def test_a_differential_that_does_not_square_to_zero_raises(gamma, lam, other, degree):
    # each half is a cocycle condition of a verified bivector, but two
    # non-proportional forms do not make a complex
    levi, tb = get_levi("A", 3, gamma), get_basis("A", 3)
    v, w = kks(levi, LinearForm(levi, lam)), kks(levi, LinearForm(levi, other))
    message = f"differential does not square to zero at degree {degree}$"
    with pytest.raises(InternalInvariantError, match=message):
        _TwoFormComplex(levi, tb, v, w).betti_numbers()


def test_the_complex_solves_no_span(monkeypatch):
    def refuse(*args):
        raise AssertionError("a SpanSolver was used")

    monkeypatch.setattr(SpanSolver, "__init__", refuse)
    monkeypatch.setattr(SpanSolver, "express", refuse)
    rs = get_rs("A", 2)
    levi = build_levi(rs, frozenset())
    tb = build_chevalley_basis(rs)
    v = kks(levi, LinearForm(levi, [1, 2]))
    assert betti_numbers(levi, tb, v) == [1, 0, 2, 0, 2, 0, 1]
    plus, minus = theta_split(tb, invariant_basis(levi, tb, 3))
    assert len(plus) + len(minus) == 2


DIGEST_ORBITS = BENCH_ORBITS + [("A", 4, (3,))]
TENSOR_ORBITS = [("A", 3, (1,)), ("B", 3, (2,)), ("C", 3, (1, 2)), ("D", 4, (1, 3, 4))]


def invariant_digests(t, r, gamma) -> list[str]:
    """SHA-256 of repr of the terms, term order included, of the whole
    invariant basis in each degree."""
    levi, tb = get_levi(t, r, gamma), get_basis(t, r)
    return [
        hashlib.sha256(
            repr([list(v.terms.items()) for v in invariant_basis(levi, tb, k)]).encode()
        ).hexdigest()
        for k in range(levi.dim_m() + 1)
    ]


def tensor_multiplicities(t, r, gamma) -> dict[str, int]:
    levi, tb = get_levi(t, r, gamma), get_basis(t, r)
    return {f"{a}+{b}": tensor_multiplicity(levi, tb, a, b) for a, b in admissible_pairs(levi)}


def test_invariant_digests():
    """Every invariant basis of the digest orbits, byte for byte, and every
    admissible tensor multiplicity of the tensor orbits, against
    invariant_digests.json."""
    recorded = json.loads((Path(__file__).parent / "invariant_digests.json").read_text())
    for key, orbits, compute in [
        ("invariant_basis", DIGEST_ORBITS, invariant_digests),
        ("tensor_multiplicity", TENSOR_ORBITS, tensor_multiplicities),
    ]:
        rows = recorded[key]
        assert [(row["type"], row["rank"], tuple(row["gamma"])) for row in rows] == orbits
        for row in rows:
            orbit = (row["type"], row["rank"], tuple(row["gamma"]))
            assert compute(*orbit) == row["values"], (key, orbit)


def _product(a, b) -> list[dict]:
    """A.B for matrices given as sparse columns {row: entry}: column j of the
    product combines the columns of A with the entries of column j of B."""
    out = []
    for col in b:
        acc: dict = {}
        for i, c in col.items():
            for row, x in a[i].items():
                acc[row] = acc.get(row, 0) + c * x
        out.append({row: x for row, x in acc.items() if x})
    return out


@pytest.mark.parametrize(
    "orbit, mode", [(o, "kks") for o in BENCH_ORBITS] + [(("A", 3, ()), "compatible")],
    ids=lambda x: x if isinstance(x, str) else orbit_id(x),
)
def test_theta_anticommutes_with_delta(orbit, mode):
    # theta is an automorphism of the Schouten bracket and theta(v) = -v, so
    # D_k T_k = -T_{k+1} D_k exactly, with T_k the matrix of theta in degree k
    t, r, gamma = orbit
    levi, tb = get_levi(t, r, gamma), get_basis(t, r)
    lam = LinearForm(levi, range(1, len(levi.free_positions) + 1))
    if mode == "kks":
        v = kks(levi, lam)
    else:
        outcome = solve_compatible(levi, lam, GaussianRational(0, 1), "+", 1, tb)
        assert outcome.is_success
        v = outcome.solution
    complex_ = InvariantComplex(levi, tb, v)

    def values(den, cols) -> list[dict]:
        return [{i: GaussianRational(Fraction(re, den), Fraction(im, den))
                 for i, (re, im) in col.items()} for col in cols]

    def theta_matrix(k):
        images = (
            invariants._gaussian_numerators(theta_apply(tb, u).terms)
            for u in complex_.basis_at(k)
        )
        owned = invariants._owned_numerators(complex_.basis_at(k))
        return values(*invariants._owner_columns(owned, images))

    # delta_matrix gives L_k D_k for a positive int L_k, and both sides of the
    # identity are linear in D_k
    theta = theta_matrix(0)
    for k in range(levi.dim_m() + 1):
        columns = complex_.delta_matrix(k)
        assert all(type(x) is int for col in columns for entry in col.values() for x in entry)
        delta, theta_next = values(1, columns), theta_matrix(k + 1)
        minus = [{i: -c for i, c in col.items()} for col in _product(theta_next, delta)]
        assert _product(delta, theta) == minus, k
        theta = theta_next
