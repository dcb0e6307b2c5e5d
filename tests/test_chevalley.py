import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from orbitpoisson import build_chevalley_basis, build_root_system
from orbitpoisson.multivec import phi
from orbitpoisson.roots import InternalInvariantError, RootSystem, add, negate, sub

from conftest import get_basis, get_rs
from test_atlas import ATLAS


def jacobi_defect(tb, i, j, k):
    total = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for z, f in tb.bracket_index(b, c):
            for w, g in tb.bracket_index(a, z):
                total[w] = total.get(w, 0) + f * g
    return {w: v for w, v in total.items() if v}


def test_a1_killing_normalization():
    tb = get_basis("A", 1)
    alpha = (1,)
    E = tb.root_vector(alpha)
    F = tb.root_vector(negate(alpha))
    t = tb.bracket(E, F)
    assert t == tb.t_alpha(alpha)
    # alpha(t_alpha) = 1/2 in the trace-form normalization
    assert tb.weight(alpha, 0) == Fraction(1, 2)
    assert tb.killing(E, F) == 1
    assert tb.killing_opposite(alpha) == 4


def test_killing_pairing_is_one_everywhere():
    for t, r in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        tb = get_basis(t, r)
        for alpha in tb.rs.positive_roots:
            E = tb.root_vector(alpha)
            F = tb.root_vector(negate(alpha))
            assert tb.killing(E, F) == 1
            assert tb.bracket(E, F) == tb.t_alpha(alpha)


def test_normalized_killing_recomputed_as_trace():
    # independent recomputation of the trace form in the rescaled basis
    for t, r in [("A", 2), ("B", 2), ("C", 3)]:
        tb = get_basis(t, r)
        for alpha in tb.rs.positive_roots:
            i = tb.index_of_root[alpha]
            j = tb.index_of_root[negate(alpha)]
            trace = 0
            for z in range(tb.dim):
                for w, f in tb.bracket_index(j, z):
                    for w2, g in tb.bracket_index(i, w):
                        if w2 == z:
                            trace += f * g
            assert trace == 1


def test_cyclic_identity_unweighted():
    for t, r in [("A", 2), ("A", 3), ("B", 2), ("G", 2), ("D", 4)]:
        tb = get_basis(t, r)
        rs = tb.rs
        for a in rs.roots:
            for b in rs.roots:
                c = negate(add(a, b))
                if c in rs._root_set:
                    n1 = tb.structure_constant(a, b)
                    n2 = tb.structure_constant(b, c)
                    n3 = tb.structure_constant(c, a)
                    assert n1 == n2 == n3 != 0


def test_structure_constant_support():
    tb = get_basis("B", 2)
    rs = tb.rs
    for a in rs.roots:
        for b in rs.roots:
            if add(a, b) == (0, 0):
                continue
            n = tb.structure_constant(a, b)
            assert (n != 0) == (add(a, b) in rs._root_set)
            assert n == -tb.structure_constant(b, a)


def test_integral_constants_are_p_plus_one():
    for t, r in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]:
        tb = get_basis(t, r)
        rs = tb.rs
        for a in rs.roots:
            for b in rs.roots:
                if add(a, b) in rs._root_set:
                    n = tb.integral_structure_constant(a, b)
                    assert abs(n) == tb.string_length_p(a, b) + 1


def fraction_integral_constants(rs):
    """The sign and norm rules on Fractions, over the extraspecial-derived
    positive pairs: the reference for the int build, kept here as an oracle.
    Returns N(u, v) on root coordinates, a Fraction."""
    norm = {r: rs.inner(r, r) for r in rs.roots}
    positives = rs.positive_roots
    pos_set = rs._positive_set
    root_set = rs._root_set
    order = {r: k for k, r in enumerate(positives)}
    special = {}

    def string_length(a, b):
        p = 0
        cur = sub(b, a)
        while cur in root_set:
            p += 1
            cur = sub(cur, a)
        return p

    def n_pos(a, b):
        if order[a] < order[b]:
            return special[(a, b)]
        return -special[(b, a)]

    def n_any(u, v):
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
            return -norm[w] / norm[u] * n_pos(vp, w)
        wp = negate(w)
        return norm[w] / norm[vp] * n_pos(wp, u)

    for s in positives:  # ordered by height, so lower constants exist first
        if sum(s) < 2:
            continue
        pairs = [
            (x, sub(s, x))
            for x in positives
            if sub(s, x) in pos_set and order[x] < order[sub(s, x)]
        ]
        (a, b), rest = pairs[0], pairs[1:]
        special[(a, b)] = Fraction(string_length(a, b) + 1)
        for x, y in rest:
            # four-root relation on (x, y, -a, -b)
            t2 = Fraction(0)
            d1 = sub(y, a)
            if d1 in root_set:
                t2 = n_any(y, negate(a)) * n_any(x, negate(b)) / norm[d1]
            t3 = Fraction(0)
            d2 = sub(x, a)
            if d2 in root_set:
                t3 = n_any(negate(a), x) * n_any(y, negate(b)) / norm[d2]
            special[(x, y)] = norm[s] * (t2 + t3) / special[(a, b)]
    return n_any


def test_integral_constants_match_fraction_rules():
    # the norm ratios 2 (B, C, F) and 3 (G) are where an inexact int division
    # would show
    algebras = [("B", r) for r in range(2, 9)] + [("C", r) for r in range(3, 9)]
    for t, r in algebras + [("F", 4), ("G", 2)]:
        tb = get_basis(t, r)
        reference = fraction_integral_constants(tb.rs)
        for a in tb.root_order:
            for b in tb.root_order:
                n = tb.integral_structure_constant(a, b)
                assert type(n) is int, (t, r, a, b)
                assert n == reference(a, b), (t, r, a, b)


def test_inexact_norm_rule_raises(monkeypatch):
    # one short root's squared length doubled: a norm ratio no longer divides
    # the constant it scales, and the build must raise rather than round
    inner = RootSystem.inner
    for t, r, root in [("G", 2, (1, 1)), ("B", 3, (0, 1, 1))]:
        rs = build_root_system(t, r)
        assert rs.inner(root, root) < 2  # a short root

        def corrupted(self, beta, gamma, root=root):
            value = inner(self, beta, gamma)
            return 2 * value if beta == gamma == root else value

        with monkeypatch.context() as m:
            m.setattr(RootSystem, "inner", corrupted)
            with pytest.raises(InternalInvariantError):
                build_chevalley_basis(rs)


def test_killing_opposite_is_the_root_string_trace():
    # Tr(ad x_a ad x_-a) summed directly: 4 from the Cartan subalgebra and
    # x_{±a}, plus N(-a, mu) N(a, mu - a) for every other root mu
    recorded = json.loads((Path(__file__).parent / "chevalley_digests.json").read_text())
    for row in recorded:
        tb = get_basis(row["type"], row["rank"])
        rs = tb.rs
        for alpha in rs.positive_roots:
            total = 4
            for mu in rs.roots:
                shifted = add(mu, negate(alpha))
                if mu != alpha and shifted in rs._root_set:
                    total += tb.integral_structure_constant(
                        negate(alpha), mu
                    ) * tb.integral_structure_constant(alpha, shifted)
            assert total == tb.killing_opposite(alpha), (row["type"], row["rank"], alpha)


def test_bracket_denominator_is_the_least_common_one():
    # bracket_denominator times every bracket coefficient is an integer, and
    # no proper divisor of it has that property
    recorded = json.loads((Path(__file__).parent / "chevalley_digests.json").read_text())
    for row in recorded:
        tb = get_basis(row["type"], row["rank"])
        coeffs = {
            c for i in range(tb.dim) for j in range(tb.dim) for _, c in tb.bracket_index(i, j)
        }
        d = tb.bracket_denominator

        def clears(e):
            return all((e * c).denominator == 1 for c in coeffs)

        assert clears(d), (row["type"], row["rank"])
        assert not any(clears(e) for e in range(1, d) if d % e == 0), (row["type"], row["rank"])


# h^vee: with long roots of squared length 2 the Killing form is 2 h^vee ( , )
DUAL_COXETER = {
    "A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get,
    "F": lambda n: 9, "G": lambda n: 4,
}


def trace_gram(rs):
    """Tr(ad h_a ad h_b) for the simple coroots; the Cartan block adds 0."""
    pair = [[rs.coroot_pairing(mu, a) for a in range(rs.rank)] for mu in rs.roots]
    return [[sum(row[a] * row[b] for row in pair) for b in range(rs.rank)] for a in range(rs.rank)]


def solve_exact(matrix, rhs):
    """x with matrix x = rhs for a positive definite matrix, by exact
    Gauss-Jordan; positive definite, so no pivot is ever zero."""
    n = len(rhs)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for c in range(n):
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for k in range(n):
            if k != c and rows[k][c]:
                f = rows[k][c]
                rows[k] = [v - f * w for v, w in zip(rows[k], rows[c])]
    return [row[n] for row in rows]


def test_trace_gram_is_one_scale_of_the_root_form():
    # the whole Cartan trace form is s ( , ) with s read off its first entry
    assert len(ATLAS) == 31
    for t, r in ATLAS:
        rs = get_rs(t, r)
        norm = [rs.inner(a, a) for a in rs.simple_roots]
        gram = trace_gram(rs)
        s = norm[0] / 4 * gram[0][0]
        assert s == 2 * DUAL_COXETER[t](r), (t, r)
        for a in range(r):
            for b in range(r):
                root_form = rs.inner(rs.simple_roots[a], rs.simple_roots[b])
                assert gram[a][b] == s * 4 * root_form / (norm[a] * norm[b]), (t, r, a, b)


def test_weights_match_the_solved_trace_gram():
    # t_i = sum_a x_a h_a with K(t_i, h_b) = <a_i, a_b^vee>, so mu(t_i) = sum_a x_a <mu, a_a^vee>
    recorded = json.loads((Path(__file__).parent / "chevalley_digests.json").read_text())
    for row in recorded:
        tb = get_basis(row["type"], row["rank"])
        rs = tb.rs
        gram = trace_gram(rs)  # symmetric, so solving gram x = cartan[i] is enough
        for i in range(rs.rank):
            x = solve_exact(gram, rs.cartan[i])
            for mu in rs.roots:
                expected = sum(c * rs.coroot_pairing(mu, a) for a, c in enumerate(x))
                assert tb.weight(mu, i) == expected, (row["type"], row["rank"], mu, i)


def test_a2_extraspecial_sign_and_cyclic():
    tb = get_basis("A", 2)
    a1, a2 = (1, 0), (0, 1)
    n = tb.structure_constant(a1, a2)
    assert n in (1, -1)
    third = negate(add(a1, a2))
    assert tb.structure_constant(a1, a2) == tb.structure_constant(a2, third)


def test_jacobi_exhaustive_small():
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        tb = get_basis(t, r)
        for i, j, k in combinations(range(tb.dim), 3):
            assert not jacobi_defect(tb, i, j, k)


def test_jacobi_random_d4():
    tb = get_basis("D", 4)
    rng = random.Random(11)
    for _ in range(1000):
        i, j, k = rng.sample(range(tb.dim), 3)
        assert not jacobi_defect(tb, i, j, k)


def test_bracket_element_level():
    tb = get_basis("A", 2)
    alpha = (1, 0)
    E = tb.root_vector(alpha)
    assert tb.bracket(E, E) == {}
    t = tb.cartan_element([1, 0])
    [(idx, coeff)] = tb.bracket(t, E).items()
    assert idx == tb.index_of_root[alpha]
    assert coeff == tb.weight(alpha, 0)


def test_killing_ad_invariance_random():
    rng = random.Random(3)
    for t, r in [("A", 2), ("B", 2), ("D", 4)]:
        tb = get_basis(t, r)
        idx = range(tb.dim)
        for _ in range(200):
            i, j, k = (rng.choice(idx) for _ in range(3))
            xy = tb.bracket({i: 1}, {j: 1})
            xz = tb.bracket({i: 1}, {k: 1})
            lhs = tb.killing(xy, {k: 1}) + tb.killing({j: 1}, xz)
            assert not lhs


def test_cartan_involution_properties():
    for t, r in [("A", 2), ("B", 2), ("C", 3)]:
        tb = get_basis(t, r)
        rs = tb.rs
        # -1 on the Cartan subalgebra, involutive, proportional to opposite roots
        h = tb.cartan_element([1] * rs.rank)
        assert tb.cartan_involution(h) == {i: -c for i, c in h.items()}
        for alpha in rs.positive_roots:
            E = tb.root_vector(alpha)
            image = tb.cartan_involution(E)
            assert set(image) == {tb.index_of_root[negate(alpha)]}
            assert tb.cartan_involution(image) == E
        # automorphism on all basis pairs
        for i in range(tb.dim):
            for j in range(tb.dim):
                xi = tb.cartan_involution({i: 1})
                xj = tb.cartan_involution({j: 1})
                lhs = tb.cartan_involution(tb.bracket({i: 1}, {j: 1}))
                assert lhs == tb.bracket(xi, xj)


def test_cartan_involution_preserves_killing():
    tb = get_basis("B", 2)
    rng = random.Random(5)
    for _ in range(100):
        i, j = rng.choice(range(tb.dim)), rng.choice(range(tb.dim))
        x, y = {i: 1}, {j: 1}
        assert tb.killing(x, y) == tb.killing(
            tb.cartan_involution(x), tb.cartan_involution(y)
        )


def chevalley_digests(tb) -> dict[str, str]:
    """SHA-256 of bracket_index over all ordered index pairs, of
    structure_constant and integral_structure_constant over all ordered root
    pairs (a = -b included), each value written with str, and of
    killing_opposite over the positive roots."""
    brackets = hashlib.sha256()
    for i in range(tb.dim):
        for j in range(tb.dim):
            entries = " ".join(f"{k}:{c}" for k, c in tb.bracket_index(i, j))
            brackets.update(f"{i} {j} {entries}\n".encode())
    constants = hashlib.sha256()
    integral = hashlib.sha256()
    for a in tb.root_order:
        for b in tb.root_order:
            constants.update(f"{a} {b} {tb.structure_constant(a, b)}\n".encode())
            integral.update(f"{a} {b} {tb.integral_structure_constant(a, b)}\n".encode())
    killing = hashlib.sha256()
    for alpha in tb.rs.positive_roots:
        killing.update(f"{alpha} {tb.killing_opposite(alpha)}\n".encode())
    return {
        "bracket_index_sha256": brackets.hexdigest(),
        "structure_constant_sha256": constants.hexdigest(),
        "integral_structure_constant_sha256": integral.hexdigest(),
        "killing_opposite_sha256": killing.hexdigest(),
        "repr_sha256": repr_digest(tb),
    }


def repr_digest(tb) -> str:
    """SHA-256 of the repr of bracket_index over all ordered index pairs, of
    weight(mu, i), of theta_index(i) and of phi's terms in order. str writes
    Fraction(3) as 3, so only repr tells a Fraction entry from an int one."""
    h = hashlib.sha256()
    for i in range(tb.dim):
        for j in range(tb.dim):
            h.update(f"{i} {j} {tb.bracket_index(i, j)!r}\n".encode())
    for mu in tb.root_order:
        for i in range(tb.rank):
            h.update(f"{mu} {i} {tb.weight(mu, i)!r}\n".encode())
    for i in range(tb.dim):
        h.update(f"{i} {tb.theta_index(i)!r}\n".encode())
    h.update(repr(list(phi(tb).terms.items())).encode())
    return h.hexdigest()


def test_chevalley_digests():
    """The bracket table, the normalized and integral constants and the
    Killing scale, byte for byte, against the digests recorded in
    chevalley_digests.json."""
    recorded = json.loads((Path(__file__).parent / "chevalley_digests.json").read_text())
    assert [(row["type"], row["rank"]) for row in recorded] == [
        ("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)
    ]
    for row in recorded:
        got = chevalley_digests(get_basis(row["type"], row["rank"]))
        assert got == {k: row[k] for k in got}, (row["type"], row["rank"])
