import hashlib
import json
import random
from pathlib import Path

from orbitpoisson import (
    Multivector,
    ad_action,
    diagonal_bivector,
    diagonal_coefficient_formula,
    gamma_indices,
    phi,
    project_to_m,
    r_matrix,
    schouten,
    theta_apply,
    wedge,
)
from orbitpoisson.multivec import _insert_front, _merge_sorted
from orbitpoisson.roots import add, negate
from orbitpoisson.scalars import as_scalar

from conftest import get_basis, get_levi


def random_multivector(tb, degree, rng, nterms=3):
    out = Multivector.zero(degree)
    for _ in range(nterms):
        key = tuple(sorted(rng.sample(range(tb.dim), degree)))
        out._accumulate(key, as_scalar(rng.randint(-5, 5)))
    return out


# coefficients of several denominators, one of them Gaussian, so the
# common denominator of an operand is rarely any one coefficient's
MIXED = tuple(as_scalar(s) for s in ("1/3", "-2/7", "5/12", "5/6+1/4*i"))


def mixed_multivector(tb, degree, rng, nterms=4):
    out = Multivector.zero(degree)
    for _ in range(nterms):
        key = tuple(sorted(rng.sample(range(tb.dim), degree)))
        out._accumulate(key, rng.choice(MIXED))
    return out


DIGEST_ORBITS = [("A", 3, (1,)), ("B", 3, (2,)), ("D", 4, (1, 3, 4)), ("G", 2, ())]


def test_wedge_alternation_and_antisymmetry():
    tb = get_basis("A", 2)
    e = Multivector.basis_element([tb.rank])
    f = Multivector.basis_element([tb.rank + 1])
    assert wedge(e, e).is_zero()
    assert wedge(e, f) == wedge(f, e).scale(-1)


def test_wedge_bilinearity_random():
    tb = get_basis("B", 2)
    rng = random.Random(2)
    for _ in range(30):
        u = random_multivector(tb, 1, rng)
        v = random_multivector(tb, 1, rng)
        w = random_multivector(tb, 2, rng)
        assert wedge(u + v, w) == wedge(u, w) + wedge(v, w)


def test_wedge_associativity_random():
    tb = get_basis("A", 3)
    rng = random.Random(9)
    for _ in range(20):
        u = random_multivector(tb, 1, rng)
        v = random_multivector(tb, 2, rng)
        w = random_multivector(tb, 1, rng)
        assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


def test_schouten_degree_one_is_bracket():
    tb = get_basis("A", 1)
    alpha = (1,)
    E = Multivector.basis_element([tb.index_of_root[alpha]])
    F = Multivector.basis_element([tb.index_of_root[negate(alpha)]])
    result = schouten(tb, E, F)
    assert result.degree == 1
    assert dict(result.terms) == {(0,): as_scalar(1)}  # t_alpha


def test_schouten_a1_bivector_square():
    tb = get_basis("A", 1)
    r = r_matrix(tb)
    sq = schouten(tb, r, r)
    # equals 2 t ^ E ^ F
    expected = wedge(
        Multivector.basis_element([0]),
        wedge(
            Multivector.basis_element([tb.index_of_root[(1,)]]),
            Multivector.basis_element([tb.index_of_root[(-1,)]]),
        ),
    ).scale(2)
    assert sq == expected


def test_schouten_graded_symmetry_random():
    tb = get_basis("A", 2)
    rng = random.Random(4)
    for da, db in [(2, 2), (2, 3), (3, 3), (1, 2)]:
        for _ in range(10):
            u = random_multivector(tb, da, rng)
            v = random_multivector(tb, db, rng)
            sign = -((-1) ** ((da - 1) * (db - 1)))
            assert schouten(tb, u, v) == schouten(tb, v, u).scale(sign)


def test_schouten_leibniz_random():
    # [[u, v ^ w]] = [[u, v]] ^ w + (-1)^((deg u - 1) deg v) v ^ [[u, w]]
    tb = get_basis("A", 2)
    rng = random.Random(8)
    for du, dv, dw in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 2)]:
        for _ in range(8):
            u = random_multivector(tb, du, rng)
            v = random_multivector(tb, dv, rng)
            w = random_multivector(tb, dw, rng)
            lhs = schouten(tb, u, wedge(v, w))
            rhs = wedge(schouten(tb, u, v), w) + wedge(
                v, schouten(tb, u, w)
            ).scale((-1) ** ((du - 1) * dv))
            assert lhs == rhs


def test_schouten_graded_jacobi_random():
    tb = get_basis("A", 2)
    rng = random.Random(6)
    for degs in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 2)]:
        du, dv, dw = degs
        for _ in range(6):
            u = random_multivector(tb, du, rng, nterms=2)
            v = random_multivector(tb, dv, rng, nterms=2)
            w = random_multivector(tb, dw, rng, nterms=2)
            a, b, c = du - 1, dv - 1, dw - 1
            total = (
                schouten(tb, u, schouten(tb, v, w)).scale((-1) ** (a * c))
                + schouten(tb, v, schouten(tb, w, u)).scale((-1) ** (b * a))
                + schouten(tb, w, schouten(tb, u, v)).scale((-1) ** (c * b))
            )
            assert total.is_zero()


def ad_reference(tb, x, u):
    """ad(x) on u from the Lie bracket alone: the sum over j of
    Y_1^...^[x, Y_j]^...^Y_k on every term c * Y_1^...^Y_k."""
    out = Multivector.zero(u.degree)
    for key, c in u.terms.items():
        for j in range(len(key)):
            term = Multivector(0, {(): c})
            for p, idx in enumerate(key):
                factor = tb.bracket(x, {idx: 1}) if p == j else {idx: 1}
                term = wedge(term, Multivector(1, {(i,): f for i, f in factor.items()}))
            out = out + term
    return out


def test_ad_action_derivation_and_weights():
    tb = get_basis("A", 2)
    rng = random.Random(12)
    alpha = (1, 0)
    # opposite weights cancel under the Cartan action
    t = tb.cartan_element([1, 1])
    pair = wedge(
        Multivector.basis_element([tb.index_of_root[alpha]]),
        Multivector.basis_element([tb.index_of_root[negate(alpha)]]),
    )
    assert ad_action(tb, t, pair).is_zero()
    # derivation property on random inputs
    for _ in range(20):
        x = {rng.randrange(tb.dim): as_scalar(rng.randint(-3, 3))}
        u = random_multivector(tb, 1, rng)
        v = random_multivector(tb, 2, rng)
        lhs = ad_action(tb, x, wedge(u, v))
        rhs = wedge(ad_action(tb, x, u), v) + wedge(u, ad_action(tb, x, v))
        assert lhs == rhs
    # ad agrees with the derivation built from the Lie bracket and wedge
    for degree in (1, 2, 3):
        for _ in range(10):
            x = {i: as_scalar(rng.randint(-3, 3)) for i in rng.sample(range(tb.dim), 2)}
            u = random_multivector(tb, degree, rng)
            assert ad_action(tb, x, u) == ad_reference(tb, x, u)


def test_r_matrix_term_counts():
    assert len(r_matrix(get_basis("A", 1))) == 1
    assert len(r_matrix(get_basis("A", 2))) == 3
    levi = get_levi("A", 2, (1,))
    assert len(r_matrix(get_basis("A", 2), levi)) == 2


def test_r_matrix_invariant_modulo_levi():
    tb = get_basis("A", 2)
    levi = get_levi("A", 2, (1,))
    r = r_matrix(tb)
    for g in (1,):
        for root in ((1, 0), (-1, 0)):
            moved = ad_action(tb, tb.root_vector(root), r)
            assert not moved.is_zero()  # not invariant upstairs
            assert project_to_m(moved, tb, levi).is_zero()  # invariant on the orbit


def test_project_idempotent_and_selective():
    tb = get_basis("A", 2)
    levi = get_levi("A", 2, (1,))
    ph = phi(tb)
    once = project_to_m(ph, tb, levi)
    assert project_to_m(once, tb, levi) == once
    banned = set(range(tb.rank)) | {
        tb.index_of_root[r] for r in levi.omega_gamma
    }
    for key in once.terms:
        assert banned.isdisjoint(key)


def test_truncated_r_square_equals_projected_phi():
    for t, r, gamma in [("A", 2, (1,)), ("B", 2, (2,)), ("D", 4, (1, 2))]:
        tb = get_basis(t, r)
        levi = get_levi(t, r, gamma)
        rt = r_matrix(tb, levi)
        lhs = project_to_m(schouten(tb, rt, rt), tb, levi)
        rhs = project_to_m(phi(tb), tb, levi)
        assert lhs == rhs


def test_projected_schouten_is_projection_of_full():
    rng = random.Random(11)
    for t, r, gamma in [("A", 3, (1,)), ("B", 3, (2,)), ("D", 4, (1, 3, 4)), ("G", 2, ())]:
        tb = get_basis(t, r)
        levi = get_levi(t, r, gamma)
        tangent = sorted(set(range(tb.dim)) - gamma_indices(tb, levi))

        def tangent_multivector(degree):
            out = Multivector.zero(degree)
            for _ in range(4):
                key = tuple(sorted(rng.sample(tangent, degree)))
                out._accumulate(key, as_scalar(rng.randint(-5, 5)))
            return out

        operands = [r_matrix(tb), phi(tb), r_matrix(tb, levi)]
        operands += [tangent_multivector(d) for d in (2, 2, 3, 3)]
        # splitting t1 off (0, t1) leaves the stabilizer index 0, so t1 is
        # met before t0 without a Levi datum and after it with one
        t0, t1 = tangent[0], tangent[-1]
        operands.append(Multivector(2, {(0, t1): as_scalar(1), (t0, t1): as_scalar(2)}))
        operands += [random_multivector(tb, d, rng) for d in (1, 2, 3)]
        for u in operands:
            for v in operands:
                if u.degree + v.degree > 5:
                    continue
                projected = schouten(tb, u, v, levi)
                reference = project_to_m(schouten(tb, u, v), tb, levi)
                assert projected == reference
                assert list(projected.terms) == list(reference.terms)


def _schouten_reference(tb, u, v, levi=None):
    """The classical double sum: every term pair, every factor pair,
    (-1)^(i+j) [X_i, Y_j] ^ X_(i-hat) ^ Y_(j-hat), with one bracket lookup
    per factor pair. With a Levi datum, factor pairs whose rests hold a
    stabilizer index and bracket outputs in the stabilizer are skipped."""
    banned = frozenset() if levi is None else gamma_indices(tb, levi)
    out = Multivector.zero(max(u.degree + v.degree - 1, 0))
    if u.degree == 0 or v.degree == 0:
        return out
    for ka, ca in u.terms.items():
        for kb, cb in v.terms.items():
            for i, xi in enumerate(ka):
                rest_a = ka[:i] + ka[i + 1 :]
                for j, yj in enumerate(kb):
                    rest_b = kb[:j] + kb[j + 1 :]
                    if not banned.isdisjoint(rest_a + rest_b):
                        continue
                    merged = _merge_sorted(rest_a, rest_b)
                    if merged is None:
                        continue
                    msign, rest = merged
                    for z, f in tb.bracket_index(xi, yj):
                        if z in banned:
                            continue
                        ins = _insert_front(z, rest)
                        if ins is None:
                            continue
                        isign, key = ins
                        out._accumulate(key, ca * cb * ((-1) ** (i + j) * msign * isign * f))
    return out


def test_schouten_matches_reference_double_sum():
    # random operands over the whole algebra, stabilizer factors included,
    # with Gaussian coefficients and with mixed denominators
    rng = random.Random(23)
    gauss = as_scalar("1/2+i")
    for t, r, gamma in DIGEST_ORBITS:
        tb = get_basis(t, r)
        levi = get_levi(t, r, gamma)
        operands = [r_matrix(tb), r_matrix(tb, levi), phi(tb)]
        for d in (1, 2, 3, 4):
            w = random_multivector(tb, d, rng)
            operands.append(w + random_multivector(tb, d, rng, nterms=2).scale(gauss))
        operands += [mixed_multivector(tb, d, rng) for d in (1, 2, 3)]
        for u in operands:
            for v in operands:
                if u.degree + v.degree > 5:
                    continue
                for lv in (None, levi):
                    got = schouten(tb, u, v, lv)
                    assert got.degree == u.degree + v.degree - 1
                    assert dict(got.terms) == dict(_schouten_reference(tb, u, v, lv).terms)


def test_phi_invariance():
    for t, r in [("A", 2), ("B", 2)]:
        tb = get_basis(t, r)
        ph = phi(tb)
        for i in range(tb.rank):
            gens = [
                tb.cartan_element([1 if j == i else 0 for j in range(tb.rank)]),
                tb.root_vector(tb.rs.simple_roots[i]),
                tb.root_vector(negate(tb.rs.simple_roots[i])),
            ]
            for g in gens:
                assert ad_action(tb, g, ph).is_zero()


def test_phi_theta_parity_consistent():
    # the involution fixes the invariant trivector, in every type checked
    parities = []
    for t, r in [("A", 1), ("A", 2), ("A", 3), ("B", 2)]:
        tb = get_basis(t, r)
        ph = phi(tb)
        image = theta_apply(tb, ph)
        if image == ph:
            parities.append(1)
        elif image == ph.scale(-1):
            parities.append(-1)
        else:
            raise AssertionError("trivector is not a theta eigenvector")
    assert set(parities) == {1}


def test_diagonal_coefficient_formula_vs_expansion():
    # the closed coefficient formula against brute-force expansion
    rng = random.Random(21)
    for t, r in [("A", 2), ("B", 2)]:
        tb = get_basis(t, r)
        rs = tb.rs
        for _ in range(25):
            c = {a: as_scalar(rng.randint(-4, 4)) for a in rs.positive_roots}
            d = {a: as_scalar(rng.randint(-4, 4)) for a in rs.positive_roots}
            bracket = schouten(tb, diagonal_bivector(tb, c), diagonal_bivector(tb, d))
            for alpha in rs.positive_roots:
                for beta in rs.positive_roots:
                    if add(alpha, beta) not in rs._root_set:
                        continue
                    predicted = diagonal_coefficient_formula(tb, c, d, alpha, beta)
                    # read off the actual coefficient of E_{a+b} ^ E_{-a} ^ E_{-b}
                    i, j, k = (
                        tb.index_of_root[add(alpha, beta)],
                        tb.index_of_root[negate(alpha)],
                        tb.index_of_root[negate(beta)],
                    )
                    got = _wedge_coefficient(bracket, (i, j, k))
                    assert got == predicted


def _wedge_coefficient(mv, unordered):
    """Coefficient of e_{i} ^ e_{j} ^ e_{k} in the given (possibly unsorted)
    factor order."""
    order = sorted(range(len(unordered)), key=lambda p: unordered[p])
    key = tuple(unordered[p] for p in order)
    if len(set(key)) != len(key):
        return as_scalar(0)
    sign = 1
    seen = [False] * len(order)
    for s in range(len(order)):
        if seen[s]:
            continue
        length = 0
        p = s
        while not seen[p]:
            seen[p] = True
            p = order[p]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return mv.coefficient(key) * sign


# in ("r", "r"), and in ("w2", "w3") on A3 and B3, some output keys cancel
# to zero and come back later, so the digests pin where a re-inserted key
# lands; the bracket with phi is zero, so ("w2", "phi") pins exact
# cancellation
DIGEST_PAIRS = [
    ("r", "r"), ("rt", "rt"), ("r", "rt"), ("x", "r"), ("x", "w2"),
    ("x", "w3"), ("w1", "w2"), ("w1", "w3"), ("w2", "w2"), ("w2", "w3"),
    ("w3", "w2"), ("w2", "rt"), ("r", "w3"), ("w2", "phi"),
]


def _terms_digest(mv):
    return hashlib.sha256(repr(list(mv.terms.items())).encode()).hexdigest()


def schouten_digests(t, r, gamma):
    """SHA-256 of repr(list(terms.items())), so values, Fraction parts and
    term order, of every digest pair without and with the Levi datum (key
    suffix |m), and of one ad_action. The operands are the r-matrix, its
    truncation, the trivector, a degree-one element x and random
    mixed-denominator multivectors w1..w3 over the whole algebra."""
    tb, levi = get_basis(t, r), get_levi(t, r, gamma)
    rng = random.Random(10 * r + len(gamma))
    x = {i: rng.choice(MIXED) for i in sorted(rng.sample(range(tb.dim), 3))}
    ops = {
        "r": r_matrix(tb), "rt": r_matrix(tb, levi), "phi": phi(tb),
        "x": Multivector(1, {(i,): c for i, c in x.items()}),
    }
    for d in (1, 2, 3):
        ops[f"w{d}"] = mixed_multivector(tb, d, rng)
    out = {}
    for a, b in DIGEST_PAIRS:
        out[f"{a},{b}"] = _terms_digest(schouten(tb, ops[a], ops[b]))
        out[f"{a},{b}|m"] = _terms_digest(schouten(tb, ops[a], ops[b], levi))
    out["ad_action(x, rt)"] = _terms_digest(ad_action(tb, x, ops["rt"]))
    return out


def test_schouten_digests():
    """Every digest pair on the four digest orbits, byte for byte, against
    the digests recorded in schouten_digests.json."""
    recorded = json.loads((Path(__file__).parent / "schouten_digests.json").read_text())
    assert [(row["type"], row["rank"], tuple(row["gamma"])) for row in recorded] == DIGEST_ORBITS
    for row in recorded:
        orbit = (row["type"], row["rank"], tuple(row["gamma"]))
        assert schouten_digests(*orbit) == row["digests"], orbit
