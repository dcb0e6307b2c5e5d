import random
from fractions import Fraction

import pytest

from orbitpoisson import (
    InvariantBivector,
    LinearForm,
    ad_action,
    bivector_matrix_rank,
    build_levi,
    classify_good,
    find_inconsistency_witness,
    kks,
    pencil,
    quasiclassical_poisson_check,
    realize,
    recursion_pairwise_values,
    r_matrix,
    solve_compatible,
    solve_recursion,
    verify_compatible,
    verify_square,
)
from orbitpoisson.linalg import rank_of
from orbitpoisson.roots import negate
from orbitpoisson.scalars import GaussianRational, as_scalar, parse_scalar

from conftest import get_basis, get_levi, get_rs

I = GaussianRational(0, 1)


def test_linear_form_rejects_vanishing():
    levi = get_levi("A", 2)
    with pytest.raises(ValueError):
        LinearForm(levi, [1, -1])  # vanishes on the sum quasiroot
    lam = LinearForm(levi, [1, 2])
    assert lam((1, 1)) == 3


def test_linear_form_rejects_an_argument_of_the_wrong_length():
    # zip and map stop at the shorter input, so a short or long argument
    # would otherwise be cut silently
    lam = LinearForm(get_levi("A", 3), [1, 2, 3])
    with pytest.raises(ValueError, match="length 3"):
        lam((1,))
    lam = LinearForm(get_levi("A", 3, (2,)), [1, 5])
    with pytest.raises(ValueError, match="length 2"):
        lam((1, 1, 1))  # a full root where a quasiroot belongs


def _form_reference(q, values):
    """Sum of coord * value in GaussianRational arithmetic."""
    total = GaussianRational(0)
    for coord, v in zip(q, values, strict=True):
        total = total + coord * v
    return total


def test_linear_form_matches_gaussian_reference():
    draws = [parse_scalar(s) for s in ("1/2+i", "-3/4", "2*i", "7/3-1/5*i")]
    draws += list(range(-3, 4))
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for t, r in [("A", 4), ("B", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]:
        for gamma in [(), (1,), (2,)]:
            levi = get_levi(t, r, gamma)
            for _ in range(8):
                values = [rng.choice(draws) for _ in levi.free_positions]
                vanishes = any(
                    not _form_reference(q, values) for q in levi.positive_quasiroots
                )
                seen[vanishes] += 1
                if vanishes:
                    with pytest.raises(ValueError, match="vanishes"):
                        LinearForm(levi, values)
                    continue
                lam = LinearForm(levi, values)
                assert lam.values == tuple(as_scalar(v) for v in values)
                for q in levi.quasiroots:
                    assert lam(q) == _form_reference(q, values), (t, r, gamma, q)
    assert seen[True] and seen[False]
    a2 = get_levi("A", 2)
    for values in ([1, -1], [I, -I]):
        with pytest.raises(ValueError, match="vanishes"):
            LinearForm(a2, values)


def test_invariant_bivector_keys_checked():
    levi = get_levi("A", 2)
    with pytest.raises(ValueError):
        InvariantBivector(levi, {(2, 0): 1})


def test_invariant_bivector_equality_compares_orbits_not_objects():
    # two distinct but equal Levi data
    lam = [1, 2]
    a = build_levi(get_rs("A", 2), ())
    b = build_levi(get_rs("A", 2), ())
    assert a is not b
    assert kks(a, LinearForm(a, lam)) == kks(b, LinearForm(b, lam))
    # same gamma, different algebras
    a3, b3 = get_levi("A", 3, (1,)), get_levi("B", 3, (1,))
    assert kks(a3, LinearForm(a3, lam)) != kks(b3, LinearForm(b3, lam))
    # same gamma and quasiroot labels, equal coefficients: only the type differs
    a4, d4 = get_levi("A", 4, (1, 2)), get_levi("D", 4, (1, 2))
    assert a4.positive_quasiroots == d4.positive_quasiroots
    coeffs = {q: 1 for q in a4.positive_quasiroots}
    assert InvariantBivector(a4, coeffs) != InvariantBivector(d4, coeffs)


def test_realize_zero_and_r_matrix():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    zero = InvariantBivector(levi, {})
    assert realize(zero, tb).is_zero()
    ones = InvariantBivector(levi, {q: 1 for q in levi.positive_quasiroots})
    assert realize(ones, tb) == r_matrix(tb, levi)


def test_realize_invariance_d4():
    levi = get_levi("D", 4, (1, 2))
    tb = get_basis("D", 4)
    rng = random.Random(13)
    coeffs = {q: rng.randint(1, 9) for q in levi.positive_quasiroots}
    v = realize(InvariantBivector(levi, coeffs), tb)
    assert not v.is_zero()
    simple = tb.rs.simple_roots
    for g in sorted(levi.gamma):
        for root in (simple[g - 1], negate(simple[g - 1])):
            assert ad_action(tb, tb.root_vector(root), v).is_zero(), root


def test_recursion_examples():
    levi = get_levi("A", 2)
    assert solve_recursion(levi, [1, 1], 0).solution.coefficient((1, 1)) == Fraction(1, 2)
    assert solve_recursion(levi, [2, 3], 1).solution.coefficient((1, 1)) == Fraction(7, 5)
    levi3 = get_levi("A", 3)
    out = solve_recursion(levi3, [1, 1, 1], 1)
    assert out.solution.coefficient((1, 1, 1)) == 1


def test_recursion_association_orders_agree():
    levi3 = get_levi("A", 3)
    rng = random.Random(1)
    for _ in range(10):
        seeds = [rng.randint(1, 9) for _ in range(3)]
        values = recursion_pairwise_values(levi3, seeds, 1)
        closed = solve_recursion(levi3, seeds, 1).solution
        for q in levi3.positive_quasiroots:
            assert values[q] == {closed.coefficient(q)}


def test_recursion_rejects_zero_seed_and_bad_denominator():
    levi = get_levi("A", 2)
    out = solve_recursion(levi, [0, 1], 1)
    assert not out.is_success and out.witness.pattern == "zero-seed"
    # seeds (1, -1): denominator of the sum class vanishes for K = 0
    out2 = solve_recursion(levi, [1, -1], 0)
    assert not out2.is_success and out2.witness.quasiroot == (1, 1)


def test_recursion_gaussian_k():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    out = solve_recursion(levi, [1, 1], I)
    assert out.is_success
    report = verify_square(out.solution, I, tb)
    assert report.ok


def test_recursion_verify_square_random():
    rng = random.Random(77)
    for t, r in [("A", 2), ("A", 3)]:
        levi = get_levi(t, r)
        tb = get_basis(t, r)
        for _ in range(10):
            seeds = [rng.randint(1, 9) for _ in levi.simple_quasiroots]
            K = rng.randint(0, 3)
            out = solve_recursion(levi, seeds, K)
            if out.is_success:
                assert verify_square(out.solution, K, tb).ok


def test_kks_reciprocals_and_square():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    lam = LinearForm(levi, [1, 2])
    v = kks(levi, lam)
    assert v.coefficient((1, 0)) == 1
    assert v.coefficient((0, 1)) == Fraction(1, 2)
    assert v.coefficient((1, 1)) == Fraction(1, 3)
    assert verify_square(v, 0, tb).ok
    assert verify_compatible(v, lam, tb).ok
    assert bivector_matrix_rank(v, tb) == levi.dim_m()
    # a zero class coefficient drops both roots of class (1, 0) from the rank
    tb3 = get_basis("A", 3)
    w = InvariantBivector(get_levi("A", 3, (2,)), {(1, 0): 0, (0, 1): 5, (1, 1): I})
    terms = realize(w, tb3).terms
    rows = [{j: c} for (j, i), c in terms.items()] + [{i: -c} for (j, i), c in terms.items()]
    assert bivector_matrix_rank(w, tb3) == rank_of(rows) == 2 * 3


def test_kks_symmetric_orbit_single_coefficient():
    levi = get_levi("B", 2, (2,))
    lam = LinearForm(levi, [3])
    v = kks(levi, lam)
    assert v.coefficient((1,)) == Fraction(1, 3)


def test_verify_square_failure_report():
    levi = get_levi("B", 2)
    tb = get_basis("B", 2)
    ones = InvariantBivector(levi, {q: 1 for q in levi.positive_quasiroots})
    report = verify_square(ones, 0, tb)
    assert not report.ok
    assert report.pair_failures and not report.multivector_ok
    assert report.agree  # both checks fail together


def test_solve_compatible_a2_example():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    lam = LinearForm(levi, [1, 1])
    out = solve_compatible(levi, lam, 1, "+", 0, tb)
    assert out.solution.coefficient((1, 0)) == 0
    assert out.solution.coefficient((0, 1)) == 2
    assert out.solution.coefficient((1, 1)) == Fraction(1, 2)
    assert out.verification["square"].ok
    assert out.verification["compatible"].ok
    assert out.verification["sign_consistent"]
    assert out.verification["triple_chain_ok"]


def test_solve_compatible_symmetric_any_seed():
    levi = get_levi("B", 2, (2,))
    tb = get_basis("B", 2)
    lam = LinearForm(levi, [1])
    for seed in (0, 1, 7):
        out = solve_compatible(levi, lam, 1, "+", seed, tb)
        assert out.is_success


def test_solve_compatible_b2_witness():
    levi = get_levi("B", 2)
    tb = get_basis("B", 2)
    lam = LinearForm(levi, [1, 1])
    out = solve_compatible(levi, lam, 1, "+", 1, tb)
    assert not out.is_success
    assert out.witness.quasiroot == (1, 1)


def test_solve_compatible_signs_and_k_values():
    levi = get_levi("A", 3)
    tb = get_basis("A", 3)
    lam = LinearForm(levi, [1, 2, 3])
    rng = random.Random(5)
    for sign in ("+", "-"):
        for K in (1, 2, I):
            seed = rng.randint(-3, 3)
            out = solve_compatible(levi, lam, K, sign, seed, tb)
            assert out.is_success


def test_solve_compatible_k_zero_rejected():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    with pytest.raises(ValueError):
        solve_compatible(levi, LinearForm(levi, [1, 1]), 0, "+", 1, tb)


def test_witness_patterns():
    assert find_inconsistency_witness(get_levi("B", 2)).pattern == "repeated-triple"
    assert find_inconsistency_witness(get_levi("B", 2, (1,))).pattern == "doubled-pair"
    assert find_inconsistency_witness(get_levi("D", 4, (2,))).quasiroot == (1, 1, 1)
    assert find_inconsistency_witness(get_levi("A", 3)) is None
    # the first hit of the chained-quadruple search, in its fixed search order
    pinned = {
        ("E", 6): ((1, 1, 1, 2, 2, 1),
                   ((1, 1, 1, 1, 1, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 1, 1, 0),
                    (0, 1, 0, 0, 0, 0)),
                   (0, 1, 0, 1, 1, 1)),
        ("E", 7): ((0, 1, 1, 2, 2, 1, 1),
                   ((0, 0, 0, 0, 0, 0, 1), (0, 1, 1, 2, 1, 1, 0), (0, 0, 0, 0, 1, 0, 0),
                    (0, 0, 0, 0, 0, 1, 1)),
                   (0, 1, 1, 2, 2, 2, 1)),
        ("E", 8): ((0, 1, 1, 2, 1, 1, 1, 0),
                   ((0, 0, 0, 1, 1, 1, 1, 0), (0, 1, 0, 0, 0, 0, 0, 0),
                    (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 0)),
                   (0, 1, 1, 1, 1, 1, 1, 0)),
        ("D", 5): ((1, 1, 1, 1, 1),
                   ((0, 0, 0, 1, 0), (0, 1, 1, 0, 1), (1, 0, 0, 0, 0), (0, 1, 1, 1, 0)),
                   (1, 2, 2, 1, 1)),
    }
    for (t, r), (quasiroot, data, alternate) in pinned.items():
        w = find_inconsistency_witness(get_levi(t, r))
        assert w.pattern == "chained-quadruple"
        assert (w.quasiroot, w.data, w.alternate) == (quasiroot, data, alternate), (t, r)


def test_classify_good_examples():
    tb4 = get_basis("A", 4)
    from itertools import combinations

    for k in range(5):
        for combo in combinations(range(1, 5), k):
            assert classify_good(get_rs("A", 4), combo, tb4).good

    tbd = get_basis("D", 4)
    verdict = classify_good(get_rs("D", 4), (1, 2), tbd)
    assert verdict.good and verdict.chain is not None and len(verdict.chain) == 2
    bad = classify_good(get_rs("D", 4), (2,), tbd)
    assert not bad.good and bad.witness.quasiroot == (1, 1, 1)


def test_classify_good_decides_the_type_once(monkeypatch):
    from orbitpoisson import levi as levi_module

    calls = []
    original = levi_module.quasiroot_system_type

    def counted(levi):
        calls.append(levi)
        return original(levi)

    monkeypatch.setattr(levi_module, "quasiroot_system_type", counted)
    for gamma in [(), (2,), (1, 2)]:
        calls.clear()
        verdict = classify_good(get_rs("D", 4), gamma, get_basis("D", 4))
        assert calls == [verdict.levi]
        assert verdict.levi.gamma == frozenset(gamma)
        assert verdict.chain == verdict.levi.type_verdict.chain


def test_classify_good_computes_the_pairs_once(monkeypatch):
    import sys

    from orbitpoisson import levi as levi_module

    calls = []
    original = levi_module.admissible_pairs

    def counted(levi):
        calls.append(levi)
        return original(levi)

    # replace every binding, so that a module importing the name is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("orbitpoisson") and vars(module).get("admissible_pairs") is original:
            monkeypatch.setattr(module, "admissible_pairs", counted)
    verdict = classify_good(get_rs("D", 4), (1, 2), get_basis("D", 4))
    assert verdict.good
    assert calls == [verdict.levi]


def test_classify_good_b_type_highest_root():
    tb = get_basis("B", 3)
    assert classify_good(get_rs("B", 3), (2, 3), tb).good  # removes the end node
    assert not classify_good(get_rs("B", 3), (1, 3), tb).good
    assert not classify_good(get_rs("B", 3), (1, 2), tb).good


def test_classify_deterministic_lambda():
    tb = get_basis("A", 3)
    a = classify_good(get_rs("A", 3), (2,), tb, rng_seed=4)
    b = classify_good(get_rs("A", 3), (2,), tb, rng_seed=4)
    assert a.lambda_values == b.lambda_values


def test_pencil_preserves_conditions():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    lam = LinearForm(levi, [1, 1])
    v = kks(levi, lam)
    f0 = solve_compatible(levi, lam, 1, "+", 0, tb).solution
    assert pencil(f0, v, 0) == f0
    member = pencil(f0, v, 1)
    assert verify_square(member, 1, tb).ok
    assert verify_compatible(member, lam, tb).ok
    flipped = pencil(f0, v, Fraction(2, 3), sign="-")
    assert verify_square(flipped, 1, tb).ok
    # scaling by i flips the sign of the square
    fi = f0.scale(I)
    assert verify_square(fi, I, tb).ok


def test_pencil_rejects_another_algebra():
    # A3{1} and B3{1} share gamma, and B3{1} has every quasiroot label of A3{1}
    a3, b3 = get_levi("A", 3, (1,)), get_levi("B", 3, (1,))
    f0 = kks(a3, LinearForm(a3, [1, 2]))
    v = kks(b3, LinearForm(b3, [1, 2]))
    with pytest.raises(ValueError):
        pencil(f0, v, 1)


def test_classify_good_rejects_a_form_of_another_algebra():
    lam = LinearForm(get_levi("A", 3, (1,)), [1, 2])
    with pytest.raises(ValueError):
        classify_good(get_rs("B", 3), (1,), get_basis("B", 3), lam=lam)


def test_quasiclassical_certificate_and_strict():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    lam = LinearForm(levi, [1, 1])
    # generic seed: certificate holds, same-realization cross terms do not vanish
    sol = solve_compatible(levi, lam, I, "+", 0, tb).solution
    report = quasiclassical_poisson_check(sol, tb)
    assert report.certified and report.ok and not report.strict_ok
    # seed annihilating the composite class: the strict identity holds too
    magic = solve_compatible(levi, lam, I, "+", parse_scalar("-i"), tb).solution
    assert magic.coefficient((1, 1)) == 0
    strict = quasiclassical_poisson_check(magic, tb, strict=True)
    assert strict.ok and strict.strict_ok


def test_quasiclassical_symmetric_orbit():
    levi = get_levi("B", 2, (2,))
    tb = get_basis("B", 2)
    zero = InvariantBivector(levi, {})
    report = quasiclassical_poisson_check(zero, tb, strict=True)
    assert report.ok  # the projected trivector vanishes on a symmetric orbit


def test_quasiclassical_rejects_wrong_square():
    levi = get_levi("A", 2)
    tb = get_basis("A", 2)
    lam = LinearForm(levi, [1, 1])
    f_real = solve_compatible(levi, lam, 1, "+", 0, tb).solution  # square is +phi
    report = quasiclassical_poisson_check(f_real, tb)
    assert not report.square_ok and not report.ok
