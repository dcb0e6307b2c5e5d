from itertools import chain, combinations

import pytest

from orbitpoisson import (
    admissible_pairs,
    admissible_triples,
    build_levi,
    quasiroot_system_type,
    verify_connecting_chains,
)
from orbitpoisson.roots import add, negate

from conftest import get_levi, get_rs


def test_empty_gamma_quasiroots_are_roots():
    levi = get_levi("A", 2)
    assert levi.positive_quasiroots == ((0, 1), (1, 0), (1, 1))
    assert all(len(c) == 1 for c in levi.classes.values())


def test_d4_two_node_levi():
    levi = get_levi("D", 4, (1, 2))
    assert levi.dim_m() == 18
    assert len(levi.positive_quasiroots) == 3
    assert sorted(len(levi.classes[q]) for q in levi.positive_quasiroots) == [3, 3, 3]


def test_b2_symmetric_orbit():
    levi = get_levi("B", 2, (2,))
    assert len(levi.positive_quasiroots) == 1


def test_gamma_validation():
    rs = get_rs("A", 2)
    with pytest.raises(ValueError):
        build_levi(rs, (0,))
    with pytest.raises(ValueError):
        build_levi(rs, (3,))


def test_class_duality_and_partition():
    for t, r, gamma in [("D", 4, (1, 2)), ("B", 3, (1,)), ("A", 3, (2,))]:
        levi = get_levi(t, r, gamma)
        sizes = 0
        for q in levi.positive_quasiroots:
            assert len(levi.classes[q]) == len(levi.classes[negate(q)])
            sizes += 2 * len(levi.classes[q])
        assert sizes == levi.dim_m()
        # positive quasiroots are exactly the projections of positive roots
        images = {levi.project(r_) for r_ in levi.m_positive}
        assert images == set(levi.positive_quasiroots)


def test_admissible_pairs_a2_and_b2():
    levi = get_levi("A", 2)
    assert set(admissible_pairs(levi)) == {((0, 1), (1, 0)), ((1, 0), (0, 1))}

    b2 = get_levi("B", 2)
    pairs = set(admissible_pairs(b2))
    assert ((1, 0), (0, 1)) in pairs and ((0, 1), (1, 0)) in pairs
    # the doubled pair needs 2*(0,1) to be a quasiroot, which it is not here
    assert ((0, 1), (0, 1)) not in pairs
    # with the long node removed the short class doubles
    b2g = get_levi("B", 2, (1,))
    assert ((1,), (1,)) in set(admissible_pairs(b2g))


def test_symmetric_orbit_has_no_pairs():
    levi = get_levi("B", 2, (2,))
    assert admissible_pairs(levi) == ()
    assert admissible_triples(levi) == ()


def test_admissible_triples_allow_repetition():
    levi = get_levi("B", 2)
    triples = set(admissible_triples(levi))
    assert ((0, 1), (1, 0), (0, 1)) in triples


def test_connecting_chains():
    # one Levi-root addition connects the two members of each class
    levi = get_levi("A", 2, (1,))
    report = verify_connecting_chains(levi)
    assert report.ok
    # the two-element classes (one positive, one negative) connect in one step
    assert len(report.chains) == 2
    assert all(len(chain) == 1 for chain in report.chains.values())

    # all classes of the d4 orbit are connected, every pair has representatives
    rep = verify_connecting_chains(get_levi("D", 4, (1, 2)))
    assert rep.ok
    for (qa, qb), (ra, rb) in rep.pair_representatives.items():
        assert levi_project_ok(get_levi("D", 4, (1, 2)), qa, qb, ra, rb)

    # empty gamma: chains are trivial
    rep2 = verify_connecting_chains(get_levi("A", 3))
    assert rep2.ok and not rep2.chains


def levi_project_ok(levi, qa, qb, ra, rb):
    return (
        levi.project(ra) == qa
        and levi.project(rb) == qb
        and add(ra, rb) in levi.rs._root_set
    )


def test_class_brackets_span_target():
    # products of class modules fill the class module of the sum
    from conftest import get_basis
    from orbitpoisson.linalg import rank_of

    levi = get_levi("D", 4, (1, 2))
    tb = get_basis("D", 4)
    for qa, qb in admissible_pairs(levi):
        target = levi.classes[add(qa, qb)]
        col = {r: k for k, r in enumerate(target)}
        rows = []
        for ra in levi.classes[qa]:
            for rb in levi.classes[qb]:
                s = add(ra, rb)
                if s in levi.rs._root_set:
                    rows.append({col[s]: tb.structure_constant(ra, rb)})
        assert rank_of(rows) == len(target)


def test_quasiroot_type_detection():
    assert quasiroot_system_type(get_levi("A", 4, (2, 3))).is_type_a
    assert quasiroot_system_type(get_levi("A", 3)).is_type_a
    assert not quasiroot_system_type(get_levi("B", 2)).is_type_a
    verdict = quasiroot_system_type(get_levi("D", 4, (1, 2)))
    assert verdict.is_type_a and verdict.k == 2
    point = quasiroot_system_type(get_levi("A", 2, (1, 2)))
    assert point.is_type_a and point.k == 0


def test_chain_tie_break_starts_low():
    verdict = quasiroot_system_type(get_levi("A", 3))
    assert verdict.chain[0] == (1, 0, 0)


def _levi_reference(rs, gamma):
    """The sort-based construction of the Levi data: m_positive, classes,
    positive_quasiroots and simple_quasiroots."""
    free0 = [i - 1 for i in range(1, rs.rank + 1) if i not in gamma]
    omega = frozenset(r for r in rs.roots if all(r[i] == 0 for i in free0))
    m_roots = rs.roots - omega
    m_positive = tuple(sorted((r for r in m_roots if min(r) >= 0), key=rs._sort_key))
    classes = {}
    for r in sorted(m_roots, key=rs._sort_key):
        classes.setdefault(tuple(r[i] for i in free0), []).append(r)
    positive = tuple(sorted((q for q in classes if min(q) >= 0), key=lambda q: (sum(q), q)))
    simple = tuple(tuple(rs.simple_roots[j][i] for i in free0) for j in free0)
    return omega, m_positive, {q: tuple(m) for q, m in classes.items()}, positive, simple


def test_levi_datum_matches_sorted_reference():
    algebras = [("A", n) for n in range(2, 6)] + [("B", n) for n in range(2, 5)]
    algebras += [("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6)]
    for t, r in algebras:
        rs = get_rs(t, r)
        for gamma in chain.from_iterable(combinations(range(1, r + 1), k) for k in range(r + 1)):
            levi = build_levi(rs, gamma)
            omega, m_positive, classes, positive, simple = _levi_reference(rs, gamma)
            assert levi.omega_gamma == omega, (t, r, gamma)
            assert levi.m_positive == m_positive, (t, r, gamma)
            assert list(levi.classes.items()) == list(classes.items()), (t, r, gamma)
            assert levi.positive_quasiroots == positive, (t, r, gamma)
            assert levi.simple_quasiroots == simple, (t, r, gamma)
