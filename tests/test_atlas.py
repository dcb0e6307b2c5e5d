"""The good-orbit decision on the whole atlas, at the combinatorial level.

For every Levi subset Gamma of every simple type of rank at most 8, and for
A_n with Gamma empty up to n = 20, the highest-root criterion, the A_k chain
test and the witness search must agree, and the chain and the witness must
have the shapes the solver relies on.  No Chevalley basis is built.

The witness search and the admissible pairs and triples test sums on additive
quasiroot keys; the tuple-sum searches they replaced are kept below as the
oracle, and every orbit of the atlas must give the same results in the same
order.
"""

from itertools import combinations

from orbitpoisson import (
    Witness,
    admissible_pairs,
    admissible_triples,
    build_levi,
    find_inconsistency_witness,
    quasiroot_system_type,
)
from orbitpoisson.roots import add

from conftest import get_rs

ATLAS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

# Highest root in simple-root coordinates, Bourbaki numbering.
EXCEPTIONAL_HIGHEST_ROOT = {
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}


def highest_root(t, n):
    if t == "A":
        return (1,) * n
    if t == "B":
        return (1,) + (2,) * (n - 1)
    if t == "C":
        return (2,) * (n - 1) + (1,)
    if t == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return EXCEPTIONAL_HIGHEST_ROOT[(t, n)]


def closed_form(t, n, gamma):
    """The orbit carries a compatible pair iff the type is A, the orbit is a
    point, or at most two nodes are removed and each has coefficient 1 in the
    highest root."""
    free = [i for i in range(1, n + 1) if i not in gamma]
    hr = highest_root(t, n)
    return t == "A" or not free or (len(free) <= 2 and all(hr[i - 1] == 1 for i in free))


def tuple_sum_witness_stages(levi):
    """The doubled-pair and repeated-triple stages of the witness search, on
    tuple sums; None when neither hits."""
    quasi = levi.quasiroots
    positive = levi.positive_quasiroots
    for x in positive:
        if add(x, x) in quasi:
            return Witness(x, "doubled-pair", (x, x))
    for x in positive:
        for y in positive:
            if y == x:
                continue
            if add(x, y) in quasi and add(add(x, x), y) in quasi:
                return Witness(add(x, y), "repeated-triple", (x, y, x))
    return None


def tuple_sum_pairs(levi):
    qs = levi.positive_quasiroots
    return tuple((a, b) for a in qs for b in qs if add(a, b) in levi.quasiroots)


def tuple_sum_triples(levi):
    qs = levi.positive_quasiroots
    quasi = levi.quasiroots
    out = []
    for a in qs:
        for b in qs:
            if add(a, b) not in quasi:
                continue
            for c in qs:
                if add(b, c) in quasi and add(add(a, b), c) in quasi:
                    out.append((a, b, c))
    return tuple(out)


def check_orbit(t, n, gamma):
    levi = build_levi(get_rs(t, n), frozenset(gamma))
    good = closed_form(t, n, gamma)
    verdict = quasiroot_system_type(levi)
    witness = find_inconsistency_witness(levi)
    where = f"{t}{n}, gamma={gamma}"
    assert verdict.is_type_a == good, where
    assert (witness is None) == good, where
    positive = set(levi.positive_quasiroots)
    if good:
        chain, simple = verdict.chain, levi.simple_quasiroots
        assert sorted(chain) == sorted(simple), where
        assert verdict.intervals.keys() == positive, where
        for q, (i, j) in verdict.intervals.items():
            total = chain[i]
            for step in chain[i + 1 : j + 1]:
                total = add(total, step)
            assert total == q, where
        if len(chain) >= 2:
            assert simple.index(chain[0]) < simple.index(chain[-1]), where
    else:
        assert not verdict.chain and not verdict.intervals, where
        assert witness.quasiroot in positive, where


def atlas_orbits():
    for t, n in ATLAS:
        for size in range(n + 1):
            for gamma in combinations(range(1, n + 1), size):
                yield t, n, gamma


def test_atlas_decisions_agree():
    for t, n, gamma in atlas_orbits():
        check_orbit(t, n, gamma)


def test_key_searches_match_tuple_sums():
    for t, n, gamma in atlas_orbits():
        levi = build_levi(get_rs(t, n), frozenset(gamma))
        where = f"{t}{n}, gamma={gamma}"
        witness = find_inconsistency_witness(levi)
        oracle = tuple_sum_witness_stages(levi)
        if oracle is None:
            assert witness is None or witness.pattern == "chained-quadruple", where
        else:
            assert repr(witness) == repr(oracle), where
        assert levi.pairs == admissible_pairs(levi) == tuple_sum_pairs(levi), where
        assert admissible_triples(levi) == tuple_sum_triples(levi), where


def test_large_full_flags_are_chains():
    for n in range(1, 21):
        check_orbit("A", n, ())
