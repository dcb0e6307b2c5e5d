import copy
import random
from fractions import Fraction
from math import lcm

import pytest

from orbitpoisson.linalg import SpanSolver, kernel_basis, rank_of
from orbitpoisson.scalars import GaussianRational

I = GaussianRational(0, 1)


def test_kernel_basis_hand_computed():
    # x0 + 2 x1 - x3 = 0 and x1 + x2 = 0; the third row is twice the first
    rows = [{0: 1, 1: 2, 3: -1}, {1: 1, 2: 1}, {0: 2, 1: 4, 3: -2}]
    assert rank_of(rows) == 2
    assert kernel_basis(rows, 4) == [{0: 2, 1: -1, 2: 1}, {0: 1, 3: 1}]


def test_span_solver_tuple_columns():
    a, b, c = (0, 1), (0, 2), (1, 2)
    solver = SpanSolver([{a: 1, b: 1}, {b: 1, c: 2}])
    target = {a: 3, b: 1, c: -4}  # 3 v0 - 2 v1
    assert solver.express(target) == {0: 3, 1: -2}
    assert solver.express({}) == {}
    assert solver.contains(target)
    assert not solver.contains({c: 1})


def test_span_solver_rejects_dependent_and_outside():
    with pytest.raises(ValueError, match="basis vector 2"):
        SpanSolver([{0: 1, 1: 1}, {1: 1}, {0: 2, 1: 5}])
    solver = SpanSolver([{0: 1, 1: 1}])
    with pytest.raises(ValueError, match="not in the span"):
        solver.express({0: 1})


def test_gaussian_entries():
    # independent over Q, but v1 = -i v0
    dependent = [{0: I, 1: 1}, {0: 1, 1: -I}]
    assert rank_of(dependent) == 1
    with pytest.raises(ValueError):
        SpanSolver(dependent)
    assert kernel_basis(dependent, 2) == [{0: I, 1: 1}]

    solver = SpanSolver([{0: I, 1: 1}, {1: 1 + I}])
    target = {0: GaussianRational(-1, 2), 1: GaussianRational(1, 2)}  # (2+i) v0 + i v1
    assert solver.express(target) == {0: 2 + I, 1: I}
    assert solver.contains(target)
    assert not solver.contains({0: Fraction(1, 2), 2: I})


def _reference_pivots(rows, ncols):
    """Pivot columns of plain dense elimination, smallest column first."""
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(dense)) if dense[i][c]), None)
        if p is None:
            continue
        dense[r], dense[p] = dense[p], dense[r]
        for i in range(r + 1, len(dense)):
            f = dense[i][c] / dense[r][c]
            dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        pivots.append(c)
    return pivots


def _random_rows(rng, nrows, ncols, gaussian, max_terms=4):
    def entry():
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return GaussianRational(re, rng.randint(-2, 2)) if gaussian else re

    rows = []
    for _ in range(nrows):
        if len(rows) > 1 and rng.random() < 0.4:  # dependent: a + f b
            a, b = rng.sample(rows, 2)
            f = entry()
            row = {c: a.get(c, 0) + f * b.get(c, 0) for c in a.keys() | b.keys()}
        else:
            row = {c: entry() for c in rng.sample(range(ncols), rng.randint(0, min(max_terms, ncols)))}
        rows.append({c: v for c, v in row.items() if v})
    return rows


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_elimination_matches_dense_reference(gaussian):
    rng = random.Random(20261018)
    for _ in range(40):
        ncols = rng.randint(1, 9)
        rows = _random_rows(rng, rng.randint(0, 10), ncols, gaussian)
        before = copy.deepcopy(rows)
        pivots = _reference_pivots(rows, ncols)
        assert rank_of(rows) == len(pivots)
        kernel = kernel_basis(rows, ncols)
        assert rows == before
        free = [c for c in range(ncols) if c not in pivots]
        assert len(kernel) == ncols - len(pivots)
        for vec, col in zip(kernel, free):
            assert {c: vec.get(c, 0) for c in free} == {c: int(c == col) for c in free}
            for row in rows:
                assert sum((v * vec.get(c, 0) for c, v in row.items()), Fraction(0)) == 0


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_integer_pair_rows_match_their_values(gaussian):
    # an (re, im) pair is the Gaussian integer re + im*i; a row times a
    # positive int has the same kernel and the same fully reduced pivots
    rng = random.Random(20261020)
    for _ in range(40):
        ncols = rng.randint(1, 9)
        rows = _random_rows(rng, rng.randint(0, 10), ncols, gaussian)
        pairs = []
        for row in rows:
            values = {c: GaussianRational(v) for c, v in row.items()}
            d = lcm(*(x.denominator for v in values.values() for x in (v.re, v.im)))
            pairs.append({c: (int(v.re * d), int(v.im * d)) for c, v in values.items()})
        assert rank_of(pairs) == rank_of(rows)
        assert kernel_basis(pairs, ncols) == kernel_basis(rows, ncols)


def test_integer_rows_give_fraction_kernels():
    rows = [{0: 3, 1: 1}]
    kernel = kernel_basis(rows, 2)
    assert kernel == [{0: Fraction(-1, 3), 1: 1}]
    assert all(type(v) is Fraction for v in kernel[0].values())
    assert rows == [{0: 3, 1: 1}]


def test_gaussian_leading_entry_and_mixed_denominators():
    # the kernel is spanned by (i/2, 1/3, 1); the third row is (1 - i)/2 times
    # the first, whose leading entry 1 + 2i is not real
    rows = [
        {0: 1 + 2 * I, 1: Fraction(1, 2), 2: GaussianRational(Fraction(5, 6), Fraction(-1, 2))},
        {0: 2, 1: Fraction(3, 4), 2: GaussianRational(Fraction(-1, 4), -1)},
        {0: GaussianRational(Fraction(3, 2), Fraction(1, 2)),
         1: GaussianRational(Fraction(1, 4), Fraction(-1, 4)),
         2: GaussianRational(Fraction(1, 6), Fraction(-2, 3))},
    ]
    assert rank_of(rows) == 2
    assert rank_of(rows[::-1]) == 2
    kernel = kernel_basis(rows, 3)
    assert kernel == [{2: 1, 0: I / 2, 1: Fraction(1, 3)}]
    # the free column first, then the pivots in the order they were set
    assert list(kernel[0]) == [2, 0, 1]
    assert type(kernel[0][0]) is GaussianRational
    assert type(kernel[0][1]) is Fraction and type(kernel[0][2]) is Fraction
    solver = SpanSolver(rows[:2])
    assert solver.express(rows[2]) == {0: (1 - I) / 2}
    assert not solver.contains({2: 1})


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_larger_matrices_match_dense_reference(gaussian):
    rng = random.Random(20261019)
    for _ in range(6):
        ncols = rng.randint(20, 30)
        rows = _random_rows(rng, rng.randint(20, 30), ncols, gaussian, max_terms=10)
        pivots = _reference_pivots(rows, ncols)
        assert rank_of(rows) == len(pivots)
        kernel = kernel_basis(rows, ncols)
        free = [c for c in range(ncols) if c not in pivots]
        assert len(kernel) == len(free)
        for vec, col in zip(kernel, free):
            assert {c: vec.get(c, 0) for c in free} == {c: int(c == col) for c in free}
            assert all(type(v) is Fraction or v.im for v in vec.values())
            for row in rows:
                assert sum((v * vec.get(c, 0) for c, v in row.items()), Fraction(0)) == 0
