from fractions import Fraction

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
