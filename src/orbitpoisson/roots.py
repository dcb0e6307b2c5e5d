"""Root systems of the finite simple types, in simple-root coordinates.

Roots are integer coordinate vectors with respect to the simple roots,
numbered in the Bourbaki convention.  The invariant bilinear form is scaled
so that long roots have squared length 2.

Some references number the D_n and E6 diagrams differently (for instance
putting the three branch ends of D_n first); here the D_n branch ends are
alpha_1, alpha_{n-1}, alpha_n and the E6 branch node is alpha_4, so the two
coefficient-1 end nodes of E6 are alpha_1 and alpha_6.

Each root also has an additive integer key, key(c) = sum_i c_i B^i with the
base B = 4 max(highest root) + 1 (``RootSystem.key``).  The coordinates of a
root, and of a sum or difference of two roots, lie in [-2h, 2h] for the
largest highest-root coefficient h, and B > 4h makes the key one-to-one on
such vectors: key(a + b) = key(a) + key(b), so "is a + b a root" is one int
addition and one lookup.  The sign of a root's key is the sign of the root.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

Coords = tuple[int, ...]


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""

#: (minimum rank, maximum rank or None) per simple type.
RANK_RULES: dict[str, tuple[int, int | None]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def validate_type(type_label: str, rank: int) -> None:
    rule = RANK_RULES.get(type_label)
    if rule is None:
        raise ValueError(f"unknown simple type {type_label!r}")
    lo, hi = rule
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"invalid rank {rank} for type {type_label}")


def _edges(type_label: str, rank: int) -> list[tuple[int, int]]:
    # 1-based Dynkin diagram edges, Bourbaki numbering
    chain = [(i, i + 1) for i in range(1, rank)]
    if type_label in ("A", "B", "C", "F", "G"):
        return chain
    if type_label == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if type_label == "E":
        return [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, rank)]
    raise InternalInvariantError(f"no Dynkin data for type {type_label!r}")


def _length_halves(type_label: str, rank: int) -> list[Fraction]:
    # d_i = (alpha_i, alpha_i) / 2 with long roots normalized to 2
    one = Fraction(1)
    half = Fraction(1, 2)
    if type_label in ("A", "D", "E"):
        return [one] * rank
    if type_label == "B":
        return [one] * (rank - 1) + [half]
    if type_label == "C":
        return [half] * (rank - 1) + [one]
    if type_label == "F":
        return [one, one, half, half]
    if type_label == "G":
        return [Fraction(1, 3), one]
    raise InternalInvariantError(f"no Dynkin data for type {type_label!r}")


def cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    """Cartan matrix A[i][j] = <alpha_i, alpha_j^vee> (0-based indices)."""
    validate_type(type_label, rank)
    d = _length_halves(type_label, rank)
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i1, j1 in _edges(type_label, rank):
        i, j = i1 - 1, j1 - 1
        # (alpha_i, alpha_j) = -max(d_i, d_j) for an edge of the diagram
        inner = -max(d[i], d[j])
        A[i][j] = int(inner / d[j])
        A[j][i] = int(inner / d[i])
    return A


ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

class RootSystem:
    """The finite root system of one simple type.

    Attributes mirror the construction: ``roots`` is the full set of
    coordinate vectors, ``positive_roots`` are those with all-nonnegative
    coordinates (sorted by height, then lexicographically), ``simple_roots``
    the unit vectors, and ``highest_root`` the unique coordinatewise-maximal
    root.
    """

    def __init__(self, type_label: str, rank: int):
        validate_type(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan_matrix(type_label, rank)
        d = _length_halves(type_label, rank)
        self.bilinear_form = [
            [Fraction(self.cartan[i][j]) * d[j] for j in range(rank)]
            for i in range(rank)
        ]
        # the form as ints over one common denominator, for inner
        self._form_den = lcm(*(di.denominator for di in d))
        self._form_num = [
            [int(b * self._form_den) for b in row] for row in self.bilinear_form
        ]
        for i in range(rank):
            for j in range(rank):
                if self.bilinear_form[i][j] != self.bilinear_form[j][i]:
                    raise InternalInvariantError(
                        f"{type_label}{rank}: bilinear form is not symmetric at ({i}, {j})"
                    )
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )
        self.roots = self._generate()
        self._sorted_roots = tuple(sorted(self.roots, key=self._sort_key))
        self.positive_roots = tuple(r for r in self._sorted_roots if min(r) >= 0)
        self._root_set = frozenset(self.roots)
        self._positive_set = frozenset(self.positive_roots)
        expected = ROOT_COUNTS[type_label](rank)
        if len(self.roots) != expected:
            raise InternalInvariantError(
                f"{type_label}{rank}: generated {len(self.roots)} roots, expected {expected}"
            )
        self.highest_root = max(self.positive_roots, key=self._sort_key)
        self.key_base = 4 * max(self.highest_root) + 1
        for r in self.roots:
            if any(h < c for h, c in zip(self.highest_root, r)):
                raise InternalInvariantError(
                    f"{type_label}{rank}: root {r} exceeds the highest root"
                )

    @staticmethod
    def _sort_key(root: Coords):
        return (sum(root), root)

    def _generate(self) -> frozenset[Coords]:
        found: set[Coords] = set(self.simple_roots)
        queue = list(self.simple_roots)
        while queue:
            beta = queue.pop()
            for i in range(self.rank):
                img = self.reflect(beta, i)
                if img not in found:
                    found.add(img)
                    queue.append(img)
        return frozenset(found) | frozenset(map(negate, found))

    # -- exact geometry -------------------------------------------------------

    def coroot_pairing(self, beta: Coords, i: int) -> int:
        """<beta, alpha_i^vee> for 0-based i."""
        return sum(beta[j] * self.cartan[j][i] for j in range(self.rank))

    def reflect(self, beta: Coords, i: int) -> Coords:
        k = self.coroot_pairing(beta, i)
        out = list(beta)
        out[i] -= k
        return tuple(out)

    def inner(self, beta: Coords, gamma: Coords) -> Fraction:
        """(beta, gamma): an int dot product over the form's common denominator."""
        B = self._form_num
        total = sum(
            bi * sum(map(operator.mul, B[i], gamma)) for i, bi in enumerate(beta) if bi
        )
        return Fraction(total, self._form_den)

    def key(self, root: Coords) -> int:
        """The additive key sum_i root[i] * key_base**i (see the module docstring)."""
        k = 0
        for c in reversed(root):
            k = k * self.key_base + c
        return k

    def all_roots_sorted(self) -> tuple[Coords, ...]:
        """Every root, by height and then lexicographically."""
        return self._sorted_roots

    def __repr__(self):
        return f"RootSystem({self.type_label}{self.rank}, {len(self.roots)} roots)"


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct the root system of a valid simple type by reflection closure."""
    return RootSystem(type_label, rank)


def highest_root_coefficients(rs: RootSystem) -> dict[int, int]:
    """Coordinates of the highest root, keyed by 1-based simple-root index."""
    return {i + 1: c for i, c in enumerate(rs.highest_root)}


def negate(root: Coords) -> Coords:
    return tuple(map(operator.neg, root))


def add(a: Coords, b: Coords) -> Coords:
    return tuple(map(operator.add, a, b))


def sub(a: Coords, b: Coords) -> Coords:
    return tuple(map(operator.sub, a, b))
