"""Quasiroot combinatorics for a Levi subset of the simple roots.

For a subset Gamma of the simple roots, the roots lying in the span of Gamma
form the root system of the Levi stabilizer; the remaining roots project onto
the coordinates outside Gamma, and the nonzero projections (quasiroots) index
the irreducible summands of the tangent space m.  Projection is literally
coordinate deletion, so everything here is integer-exact.

Each positive quasiroot q also has an additive int key, sum_j q_j B^j with
the root system's base B = ``rs.key_base`` = 4h + 1 (h the largest
highest-root coefficient), so "is this sum a quasiroot" is one int addition
and one set lookup.  The keys are exact for every sum tested here: a
quasiroot's coordinates lie in [-h, h] and a sum of at most three positive
quasiroots has coordinates in [0, 3h], so each coordinate of the difference
(x + x + y - q, say) lies in [-h, 4h] and is below B in absolute value.  A
key difference of zero then forces every coordinate difference to zero, so
equal keys mean equal vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .roots import Coords, InternalInvariantError, RootSystem, add

Quasiroot = tuple[int, ...]


class LeviDatum:
    def __init__(self, rs: RootSystem, gamma):
        gamma = frozenset(gamma)
        for i in gamma:
            if not isinstance(i, int) or not 1 <= i <= rs.rank:
                raise ValueError(f"gamma index {i!r} out of range 1..{rs.rank}")
        self.rs = rs
        self.gamma = gamma
        self.free_positions = tuple(i for i in range(1, rs.rank + 1) if i not in gamma)
        self._free0 = free0 = tuple(i - 1 for i in self.free_positions)

        self.omega_gamma = frozenset(
            r for r in rs.roots if not any(map(r.__getitem__, free0))
        )
        self.m_roots = frozenset(rs.roots - self.omega_gamma)
        # the root system's order, restricted to m: by height, so the negative
        # roots (half of m) come first
        m_sorted = [r for r in rs.all_roots_sorted() if any(map(r.__getitem__, free0))]
        self.m_positive = tuple(m_sorted[len(m_sorted) // 2 :])

        classes: dict[Quasiroot, list[Coords]] = {}
        for r in m_sorted:
            q = self.project(r)
            classes.setdefault(q, []).append(r)
        self.classes = {q: tuple(rs_) for q, rs_ in classes.items()}
        self.quasiroots = frozenset(self.classes)
        self.positive_quasiroots = tuple(
            sorted((q for q in self.quasiroots if min(q) >= 0), key=lambda q: (sum(q), q))
        )
        # mixed-sign projections cannot occur: roots are sign-definite
        if 2 * len(self.positive_quasiroots) != len(self.quasiroots):
            raise InternalInvariantError("quasiroots are not split by sign")
        # the additive keys of the module docstring; key(-q) = -key(q)
        self.positive_keys = tuple(map(rs.key, self.positive_quasiroots))
        self.quasiroot_keys = frozenset(self.positive_keys).union(
            -k for k in self.positive_keys
        )
        self.simple_quasiroots = tuple(
            self.project(rs.simple_roots[i]) for i in self._free0
        )

    @cached_property
    def type_verdict(self) -> QuasirootTypeVerdict:
        """The A_k verdict of quasiroot_system_type, computed once."""
        return quasiroot_system_type(self)

    @cached_property
    def pairs(self) -> tuple[tuple[Quasiroot, Quasiroot], ...]:
        """The ordered pairs of admissible_pairs, computed once."""
        return admissible_pairs(self)

    def project(self, root: Coords) -> Quasiroot:
        """Coordinate restriction to the positions outside Gamma."""
        return tuple(map(root.__getitem__, self._free0))

    def dim_m(self) -> int:
        return len(self.m_roots)

    def __repr__(self):
        g = ",".join(map(str, sorted(self.gamma))) or "-"
        return f"LeviDatum({self.rs.type_label}{self.rs.rank}, gamma={{{g}}})"


def build_levi(rs: RootSystem, gamma) -> LeviDatum:
    return LeviDatum(rs, gamma)


def admissible_pairs(levi: LeviDatum) -> tuple[tuple[Quasiroot, Quasiroot], ...]:
    """Ordered pairs of positive quasiroots whose sum is again a quasiroot,
    tested on the additive keys."""
    keyed = tuple(zip(levi.positive_quasiroots, levi.positive_keys))
    quasi = levi.quasiroot_keys
    return tuple((a, b) for a, ka in keyed for b, kb in keyed if ka + kb in quasi)


def admissible_triples(
    levi: LeviDatum,
) -> tuple[tuple[Quasiroot, Quasiroot, Quasiroot], ...]:
    """Ordered triples (a, b, c), repetitions permitted, with a+b, b+c and
    a+b+c all quasiroots, tested on the additive keys."""
    keyed = tuple(zip(levi.positive_quasiroots, levi.positive_keys))
    quasi = levi.quasiroot_keys
    out = []
    for a, ka in keyed:
        for b, kb in keyed:
            kab = ka + kb
            if kab not in quasi:
                continue
            for c, kc in keyed:
                if kb + kc in quasi and kab + kc in quasi:
                    out.append((a, b, c))
    return tuple(out)


@dataclass
class ChainReport:
    ok: bool
    chains: dict  # (root, root) within one class -> connecting chain of Levi roots
    pair_representatives: dict  # admissible pair -> (root_a, root_b) with root sum
    failures: list


def verify_connecting_chains(levi: LeviDatum) -> ChainReport:
    """Exhibit, for each class, chains of Levi-root additions connecting its
    members through roots, and for each admissible pair a pair of class
    representatives whose actual root sum projects onto the pair sum.

    A failure here would mean the class data is inconsistent; it is reported,
    never silently ignored.
    """
    rs = levi.rs
    failures = []
    chains = {}
    for q, members in levi.classes.items():
        base = members[0]
        # BFS within the class along Levi-root additions
        seen = {base: ()}
        frontier = [base]
        while frontier:
            nxt = []
            for cur in frontier:
                for g in levi.omega_gamma:
                    step = add(cur, g)
                    if step in levi.m_roots and step not in seen and levi.project(step) == q:
                        seen[step] = seen[cur] + (g,)
                        nxt.append(step)
            frontier = nxt
        for other in members[1:]:
            if other in seen:
                chains[(base, other)] = seen[other]
            else:
                failures.append(("disconnected class", q, base, other))

    pair_reps = {}
    for a, b in levi.pairs:
        found = None
        for ra in levi.classes[a]:
            for rb in levi.classes[b]:
                s = add(ra, rb)
                if s in rs._root_set:
                    found = (ra, rb)
                    break
            if found:
                break
        if found is None:
            failures.append(("no representative sum", a, b))
        else:
            pair_reps[(a, b)] = found

    return ChainReport(ok=not failures, chains=chains,
                       pair_representatives=pair_reps, failures=failures)


@dataclass(frozen=True)
class QuasirootTypeVerdict:
    is_type_a: bool
    k: int
    chain: tuple[Quasiroot, ...] | None
    # consecutive sum of chain[i..j] -> (i, j); empty unless type A
    intervals: dict[Quasiroot, tuple[int, int]] = field(default_factory=dict)

    def __bool__(self):
        return self.is_type_a


def quasiroot_system_type(levi: LeviDatum) -> QuasirootTypeVerdict:
    """Decide whether the positive quasiroots are exactly the consecutive sums
    of some ordering of the simple quasiroots (the A_k pattern).

    Two simple quasiroots are adjacent when their sum is a quasiroot.  The
    system is A_k iff there are k(k+1)/2 positive quasiroots, every degree is
    at most 2, the adjacency graph is one path, and the consecutive sums along
    that path are exactly the positive quasiroots.  Such a path fits read in
    either direction; the chain starts at the end with the lower Bourbaki
    index.
    """
    simple = levi.simple_quasiroots
    k = len(simple)
    positive = set(levi.positive_quasiroots)
    no = QuasirootTypeVerdict(False, k, None)
    if len(positive) != k * (k + 1) // 2:
        return no
    adjacent = [
        [j for j in range(k) if j != i and add(simple[i], simple[j]) in levi.quasiroots]
        for i in range(k)
    ]
    if any(len(a) > 2 for a in adjacent):
        return no
    order = [i for i in range(k) if len(adjacent[i]) < 2][:1]
    while order and len(order) < k:
        step = [j for j in adjacent[order[-1]] if j not in order[-2:-1]]
        if not step:
            break
        order.append(step[0])
    if len(order) != k:
        return no

    chain = tuple(simple[i] for i in order)
    intervals = {}
    for i in range(k):
        total = chain[i]
        intervals[total] = (i, i)
        for j in range(i + 1, k):
            total = add(total, chain[j])
            intervals[total] = (i, j)
    if intervals.keys() != positive:
        return no
    return QuasirootTypeVerdict(True, k, chain, intervals)
