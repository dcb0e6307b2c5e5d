#!/usr/bin/env python3
"""The Schouten-bracket layer: the r-matrix, its square, and projections.

The r-matrix is the sum of E_alpha ^ E_{-alpha} over positive roots.  Its
bracket with itself is the distinguished invariant trivector; we verify the
invariance generator by generator, record the Cartan-involution parity, and
show that truncating the r-matrix to an orbit does not change the projected
square.
"""

from orbitpoisson import (
    ad_action,
    build_chevalley_basis,
    build_levi,
    build_root_system,
    phi,
    project_to_m,
    r_matrix,
    schouten,
    theta_apply,
)
from orbitpoisson.roots import negate

rs = build_root_system("A", 2)
tb = build_chevalley_basis(rs)

r = r_matrix(tb)
print("r-matrix:", r.pretty(tb))
trivector = phi(tb)
print("[[r, r]]:", trivector.pretty(tb))

invariant = all(
    ad_action(tb, gen, trivector).is_zero()
    for i in range(tb.rank)
    for gen in (
        tb.cartan_element([1 if j == i else 0 for j in range(tb.rank)]),
        tb.root_vector(rs.simple_roots[i]),
        tb.root_vector(negate(rs.simple_roots[i])),
    )
)
print("invariant under every generator:", invariant)
print("fixed by the Cartan involution:", theta_apply(tb, trivector) == trivector)

levi = build_levi(rs, {1})
r_trunc = r_matrix(tb, levi)
print("\norbit with node 1 in the stabilizer: truncated r has",
      len(r_trunc), "terms (full r has", len(r), ")")
lhs = schouten(tb, r_trunc, r_trunc, levi)
rhs = project_to_m(trivector, tb, levi)
print("projected square of truncated r equals projected trivector:", lhs == rhs)
