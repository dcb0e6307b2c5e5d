"""Exact invariant Poisson-type brackets on semisimple coadjoint orbits.

The package builds root systems and Killing-normalized Chevalley bases in
exact rational arithmetic, does Schouten-bracket calculus on sparse
multivectors over the Gaussian rationals, solves the coefficient equations
for invariant brackets compatible with the KKS structure, classifies the
orbits on which such compatible pairs exist, and computes the cohomology of
the invariant polyvector complex against a Weyl-combinatorial oracle.
"""

__version__ = "0.1.0"

from .brackets import (
    GoodOrbitVerdict,
    InternalInvariantError,
    InvariantBivector,
    LinearForm,
    SolverOutcome,
    Witness,
    bivector_matrix_rank,
    classify_good,
    diagonal_bivector,
    diagonal_coefficient_formula,
    find_inconsistency_witness,
    kks,
    pencil,
    quasiclassical_poisson_check,
    realize,
    recursion_pairwise_values,
    solve_compatible,
    solve_recursion,
    verify_compatible,
    verify_square,
)
from .chevalley import ChevalleyBasis, build_chevalley_basis
from .invariants import (
    InvariantComplex,
    WeylBoundExceeded,
    betti_numbers,
    de_rham_betti,
    invariant_basis,
    invariant_dimension,
    tensor_multiplicity,
    theta_apply,
    theta_split,
    weight_zero_monomials,
)
from .levi import (
    LeviDatum,
    admissible_pairs,
    admissible_triples,
    build_levi,
    quasiroot_system_type,
    verify_connecting_chains,
)
from .multivec import (
    Multivector,
    ad_action,
    gamma_indices,
    phi,
    project_to_m,
    r_matrix,
    schouten,
    wedge,
)
from .roots import RootSystem, build_root_system, highest_root_coefficients
from .scalars import GaussianRational, as_scalar, format_scalar, parse_scalar

__all__ = [
    "ChevalleyBasis",
    "GaussianRational",
    "GoodOrbitVerdict",
    "InternalInvariantError",
    "InvariantBivector",
    "InvariantComplex",
    "LeviDatum",
    "LinearForm",
    "Multivector",
    "RootSystem",
    "SolverOutcome",
    "WeylBoundExceeded",
    "Witness",
    "ad_action",
    "admissible_pairs",
    "admissible_triples",
    "as_scalar",
    "betti_numbers",
    "bivector_matrix_rank",
    "build_chevalley_basis",
    "build_levi",
    "build_root_system",
    "classify_good",
    "de_rham_betti",
    "diagonal_bivector",
    "diagonal_coefficient_formula",
    "find_inconsistency_witness",
    "format_scalar",
    "gamma_indices",
    "highest_root_coefficients",
    "invariant_basis",
    "invariant_dimension",
    "kks",
    "parse_scalar",
    "pencil",
    "phi",
    "project_to_m",
    "quasiclassical_poisson_check",
    "quasiroot_system_type",
    "r_matrix",
    "realize",
    "recursion_pairwise_values",
    "schouten",
    "solve_compatible",
    "solve_recursion",
    "tensor_multiplicity",
    "theta_apply",
    "theta_split",
    "verify_compatible",
    "verify_connecting_chains",
    "verify_square",
    "wedge",
    "weight_zero_monomials",
]
