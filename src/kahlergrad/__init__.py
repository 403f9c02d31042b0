"""Exact-arithmetic Clifford homomorphisms and Bochner identity coefficients
for irreducible U(m) modules."""

from .linalg import Matrix, gram_adjoint, lagrange_projector
from .weights import (
    HighestWeight,
    casimir_eigenvalue,
    conformal_table,
    dominant_weights,
    is_dominant,
    shift,
    transpose_weight,
    weyl_dimension,
)
from .envalg import (
    PBWElement,
    casimir_element,
    e_power,
    k_central,
    k_eval,
    k_of_casimirs,
    pbw_normalize,
    tilde_e_power,
    verify_binomial_relations,
)
from .gtrep import Representation, build_rep, casimir_matrix, evaluate, gt_patterns
from .clifford import (
    CliffordSystem,
    build_system,
    derived_representation,
    verify_adjoint_pairing,
    verify_relations,
    verify_spinor_model,
)
from .bochner import (
    BochnerIdentity,
    EigenvalueBound,
    bochner_identity,
    constant_curvature_scalar,
    cpm_holomorphic_eigenvalue,
    dolbeault_identities,
    kirchberg_bound,
    weitzenboeck,
)

__version__ = "0.1.0"
