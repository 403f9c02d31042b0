"""Exact-arithmetic Clifford homomorphisms and Bochner identity coefficients
for irreducible U(m) modules.  Importing the package loads no submodule: a
name below loads its submodule when it is first read (PEP 562)."""

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": "Matrix gram_adjoint lagrange_projector",
    "weights": "HighestWeight casimir_eigenvalue conformal_table dominant_weights is_dominant "
               "shift transpose_weight weyl_dimension",
    "envalg": "PBWElement casimir_element e_power k_central k_of_casimirs pbw_normalize "
              "tilde_e_power verify_binomial_relations",
    "gtrep": "Representation build_rep casimir_matrix gt_patterns",
    "clifford": "CliffordSystem build_system derived_representation verify_adjoint_pairing "
                "verify_relations verify_spinor_model",
    "bochner": "BochnerIdentity EigenvalueBound bochner_identity constant_curvature_scalar "
               "cpm_holomorphic_eigenvalue dolbeault_identities kirchberg_bound weitzenboeck",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
