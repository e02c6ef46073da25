"""Exact computer algebra for Taft-family Hopf algebras: cyclotomic
scalars, structure-constant Hopf algebras, R-matrices, comodule
algebras, and the braided commutative algebras of invariant maps cut
out by explicit linear conditions."""

from .cyclotomic import FieldContext, Scalar, make_field, zeta_power
from .linalg import Matrix, SubspaceBasis, kernel_basis, kron, rank, rref
from .hopf import (
    FinDimAlgebra,
    FinDimCoalgebra,
    FinDimHopf,
    NoAntipodeError,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_hopf,
    solve_antipode,
    tensor_algebra,
)
from .braiding import (
    ComoduleAlgebra,
    ComoduleRep,
    ModuleRep,
    RMatrix,
    braiding,
    check_comodule,
    check_comodule_algebra,
    check_module,
    check_rmatrix,
    check_yd,
    dual_module,
    regular_module,
    tensor_module,
    trivial_module,
    yd_braiding,
)
from .constructions import (
    BraidedHopf,
    ComoduleAlgebraK,
    ConstructionError,
    TaftModel,
    bosonization,
    braided_line,
    check_braided_hopf,
    check_hopf_morphism,
    comodule_algebra_K,
    group_algebra_cn,
    projection_pi,
    q_binomial,
    r_matrix_cn,
    regular_comodule_algebra,
    taft_model,
    taft_presentation_check,
)
from .adjoint import (
    AdjointAlgebra,
    AdjointProblem,
    ClosureFailure,
    chi0_crosscheck,
    condition_system,
    condition_system_reduced,
    connectedness,
    dinaturality_sample,
    full_pipeline_basis,
    phi_structure_transport,
    problem_for,
    solve_adjoint,
    verify_braided_commutative,
    verify_center_algebra,
    verify_conditions_direct,
    verify_relative_center,
    verify_yd,
)
from .braided_adjoint import (
    HAdjoint,
    build_h_ad,
    regular_case_iso,
    pi_dinatural_check,
    verify_h_ad,
)
from .reports import ClaimResult, VerificationReport, document, emit_json
from .cli import cli_main

__all__ = [name for name in dir() if not name.startswith("_")]
