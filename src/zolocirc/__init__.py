"""Best unimodular rational approximants to sqrt(z) and sign(z) on circle arcs."""

__version__ = "0.1.0"

from .analysis import (
    GridField,
    PhaseErrorReport,
    contour_grid,
    error_bounds,
    lambda_from_Z,
    max_phase_error,
    phase_error_from_Z,
    phase_error_sign,
    phase_error_sqrt,
    zolotarev_number,
)
from .approximants import (
    Family,
    UnimodularRational,
    Z4Approximant,
    ZolotarevFraction,
    build_r,
    build_s,
    coeff_a,
    coeff_b,
    eval_F_direct,
    eval_F_product,
    eval_s_via_FG,
    z4_solution,
)
from .composition import compose_F, compose_r, compose_s, compose_s_tilde, theta_tilde
from .connections import (
    BlaschkeProduct,
    PadeApproximant,
    blaschke_composition_modulus,
    blaschke_h,
    blaschke_s_relation,
    pade_limit_check,
    pade_p,
    scaled_F_via_blaschke,
)
from .elliptic import (
    DegreeReduction,
    EllipticModulus,
    complete_K,
    groetzsch_mu,
    inverse_sn,
    jacobi_sncndn,
    mu_inverse,
    solve_lambda,
)
from .errors import (
    BranchError,
    ConvergenceError,
    DomainError,
    PoleError,
    PrecisionError,
    ResolutionError,
)
from .oracle import OracleResult, oracle_K, oracle_minimax_degree1, oracle_sn

__all__ = [
    "BlaschkeProduct", "BranchError", "ConvergenceError", "DegreeReduction",
    "DomainError", "EllipticModulus", "Family", "GridField", "OracleResult",
    "PadeApproximant", "PhaseErrorReport", "PoleError", "PrecisionError",
    "ResolutionError", "UnimodularRational", "Z4Approximant", "ZolotarevFraction",
    "blaschke_composition_modulus", "blaschke_h", "blaschke_s_relation",
    "build_r", "build_s", "coeff_a", "coeff_b", "complete_K", "compose_F",
    "compose_r", "compose_s", "compose_s_tilde", "contour_grid", "error_bounds",
    "eval_F_direct", "eval_F_product", "eval_s_via_FG", "groetzsch_mu",
    "inverse_sn", "jacobi_sncndn", "lambda_from_Z", "max_phase_error",
    "mu_inverse", "oracle_K", "oracle_minimax_degree1", "oracle_sn",
    "pade_limit_check", "pade_p", "phase_error_from_Z", "phase_error_sign",
    "phase_error_sqrt", "scaled_F_via_blaschke", "solve_lambda", "theta_tilde",
    "z4_solution", "zolotarev_number",
]
