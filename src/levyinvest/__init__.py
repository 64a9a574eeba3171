"""Optimal irreversible investment under exponential Levy uncertainty.

The package solves for the investment boundary b(u) characterized by

    E[ pi_c(e^{u + I}, b(u)) ] = r,

where I is the running infimum of the shock process over an independent
exponential horizon with rate r, then verifies the answer: Wiener-Hopf
factorization identities, an integral-equation residual, simulation of the
induced capacity policy, and first-order optimality conditions.
"""

from .boundary import (BoundaryTable, ces_boundary_constant, ces_polynomial_constant,
                       closed_form_boundary_table, integral_equation_residual,
                       marginal_gap, solve_boundary_grid, solve_boundary_point)
from .config import ExperimentConfig, load_config, parse_config
from .errors import (BracketFailure, ConditionViolation, ConstructionError,
                     DomainError, LevyInvestError, MonotonicityViolation,
                     ParseError, UnsupportedModel, ValidationError)
from .levy import Estimate, ExtremaPool, Family, LevyModel, laplace_exponent, sample_extrema
from .policy import (ComparisonResult, ComparisonRow, FOCEntry, FOCReport, StoppingRule,
                     compare_policies, exponential_time_values, foc_residuals,
                     stopping_value)
from .profit import (AssumptionCheck, AssumptionReport, ProfitFunction,
                     check_assumptions, cobb_douglas, ces, evaluate,
                     kappa, log_profit, marginal_profit)
from .wiener_hopf import (WienerHopfFactors, cramer_roots, exact_factors, inf_moment,
                          moment_estimate, sample_triplet, wh_identity_residual)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LevyInvestError", "ConstructionError", "DomainError", "UnsupportedModel",
    "BracketFailure", "MonotonicityViolation", "ConditionViolation",
    "ParseError", "ValidationError",
    # shock models and estimates
    "Family", "LevyModel", "ExtremaPool", "Estimate", "laplace_exponent", "sample_extrema",
    # factorization
    "WienerHopfFactors", "cramer_roots", "exact_factors", "sample_triplet",
    "inf_moment", "moment_estimate", "wh_identity_residual",
    # profit
    "ProfitFunction", "cobb_douglas", "ces", "log_profit",
    "evaluate", "marginal_profit", "kappa", "AssumptionCheck",
    "AssumptionReport", "check_assumptions",
    # boundary
    "BoundaryTable", "marginal_gap",
    "solve_boundary_point", "solve_boundary_grid", "integral_equation_residual",
    "ces_boundary_constant", "ces_polynomial_constant", "closed_form_boundary_table",
    # policy
    "StoppingRule", "ComparisonRow", "ComparisonResult", "FOCEntry", "FOCReport",
    "compare_policies", "exponential_time_values", "foc_residuals", "stopping_value",
    # configuration
    "ExperimentConfig", "load_config", "parse_config",
]
