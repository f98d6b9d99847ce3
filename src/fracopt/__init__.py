"""Solvers and benchmarks for ratio-of-functions minimization.

Minimizes F(x) = (f(x) + h(x)) / g(x) by proximal-gradient steps on the
numerator corrected by a subgradient of the denominator.  One driver runs
that step with one of two step rules: a fixed step (``run_pgsa``) or a
monotone / nonmonotone backtracking line search (``run_pgsa_ls``).
Ships two full problem families, sparse generalized eigenvalue problems and
box-constrained l1/l2 sparse recovery, plus independent verification tools
that re-audit recorded runs.
"""

from .exceptions import (
    ConvergenceError,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    FracoptError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidProblemError,
    LineSearchError,
    NumericsError,
    ParseError,
    SizeGuardError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentOutcome,
    TrialResult,
    config_from_dict,
    run_experiment,
    run_trial,
    solver_run_config,
)
from .l1l2 import (
    L1L2PenaltyProblem,
    RecoveryReport,
    gen_dct_matrix,
    gen_ground_truth,
    penalty_start_point,
    recovery_report,
)
from .oracle import (
    AuditReport,
    AuditViolation,
    RateFit,
    audit_trace,
    fit_linear_rate,
    fit_rate_from_errors,
)
from .pgsa import LineSearchConfig, PgsaConfig, SolverTrace, run_pgsa, run_pgsa_ls
from .problem import (
    Certificate,
    ExtendedObjective,
    FractionalProblem,
    eval_objective,
)
from .rand import as_generator, philox_generator
from .sgep import (
    SfdaRecipe,
    SgepProblem,
    gen_sfda,
    gen_sfda_dataset,
    project_sparse_sphere,
    scatter_matrices,
    sgep_brute_force_optimum,
    sgep_default_init,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "AuditViolation",
    "Certificate",
    "ConvergenceError",
    "DegenerateInputError",
    "DimensionMismatchError",
    "DomainError",
    "ExperimentConfig",
    "ExperimentOutcome",
    "ExtendedObjective",
    "FracoptError",
    "FractionalProblem",
    "InsufficientDataError",
    "InvalidConfigError",
    "InvalidProblemError",
    "L1L2PenaltyProblem",
    "LineSearchConfig",
    "LineSearchError",
    "NumericsError",
    "ParseError",
    "PgsaConfig",
    "RateFit",
    "RecoveryReport",
    "SfdaRecipe",
    "SgepProblem",
    "SizeGuardError",
    "SolverTrace",
    "TrialResult",
    "as_generator",
    "audit_trace",
    "config_from_dict",
    "eval_objective",
    "fit_linear_rate",
    "fit_rate_from_errors",
    "gen_dct_matrix",
    "gen_ground_truth",
    "gen_sfda",
    "gen_sfda_dataset",
    "penalty_start_point",
    "philox_generator",
    "project_sparse_sphere",
    "recovery_report",
    "run_experiment",
    "run_pgsa",
    "run_pgsa_ls",
    "run_trial",
    "scatter_matrices",
    "sgep_brute_force_optimum",
    "sgep_default_init",
    "solver_run_config",
]
