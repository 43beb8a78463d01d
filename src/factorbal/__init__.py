"""Balancing weights for estimating main effects and low-order interactions
of multiple binary factors from observational data."""

from .balance import (
    BalanceSystem,
    BasisSpec,
    balance_residuals,
    build_balance_system,
    split_contrast,
)
from .data import Dataset
from .design import (
    Effect,
    FactorialDesign,
    build_incomplete_design,
    contrast_vector,
    design_matrix,
    effect_index_set,
    enumerate_combinations,
    full_design,
)
from .errors import (
    BaselineError,
    ConfigurationError,
    DataError,
    FactorbalError,
    IdentificationError,
    InfeasibleProblemError,
    VarianceError,
)
from .estimation import (
    EffectEstimate,
    augmented_estimate,
    fit_outcome_coeffs,
    ols_regression_baseline,
    smd_report,
    unadjusted_baseline,
    weighted_estimates,
)
from .simulation import Scenario, StudyReport, generate, run_study, true_effects
from .solver import DualSolution, SolverOptions, solve_dual

__version__ = "0.1.0"
