"""Exception types shared across the package."""


class FactorbalError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FactorbalError):
    """Invalid configuration value (factor count, interaction order, options)."""


class DataError(FactorbalError):
    """Malformed or non-finite input data."""


class IdentificationError(FactorbalError):
    """The requested effects are not identified from the observed cells.

    Raised when the unobserved treatment combinations leave the low-order
    effects without a unique linear representation on the observed cell
    means (the unobserved-by-negligible contrast block is rank deficient,
    or there are more unobserved cells than negligible contrasts).
    """


class InfeasibleProblemError(FactorbalError):
    """No nonnegative weights satisfy the balance constraints."""


class VarianceError(FactorbalError):
    """The variance estimator's curvature matrix is singular.

    Either rows of the balance system are dependent on this data, which
    ``drop_redundant=True`` removes, or the units with positive weight leave
    some cells' Gram matrix of the basis functions singular (named then).
    """


class BaselineError(FactorbalError):
    """A baseline estimator cannot be computed on this dataset."""
