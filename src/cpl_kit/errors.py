"""Exception hierarchy shared across the package."""


class CplKitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CplKitError, ValueError):
    """Malformed user input: bad files, ragged tables, out-of-range parameters."""


class DimensionMismatchError(InputError):
    """Shapes of two tables that must align do not."""


class InsufficientDataError(CplKitError):
    """Too few usable conditional cells to evaluate a leakage supremum."""


class InfeasibleBudgetError(CplKitError):
    """A budget constraint that should hold analytically failed numerically."""
