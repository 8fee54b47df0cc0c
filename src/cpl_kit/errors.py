"""Exception hierarchy shared across the package."""


class CplKitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CplKitError, ValueError):
    """Malformed user input: bad files, ragged tables, out-of-range parameters."""


class DimensionMismatchError(InputError):
    """Shapes of two tables that must align do not."""


class UnsupportedMechanismError(CplKitError):
    """Requested a parameter or rate a mechanism does not have (e.g. the hash
    range of a mechanism that does not hash, or support rates for ``she``,
    whose reports support no symbol set)."""


class InsufficientDataError(CplKitError):
    """Too few usable conditional cells to evaluate a leakage supremum."""


class InfeasibleBudgetError(CplKitError):
    """A budget constraint that should hold analytically failed numerically."""
