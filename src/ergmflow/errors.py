"""Exception types and the integer test shared across the package."""

import numpy as np


class ErgmFlowError(Exception):
    """Base class for all ergmflow errors."""


class ValidationError(ErgmFlowError, ValueError):
    """Raised when inputs violate a documented contract (bad ids, malformed
    files, unresolvable covariate names, out-of-range values)."""


class EstimationError(ErgmFlowError, RuntimeError):
    """Raised when an estimation run cannot proceed (non-finite objective,
    divergent parameters, empty sample)."""


def is_integer(value):
    """Whether ``value`` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
