"""Exception types and the integer tests shared across the package."""

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


def check_count(value, name):
    """``value`` as an int if it is a whole number >= 0, such as 3 or 3.0
    (a bool is not one); otherwise :class:`ValidationError` naming ``name``."""
    whole = is_integer(value) or isinstance(value, (float, np.floating)) and value.is_integer()
    if not (whole and value >= 0):
        raise ValidationError("%s must be a non-negative integer, got %r" % (name, value))
    return int(value)
