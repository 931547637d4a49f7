"""Exception types shared across the package, and the rule for integer arguments."""

import operator


class ParameterError(ValueError):
    """A caller-supplied argument is out of its documented range."""


class ConfigurationError(ValueError):
    """An estimator or experiment configuration is internally inconsistent."""


class SolverError(RuntimeError):
    """A weight-optimization solve failed.

    Raised on rank deficiency, non-convergence, or a solution failing its own
    constraint check.
    """

    def __init__(self, message, best_weights=None, residuals=None):
        super().__init__(message)
        self.best_weights = best_weights
        self.residuals = residuals


def as_index(name, value, error=ParameterError):
    """``operator.index(value)``: Python and NumPy ints pass, and a float raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error("%s must be an integer, got %r" % (name, value)) from None
