"""Exception hierarchy shared across the package."""


class SimpleSpectrumError(Exception):
    """Base class for all package errors."""


class DistributionError(SimpleSpectrumError):
    """Invalid atomic distribution (bad probabilities, length mismatch...)."""


class PreconditionError(SimpleSpectrumError):
    """An operation was called outside its contract."""


class CapExceededError(SimpleSpectrumError):
    """A finite enumeration exceeded its configured cap."""


class ConvergenceError(SimpleSpectrumError):
    """A numeric eigendecomposition missed its accuracy target: the
    residual max|MV - V diag(lam)| exceeds tol * ||M||_F.  `achieved` holds
    the residual."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class SearchBudgetError(SimpleSpectrumError):
    """A bounded combinatorial search exhausted its budget."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
