"""Exception hierarchy for solver failures."""


class DelayLQError(Exception):
    """Base class for all library errors."""


class ProblemValidationError(DelayLQError):
    """Raised when an operation receives an inadmissible problem.

    Carries the list of violation messages from validate().
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NumericalError(DelayLQError):
    """Loss of positive definiteness, blow-up, or non-finite values."""
