"""Exception hierarchy shared by all kamtorus modules."""


class KamError(Exception):
    """Base class for all kamtorus errors."""


class ParameterError(KamError, ValueError):
    """An argument is outside its documented range."""


class ParseError(KamError, ValueError):
    """A text file did not match the expected format.

    Carries the one-based line number when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RealityViolationError(ParseError):
    """Stored coefficients are not conjugate-symmetric."""


class ResonanceError(KamError, ArithmeticError):
    """An exact resonance k . alpha = 0 was met; `witness` is the k."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ConstantsInconsistencyError(KamError, ArithmeticError):
    """A claimed Diophantine constant failed a consistency check."""


class StepConditionError(KamError, ArithmeticError):
    """One of the three step smallness conditions failed.

    `failed` lists which of the conditions (1-based) did not hold.
    """

    def __init__(self, message, failed=()):
        self.failed = tuple(failed)
        super().__init__(message)


class ContractionError(KamError, ArithmeticError):
    """The step remainder exceeded its guaranteed contraction bound."""

    def __init__(self, message, measured_ratio=None):
        self.measured_ratio = measured_ratio
        super().__init__(message)


class StepSizeError(KamError, ArithmeticError):
    """A Lie series failed its convergence precondition."""


class InfeasibleError(KamError, ArithmeticError):
    """No admissible step parameter was found below the configured cap."""


class ThresholdError(KamError, ArithmeticError):
    """The perturbation exceeds the admissible smallness threshold."""


class StiffnessError(KamError, ArithmeticError):
    """Step-halving of the flow integrator failed to converge."""


class EmbeddingFailureError(KamError, ArithmeticError):
    """A Jacobian was singular where an embedding was expected."""


class DomainError(KamError, ValueError):
    """A point lies outside the domain of the requested map."""
