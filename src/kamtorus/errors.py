"""Exception hierarchy shared by all kamtorus modules."""


class KamError(Exception):
    """Base class for all kamtorus errors."""


class ParameterError(KamError, ValueError):
    """An argument is outside its documented range."""


class ParseError(KamError, ValueError):
    """A text file did not match the expected format.

    The message starts with the one-based line number when known.
    """

    def __init__(self, message, line=None):
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

    `failed` names the ones that did not hold: "threshold", "middle", "tail".
    """

    def __init__(self, message, failed=()):
        self.failed = tuple(failed)
        super().__init__(message)


class ContractionError(KamError, ArithmeticError):
    """A certified bound failed: the step remainder norm(P_plus) <= eps/b
    or |beta| <= d*eps, or the counter-term fixed point's pass limit."""


class StepSizeError(KamError, ArithmeticError):
    """A Lie series failed its convergence precondition."""


class InfeasibleError(KamError, ArithmeticError):
    """No admissible step parameter was found below the configured cap."""


class ThresholdError(KamError, ArithmeticError):
    """The perturbation exceeds the admissible smallness threshold."""


class StiffnessError(KamError, ArithmeticError):
    """The orbit check's integrator failed: its Picard sweep budget ran out,
    or twelve step doublings did not agree."""


class EmbeddingFailureError(KamError, ArithmeticError):
    """A Jacobian was singular where an embedding was expected."""


class DomainError(KamError, ValueError):
    """A point lies outside the domain of the requested map."""
