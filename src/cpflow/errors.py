"""Exception types shared across the package."""


class DomainError(ValueError):
    """A numeric argument lies outside its mathematical domain."""


class InputError(ValueError):
    """Structurally bad input: unknown identifiers, mismatched dimensions."""


class SizeError(InputError):
    """An exact method was asked to handle an instance above its size guard."""


class ParseError(ValueError):
    """Malformed instance document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    The best available estimate is kept on the exception so callers can
    decide whether to use it anyway.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    A failed flow run carries its trace up to the failure.  A run that
    diverged although the prescription is feasible also carries the
    feasibility certificate that proved it.
    """

    def __init__(self, message: str, certificate=None, trace=None):
        super().__init__(message)
        self.certificate = certificate
        self.trace = trace


class IntegrationError(RuntimeError):
    """The ODE integrator could not proceed (step-size underflow).

    Carries the partial trace accumulated up to the failure point.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
