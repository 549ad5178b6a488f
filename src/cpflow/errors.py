"""Exception types shared across the package.

``flow.run`` catches NonConvergenceError (an RKF45 step-size underflow, a
Newton step with no descent, a failed linear solve) as the verdict
``numerical-failure``; no other routine fails numerically.
"""


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


class NonConvergenceError(RuntimeError):
    """An integrator or iterative solver could not proceed."""
