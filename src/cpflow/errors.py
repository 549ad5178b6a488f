"""Exception types shared across the package.

Bad input raises InputError, whether it is malformed (an unknown vertex, a
mismatched length) or lies outside its mathematical domain (a radius past
(0, pi/2), a non-finite K, a tolerance <= 0); ParseError covers malformed
instance documents.  ``flow.run`` catches NonConvergenceError (an RKF45 or
RKC step-size underflow, a Newton step with no descent, a failed linear
solve) as the verdict ``numerical-failure``; no other routine fails
numerically.
"""


class InputError(ValueError):
    """Bad input: malformed, or outside its mathematical domain."""


class ParseError(ValueError):
    """Malformed instance document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonConvergenceError(RuntimeError):
    """An integrator or iterative solver could not proceed."""
