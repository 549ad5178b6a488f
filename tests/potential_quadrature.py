"""The adaptive Gauss-Legendre quadrature that computed
``curvature.potential`` before its closed form; kept as its test oracle.

It integrates the closed 1-form sum (L_i - Lhat_i) dK_i along the straight
segment from ``base`` to ``K`` with 15-node Gauss-Legendre panels, bisected
until two halves agree with their whole to within the tolerance.
"""

import numpy as np

from cpflow.curvature import _evaluate
from cpflow.errors import InputError
from cpflow.surface import Prescription, SurfaceComplex, check_instance

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    The best available estimate is kept on the exception so callers can
    decide whether to use it anyway.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def _gauss(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _adaptive(f, a: float, b: float, whole: float, tol: float, depth: int) -> float:
    mid = 0.5 * (a + b)
    left = _gauss(f, a, mid)
    right = _gauss(f, mid, b)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth <= 0:
        raise QuadratureError(
            f"quadrature tolerance {tol:g} not reached on [{a:g}, {b:g}]",
            estimate=left + right,
        )
    return (_adaptive(f, a, mid, left, 0.5 * tol, depth - 1)
            + _adaptive(f, mid, b, right, 0.5 * tol, depth - 1))


def potential_quadrature(complex: SurfaceComplex, prescription: Prescription,
                         K, base=None, tol: float = 1e-10,
                         max_bisections: int = 20) -> float:
    """Line integral of sum (L_i - Lhat_i) dK_i from ``base`` to ``K``.

    The form is closed (the Jacobian is symmetric), so the value does not
    depend on the path; we integrate along the straight segment with
    adaptive Gauss-Legendre panels.  ``base`` defaults to the coordinate
    origin K = 0, where the potential is 0 by convention.  Raises
    QuadratureError (carrying the best estimate) if the bisection budget
    runs out before reaching ``tol``.  The inputs are checked here, once;
    the quadrature nodes are evaluated by the check-free ``_evaluate``.
    """
    K = np.asarray(K, dtype=float)
    if base is None:
        base = np.zeros_like(K)
    base = np.asarray(base, dtype=float)
    if K.shape != base.shape or K.shape != (complex.n_vertices,):
        raise InputError("K and base must be coordinate vectors on the complex")
    if not (np.isfinite(K).all() and np.isfinite(base).all()):
        raise InputError("K and base must be finite")
    check_instance(complex, prescription)
    direction = K - base
    if not np.any(direction):
        return 0.0

    lhat = prescription.lhat

    def integrand(t: float) -> float:
        state = _evaluate(complex, base + t * direction)
        return float(np.dot(state.L - lhat, direction))

    whole = _gauss(integrand, 0.0, 1.0)
    return _adaptive(integrand, 0.0, 1.0, whole, tol, max_bisections)
