"""Central finite differences and a floored relative error, the test
oracles for the analytic gradient and Jacobian.

They deliberately avoid the analytic code paths they check: a gradient is
read off the scalar field alone, and a Jacobian off two evaluations of
L(K) per column.
"""

from typing import Callable

import numpy as np

from cpflow.curvature import evaluate
from cpflow.errors import InputError
from cpflow.surface import SurfaceComplex

DEFAULT_FD_STEP = 1e-5
# Relative-error denominators are floored here to avoid blowup near zeros.
REL_FLOOR = 1e-8


def relative_error(approx, exact, floor: float = REL_FLOOR):
    """|approx - exact| / max(|exact|, floor), elementwise."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return np.abs(approx - exact) / np.maximum(np.abs(exact), floor)


def fd_gradient(f: Callable[[np.ndarray], float], K,
                h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar field over K."""
    if h <= 0.0:
        raise InputError("finite-difference step must be positive")
    K = np.asarray(K, dtype=float)
    grad = np.empty_like(K)
    for i in range(len(K)):
        up = K.copy()
        dn = K.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2.0 * h)
    return grad


def fd_jacobian(complex: SurfaceComplex, K,
                h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of L(K), column by column."""
    if h <= 0.0:
        raise InputError("finite-difference step must be positive")
    K = np.asarray(K, dtype=float)
    n = complex.n_vertices
    J = np.empty((n, n))
    for j in range(n):
        up = K.copy()
        dn = K.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (evaluate(complex, up).L - evaluate(complex, dn).L) / (2.0 * h)
    return J
