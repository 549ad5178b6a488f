"""Global curvature quantities assembled over the whole complex.

Everything downstream of the per-edge kernel lives here: the total
geodesic curvature vector L(K), cone angles at vertices and face centers,
the symmetric Jacobian dL/dK, the Calabi energy, the convex potential
whose gradient is L - Lhat, and the a-priori bound on the flow velocity.
Vertex quantities are assembled over the edge list in O(E); the dense
Jacobian and its spectrum are computed only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .errors import InputError, QuadratureError
from .surface import Prescription, SurfaceComplex

# Radii reconstructed from K-space are clamped to this closed interval so
# that diagnostics stay finite during divergent runs (K -> +-inf).
RADIUS_CLAMP = 1e-12


@dataclass(frozen=True)
class CurvatureState:
    """All curvature data of one coordinate vector K on a fixed complex.

    ``theta_v[e]`` / ``theta_w[e]`` are the quadrilateral center angles at
    the first/second endpoint of edge ``e``.  The symmetric Jacobian
    ``J[i, j] = dL_i/dK_j`` is kept in edge form: its diagonal ``diag`` and
    the per-edge mixed partial ``d_cross[e]`` (always negative), which
    sits at (v, w) and (w, v) for edge e = (v, w) and accumulates over
    parallel edges.  ``jvp`` applies J in O(E); the dense ``J`` is
    assembled only when read.  ``clamped`` records whether any radius had
    to be pulled back from the boundary of (0, pi/2) during reconstruction
    from K.
    """

    complex: SurfaceComplex
    K: np.ndarray
    r: np.ndarray
    theta_v: np.ndarray
    theta_w: np.ndarray
    L: np.ndarray
    diag: np.ndarray
    d_cross: np.ndarray
    clamped: bool

    @cached_property
    def J(self) -> np.ndarray:
        """The Jacobian dL/dK as a dense symmetric V x V matrix."""
        n = self.complex.n_vertices
        ev, ew = self.complex.endpoint_arrays
        half = np.bincount(ev * n + ew, self.d_cross, n * n).reshape(n, n)
        J = half + half.T
        J.ravel()[:: n + 1] += self.diag
        return J

    def jvp(self, x: np.ndarray) -> np.ndarray:
        """The product J @ x, without forming J."""
        c = self.complex
        return self.diag * x + np.bincount(
            c.endpoint_arrays.ravel(),
            (self.d_cross * x[c.opposite_endpoints]).ravel(), c.n_vertices)

    @cached_property
    def alpha_v(self) -> np.ndarray:
        """Cone angle at each vertex: sum of incident center angles."""
        n = self.complex.n_vertices
        ev, ew = self.complex.endpoint_arrays
        return np.bincount(ev, self.theta_v, n) + np.bincount(ew, self.theta_w, n)

    @property
    def alpha_f(self) -> np.ndarray:
        """Cone angle at each face center (depends only on the angles phi)."""
        return self.complex.face_cone_angles

    def theta(self, edge: int, vertex: int) -> float:
        """Center angle of edge ``edge`` on the side of ``vertex``."""
        v, w = self.complex.edges[edge]
        if vertex == v:
            return float(self.theta_v[edge])
        if vertex == w:
            return float(self.theta_w[edge])
        raise InputError(f"vertex {vertex} is not an endpoint of edge {edge}")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of J, ascending."""
        return np.linalg.eigvalsh(self.J)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def evaluate(complex: SurfaceComplex, K) -> CurvatureState:
    """Evaluate curvatures and the Jacobian in edge form at coordinates K.

    Every vertex quantity is a sum over the edge list, accumulated with
    ``np.bincount`` in O(E); parallel edges accumulate.
    """
    if not complex.is_valid:
        raise InputError("invalid complex: " + "; ".join(complex.violations))
    K = np.asarray(K, dtype=float)
    if K.shape != (complex.n_vertices,):
        raise InputError(f"K must have length {complex.n_vertices}")
    if not np.isfinite(K).all():
        raise InputError("K must be finite")

    # Pull radii off the interval boundary (floats collapse onto it for
    # |K| beyond ~27).
    r_raw = geometry._k_to_r(K)
    r = np.minimum(np.maximum(r_raw, RADIUS_CLAMP), 0.5 * np.pi - RADIUS_CLAMP)
    clamped = bool((r != r_raw).any())

    ends = complex.endpoint_arrays
    ev, ew = ends
    g = geometry._edge_kernel(r[ev], r[ew], complex.phi)

    # Row s of a stacked per-side quantity belongs at the vertices ends[s].
    n = complex.n_vertices
    L = np.bincount(ends.ravel(), g.L_side.ravel(), n)
    diag = np.bincount(ends.ravel(), g.d_own.ravel(), n)

    return CurvatureState(
        complex=complex, K=K.copy(), r=r,
        theta_v=g.theta_v, theta_w=g.theta_w,
        L=L, diag=diag, d_cross=g.d_cross, clamped=clamped,
    )


def prescribed_calabi_energy(L, prescription: Prescription | np.ndarray) -> float:
    """Half the squared 2-norm of the curvature error L - Lhat.

    ``prescription`` may be a Prescription or a raw target vector (raw
    vectors are handy for degenerate comparisons like Lhat = 0).
    """
    L = np.asarray(L, dtype=float)
    lhat = prescription.lhat if isinstance(prescription, Prescription) \
        else np.asarray(prescription, dtype=float)
    if L.shape != lhat.shape:
        raise InputError("curvature vector and prescription differ in length")
    d = L - lhat
    return 0.5 * float(np.dot(d, d))


def velocity_bound(complex: SurfaceComplex, prescription: Prescription) -> float:
    """Closed-form ceiling on ||dK/dt|| along the Calabi flow.

    Depends only on the graph structure, the intersection angles, and the
    prescription:

        4 sqrt(|V|) max_v(d_v pi + sum_{e at v} 1/sin phi_e)
                    max_v(2 d_v pi + Lhat_v)
    """
    if not complex.is_valid:
        raise InputError("invalid complex: " + "; ".join(complex.violations))
    if len(prescription) != complex.n_vertices:
        raise InputError("prescription length does not match complex")
    ev, ew = complex.endpoint_arrays
    inv_sin = 1.0 / np.sin(complex.phi)
    s = np.zeros(complex.n_vertices)
    np.add.at(s, ev, inv_sin)
    np.add.at(s, ew, inv_sin)
    d = complex.degrees
    return float(4.0 * np.sqrt(complex.n_vertices)
                 * np.max(d * np.pi + s)
                 * np.max(2.0 * d * np.pi + prescription.lhat))


# ----------------------------------------------------------------------
# Potential function: path integral of the closed 1-form sum (L_i - Lhat_i) dK_i
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


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


def potential(complex: SurfaceComplex, prescription: Prescription, K,
              base=None, tol: float = 1e-10, max_bisections: int = 20) -> float:
    """Line integral of sum (L_i - Lhat_i) dK_i from ``base`` to ``K``.

    The form is closed (the Jacobian is symmetric), so the value does not
    depend on the path; we integrate along the straight segment with
    adaptive Gauss-Legendre panels.  ``base`` defaults to the coordinate
    origin K = 0, where the potential is 0 by convention.  Raises
    QuadratureError (carrying the best estimate) if the bisection budget
    runs out before reaching ``tol``.
    """
    K = np.asarray(K, dtype=float)
    if base is None:
        base = np.zeros_like(K)
    base = np.asarray(base, dtype=float)
    if K.shape != base.shape or K.shape != (complex.n_vertices,):
        raise InputError("K and base must be coordinate vectors on the complex")
    if len(prescription) != complex.n_vertices:
        raise InputError("prescription length does not match complex")
    direction = K - base
    if not np.any(direction):
        return 0.0

    lhat = prescription.lhat

    def integrand(t: float) -> float:
        state = evaluate(complex, base + t * direction)
        return float(np.dot(state.L - lhat, direction))

    whole = _gauss(integrand, 0.0, 1.0)
    return _adaptive(integrand, 0.0, 1.0, whole, tol, max_bisections)
