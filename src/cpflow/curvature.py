"""Global curvature quantities assembled over the whole complex.

Everything downstream of the per-edge kernel lives here: the total
geodesic curvature vector L(K), cone angles at vertices and face centers,
the symmetric Jacobian dL/dK, the Calabi energy, the convex potential
whose gradient is L - Lhat, and the a-priori bound on the flow velocity.
Vertex quantities are assembled over the edge list in O(E); the dense
Jacobian and its spectrum are computed only when a caller reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .errors import InputError, QuadratureError
from .surface import Prescription, SurfaceComplex

# Radii are clamped to this closed interval so that diagnostics stay
# finite during divergent runs (K -> +-inf); in K-space the clamp is
# |K| <= K_CLAMP = ln cot RADIUS_CLAMP.
RADIUS_CLAMP = 1e-12
K_CLAMP = math.log(1.0 / math.tan(RADIUS_CLAMP))


@dataclass(frozen=True)
class CurvatureState:
    """All curvature data of one coordinate vector K on a fixed complex.

    ``theta_sides`` stacks the quadrilateral center angles at the first
    (row 0, ``theta_v``) and second (row 1, ``theta_w``) endpoint of each
    edge.  The symmetric Jacobian ``J[i, j] = dL_i/dK_j`` is kept in edge
    form: its diagonal ``diag`` and the per-edge mixed partial
    ``d_cross[e]`` (always negative), which sits at (v, w) and (w, v) for
    edge e = (v, w) and accumulates over parallel edges.  ``jvp`` applies
    J in O(E); the dense ``J`` and the radii ``r`` are computed only when
    read.  ``clamped`` records whether any radius had to be pulled back
    from the boundary of (0, pi/2), that is, whether any |K_v| exceeds
    K_CLAMP.
    """

    complex: SurfaceComplex
    K: np.ndarray
    theta_sides: np.ndarray
    L: np.ndarray
    diag: np.ndarray
    d_cross: np.ndarray

    @property
    def theta_v(self) -> np.ndarray:
        return self.theta_sides[0]

    @property
    def theta_w(self) -> np.ndarray:
        return self.theta_sides[1]

    @cached_property
    def r(self) -> np.ndarray:
        """Circle radii arccot(exp K), clamped to
        [RADIUS_CLAMP, pi/2 - RADIUS_CLAMP]."""
        return np.clip(geometry._k_to_r(self.K), RADIUS_CLAMP,
                       0.5 * np.pi - RADIUS_CLAMP)

    @property
    def clamped(self) -> bool:
        return bool(np.abs(self.K).max() > K_CLAMP)

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
            c.flat_ends, (self.d_cross * x.take(c.opposite_endpoints)).ravel(),
            c.n_vertices)

    @cached_property
    def alpha_v(self) -> np.ndarray:
        """Cone angle at each vertex: sum of incident center angles."""
        c = self.complex
        return np.bincount(c.flat_ends, self.theta_sides.ravel(), c.n_vertices)

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
    K = np.array(K, dtype=float)
    n = complex.n_vertices
    if K.shape != (n,):
        raise InputError(f"K must have length {n}")
    if not np.isfinite(K).all():
        raise InputError("K must be finite")

    g = _edge_geometry(complex, K)
    # Row s of a stacked per-side quantity belongs at the vertices ends[s].
    ends = complex.flat_ends
    return CurvatureState(complex, K, g.theta,
                          np.bincount(ends, g.L_side.ravel(), n),
                          np.bincount(ends, g.d_own.ravel(), n), g.d_cross)


def _edge_geometry(complex: SurfaceComplex, K: np.ndarray) -> geometry.EdgeSideGeometry:
    """The edge kernel on every edge at finite coordinates K.

    The trigonometry of the radii is taken at the vertices straight from
    K, then gathered to the edge ends: with cot r = exp K (K clipped to
    |K| <= K_CLAMP), sin r = 1 / hypot(1, cot r) and cos r = cot r sin r
    keep full relative accuracy even within 1e-11 of either end of
    (0, pi/2), where r itself cannot.
    """
    cot_r = np.exp(np.minimum(np.maximum(K, -K_CLAMP), K_CLAMP))
    sin_r = np.hypot(1.0, cot_r)
    np.reciprocal(sin_r, out=sin_r)
    ends = complex.endpoint_arrays
    return geometry._edge_kernel(complex.sin_phi, complex.cos_phi,
                                 complex.cross_scale,
                                 cot_r.take(complex.opposite_endpoints),
                                 sin_r.take(ends), (cot_r * sin_r).take(ends))


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
    inv_sin = 1.0 / complex.sin_phi
    s = np.bincount(complex.flat_ends, np.concatenate((inv_sin, inv_sin)),
                    complex.n_vertices)
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
