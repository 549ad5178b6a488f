"""Global curvature quantities assembled over the whole complex.

Everything downstream of the per-edge kernel lives here: the total
geodesic curvature vector L(K), the cone angles at the vertices,
the symmetric Jacobian dL/dK and the closed-form convex potential whose
gradient is L - Lhat.  The Calabi energy 0.5 ||L - Lhat||^2 has one
formula, in ``flow.run``, which records it on every ``FlowSample``.
Vertex quantities are assembled over the edge list in O(E).
``evaluate``, ``flow.run`` and ``potential`` check K with the one
``_coordinates``; the public ``evaluate`` then runs the check-free
``_evaluate``, which the flows and ``potential`` call.
Each quantity has one body, shared by states and by the flow's
integrator stages, which need only a direction and build no state:
``_sides`` (the center angles theta and L), ``_edge_form`` (J's edge form,
its diagonal and the per-edge mixed partials) and ``_apply`` (J x).  A
state computes theta and L when it is built, and J's edge form on its
first read, which Newton's backtracking trials, ``potential`` and
``instancefile.write_solution`` never make.  The dense Jacobian and its
spectrum are likewise computed only when a caller reads them.
``gershgorin_bound`` bounds the top of J's spectrum at one state, which
is all either flow integrator needs; ``smallest_eigenvalue`` gives its
bottom, once per converged flow run.
The exact Cl_2 series behind ``potential`` is computed on its first call,
not at import: no CLI command needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import geometry
from .errors import InputError
from .surface import Prescription, SurfaceComplex, check_instance

# Radii are clamped to this closed interval so that diagnostics stay
# finite during divergent runs (K -> +-inf); in K-space the clamp is
# |K| <= K_CLAMP = ln cot RADIUS_CLAMP.
RADIUS_CLAMP = 1e-12
K_CLAMP = math.log(1.0 / math.tan(RADIUS_CLAMP))

# The smallest eigenvalue of J, which a converged flow run records as
# ``min_eig``, is exact (dense J and eigvalsh) up to LANCZOS_CUT vertices
# and a Lanczos iteration on ``jvp``, checked every LANCZOS_STEPS steps,
# above it.  On planted torus grids (one BLAS thread) the dense path costs
# 1 ms at V=100 and 2 ms at V=144, Lanczos 2-3 ms at both; moving the cut
# would move the last bits of ``min_eig``.
LANCZOS_CUT = 64
LANCZOS_STEPS = 6


@dataclass(frozen=True)
class CurvatureState:
    """All curvature data of one coordinate vector K on a fixed complex.

    ``theta_sides`` stacks the quadrilateral center angles theta_v at the
    first endpoint of each edge (row 0) over theta_w at the second (row
    1); ``sin_r_sides``, ``cos_r_sides`` and ``half_sides`` (= theta / 2)
    stack the trigonometry of the radii and the half angles the same way.
    K, theta and L are computed by ``evaluate``.  The symmetric Jacobian
    ``J[i, j] = dL_i/dK_j`` is kept in edge form: the cached pair
    ``edge_form`` holds its diagonal ``diag`` and the per-edge mixed
    partial ``d_cross[e]`` (always negative), which sits at (v, w) and
    (w, v) for edge e = (v, w) and accumulates over parallel edges.  The
    pair is computed from the stored trigonometry on its first read; only
    ``jvp``, ``J``, ``gershgorin_bound`` and Newton's preconditioner read
    it, so Newton's backtracking trials, ``potential`` and
    ``instancefile.write_solution`` never compute it.
    ``jvp`` applies J in O(E); the dense ``J`` and the radii ``r`` are
    likewise computed only when read.  ``clamped`` records whether any
    radius had to be pulled back from the boundary of (0, pi/2), that is,
    whether any |K_v| exceeds K_CLAMP.
    """

    complex: SurfaceComplex
    K: np.ndarray
    theta_sides: np.ndarray
    L: np.ndarray
    sin_r_sides: np.ndarray
    cos_r_sides: np.ndarray
    half_sides: np.ndarray

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
    def edge_form(self) -> tuple[np.ndarray, np.ndarray]:
        """J's edge form: the pair (diagonal, per-edge mixed partials)."""
        return _edge_form(self.complex, self.sin_r_sides, self.cos_r_sides,
                          self.half_sides, self.theta_sides)

    @cached_property
    def J(self) -> np.ndarray:
        """The Jacobian dL/dK as a dense symmetric V x V matrix."""
        n = self.complex.n_vertices
        ev, ew = self.complex.endpoint_arrays
        diag, d_cross = self.edge_form
        half = np.bincount(ev * n + ew, d_cross, n * n).reshape(n, n)
        J = half + half.T
        J.ravel()[:: n + 1] += diag
        return J

    def jvp(self, x: np.ndarray) -> np.ndarray:
        """The product J @ x, without forming J."""
        return _apply(self.complex, *self.edge_form, x)

    @cached_property
    def alpha_v(self) -> np.ndarray:
        """Cone angle at each vertex: sum of incident center angles."""
        ends = self.complex.endpoint_arrays.ravel()
        return np.bincount(ends, self.theta_sides.ravel(), self.complex.n_vertices)

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


def smallest_eigenvalue(state: CurvatureState, tol: float) -> float:
    """The smallest eigenvalue of J, for ``flow.run``'s ``min_eig``.

    Up to LANCZOS_CUT vertices it is exact, from the spectrum cached on
    the state.  Above the cut it is Lanczos on ``state.jvp`` from a fixed
    pseudo-random start, reorthogonalized twice against every earlier
    vector, and returns the smallest Ritz value theta once the error bound
    |beta_k s_k|^2 / gap (Parlett 1980; gap to the next Ritz value),
    checked every LANCZOS_STEPS steps, is at most ``tol`` |theta|.
    """
    n = state.complex.n_vertices
    if n <= LANCZOS_CUT:
        return state.min_eigenvalue
    start = np.random.Generator(np.random.Philox(key=0)).random(n) - 0.5
    Q = np.empty((LANCZOS_STEPS, n))
    Q[0] = start / math.sqrt(start @ start)
    alpha, beta = [], []
    for j in range(n):
        w = state.jvp(Q[j])
        h = Q[:j + 1] @ w
        w -= h @ Q[:j + 1]
        # Twice is enough; one pass drifts after a few dozen steps.
        w -= (Q[:j + 1] @ w) @ Q[:j + 1]
        alpha.append(h[j])
        b = math.sqrt(w @ w)
        # An invariant subspace: its Ritz values are eigenvalues.
        done = j + 1 == n or b <= 1e-12 * abs(alpha[j])
        if done or (j + 1) % LANCZOS_STEPS == 0:
            # eigh reads the lower triangle only.
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
            rho = b * s[-1, 0]
            if done or rho * rho <= tol * abs(theta[0] * (theta[0] - theta[1])):
                return float(theta[0])
        if j + 1 == len(Q):
            Q = np.concatenate((Q, np.empty_like(Q)))
        beta.append(b)
        Q[j + 1] = w / b


def gershgorin_bound(state: CurvatureState) -> float:
    """Gershgorin's (1931) upper bound on the largest eigenvalue of J: the
    largest right end J_ii + sum_{j != i} |J_ij| of a Gershgorin disc.
    Both flow integrators take their stiffness from it: RKC fits its
    stages to it and RKF45 caps its step by it.

    Every off-diagonal entry of J is negative, so that end is
    2 J_ii - (J 1)_i, where (J 1)_i is J_ii plus the mixed partials of the
    edges at i.  The bound costs one ``bincount``, plus J's edge form where
    the state has not computed it yet (a curvature-flow state).
    """
    c, (diag, d_cross) = state.complex, state.edge_form
    return float((2.0 * diag - (diag + np.bincount(
        c.endpoint_arrays.ravel(), np.concatenate((d_cross, d_cross)),
        c.n_vertices))).max())


def evaluate(complex: SurfaceComplex, K) -> CurvatureState:
    """Evaluate the center angles and curvatures at coordinates K.

    theta and L are computed here, per evaluation; J's edge form is
    computed from the state on its first read (see ``CurvatureState``).
    Every vertex quantity is a sum over the edge list, accumulated with
    ``np.bincount`` in O(E); parallel edges accumulate.

    The trigonometry of the radii is taken at the vertices straight from
    K, then gathered to the edge ends: with cot r = exp K (K clipped to
    |K| <= K_CLAMP), sin r = 1 / hypot(1, cot r) and cos r = cot r sin r
    keep full relative accuracy even within 1e-11 of either end of
    (0, pi/2), where r itself cannot.

    Checks the complex and K, then runs the check-free ``_evaluate``.
    """
    check_instance(complex)
    return _evaluate(complex, _coordinates(complex, K))


def _coordinates(complex: SurfaceComplex, K, name: str = "K",
                 limit: float = math.inf) -> np.ndarray:
    """K as a new float vector; InputError unless it is a vector of length
    V, is finite and keeps every |K_v| <= ``limit``."""
    K = np.array(K, dtype=float)
    if K.shape != (complex.n_vertices,):
        raise InputError(f"{name} must be a vector of length {complex.n_vertices}")
    if not np.isfinite(K).all():
        raise InputError(f"{name} must be finite")
    if (np.abs(K) > limit).any():
        raise InputError(f"{name} lies past the radius clamp")
    return K


def _evaluate(complex: SurfaceComplex, K: np.ndarray) -> CurvatureState:
    """Check-free ``evaluate`` for a valid complex and a finite float
    array K of length V, which the state keeps without a copy."""
    return CurvatureState(complex, K, *_sides(complex, K))


def _sides(complex: SurfaceComplex, K: np.ndarray):
    """theta, L, sin r, cos r and theta / 2 at K, in the field order of
    ``CurvatureState``, with the per-side quantities stacked as there.

    The one body of theta and L, shared by ``_evaluate`` and the flow
    stages, which build no state; it calls the kernel through the
    ``geometry`` module, so that a wrapped kernel sees every evaluation.
    """
    cot_r = np.exp(np.minimum(np.maximum(K, -K_CLAMP), K_CLAMP))
    sin_r = np.hypot(1.0, cot_r)
    np.reciprocal(sin_r, out=sin_r)
    ends = complex.endpoint_arrays
    sin_sides = sin_r.take(ends)
    cos_sides = (cot_r * sin_r).take(ends)
    half, theta, L_side = geometry._edge_kernel(
        complex.sin_phi, complex.cos_phi,
        cot_r.take(complex.opposite_endpoints), sin_sides, cos_sides)
    return (theta, np.bincount(ends.ravel(), L_side.ravel(),
                               complex.n_vertices),
            sin_sides, cos_sides, half)


def _edge_form(complex: SurfaceComplex, sin_r: np.ndarray, cos_r: np.ndarray,
               half: np.ndarray, theta: np.ndarray):
    """J's edge form (``diag``, ``d_cross``) from the stacked trigonometry
    and angles of ``_sides``."""
    d_cross, d_pair = geometry._edge_derivatives(
        complex.cross_scale, sin_r, cos_r, half, theta)
    return np.bincount(complex.endpoint_arrays.ravel(),
                       (d_pair - d_cross).ravel(), complex.n_vertices), d_cross


def _apply(complex: SurfaceComplex, diag: np.ndarray, d_cross: np.ndarray,
           x: np.ndarray) -> np.ndarray:
    """J @ x from J's edge form, without forming J."""
    return diag * x + np.bincount(
        complex.endpoint_arrays.ravel(),
        (d_cross * x.take(complex.opposite_endpoints)).ravel(),
        complex.n_vertices)


# ----------------------------------------------------------------------
# Potential function: F(K) with dF = sum (L_i - Lhat_i) dK_i, in closed form
# ----------------------------------------------------------------------

@cache
def _cl2_series(terms: int) -> tuple[float, ...]:
    """c_k = |B_2k| / (2k (2k+1)!), k = 1..terms, of Cl_2(t) = t - t ln|t|
    + sum_k c_k t^(2k+1) on [-pi, pi], from the exact Bernoulli recurrence
    sum_{j <= m} C(m + 1, j) B_j = 0; 27 terms leave an error below 1e-17.
    Computed on first use, not at import: only ``potential`` reads it."""
    from fractions import Fraction
    B = [Fraction(1)]
    for m in range(1, 2 * terms + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return tuple(float(abs(B[2 * k]) / (2 * k * math.factorial(2 * k + 1)))
                 for k in range(1, terms + 1))


def _lobachevsky(x: np.ndarray) -> np.ndarray:
    """Lobachevsky's function -int_0^x ln|2 sin u| du = Cl_2(t) / 2, with
    t = 2x reduced to [-pi, pi] and t ln|t| -> 0 as t -> 0."""
    t = 2.0 * x - 2.0 * np.pi * np.round(x / np.pi)
    t2 = t * t
    series = np.zeros_like(t)
    for c in reversed(_cl2_series(27)):
        series *= t2
        series += c
    log_t = np.log(np.abs(t), out=np.zeros_like(t), where=t != 0.0)
    return 0.5 * t * (1.0 - log_t + t2 * series)


def _convex_potential(state: CurvatureState, lhat: np.ndarray) -> float:
    """F(K), whose gradient is L - Lhat, for |K| <= K_CLAMP: the sum over
    edge sides of Lob(alpha + theta/2) + Lob(alpha - theta/2) + 2 Lob(pi/2
    - alpha) + theta d, less Lhat . K, with theta the center angle, alpha =
    arctan(cos r tan(theta/2)), d = arsinh(cot r) and Lob ``_lobachevsky``
    (Milnor, Bull. AMS 6, 1982; Vinberg, Geometry II, 1993).  By Schlafli's
    formula an edge's Lob terms differentiate to -(d_v dtheta_v + d_w
    dtheta_w), so the edge adds L_v_side dK_v + L_w_side dK_w to dF."""
    half, cos_r = state.half_sides, state.cos_r_sides
    alpha = np.arctan2(cos_r * np.sin(half), np.cos(half))
    d = np.arcsinh(np.exp(state.K)).take(state.complex.endpoint_arrays)
    sides = (_lobachevsky(alpha + half) + _lobachevsky(alpha - half)
             + 2.0 * _lobachevsky(0.5 * np.pi - alpha) + state.theta_sides * d)
    return float(sides.sum() - lhat @ state.K)


def potential(complex: SurfaceComplex, prescription: Prescription, K,
              base=None) -> float:
    """F(K) - F(base), the integral of sum (L_i - Lhat_i) dK_i from
    ``base`` (by default the origin, where the potential is 0) to ``K``.

    The inputs are checked here, then both ends are evaluated check-free.
    Past the radius clamp L stops depending on K, so the form is not closed
    and no potential exists: a |K_v| or |base_v| > K_CLAMP is an InputError.
    """
    K = _coordinates(complex, K, "K", K_CLAMP)
    base = (np.zeros_like(K) if base is None
            else _coordinates(complex, base, "base", K_CLAMP))
    check_instance(complex, prescription)
    lhat = prescription.lhat
    return (_convex_potential(_evaluate(complex, K), lhat)
            - _convex_potential(_evaluate(complex, base), lhat))
