"""Time integration of the curvature flows and the Newton solver.

Two descent flows drive the curvature error L - Lhat to zero, written in
the log-cotangent coordinates K where both are gradient flows:

    calabi:     dK/dt = -J (L - Lhat)       (steepest descent of the energy
                                             0.5 ||L - Lhat||^2; J = dL/dK
                                             is symmetric)
    curvature:  dK/dt = -(L - Lhat)         (steepest descent of the convex
                                             potential; equivalently
                                             dr/dt = (L-Lhat)/2 sin 2r)

Both converge to the same unique fixed point exactly when the
prescription is feasible; infeasible prescriptions push some coordinate
to infinity, which the runner reports as divergence together with a
violating-subset certificate.  A damped Newton iteration on the same
fixed-point equation is provided for fast polishing.  Every method is a
generator of states; ``run`` alone applies the stop rule and the verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .curvature import CurvatureState, evaluate, prescribed_calabi_energy
from .errors import (DomainError, InputError, IntegrationError,
                     NonConvergenceError)
from .feasibility import FeasibilityVerdict, check_mincut
from .surface import Prescription, SurfaceComplex

METHODS = ("calabi", "curvature", "newton")
INTEGRATORS = ("rk4", "rkf45")
_INTEGRATOR_ALIASES = {"rk4-fixed": "rk4", "rkf45-adaptive": "rkf45"}

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters for one flow run."""

    method: str = "calabi"
    integrator: str = "rkf45"
    step: float = 1e-2
    tol_curvature: float = 1e-10
    tol_ode: float = 1e-9
    max_time: float = 1e4
    max_iters: int = 500_000
    divergence_k: float = 50.0
    newton_max_iters: int = 100

    def __post_init__(self):
        integrator = _INTEGRATOR_ALIASES.get(self.integrator, self.integrator)
        object.__setattr__(self, "integrator", integrator)
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}")
        if integrator not in INTEGRATORS:
            raise InputError(f"unknown integrator {self.integrator!r}")
        for name in ("step", "tol_curvature", "tol_ode", "max_time",
                     "divergence_k"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be finite and positive")
        if self.max_iters <= 0 or self.newton_max_iters <= 0:
            raise InputError("iteration budgets must be positive")


@dataclass(frozen=True)
class FlowSample:
    """One accepted integration state.

    ``min_eig`` is set only when the run computed the spectrum of J at this
    state anyway (the adaptive step cap); otherwise it is None and trace
    writers compute it from K.
    """

    t: float
    K: np.ndarray
    err_inf: float      # ||L - Lhat||_inf
    energy: float       # 0.5 ||L - Lhat||^2
    speed: float        # ||dK/dt||_2 (Newton: step norm)
    min_eig: float | None   # smallest eigenvalue of J, if computed
    clamped: bool


@dataclass
class FlowTrace:
    """Time series of a flow run plus its termination verdict."""

    method: str
    samples: list[FlowSample] = field(default_factory=list)
    verdict: str = VERDICT_BUDGET
    fitted_rate: float | None = None
    certificate: FeasibilityVerdict | None = None

    @property
    def final(self) -> FlowSample:
        return self.samples[-1]

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.samples])

    def final_k(self) -> np.ndarray:
        return self.samples[-1].K.copy()


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ln(energy) against t."""

    slope: float
    r_squared: float
    degenerate: bool = False


# ----------------------------------------------------------------------
# Right-hand sides
# ----------------------------------------------------------------------

def calabi_direction(state: CurvatureState, prescription: Prescription) -> np.ndarray:
    """dK/dt = -J (L - Lhat) at ``state``, applied matrix-free.

    J is symmetric, so this is the gradient flow -J^T (L - Lhat) of the
    energy 0.5 ||L - Lhat||^2.
    """
    return -state.jvp(state.L - prescription.lhat)


def curvature_rhs(complex: SurfaceComplex, prescription: Prescription, r) -> np.ndarray:
    """dr_v/dt = (L_v - Lhat_v)/2 * sin(2 r_v), the radius-space flow."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r >= 0.5 * np.pi):
        raise DomainError("radii must lie in (0, pi/2)")
    state = evaluate(complex, geometry.r_to_k(r))
    return 0.5 * (state.L - prescription.lhat) * np.sin(2.0 * r)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def run(complex: SurfaceComplex, prescription: Prescription, K0,
        config: FlowConfig | None = None) -> FlowTrace:
    """Run the configured method from K0 until it converges, diverges,
    or exhausts its budget.

    The trace is sampled at the start and at every accepted step (Newton:
    every iteration, with t the iteration count).  Convergence means
    ||L - Lhat||_inf dropped below ``tol_curvature``; divergence means
    ||K||_inf crossed ``divergence_k`` (possible only for infeasible
    prescriptions, so the returned trace carries a violating-subset
    certificate).  The budget is ``max_iters`` steps or ``max_time`` for
    the flows and ``newton_max_iters`` iterations for Newton.  The
    curvature flow is integrated in K-space through the identity
    dK/dt = -(L - Lhat), which avoids the radius-interval boundary
    entirely.  Raises IntegrationError on step-size underflow and
    NonConvergenceError when Newton finds no descent.
    """
    trace = _run(complex, prescription, K0, config)
    if trace.verdict != VERDICT_CONVERGED:
        # Infeasibility is the only cause of non-convergence, so explain a
        # divergence with the violated subset; a budget verdict gets the
        # certificate too when the prescription turns out infeasible.
        cert = check_mincut(complex, prescription)
        if trace.verdict == VERDICT_DIVERGED or not cert.feasible:
            trace.certificate = cert
    return trace


def _run(complex: SurfaceComplex, prescription: Prescription, K0,
         config: FlowConfig | None) -> FlowTrace:
    """``run`` without the certificate: the stop rule and the verdict."""
    if config is None:
        config = FlowConfig()
    if not complex.is_valid:
        raise InputError("invalid complex: " + "; ".join(complex.violations))
    K0 = np.asarray(K0, dtype=float)
    if K0.shape != (complex.n_vertices,):
        raise InputError(f"K0 must have length {complex.n_vertices}")
    if not np.all(np.isfinite(K0)):
        raise InputError("K0 must be finite")
    if len(prescription) != complex.n_vertices:
        raise InputError("prescription length does not match complex")

    trace = FlowTrace(method=config.method)
    if config.method == "newton":
        states = _newton_states(complex, prescription, K0)
        budget, max_time = config.newton_max_iters, math.inf
    else:
        states = _ode_states(complex, prescription, K0, config, trace)
        budget, max_time = config.max_iters, config.max_time
    # The adaptive integrator reads the spectrum of J at every state it
    # steps from, so the sample of such a state records its smallest
    # eigenvalue; a final state gets none.
    spectral = config.method != "newton" and config.integrator == "rkf45"
    for steps, (t, state, speed) in enumerate(states):
        err_inf = float(np.abs(state.L - prescription.lhat).max())
        if err_inf < config.tol_curvature:
            verdict = VERDICT_CONVERGED
        elif float(np.abs(state.K).max()) > config.divergence_k:
            verdict = VERDICT_DIVERGED
        elif steps >= budget or t >= max_time:
            verdict = VERDICT_BUDGET
        else:
            verdict = None
        trace.samples.append(FlowSample(
            t=t, K=state.K.copy(), err_inf=err_inf,
            energy=prescribed_calabi_energy(state.L, prescription),
            speed=speed,
            min_eig=(state.min_eigenvalue if spectral and verdict is None
                     else None),
            clamped=state.clamped,
        ))
        if verdict is not None:
            return _finish(trace, verdict)


def _finish(trace: FlowTrace, verdict: str) -> FlowTrace:
    trace.verdict = verdict
    if verdict == VERDICT_CONVERGED:
        window = max(10, int(np.ceil(0.3 * len(trace.samples))))
        try:
            trace.fitted_rate = fit_decay_rate(trace, window).slope
        except InputError:
            trace.fitted_rate = None
    return trace


# Fehlberg 4(5) tableau; the fifth-order solution is propagated.  Row i
# of _RKF_A weighs the stages before stage i; _RKF_ERR = b5 - b4 weighs
# the local error estimate.
_RKF_A = np.array((
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 4, 0.0, 0.0, 0.0, 0.0),
    (3 / 32, 9 / 32, 0.0, 0.0, 0.0),
    (1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
))
_RKF_B5 = np.array((16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55))
_RKF_ERR = _RKF_B5 - np.array((25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0))
_MIN_STEP = 1e-14
# Step ceiling h * |J_flow| for the adaptive integrator, safely inside the
# real-axis stability extent (about 3.68) of the propagated fifth-order
# solution.
_RKF_STAB = 3.2


def _ode_states(complex: SurfaceComplex, prescription: Prescription,
                K0: np.ndarray, config: FlowConfig, trace: FlowTrace):
    """Yield (t, state, ||dK/dt||) at t = 0 and after every accepted step.

    The adaptive integrator reads the spectrum of J at each state it steps
    from (cached on the state, so the caller's sample can record it).
    """
    lhat = prescription.lhat
    if config.method == "calabi":
        def direction(state: CurvatureState) -> np.ndarray:
            return calabi_direction(state, prescription)
    else:
        def direction(state: CurvatureState) -> np.ndarray:
            return lhat - state.L

    t = 0.0
    K = K0.copy()
    h = config.step
    while True:
        state = evaluate(complex, K)
        f0 = direction(state)
        yield t, state, math.sqrt(f0 @ f0)

        if config.integrator == "rk4":
            h_step = min(config.step, config.max_time - t)
            k1 = f0
            k2 = direction(evaluate(complex, K + 0.5 * h_step * k1))
            k3 = direction(evaluate(complex, K + 0.5 * h_step * k2))
            k4 = direction(evaluate(complex, K + h_step * k3))
            K = K + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h_step
        else:
            # Linear-stability ceiling from the current spectrum: the flow
            # Jacobian is about -J^2 (calabi) or -J (curvature), so holding
            # h below the explicit stability limit keeps the local error
            # shrinking with the residual instead of riding the boundary.
            lam = state.max_eigenvalue
            cap = _RKF_STAB / (lam * lam if config.method == "calabi" else lam)
            h = min(h, cap, config.max_time - t)
            K, t, h = _rkf45_step(complex, direction, K, f0, t, h,
                                  config.tol_ode, trace)


def _rkf45_step(complex, direction, K, f0, t, h, tol, trace):
    """Advance one accepted Fehlberg step, shrinking h as needed.

    The six stage derivatives are the rows of one (6, V) array, so each
    stage input, the propagated solution and the error estimate is one
    product with a row of the tableau.
    """
    k = np.empty((6, len(K)))
    k[0] = f0
    while True:
        a = h * _RKF_A
        for i in range(1, 6):
            k[i] = direction(evaluate(complex, K + np.dot(a[i, :i], k[:i])))
        err = float(np.abs(np.dot(h * _RKF_ERR, k)).max())
        if err <= tol:
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            return K + np.dot(h * _RKF_B5, k), t + h, h * factor
        h *= max(0.1, 0.9 * (tol / err) ** 0.2)
        if h < _MIN_STEP:
            raise IntegrationError(
                f"step size underflow at t={t:g} (local error {err:g})",
                trace=trace,
            )


# ----------------------------------------------------------------------
# Newton
# ----------------------------------------------------------------------

def _newton_states(complex: SurfaceComplex, prescription: Prescription,
                   K0: np.ndarray):
    """Damped Newton iteration K <- K - s J^{-1} (L - Lhat).

    Yields (iteration count, state, step norm) at the start and after
    every iteration.  Step lengths backtrack on the curvature-error norm;
    raises NonConvergenceError when no step length decreases it.
    """
    lhat = prescription.lhat
    state = evaluate(complex, K0)
    yield 0.0, state, 0.0
    for it in itertools.count(1):
        residual = state.L - lhat
        try:
            delta = np.linalg.solve(state.J, residual)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"linear solve failed: {exc}") from exc
        merit = float(np.linalg.norm(residual))
        s = 1.0
        while True:
            state_new = evaluate(complex, state.K - s * delta)
            if float(np.linalg.norm(state_new.L - lhat)) < merit:
                break
            s *= 0.5
            if s < 1e-12:
                raise NonConvergenceError(
                    "backtracking found no decrease")
        state = state_new
        yield float(it), state, float(s * np.linalg.norm(delta))


def newton_solve(complex: SurfaceComplex, prescription: Prescription, K0,
                 tol: float = 1e-10, max_iters: int = 100) -> np.ndarray:
    """Newton's method through ``run``, returning the converged K.

    Requires a feasible prescription; raises NonConvergenceError when the
    iteration diverges, runs out of its ``max_iters`` iterations, or
    finds no descent.
    """
    config = FlowConfig(method="newton", tol_curvature=tol,
                        newton_max_iters=max_iters)
    # The failure raised below carries no certificate, so none is computed.
    trace = _run(complex, prescription, K0, config)
    if trace.verdict != VERDICT_CONVERGED:
        raise NonConvergenceError(
            f"Newton iteration {trace.verdict} after {trace.final.t:g} "
            f"of {max_iters} iterations")
    return trace.final_k()


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def fit_decay_rate(trace: FlowTrace, window: int) -> RateFit:
    """Least-squares slope of ln(energy) over the trailing ``window`` samples.

    Only samples with strictly positive energy enter the fit; at least 10
    must remain.  A negative slope measures the exponential decay rate of
    the curvature error energy along a converged run.
    """
    if trace.verdict != VERDICT_CONVERGED:
        raise InputError("decay rate is only fitted on converged traces")
    if window < 10:
        raise InputError("window must cover at least 10 samples")
    tail = trace.samples[-window:]
    pts = [(s.t, s.energy) for s in tail if s.energy > 0.0]
    if len(pts) < 10:
        raise InputError(f"only {len(pts)} usable samples in the window")
    ts = np.array([p[0] for p in pts])
    ys = np.log(np.array([p[1] for p in pts]))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot < 1e-30 or float(np.ptp(ts)) == 0.0:
        return RateFit(slope=0.0, r_squared=0.0, degenerate=True)
    slope, intercept = np.polyfit(ts, ys, 1)
    residuals = ys - (slope * ts + intercept)
    r_squared = 1.0 - float(np.sum(residuals ** 2)) / ss_tot
    return RateFit(slope=float(slope), r_squared=r_squared)
