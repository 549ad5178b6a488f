"""Time integration of the curvature flows and the Newton solver.

Two descent flows drive the curvature error L - Lhat to zero, written in
the log-cotangent coordinates K where both are gradient flows:

    calabi:     dK/dt = -J (L - Lhat)       (steepest descent of the energy
                                             0.5 ||L - Lhat||^2; J = dL/dK
                                             is symmetric)
    curvature:  dK/dt = -(L - Lhat)         (steepest descent of the convex
                                             potential; equivalently
                                             dr/dt = (L-Lhat)/2 sin 2r)

Both converge to the same unique fixed point exactly when the prescription
is feasible; infeasible prescriptions push some coordinate past the radius
clamp, which the runner reports as divergence together with a
violating-subset certificate.  One loop integrates both flows, stepping
with adaptive RKF45, or with damped Runge-Kutta-Chebyshev stages for the
Calabi flow at a loose ``tol_ode`` (at least RKC_MIN_TOL), where its
stiffness, lambda_max^2 of J, and not the tolerance, bounds an RKF45 step;
``integrator`` is that rule.  A damped inexact Newton iteration on the
same fixed-point equation is provided for fast polishing; it solves each
linear system by Jacobi-preconditioned conjugate gradients on the
matrix-free J and never builds the dense V x V Jacobian.  Every method is
a generator of states; ``run`` alone checks the inputs, once, applies the
stop rule and sets every verdict.  The generators evaluate every state with
the check-free ``curvature._evaluate``.  An integrator stage needs only the
flow direction, so ``_calabi_stage`` and ``_curvature_stage`` compute it
from the same curvature bodies without building a state.  A numerical
failure is one more verdict: ``run`` catches the generators' errors and
returns the message on the trace.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# evaluate is not called here; it stays importable from this module because
# the benchmark's tracer counts calls through this name.
from .curvature import (K_CLAMP, CurvatureState, _apply,  # noqa: F401
                        _edge_form, _evaluate, _sides, evaluate,
                        extreme_eigenvalue, gershgorin_bound,
                        uniform_gershgorin_bound)
from .errors import InputError, NonConvergenceError
from .feasibility import FeasibilityVerdict, check_mincut
from .surface import Prescription, SurfaceComplex, check_instance

METHODS = ("calabi", "curvature", "newton")
# The first RKF45 step, and the run budgets: accepted flow steps, Newton
# iterations.
FIRST_STEP = 1e-2
MAX_ITERS = 500_000
NEWTON_MAX_ITERS = 100

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_BUDGET = "budget-exhausted"
VERDICT_FAILED = "numerical-failure"


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters for one flow run."""

    method: str = "calabi"
    tol_curvature: float = 1e-10
    tol_ode: float = 1e-9
    max_time: float = 1e4

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}")
        for name in ("tol_curvature", "tol_ode", "max_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class FlowSample:
    """One accepted integration state."""

    t: float
    K: np.ndarray
    err_inf: float      # ||L - Lhat||_inf
    energy: float       # 0.5 ||L - Lhat||^2
    speed: float        # ||dK/dt||_2 (Newton: step norm)
    clamped: bool


@dataclass
class FlowTrace:
    """Time series of a flow run plus its termination verdict.

    A converged flow run also records the smallest eigenvalue ``min_eig``
    of J at its final K; ``predicted_rate``, derived from it, is the decay
    rate -2 min_eig^2 (calabi) or -2 min_eig (curvature) of the flow
    linearized there.  Newton, whose tail is quadratic, and every run
    that does not converge leave both None.
    """

    method: str
    samples: list[FlowSample] = field(default_factory=list)
    verdict: str = VERDICT_BUDGET
    fitted_rate: float | None = None
    min_eig: float | None = None
    certificate: FeasibilityVerdict | None = None
    failure: str | None = None      # the message of a VERDICT_FAILED run

    @property
    def final(self) -> FlowSample:
        return self.samples[-1]

    @property
    def predicted_rate(self) -> float | None:
        if self.min_eig is None:
            return None
        return -2.0 * _stiffness(self.method, self.min_eig)

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


def _calabi_stage(complex: SurfaceComplex, lhat: np.ndarray,
                  K: np.ndarray) -> np.ndarray:
    """``calabi_direction`` at K, bit for bit, without building a state."""
    theta, L, sin_r, cos_r, half = _sides(complex, K)
    return -_apply(complex, *_edge_form(complex, sin_r, cos_r, half, theta),
                   L - lhat)


def _curvature_stage(complex: SurfaceComplex, lhat: np.ndarray,
                     K: np.ndarray) -> np.ndarray:
    """The curvature flow's dK/dt = Lhat - L at K, without building a
    state."""
    return lhat - _sides(complex, K)[1]


def _stiffness(method: str, lam: float) -> float:
    """The stiffness lam^2 (calabi) or lam (curvature) at J's eigenvalue lam."""
    return lam * lam if method == "calabi" else lam


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def run(complex: SurfaceComplex, prescription: Prescription, K0,
        config: FlowConfig | None = None) -> FlowTrace:
    """Run the configured method from K0 until it converges, diverges,
    exhausts its budget, or fails numerically.

    The trace is sampled at the start and at every accepted step (Newton:
    every iteration, with t the iteration count).  Convergence means
    ||L - Lhat||_inf dropped below ``tol_curvature``; divergence means
    some |K_v| crossed the radius clamp K_CLAMP.  The budget is
    MAX_ITERS steps or ``max_time`` for the flows and NEWTON_MAX_ITERS
    iterations for Newton.  The curvature flow is integrated in K-space
    through the identity dK/dt = -(L - Lhat), which avoids the
    radius-interval boundary entirely.

    A step-size underflow, a Newton iteration with no descent, a failed
    linear solve or a failed LAPACK call ends the run with the verdict
    VERDICT_FAILED and the message in ``failure``; so does a divergence on
    a feasible prescription.  A run that does not converge carries a
    violating-subset certificate exactly when the prescription is
    infeasible.  Raises only InputError, on bad input or a K0 past the
    clamp.  The inputs are checked here, once; every state after that is
    evaluated by the check-free ``curvature._evaluate``, and every
    integrator stage by the check-free ``_calabi_stage`` or
    ``_curvature_stage``.
    """
    if config is None:
        config = FlowConfig()
    check_instance(complex, prescription)
    K0 = np.asarray(K0, dtype=float)
    if K0.shape != (complex.n_vertices,):
        raise InputError(f"K0 must have length {complex.n_vertices}")
    if not np.all(np.isfinite(K0)):
        raise InputError("K0 must be finite")
    if np.any(np.abs(K0) > K_CLAMP):
        raise InputError("K0 lies past the radius clamp")

    # Overflow and invalid values (say a target near 1e308, or an angle so
    # small that 1 / sin phi overflows) end as verdicts, not warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        trace = FlowTrace(method=config.method)
        if config.method == "newton":
            states = _newton_states(complex, prescription, K0)
            budget, max_time = NEWTON_MAX_ITERS, math.inf
        else:
            states = _ode_states(complex, prescription, K0, config)
            budget, max_time = MAX_ITERS, config.max_time
        try:
            for steps, (t, state, speed) in enumerate(states):
                d = state.L - prescription.lhat
                err_inf = float(np.abs(d).max())
                clamped = state.clamped
                if err_inf < config.tol_curvature:
                    verdict = VERDICT_CONVERGED
                elif clamped:
                    verdict = VERDICT_DIVERGED
                elif steps >= budget or t >= max_time:
                    verdict = VERDICT_BUDGET
                else:
                    verdict = None
                trace.samples.append(FlowSample(
                    t=t, K=state.K.copy(), err_inf=err_inf,
                    energy=0.5 * float(np.dot(d, d)),
                    speed=speed, clamped=clamped,
                ))
                if verdict is not None:
                    break
            if verdict == VERDICT_CONVERGED and config.method != "newton":
                # Exact up to LANCZOS_CUT vertices, to a relative 1e-14 above.
                trace.min_eig = extreme_eigenvalue(state, "min", 1e-14)[0]
        except (NonConvergenceError, np.linalg.LinAlgError) as exc:
            verdict, trace.failure = VERDICT_FAILED, str(exc)
        trace.verdict = verdict
        if verdict == VERDICT_CONVERGED:
            try:
                trace.fitted_rate = fit_decay_rate(trace).slope
            except InputError:
                trace.fitted_rate = None
            return trace
        cert = check_mincut(complex, prescription)
        if not cert.feasible:
            trace.certificate = cert
        elif verdict == VERDICT_DIVERGED:
            # Only infeasibility can make the exact flow diverge, so this is
            # the integrator failing, not a certificate of infeasibility.
            trace.verdict = VERDICT_FAILED
            trace.failure = (
                "flow diverged although the prescription is feasible "
                f"(worst margin {cert.worst_margin:.12g})")
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
# Relative slack on the Gershgorin bound before it may stand in for the
# ceiling: it covers the rounding of the bound and of eigvalsh (about
# 1e-14 relative up to LANCZOS_CUT vertices), so a step the bound lets
# through is below the exact ceiling and keeps its h bit for bit.
_GERSHGORIN_SLACK = 1e-10


# A Calabi run at tol_ode >= RKC_MIN_TOL steps with damped RKC (see
# ``integrator``).  Below it the decay rate of RKC runs strays from the one
# the spectrum predicts (fitted/predicted up to 1.231 at 1e-5 on the
# criterion-4 campaign), so those runs keep RKF45.
RKC_MIN_TOL = 1e-4
# Damping of the RKC stability polynomial (Sommeijer, Shampine & Verwer
# 1998), the share 0.9 of its real stability extent beta(s) a step may use,
# and the most stages a step may take; past _RKC_MAX_STAGES the step
# shrinks to fit.
_RKC_DAMPING = 2.0 / 13.0
_RKC_SAFETY = 0.9
_RKC_MAX_STAGES = 60


def integrator(config: FlowConfig) -> str:
    """The integrator a run under ``config`` steps with: "none" for
    Newton, which takes no ODE steps, "rkc" for the Calabi flow at
    ``tol_ode`` >= RKC_MIN_TOL, else "rkf45".

    The Calabi flow is stiff as lambda^2 of J, so an explicit step is bound
    by stability, not accuracy, once the tolerance is loose; damped RKC
    stretches its stability interval as about 0.65 s^2 for s stages.  At
    tighter tolerances the second-order RKC is accuracy-bound and slower
    than the fifth-order RKF45, and the curvature flow, stiff only as
    lambda, gains nothing.
    """
    if config.method == "calabi" and config.tol_ode >= RKC_MIN_TOL:
        return "rkc"
    return "none" if config.method == "newton" else "rkf45"


def _ode_states(complex: SurfaceComplex, prescription: Prescription,
                K0: np.ndarray, config: FlowConfig):
    """Yield (t, state, ||dK/dt||) at t = 0 and after every accepted step.

    One loop steps both integrators, with the step function ``integrator``
    picks: ``_rkc_step`` or ``_rkf45_step``.  Each evaluates its inner
    stages through ``stage``, which builds no state, and the end of each
    step through ``sample``, and returns the accepted state.  Both start at
    FIRST_STEP and clip every step to ``max_time``.  RKC bounds the stiffness by the
    state's ``gershgorin_bound`` and computes no spectrum.  RKF45 bounds
    each step by a loose ``extreme_eigenvalue`` ceiling at the state it
    steps from, unless a bound on the top of J's spectrum proves the
    proposed step is already under that ceiling: first the per-complex
    constant ``uniform_gershgorin_bound``, which costs one compare, then
    the state's ``gershgorin_bound``.  The constant is at least the
    Gershgorin bound, so it passes only where that bound would, and the
    ceilings are computed at the same states either way.  The bounds are
    tried only after a step the ceiling did not cap, so the first step and
    every step after a capped one compute the ceiling.  A ceiling of zero
    or below (an eigenvalue that underflowed) caps nothing.  Above
    LANCZOS_CUT the ceiling warm-starts from the last Ritz vector it
    computed.
    """
    lhat = prescription.lhat
    calabi = config.method == "calabi"
    rkc = integrator(config) == "rkc"
    stiffness = functools.partial(_stiffness, config.method)
    stage = functools.partial(_calabi_stage if calabi else _curvature_stage,
                              complex, lhat)

    def sample(K: np.ndarray):
        state = _evaluate(complex, K)
        return state, (calabi_direction(state, prescription) if calabi
                       else lhat - state.L)

    if not rkc:
        # h * uniform_stiffness <= _RKF_STAB implies the Gershgorin test
        # below: the same operations on a larger bound.
        uniform_stiffness = stiffness(
            (1.0 + _GERSHGORIN_SLACK) * uniform_gershgorin_bound(complex))
        ritz, screen = None, False
    t, h, tol = 0.0, FIRST_STEP, config.tol_ode
    state, f = sample(K0.copy())
    while True:
        yield t, state, math.sqrt(f @ f)

        # The flow Jacobian is about -J^2 (calabi) or -J (curvature).  RKC
        # fits its stages to a Gershgorin bound on it.  RKF45 holds h below
        # the explicit stability limit, a ceiling from the top of the
        # spectrum, so the local error shrinks with the residual instead
        # of riding the boundary; where a Gershgorin bound already holds
        # the proposed h under the ceiling, the ceiling is skipped (a NaN
        # bound fails that test).
        if rkc:
            stiff = stiffness(
                (1.0 + _GERSHGORIN_SLACK) * gershgorin_bound(state))
        elif not (screen and (
                h * uniform_stiffness <= _RKF_STAB
                or h * stiffness((1.0 + _GERSHGORIN_SLACK)
                                 * gershgorin_bound(state)) <= _RKF_STAB)):
            lam, ritz = extreme_eigenvalue(state, "max", None, ritz)
            stiff = stiffness(lam)
            cap = _RKF_STAB / stiff if stiff > 0.0 else math.inf
            screen = cap >= h
            h = min(h, cap)
        h = min(h, config.max_time - t)
        if rkc:
            state, f, t, h = _rkc_step(sample, stage, state.K, f, t, h, stiff,
                                       tol)
        else:
            state, f, t, h = _rkf45_step(sample, stage, state.K, f, t, h, tol)


def _rkf45_step(sample, stage, K, f0, t, h, tol):
    """Advance one accepted Fehlberg step, shrinking h as needed; return
    the new state, its direction, t and the next proposed h.

    The six stage derivatives are the rows of one (6, V) array, so each
    stage input, the propagated solution and the error estimate is one
    product with a row of the tableau.
    """
    k = np.empty((6, len(K)))
    k[0] = f0
    while True:
        a = h * _RKF_A
        for i in range(1, 6):
            k[i] = stage(K + np.dot(a[i, :i], k[:i]))
        err = float(np.abs(np.dot(h * _RKF_ERR, k)).max())
        if err <= tol:
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            state, f = sample(K + np.dot(h * _RKF_B5, k))
            return state, f, t + h, h * factor
        h *= max(0.1, 0.9 * (tol / err) ** 0.2)
        if h < _MIN_STEP:
            raise NonConvergenceError(
                f"step size underflow at t={t:g} (local error {err:g})")


def _chebyshev(s, n: int):
    """w0 = 1 + eps / s^2, the damped Chebyshev argument of s stages (a
    number or an array), and T_j, T_j', T_j'' at w0 for j = 0..n, row j
    holding degree j."""
    w0 = 1.0 + _RKC_DAMPING / (s * s)
    T, dT, ddT = (np.zeros((n + 1,) + np.shape(w0)) for _ in range(3))
    T[0], T[1], dT[1] = 1.0, w0, 1.0
    for j in range(2, n + 1):
        T[j] = 2.0 * w0 * T[j - 1] - T[j - 2]
        dT[j] = 2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2]
        ddT[j] = 4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2]
    return w0, T, dT, ddT


@functools.cache
def _rkc_coefficients(s: int):
    """(mu, nu, mu_t, gamma_t) of the damped s-stage RKC method
    (Sommeijer, Shampine & Verwer 1998), indexed by stage.

    With T_j, T_j', T_j'' the Chebyshev values at w0: w1 = T_s' / T_s'',
    b_j = T_j'' / T_j'^2 for j >= 2 (b0 = b1 = b2), and for j >= 2
    mu_j = 2 b_j w0 / b_{j-1}, nu_j = -b_j / b_{j-2},
    mu_t_j = 2 b_j w1 / b_{j-1} and gamma_t_j = -(1 - b_{j-1} T_{j-1}) mu_t_j;
    mu_t_1 = b_1 w1.
    """
    w0, T, dT, ddT = _chebyshev(s, s)
    w1 = dT[s] / ddT[s]
    b = np.empty(s + 1)
    b[2:] = ddT[2:] / dT[2:] ** 2
    b[:2] = b[2]
    mu, nu, mu_t, gamma_t = (np.zeros(s + 1) for _ in range(4))
    mu_t[1] = b[1] * w1
    for j in range(2, s + 1):
        mu[j] = 2.0 * b[j] * w0 / b[j - 1]
        nu[j] = -b[j] / b[j - 2]
        mu_t[j] = 2.0 * b[j] * w1 / b[j - 1]
        gamma_t[j] = -(1.0 - b[j - 1] * T[j - 1]) * mu_t[j]
    return (tuple(mu.tolist()), tuple(nu.tolist()), tuple(mu_t.tolist()),
            tuple(gamma_t.tolist()))


def _rkc_limits() -> list[float]:
    """The largest h * stiffness a step of s stages may take, for
    s = 2.._RKC_MAX_STAGES: _RKC_SAFETY times the real stability extent
    beta(s) = (w0 + 1) T_s'' / T_s' of the damped s-stage method, whose
    stability polynomial is at most 1 in modulus on [-beta(s), 0]."""
    w0, _, dT, ddT = _chebyshev(np.arange(2, _RKC_MAX_STAGES + 1),
                                _RKC_MAX_STAGES)
    # T_s' and T_s'' of s stages sit in row s, column s - 2.
    beta = (w0 + 1.0) * ddT.diagonal(-2) / dT.diagonal(-2)
    return (_RKC_SAFETY * beta).tolist()


_RKC_LIMITS = _rkc_limits()


def _rkc_stages(f, K, f0, h, s):
    """The solution Y_s of one damped RKC step of s stages from K, where
    f0 = f(K); calls f at the s - 1 inner stages."""
    mu, nu, mu_t, gamma_t = _rkc_coefficients(s)
    prev, Y = K, K + (mu_t[1] * h) * f0
    for j in range(2, s + 1):
        prev, Y = Y, ((1.0 - mu[j] - nu[j]) * K + mu[j] * Y + nu[j] * prev
                      + (mu_t[j] * h) * f(Y) + (gamma_t[j] * h) * f0)
    return Y


def _rkc_step(sample, stage, K, f0, t, h, stiff, tol):
    """Advance one accepted damped RKC step, shrinking h as needed; return
    the new state, its direction, t and the next proposed h.

    The step takes the fewest stages s >= 2 whose stability extent holds
    h * stiff.  The local error estimate 0.8 (K - Y_s) + 0.4 h (f0 + f(Y_s))
    must be at most ``tol`` and at most 0.05 h ||f0||_inf, so the error
    stays small against the step itself as the flow slows down; without
    the relative clause the energy of the pinned planted runs decays at
    0.1-3.5% of its linearized rate.  f(Y_s) and its state are the
    accepted sample, so a step of s stages costs s evaluations.
    """
    scale = 0.05 * float(np.abs(f0).max())
    while True:
        s = 2 + bisect.bisect_left(_RKC_LIMITS, h * stiff)
        if s > _RKC_MAX_STAGES:
            s, h = _RKC_MAX_STAGES, _RKC_LIMITS[-1] / stiff
            if not h >= _MIN_STEP:
                raise NonConvergenceError(
                    f"step size underflow at t={t:g} (stiffness {stiff:g})")
        Y = _rkc_stages(stage, K, f0, h, s)
        state, f = sample(Y)
        err = float(np.abs(0.8 * (K - Y) + (0.4 * h) * (f0 + f)).max())
        target = min(tol, scale * h)
        factor = 10.0 if err == 0.0 else min(
            10.0, max(0.1, 0.8 * (target / err) ** (1.0 / 3.0)))
        if err <= target:
            return state, f, t + h, h * factor
        h *= factor
        if h < _MIN_STEP:
            raise NonConvergenceError(
                f"step size underflow at t={t:g} (local error {err:g})")


# ----------------------------------------------------------------------
# Newton
# ----------------------------------------------------------------------

def _newton_states(complex: SurfaceComplex, prescription: Prescription,
                   K0: np.ndarray):
    """Damped inexact Newton iteration K <- K - s delta, J delta ~ L - Lhat.

    The step ``delta`` comes from ``_newton_step``, conjugate gradients on
    the matrix-free ``jvp``.  Yields (iteration count, state, step norm) at
    the start and after every iteration.  Step lengths backtrack on the
    curvature-error norm; raises NonConvergenceError when no step length
    decreases it or the linear solve fails.
    """
    lhat = prescription.lhat
    state = _evaluate(complex, K0)
    yield 0.0, state, 0.0
    for it in itertools.count(1):
        residual = state.L - lhat
        merit = float(np.linalg.norm(residual))
        delta = _newton_step(state, residual, min(_ETA_MAX, merit))
        s = 1.0
        while True:
            state_new = _evaluate(complex, state.K - s * delta)
            if float(np.linalg.norm(state_new.L - lhat)) < merit:
                break
            s *= 0.5
            if s < 1e-12:
                raise NonConvergenceError(
                    "backtracking found no decrease")
        state = state_new
        yield float(it), state, float(s * np.linalg.norm(delta))


# Inexact Newton (Eisenstat & Walker 1996): the linear solve stops at
# relative residual eta = min(_ETA_MAX, ||L - Lhat||_2), which keeps the
# iteration quadratic near the solution.
_ETA_MAX = 0.1


def _newton_step(state: CurvatureState, b: np.ndarray, eta: float) -> np.ndarray:
    """x with ||J x - b|| <= eta ||b||, by Jacobi-preconditioned conjugate
    gradients (Hestenes & Stiefel 1952) on ``state.jvp``.

    J is symmetric positive definite wherever the geometry is not frozen,
    so exact CG ends within V iterations; the cap allows for rounding.
    Raises NonConvergenceError on a direction of non-positive curvature
    or when the cap is reached.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r / state.diag
    rz = float(r @ p)
    target = eta * float(np.linalg.norm(b))
    max_iters = 2 * len(b) + 20
    for _ in range(max_iters):
        q = state.jvp(p)
        curvature = float(p @ q)
        if not curvature > 0.0:
            raise NonConvergenceError(
                f"linear solve failed: non-positive curvature {curvature:g}")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        if float(np.linalg.norm(r)) <= target:
            return x
        z = r / state.diag
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise NonConvergenceError(
        f"linear solve failed: no convergence in {max_iters} CG iterations")


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def fit_decay_rate(trace: FlowTrace) -> RateFit:
    """Least-squares slope of ln(energy) over the trailing samples: the
    last 30% of them, rounded up, and at least the last 10.

    Only samples with strictly positive energy enter the fit; at least 10
    must remain.  A negative slope measures the exponential decay rate of
    the curvature error energy along a converged run.
    """
    if trace.verdict != VERDICT_CONVERGED:
        raise InputError("decay rate is only fitted on converged traces")
    tail = trace.samples[-max(10, math.ceil(0.3 * len(trace.samples))):]
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
