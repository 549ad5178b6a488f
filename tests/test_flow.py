import dataclasses
import math
import warnings

import numpy as np
import pytest

import cpflow.curvature
import cpflow.feasibility
import cpflow.flow
import cpflow.geometry
from cpflow import (FlowConfig, FlowSample, FlowTrace,
                    InputError, Prescription,
                    calabi_direction, evaluate, fit_decay_rate,
                    fixtures, make_synthetic, potential, r_to_k, run,
                    velocity_bound)
from cpflow.curvature import (K_CLAMP, LANCZOS_CUT, _evaluate,
                               extreme_eigenvalue, gershgorin_bound)
from cpflow.errors import NonConvergenceError
from cpflow.flow import (RKC_MIN_TOL, _calabi_stage, _curvature_stage,
                         integrator)
from cpflow.geometry import _TMS_SERIES_BELOW
from cpflow.oracle import rng_for
from conftest import ACCEPTANCE_CONFIG, count_computed, single_vertex_violator
from radius_flow import curvature_rhs


@pytest.fixture
def tetra():
    return fixtures.tetrahedron()


@pytest.fixture
def planted(tetra):
    """Target curvatures planted at the coordinate origin."""
    return Prescription(evaluate(tetra, np.zeros(4)).L.copy())


def count_ceilings(monkeypatch) -> list:
    """Collects every state a run computes its RKF45 step ceiling at."""
    ceilings = []

    def recorded(state, end, tol=None, start=None):
        if tol is None:
            ceilings.append(state)
        return extreme_eigenvalue(state, end, tol, start)

    monkeypatch.setattr(cpflow.flow, "extreme_eigenvalue", recorded)
    return ceilings


def count_edge_forms(monkeypatch) -> list:
    """Counts every computation of J's edge form while the test runs."""
    calls = []
    real = cpflow.geometry._edge_derivatives

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cpflow.geometry, "_edge_derivatives", counted)
    return calls


def count_kernels(monkeypatch) -> list:
    """Counts every evaluation of the edge kernel while the test runs: one
    per state or flow stage evaluated."""
    calls = []
    real = cpflow.geometry._edge_kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cpflow.geometry, "_edge_kernel", counted)
    return calls


def record_states(monkeypatch) -> list:
    """Collects every state the flow module evaluates."""
    states = []
    real = cpflow.flow._evaluate

    def recorded(complex, K):
        states.append(real(complex, K))
        return states[-1]

    monkeypatch.setattr(cpflow.flow, "_evaluate", recorded)
    return states


def torus_start(side: int, seed: int):
    """A planted torus grid and a start within 0.3 of its solution."""
    c = fixtures.torus_grid(side, side, phi=1.3)
    inst = make_synthetic(c, seed=seed, k_range=(-1.0, 1.0))
    k0 = inst.kbar + rng_for(seed + 1).uniform(-0.3, 0.3, c.n_vertices)
    return c, inst.prescription, k0


class TestRightHandSides:
    def test_calabi_zero_at_fixed_point(self, tetra, planted):
        rhs = calabi_direction(evaluate(tetra, np.zeros(4)), planted)
        assert np.max(np.abs(rhs)) == 0.0

    def test_calabi_zero_at_random_planted_point(self, tetra):
        inst = make_synthetic(tetra, seed=40)
        rhs = calabi_direction(evaluate(tetra, inst.kbar), inst.prescription)
        assert np.max(np.abs(rhs)) == 0.0

    def test_calabi_speed_bounded(self, tetra):
        inst = make_synthetic(tetra, seed=41)
        bound = velocity_bound(tetra, inst.prescription)
        rng = rng_for(42)
        for _ in range(1000):
            K = rng.uniform(-4.0, 4.0, 4)
            rhs = calabi_direction(evaluate(tetra, K), inst.prescription)
            assert np.linalg.norm(rhs) <= bound

    def test_curvature_zero_at_fixed_point(self, tetra, planted):
        r = np.full(4, math.pi / 4)
        assert np.max(np.abs(curvature_rhs(tetra, planted, r))) == 0.0

    def test_curvature_chain_rule(self, tetra):
        # mapping dr/dt through K = ln cot r gives dK/dt = -(L - Lhat)
        inst = make_synthetic(tetra, seed=43)
        rng = rng_for(44)
        for _ in range(50):
            r = rng.uniform(0.2, math.pi / 2 - 0.2, 4)
            dr = curvature_rhs(tetra, inst.prescription, r)
            dk = -2.0 / np.sin(2.0 * r) * dr
            L = evaluate(tetra, r_to_k(r)).L
            assert np.max(np.abs(dk - (inst.prescription.lhat - L))) <= 1e-10

    def test_curvature_boundary_damping(self, tetra, planted):
        r = np.full(4, math.pi / 2 - 1e-8)
        dr = curvature_rhs(tetra, planted, r)
        assert np.max(np.abs(dr)) < 1e-6

    def test_curvature_domain(self, tetra, planted):
        with pytest.raises(InputError):
            curvature_rhs(tetra, planted, np.array([0.0, 0.5, 0.5, 0.5]))


class TestRun:
    def test_planted_recovery_default_config(self, tetra, planted):
        trace = run(tetra, planted, np.array([1.0, -0.5, 0.3, 0.0]))
        assert trace.verdict == "converged"
        assert np.max(np.abs(trace.final_k())) <= 1e-8
        assert trace.final.err_inf < 1e-10
        assert trace.fitted_rate is not None and trace.fitted_rate < 0

    def test_start_at_fixed_point(self, tetra, planted):
        trace = run(tetra, planted, np.zeros(4))
        assert trace.verdict == "converged"
        assert len(trace.samples) == 1
        assert trace.final.t == 0.0

    def test_trace_times_strictly_increase(self, tetra, planted):
        trace = run(tetra, planted, np.array([0.8, -0.8, 0.4, -0.2]))
        t = np.array([s.t for s in trace.samples])
        assert np.all(np.diff(t) > 0.0)

    def test_energy_monotone_calabi(self, tetra):
        inst = make_synthetic(tetra, seed=45)
        k0 = inst.kbar + rng_for(46).uniform(-1, 1, 4)
        trace = run(tetra, inst.prescription, k0, FlowConfig(tol_ode=1e-6))
        E = np.array([s.energy for s in trace.samples])
        assert np.all(np.diff(E) <= 1e-9)

    def test_potential_monotone_along_flow(self, tetra):
        inst = make_synthetic(tetra, seed=47)
        k0 = inst.kbar + rng_for(48).uniform(-0.8, 0.8, 4)
        trace = run(tetra, inst.prescription, k0, FlowConfig(tol_ode=1e-6))
        picks = trace.samples[:: max(1, len(trace.samples) // 10)]
        values = [potential(tetra, inst.prescription, s.K) for s in picks]
        assert np.all(np.diff(values) <= 1e-8)

    def test_speed_bounded_along_flow(self, tetra):
        inst = make_synthetic(tetra, seed=49)
        bound = velocity_bound(tetra, inst.prescription)
        k0 = inst.kbar + rng_for(50).uniform(-1, 1, 4)
        trace = run(tetra, inst.prescription, k0)
        assert all(s.speed <= bound for s in trace.samples)

    def test_divergence_with_certificate(self):
        name, complex, bad, v = single_vertex_violator(0)
        trace = run(complex, bad, np.zeros(complex.n_vertices),
                    FlowConfig(method="curvature", tol_ode=1e-4))
        assert trace.verdict == "diverged"
        assert trace.certificate is not None
        assert not trace.certificate.feasible
        assert trace.certificate.worst_margin > 0
        # the run stops at the first sample past the radius clamp
        assert [s.clamped for s in trace.samples] == (
            [False] * (len(trace.samples) - 1) + [True])

    def test_divergence_of_a_feasible_prescription_raises(self, tetra):
        # A Newton step from far out lands past the clamp.  The verdict is
        # a numerical failure on the returned trace, not a certificate of
        # infeasibility.
        feasible = Prescription(np.array([4.053, 4.053, 4.053, 3.9]))
        trace = run(tetra, feasible, np.array([20.0, -20.0, 0.0, 0.0]),
                    FlowConfig(method="newton"))
        assert trace.verdict == "numerical-failure"
        assert trace.failure == (
            "flow diverged although the prescription is feasible "
            "(worst margin -2.79055592154)")
        assert [s.clamped for s in trace.samples] == [False, False, True]
        assert trace.certificate is None

    def test_start_past_the_clamp_rejected(self, tetra, planted):
        with pytest.raises(InputError, match="K0 lies past the radius clamp"):
            run(tetra, planted, np.array([30.0, 0.0, 0.0, 0.0]))

    def test_calabi_budget_on_infeasible_attaches_certificate(self, tetra, planted):
        lhat = planted.lhat.copy()
        lhat[0] = 10.0
        bad = Prescription(lhat)
        trace = run(tetra, bad, np.zeros(4),
                    FlowConfig(tol_ode=1e-4, max_time=50.0))
        assert trace.verdict == "budget-exhausted"
        assert trace.certificate is not None and not trace.certificate.feasible

    def test_methods_reach_identical_limit(self, tetra):
        inst = make_synthetic(tetra, seed=53)
        k0 = inst.kbar + rng_for(54).uniform(-1, 1, 4)
        cfg = dict(tol_ode=1e-6, tol_curvature=1e-11)
        finals = [
            run(tetra, inst.prescription, k0, FlowConfig(method="calabi", **cfg)).final_k(),
            run(tetra, inst.prescription, k0, FlowConfig(method="curvature", **cfg)).final_k(),
            run(tetra, inst.prescription, k0, FlowConfig(method="newton", **cfg)).final_k(),
        ]
        for a in finals:
            for b in finals:
                assert np.max(np.abs(a - b)) <= 1e-8

    def test_step_underflow_raises_with_partial_trace(self, tetra, planted):
        # The underflow is returned as a verdict with the samples before it.
        cfg = FlowConfig(tol_ode=1e-300)
        trace = run(tetra, planted, np.array([1.0, 0.0, 0.0, 0.0]), cfg)
        assert trace.verdict == "numerical-failure"
        assert trace.failure == (
            "step size underflow at t=0 (local error 2.36658e-30)")
        assert len(trace.samples) >= 1
        assert trace.certificate is None

    @pytest.mark.parametrize("method", ["calabi", "curvature", "newton"])
    def test_overflow_ends_as_a_verdict(self, method):
        # A target near the largest double overflows the energy and J's
        # products; the run still returns, without a RuntimeWarning.
        trace = run(fixtures.bigon(), Prescription(np.array([1e308, 2.0])),
                    np.zeros(2), FlowConfig(method=method))
        assert trace.verdict == "numerical-failure"
        assert trace.certificate.worst_subset == {0, 1}

    def test_budget_verdict(self, tetra, planted, monkeypatch):
        monkeypatch.setattr(cpflow.flow, "MAX_ITERS", 3)
        trace = run(tetra, planted, np.array([1.0, 0.0, 0.0, 0.0]))
        assert trace.verdict == "budget-exhausted"

    def test_input_validation(self, tetra, planted):
        with pytest.raises(InputError):
            run(tetra, planted, np.zeros(3))
        with pytest.raises(InputError):
            run(tetra, planted, np.array([np.inf, 0, 0, 0]))
        with pytest.raises(InputError):
            FlowConfig(method="amble")
        with pytest.raises(InputError):
            FlowConfig(tol_curvature=0.0)

    @pytest.mark.parametrize("name", ["tol_curvature", "tol_ode", "max_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(InputError, match=name):
            FlowConfig(**{name: value})


# Accepted steps of seeded planted runs under the criterion-4
# configuration: damped RKC for the Calabi flow, RKF45 for the curvature
# flow.  A faster evaluation or tableau may move the last bits of each
# stage, but must not move the step sequence by more than 1%.
PINNED_STEP_COUNTS = {
    ("tetrahedron", "calabi"): 127,
    ("tetrahedron", "curvature"): 75,
    ("cube", "calabi"): 138,
    ("cube", "curvature"): 63,
    ("torus3x3", "calabi"): 142,
    ("torus3x3", "curvature"): 49,
}
PINNED_COMPLEXES = {
    "tetrahedron": lambda: fixtures.tetrahedron(1.3),
    "cube": lambda: fixtures.cube_graph(1.3),
    "torus3x3": lambda: fixtures.torus_grid(3, 3, 1.3),
}


class TestStepSequence:
    @pytest.mark.parametrize("name, method", sorted(PINNED_STEP_COUNTS))
    def test_accepted_steps_stay_pinned(self, name, method):
        c = PINNED_COMPLEXES[name]()
        inst = make_synthetic(c, seed=71)
        k0 = inst.kbar + rng_for(72).uniform(-1.0, 1.0, c.n_vertices)
        config = dataclasses.replace(ACCEPTANCE_CONFIG, method=method)
        trace = run(c, inst.prescription, k0, config)
        assert trace.verdict == "converged"
        pinned = PINNED_STEP_COUNTS[name, method]
        assert abs((len(trace.samples) - 1) - pinned) <= 0.01 * pinned


class TestSpectrumOnDemand:
    @pytest.fixture
    def spectra(self, monkeypatch):
        """Counts the spectra computed while the test runs."""
        return count_computed(monkeypatch, "eigenvalues")

    def test_newton_runs_skip_the_spectrum(self, tetra, spectra):
        # No state Newton steps from gets a spectrum, nor its solution.
        inst = make_synthetic(tetra, seed=63)
        k0 = inst.kbar + rng_for(64).uniform(-0.5, 0.5, 4)
        trace = run(tetra, inst.prescription, k0, FlowConfig(method="newton"))
        assert trace.verdict == "converged"
        assert spectra == []
        assert trace.min_eig is None and trace.predicted_rate is None

    def test_adaptive_run_records_the_spectrum_it_computed(
            self, tetra, spectra, monkeypatch):
        ceilings = count_ceilings(monkeypatch)
        inst = make_synthetic(tetra, seed=65)
        k0 = inst.kbar + rng_for(66).uniform(-0.5, 0.5, 4)
        trace = run(tetra, inst.prescription, k0)
        # one spectrum per step the Gershgorin bound did not screen, for
        # the step cap, and one at the solution
        assert len(spectra) == len(ceilings) + 1
        lam = evaluate(tetra, trace.final.K).min_eigenvalue
        assert trace.min_eig == lam
        assert trace.predicted_rate == -2.0 * lam * lam

    @pytest.mark.parametrize("method", ["calabi", "curvature"])
    def test_adaptive_run_above_the_cut_builds_no_dense_jacobian(
            self, spectra, monkeypatch, method):
        dense = count_computed(monkeypatch, "J")
        c, prescription, k0 = torus_start(10, seed=83)
        assert c.n_vertices > LANCZOS_CUT
        trace = run(c, prescription, k0, FlowConfig(method=method))
        assert trace.verdict == "converged"
        assert spectra == [] and dense == []
        assert trace.min_eig > 0.0


class TestLanczosCeiling:
    """Above LANCZOS_CUT vertices the RKF45 step ceiling is a Lanczos bound
    on the largest eigenvalue of J."""

    @pytest.mark.parametrize("side", [10, 12])
    @pytest.mark.parametrize("method", ["calabi", "curvature"])
    def test_tracks_the_exact_ceiling(self, monkeypatch, side, method):
        c, prescription, k0 = torus_start(side, seed=85)
        config = FlowConfig(method=method)
        ceilings = []

        def recorded(state, end, tol=None, start=None):
            lam, ritz = extreme_eigenvalue(state, end, tol, start)
            if tol is None:
                ceilings.append((lam, state))
            return lam, ritz

        def dense(state, end, tol=None, start=None):
            return (state.max_eigenvalue if end == "max"
                    else state.min_eigenvalue), None

        monkeypatch.setattr(cpflow.flow, "extreme_eigenvalue", recorded)
        lanczos = run(c, prescription, k0, config)
        monkeypatch.setattr(cpflow.flow, "extreme_eigenvalue", dense)
        exact = run(c, prescription, k0, config)
        assert lanczos.verdict == exact.verdict == "converged"
        for lam, state in ceilings:
            assert abs(lam / state.max_eigenvalue - 1.0) <= 0.05
        steps = len(exact.samples) - 1
        assert abs(len(lanczos.samples) - 1 - steps) <= 0.01 * steps

    def test_exact_up_to_the_cut(self):
        c, prescription, k0 = torus_start(8, seed=87)
        state = evaluate(c, k0)
        assert c.n_vertices == LANCZOS_CUT
        assert extreme_eigenvalue(state, "max") == (state.max_eigenvalue, None)


class TestGershgorinScreen:
    """A step skips its ceiling only where the Gershgorin bound proves the
    ceiling would not cap it, so a screened run is bit for bit the run
    that computes the ceiling on every step."""

    @pytest.mark.parametrize("config", [ACCEPTANCE_CONFIG, FlowConfig()],
                             ids=["acceptance", "default"])
    @pytest.mark.parametrize("method", ["calabi", "curvature"])
    @pytest.mark.parametrize("name", sorted(PINNED_COMPLEXES))
    def test_trace_is_the_unscreened_trace(self, monkeypatch, name, method,
                                           config):
        c = PINNED_COMPLEXES[name]()
        inst = make_synthetic(c, seed=71)
        k0 = inst.kbar + rng_for(72).uniform(-1.0, 1.0, c.n_vertices)
        config = dataclasses.replace(config, method=method)
        if integrator(config) != "rkf45":
            # The screen belongs to RKF45: step at a tolerance just tighter
            # than the one where the Calabi flow switches to RKC.
            config = dataclasses.replace(config, tol_ode=0.1 * RKC_MIN_TOL)
        ceilings = count_ceilings(monkeypatch)
        screened = run(c, inst.prescription, k0, config)
        assert len(ceilings) < len(screened.samples) - 1
        monkeypatch.setattr(cpflow.flow, "gershgorin_bound",
                            lambda state: math.inf)
        unscreened = run(c, inst.prescription, k0, config)
        assert screened.verdict == unscreened.verdict == "converged"
        assert len(screened.samples) == len(unscreened.samples)
        for a, b in zip(screened.samples, unscreened.samples):
            assert a.K.tobytes() == b.K.tobytes()
            assert (a.t, a.err_inf, a.energy, a.speed) == (
                b.t, b.err_inf, b.energy, b.speed)
        assert screened.min_eig == unscreened.min_eig

    def test_accuracy_bound_divergence_skips_the_ceiling(self, monkeypatch):
        # The curvature flow on an infeasible prescription runs at the
        # step its error tolerance allows, well under the ceiling.
        c = fixtures.torus_grid(4, 4, phi=1.3)
        inst = make_synthetic(c, seed=73)
        lhat = inst.prescription.lhat.copy()
        lhat[5] = 8.0 * 1.3 * 1.05 + 0.3
        ceilings = count_ceilings(monkeypatch)
        trace = run(c, Prescription(lhat), inst.kbar,
                    FlowConfig(method="curvature"))
        assert trace.verdict == "diverged"
        assert len(ceilings) < 0.1 * (len(trace.samples) - 1)


def diverging_torus4x4():
    """An infeasible torus4x4 prescription and its planted start."""
    c = fixtures.torus_grid(4, 4, phi=1.3)
    inst = make_synthetic(c, seed=73)
    lhat = inst.prescription.lhat.copy()
    lhat[5] = 8.0 * 1.3 * 1.05 + 0.3
    return c, Prescription(lhat), inst.kbar


class TestUniformScreen:
    """The constant tier of the screen passes only where the Gershgorin
    test would, so the ceilings are computed at the same states and the
    trace is the one without it."""

    def runs(self, monkeypatch, *args):
        """(trace, states a ceiling was computed at, gershgorin_bound
        calls) with the uniform bound, then with it at inf."""
        out = []
        for uniform in (cpflow.flow.uniform_gershgorin_bound,
                        lambda complex: math.inf):
            monkeypatch.setattr(cpflow.flow, "uniform_gershgorin_bound",
                                uniform)
            ceilings = count_ceilings(monkeypatch)
            bounds = []

            def counted(state):
                bounds.append(state)
                return gershgorin_bound(state)

            monkeypatch.setattr(cpflow.flow, "gershgorin_bound", counted)
            trace = run(*args)
            out.append((trace, [st.K.tobytes() for st in ceilings],
                        len(bounds)))
        (a, ceil_a, bounds_a), (b, ceil_b, bounds_b) = out
        assert (a.verdict, a.min_eig, a.failure) == (
            b.verdict, b.min_eig, b.failure)
        assert len(a.samples) == len(b.samples)
        for x, y in zip(a.samples, b.samples):
            assert x.K.tobytes() == y.K.tobytes()
            assert (x.t, x.err_inf, x.energy, x.speed, x.clamped) == (
                y.t, y.err_inf, y.energy, y.speed, y.clamped)
        assert ceil_a == ceil_b
        assert bounds_a <= bounds_b
        return bounds_a, bounds_b

    @pytest.mark.parametrize("config", [ACCEPTANCE_CONFIG, FlowConfig()],
                             ids=["acceptance", "default"])
    @pytest.mark.parametrize("method", cpflow.flow.METHODS)
    @pytest.mark.parametrize("name", sorted(PINNED_COMPLEXES))
    def test_pinned_runs(self, monkeypatch, name, method, config):
        c = PINNED_COMPLEXES[name]()
        inst = make_synthetic(c, seed=71)
        k0 = inst.kbar + rng_for(72).uniform(-1.0, 1.0, c.n_vertices)
        self.runs(monkeypatch, c, inst.prescription, k0,
                  dataclasses.replace(config, method=method))

    def test_diverging_run_calls_fewer_gershgorin_bounds(self, monkeypatch):
        c, prescription, k0 = diverging_torus4x4()
        with_uniform, without = self.runs(monkeypatch, c, prescription, k0,
                                          FlowConfig(method="curvature"))
        assert with_uniform < without

    @pytest.mark.parametrize("method", ["calabi", "curvature"])
    def test_above_the_cut(self, monkeypatch, method):
        c, prescription, k0 = torus_start(10, seed=83)
        assert c.n_vertices > LANCZOS_CUT
        self.runs(monkeypatch, c, prescription, k0, FlowConfig(method=method))


class TestValidatesOnce:
    """``run`` checks its inputs once; its states and stages are evaluated
    without checks."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        for module in (cpflow.flow, cpflow.curvature, cpflow.feasibility):
            def counted(*args, real=module.check_instance):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(module, "check_instance", counted)
        return calls

    @pytest.mark.parametrize("tol_ode", [1e-4, 1e-6], ids=["rkc", "rkf45"])
    def test_same_checks_for_5_and_100_steps(self, monkeypatch, checks,
                                             tol_ode):
        # Both integrators take more than 100 steps on this run.
        c = PINNED_COMPLEXES["tetrahedron"]()
        inst = make_synthetic(c, seed=71)
        k0 = inst.kbar + rng_for(72).uniform(-1.0, 1.0, c.n_vertices)
        config = dataclasses.replace(ACCEPTANCE_CONFIG, tol_ode=tol_ode)
        counts = []
        for steps in (5, 100):
            monkeypatch.setattr(cpflow.flow, "MAX_ITERS", steps)
            before = len(checks)
            trace = run(c, inst.prescription, k0, config)
            assert trace.verdict == "budget-exhausted"
            assert len(trace.samples) == steps + 1
            counts.append(len(checks) - before)
        assert counts[0] == counts[1] > 0

    def test_newton_trials_are_not_checked(self, checks):
        # From the solution (no iteration) and from a start whose steps
        # backtrack five times.
        c = fixtures.tetrahedron()
        inst = make_synthetic(c, seed=62)
        counts = []
        for k0 in (inst.kbar, inst.kbar + 3.0 * rng_for(62).uniform(-1.0, 1.0, 4)):
            before = len(checks)
            trace = run(c, inst.prescription, k0, FlowConfig(method="newton"))
            assert trace.verdict == "converged"
            counts.append(len(checks) - before)
        assert counts[0] == counts[1] > 0


class TestRKC:
    """A Calabi run at tol_ode >= RKC_MIN_TOL steps with damped RKC."""

    def planted_tetrahedron(self):
        c = PINNED_COMPLEXES["tetrahedron"]()
        inst = make_synthetic(c, seed=71)
        k0 = inst.kbar + rng_for(72).uniform(-1.0, 1.0, c.n_vertices)
        return c, inst.prescription, k0

    def test_rule(self):
        assert integrator(ACCEPTANCE_CONFIG) == "rkc"
        assert integrator(FlowConfig(tol_ode=RKC_MIN_TOL)) == "rkc"
        assert integrator(FlowConfig(tol_ode=0.5 * RKC_MIN_TOL)) == "rkf45"
        # Below 1e-4 the fitted decay rate strays from the predicted one
        # under RKC (1.231 times it at 1e-5 on the criterion-4 campaign).
        assert integrator(FlowConfig(tol_ode=1e-4)) == "rkc"
        assert integrator(FlowConfig(tol_ode=1e-5)) == "rkf45"
        assert integrator(FlowConfig()) == "rkf45"
        assert integrator(dataclasses.replace(
            ACCEPTANCE_CONFIG, method="curvature")) == "rkf45"
        assert integrator(dataclasses.replace(
            ACCEPTANCE_CONFIG, method="newton")) == "none"

    def test_stability_polynomial(self):
        # One step of y' = -z y with h = 1 from y = 1 gives R(-z); a step
        # of s stages may take h * stiffness up to 0.9 beta(s).
        limits = cpflow.flow._RKC_LIMITS
        assert len(limits) == cpflow.flow._RKC_MAX_STAGES - 1
        for s, limit in enumerate(limits, start=2):
            z = np.linspace(0.0, limit, 2001)
            R = cpflow.flow._rkc_stages(lambda y: -z * y, np.ones_like(z),
                                        -z, 1.0, s)
            assert np.abs(R).max() <= 1.0 + 1e-12, s
            # second order: R(-z) = exp(-z) + O(z^3)
            small = cpflow.flow._rkc_stages(lambda y: -1e-3 * y,
                                            np.ones(1), -1e-3 * np.ones(1),
                                            1.0, s)
            assert abs(small[0] - math.exp(-1e-3)) <= 1e-9, s

    def test_one_spectrum_per_converged_run(self, monkeypatch):
        spectra = count_computed(monkeypatch, "eigenvalues")
        ceilings = count_ceilings(monkeypatch)
        trace = run(*self.planted_tetrahedron(), ACCEPTANCE_CONFIG)
        assert trace.verdict == "converged"
        # no step ceiling; one spectrum, for min_eig at the solution
        assert ceilings == [] and len(spectra) == 1

    @pytest.mark.parametrize("config,rkc", [
        (ACCEPTANCE_CONFIG, True),
        (dataclasses.replace(ACCEPTANCE_CONFIG, tol_ode=1e-6), False),
    ], ids=["rkc", "rkf45"])
    def test_rkc_computes_no_rkf45_bound(self, monkeypatch, config, rkc):
        # The loop both integrators share runs the RKF45 ceiling and its
        # uniform screen only for RKF45; the RKF45 run shows the spies see.
        calls = []

        def spy(name):
            real = getattr(cpflow.flow, name)

            def recorded(*args):
                calls.append((name,) + args[1:2])
                return real(*args)

            monkeypatch.setattr(cpflow.flow, name, recorded)

        for name in ("uniform_gershgorin_bound", "extreme_eigenvalue",
                     "gershgorin_bound"):
            spy(name)
        trace = run(*self.planted_tetrahedron(), config)
        assert trace.verdict == "converged"
        rkf45_only = {("uniform_gershgorin_bound",),
                      ("extreme_eigenvalue", "max")}
        assert rkf45_only.isdisjoint(calls) == rkc
        if rkc:
            # one Gershgorin bound per step taken
            assert (calls.count(("gershgorin_bound",))
                    == len(trace.samples) - 1)

    def test_a_step_of_s_stages_costs_s_evaluations(self, monkeypatch):
        # Planted before counting: planting evaluates too.
        problem = self.planted_tetrahedron()
        kernels = count_kernels(monkeypatch)
        stages = []
        real = cpflow.flow._rkc_stages

        def counted(f, K, f0, h, s):
            stages.append(s)
            return real(f, K, f0, h, s)

        monkeypatch.setattr(cpflow.flow, "_rkc_stages", counted)
        trace = run(*problem, ACCEPTANCE_CONFIG)
        assert trace.verdict == "converged"
        assert max(stages) > 2
        assert len(kernels) == 1 + sum(stages)

    def test_max_time_clips_the_last_step(self):
        config = dataclasses.replace(ACCEPTANCE_CONFIG, max_time=1.0)
        trace = run(*self.planted_tetrahedron(), config)
        assert trace.verdict == "budget-exhausted"
        assert trace.final.t == 1.0

    def test_tiny_bigon_ends_with_a_verdict(self):
        # At angles of 1e-300 the entries of J underflow.
        c = fixtures.bigon(phi=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(c, Prescription(np.full(2, 1e-6)), np.zeros(2),
                        ACCEPTANCE_CONFIG)
        assert trace.verdict in ("converged", "diverged", "budget-exhausted",
                                 "numerical-failure")


class TestNewton:
    def test_agrees_with_flow(self, tetra):
        inst = make_synthetic(tetra, seed=55)
        k0 = inst.kbar + rng_for(56).uniform(-1, 1, 4)
        k_flow = run(tetra, inst.prescription, k0,
                     FlowConfig(tol_curvature=1e-12)).final_k()
        newton = run(tetra, inst.prescription, k0,
                     FlowConfig(method="newton", tol_curvature=1e-12))
        assert newton.verdict == "converged"
        assert np.max(np.abs(k_flow - newton.final_k())) <= 1e-10

    def test_zero_iterations_at_solution(self, tetra):
        inst = make_synthetic(tetra, seed=57)
        trace = run(tetra, inst.prescription, inst.kbar,
                    FlowConfig(method="newton", tol_curvature=1e-10))
        assert trace.verdict == "converged"
        assert np.all(trace.final_k() == inst.kbar)

    def test_quadratic_tail(self, tetra):
        inst = make_synthetic(tetra, seed=58)
        k0 = inst.kbar + rng_for(59).uniform(-0.5, 0.5, 4)
        trace = run(tetra, inst.prescription, k0,
                    FlowConfig(method="newton", tol_curvature=1e-13))
        errs = [s.err_inf for s in trace.samples]
        # stay above the double-precision floor so the quadratic model applies
        tail = [(errs[i], errs[i + 1]) for i in range(len(errs) - 1)
                if 1e-7 < errs[i] < 1e-2]
        assert tail, "no iterates in the quadratic window"
        for e0, e1 in tail:
            assert e1 <= 50.0 * e0 ** 2

    def test_iteration_cap(self, tetra, monkeypatch):
        monkeypatch.setattr(cpflow.flow, "NEWTON_MAX_ITERS", 1)
        inst = make_synthetic(tetra, seed=60)
        trace = run(tetra, inst.prescription, inst.kbar + 2.0,
                    FlowConfig(method="newton", tol_curvature=1e-10))
        assert trace.verdict == "budget-exhausted"
        assert trace.failure is None
        assert len(trace.samples) == 2
        assert trace.certificate is None

    def test_failed_backtrack_raises(self, tetra):
        # infeasible (margin +2.809): no step length reduces the error, and
        # the failed run carries the certificate
        bad = Prescription(np.array([4.053, 4.053, 4.053, 9.5]))
        trace = run(tetra, bad, np.zeros(4), FlowConfig(method="newton"))
        assert trace.verdict == "numerical-failure"
        assert trace.failure == "backtracking found no decrease"
        assert len(trace.samples) >= 1
        assert trace.certificate is not None
        assert trace.certificate.worst_margin == pytest.approx(2.80944407846)


class TestMatrixFreeNewton:
    """Newton solves its linear systems by conjugate gradients on ``jvp``."""

    def test_newton_never_builds_the_dense_jacobian(self, monkeypatch):
        reads = count_computed(monkeypatch, "J")
        c = fixtures.torus_grid(6, 6, phi=1.3)
        inst = make_synthetic(c, seed=73)
        k0 = inst.kbar + rng_for(74).uniform(-0.5, 0.5, c.n_vertices)
        trace = run(c, inst.prescription, k0, FlowConfig(method="newton"))
        assert trace.verdict == "converged"
        assert reads == []

    def test_first_step_matches_the_dense_solve(self, monkeypatch):
        c = fixtures.torus_grid(12, 12, phi=1.3)
        inst = make_synthetic(c, seed=75)
        k0 = inst.kbar + rng_for(76).uniform(-0.5, 0.5, c.n_vertices)
        state0 = evaluate(c, k0)
        residual = state0.L - inst.prescription.lhat
        eta = min(cpflow.flow._ETA_MAX, float(np.linalg.norm(residual)))
        steps = []
        real_step = cpflow.flow._newton_step

        def recorded(state, b, eta):
            steps.append(real_step(state, b, eta))
            return steps[-1]

        monkeypatch.setattr(cpflow.flow, "_newton_step", recorded)
        run(c, inst.prescription, k0, FlowConfig(method="newton"))
        dense = np.linalg.solve(state0.J, residual)
        # ||J (x - dense)|| <= eta ||residual||, and ||J^{-1}|| = 1/lambda_min
        bound = eta * np.linalg.norm(residual) / state0.min_eigenvalue
        assert np.linalg.norm(steps[0] - dense) <= bound
        assert (np.linalg.norm(state0.jvp(steps[0]) - residual)
                <= eta * np.linalg.norm(residual))

    def test_singular_system_raises(self):
        # both bigon radii near zero: J = c [[1, -1], [-1, 1]] exactly, and
        # the right-hand side has a part along the null vector (1, 1)
        state = evaluate(fixtures.bigon(), np.array([26.4, 21.6]))
        with pytest.raises(NonConvergenceError,
                           match="linear solve failed: non-positive curvature"):
            cpflow.flow._newton_step(state, np.array([1.0, 0.0]), 0.1)

    def test_converges_on_the_45x45_torus(self):
        c = fixtures.torus_grid(45, 45, phi=1.3)
        inst = make_synthetic(c, seed=77)
        trace = run(c, inst.prescription, inst.kbar + 0.3,
                    FlowConfig(method="newton"))
        assert c.n_vertices == 2025
        assert trace.verdict == "converged"
        assert trace.final.err_inf <= 1e-10
        assert np.max(np.abs(trace.final_k() - inst.kbar)) <= 1e-8


class TestStages:
    """A flow stage, evaluated without a state, is the direction of the
    state at its K, bit for bit."""

    FAMILIES = {
        "tetrahedron": fixtures.tetrahedron,
        "bigon": fixtures.bigon,
        "cube": fixtures.cube_graph,
        "torus3x3": fixtures.torus_grid,
        "torus9x9": lambda phi=0.5 * math.pi: fixtures.torus_grid(9, 9, phi),
        "necklace4": lambda phi=0.5 * math.pi: fixtures.necklace(4, phi),
        "prism5": lambda phi=0.5 * math.pi: fixtures.prism(5, phi),
        "bipyramid5": lambda phi=0.5 * math.pi: fixtures.bipyramid(5, phi),
    }

    @staticmethod
    def coordinates(kind: str, c, rng) -> np.ndarray:
        n = c.n_vertices
        if kind == "random":
            return rng.uniform(-3.0, 3.0, n)
        if kind == "clamped":
            # Every coordinate past the clamp, on either side.
            return rng.choice((-1.0, 1.0), n) * (K_CLAMP + rng.uniform(0.0, 5.0, n))
        # A tiny circle at w closes the quadrilateral of edge (v, w) to a
        # small center angle at v.
        K = rng.uniform(-8.0, 8.0, n)
        v, w = c.edges[0]
        K[v], K[w] = -8.0, 8.0
        return K

    @pytest.mark.parametrize("kind", ["random", "clamped", "small-theta"])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_stage_equals_state(self, family, kind):
        rng = rng_for(97)
        m = len(self.FAMILIES[family]().edges)
        c = self.FAMILIES[family](phi=rng.uniform(0.3, 0.5 * math.pi, m))
        p = Prescription(evaluate(c, rng.uniform(-1.0, 1.0, c.n_vertices)).L.copy())
        for _ in range(20):
            K = self.coordinates(kind, c, rng)
            state = _evaluate(c, K)
            if kind == "small-theta":
                assert (state.theta_sides < _TMS_SERIES_BELOW).any()
            assert np.array_equal(_calabi_stage(c, p.lhat, K),
                                  calabi_direction(state, p))
            assert np.array_equal(_curvature_stage(c, p.lhat, K),
                                  p.lhat - state.L)


class TestLazyEdgeForm:
    """J's edge form is computed only at the states that read it."""

    @staticmethod
    def _accepted(trace, states):
        """Split ``states`` into those the trace records and the rest."""
        kept = {s.K.tobytes() for s in trace.samples}
        accepted = [st for st in states if st.K.tobytes() in kept]
        return accepted, [st for st in states if st.K.tobytes() not in kept]

    @pytest.mark.parametrize("case", ["converges", "diverges", "diverges-4x4"])
    def test_curvature_flow_derives_at_accepted_states_only(
            self, monkeypatch, case):
        if case == "converges":
            c = fixtures.tetrahedron()
            inst = make_synthetic(c, seed=95)
            lhat = inst.prescription
            k0 = inst.kbar + rng_for(96).uniform(-1.0, 1.0, 4)
            config = FlowConfig(method="curvature")
        elif case == "diverges":
            _, c, lhat, _ = single_vertex_violator(0)
            k0 = np.zeros(c.n_vertices)
            config = FlowConfig(method="curvature", tol_ode=1e-4)
        else:
            c = fixtures.torus_grid(4, 4, phi=1.3)
            inst = make_synthetic(c, seed=73)
            target = inst.prescription.lhat.copy()
            target[5] = 8.0 * 1.3 * 1.05 + 0.3
            lhat, k0 = Prescription(target), inst.kbar
            config = FlowConfig(method="curvature")
        calls = count_edge_forms(monkeypatch)
        kernels = count_kernels(monkeypatch)
        states = record_states(monkeypatch)
        trace = run(c, lhat, k0, config)
        assert trace.verdict == ("converged" if case == "converges"
                                 else "diverged")
        assert len(calls) <= len(trace.samples) < len(kernels)
        accepted, _ = self._accepted(trace, states)
        assert len(accepted) == len(trace.samples)
        # No stage derives: each derivation reads the trigonometry stored
        # on an accepted state.
        assert all(any(args[4] is st.theta_sides for st in accepted)
                   for args in calls)

    def test_newton_trials_never_derive(self, monkeypatch):
        c = fixtures.tetrahedron()
        inst = make_synthetic(c, seed=62)
        k0 = inst.kbar + 3.0 * rng_for(62).uniform(-1.0, 1.0, 4)
        calls = count_edge_forms(monkeypatch)
        states = record_states(monkeypatch)
        trace = run(c, inst.prescription, k0, FlowConfig(method="newton"))
        assert trace.verdict == "converged"
        accepted, rejected = self._accepted(trace, states)
        assert len(rejected) == 5
        assert not any("diag" in st.__dict__ for st in rejected)
        # Every accepted state but the solution reads it for its CG solve.
        assert len(calls) == len(accepted) - 1

    def test_calabi_derives_at_every_stage(self, monkeypatch):
        c = fixtures.tetrahedron()
        inst = make_synthetic(c, seed=95)
        k0 = inst.kbar + rng_for(96).uniform(-1.0, 1.0, 4)
        calls = count_edge_forms(monkeypatch)
        kernels = count_kernels(monkeypatch)
        states = record_states(monkeypatch)
        trace = run(c, inst.prescription, k0)
        assert trace.verdict == "converged"
        assert len(calls) == len(kernels) > len(trace.samples)
        assert all("diag" in st.__dict__ for st in states)

    def test_potential_and_solution_file_never_derive(self, monkeypatch):
        from io import StringIO

        from cpflow.instancefile import write_solution
        c = fixtures.tetrahedron()
        inst = make_synthetic(c, seed=95)
        trace = run(c, inst.prescription, inst.kbar + 0.5)
        calls = count_edge_forms(monkeypatch)
        potential(c, inst.prescription, trace.final_k())
        write_solution(StringIO(), trace, c, inst.prescription)
        assert calls == []


class TestDecayRate:
    def test_converged_trace_fit(self, tetra):
        inst = make_synthetic(tetra, seed=61)
        k0 = inst.kbar + rng_for(62).uniform(-1, 1, 4)
        trace = run(tetra, inst.prescription, k0, FlowConfig(tol_ode=1e-6))
        fit = fit_decay_rate(trace)
        assert fit.slope < 0
        assert fit.r_squared >= 0.99
        assert not fit.degenerate

    def test_constant_energy_flagged(self):
        samples = [FlowSample(t=float(i), K=np.zeros(2), err_inf=1.0,
                              energy=0.5, speed=0.0, clamped=False)
                   for i in range(15)]
        trace = FlowTrace(method="calabi", samples=samples, verdict="converged")
        fit = fit_decay_rate(trace)
        assert fit.degenerate
        assert fit.slope == 0.0

    def test_requires_convergence_and_samples(self, tetra, planted):
        trace = FlowTrace(method="calabi", samples=[], verdict="budget-exhausted")
        with pytest.raises(InputError):
            fit_decay_rate(trace)
        short = FlowTrace(method="calabi", verdict="converged", samples=[
            FlowSample(t=float(i), K=np.zeros(1), err_inf=0.1, energy=0.1,
                       speed=0.0, clamped=False) for i in range(5)])
        with pytest.raises(InputError):
            fit_decay_rate(short)
