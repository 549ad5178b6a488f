import dataclasses
import functools
import math

import numpy as np
import pytest

import cpflow.flow
from cpflow import (CurvatureState, FlowConfig, FlowSample, FlowTrace,
                    InputError, IntegrationError, NonConvergenceError,
                    Prescription, calabi_direction, curvature_rhs, evaluate,
                    fit_decay_rate, fixtures, make_synthetic, newton_solve,
                    potential, r_to_k, run, velocity_bound)
from cpflow.oracle import rng_for
from conftest import ACCEPTANCE_CONFIG, single_vertex_violator


@pytest.fixture
def tetra():
    return fixtures.tetrahedron()


@pytest.fixture
def planted(tetra):
    """Target curvatures planted at the coordinate origin."""
    return Prescription(evaluate(tetra, np.zeros(4)).L.copy())


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
        with pytest.raises(Exception):
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
        t = trace.times()
        assert np.all(np.diff(t) > 0.0)

    def test_energy_monotone_calabi(self, tetra):
        inst = make_synthetic(tetra, seed=45)
        k0 = inst.kbar + rng_for(46).uniform(-1, 1, 4)
        trace = run(tetra, inst.prescription, k0, FlowConfig(tol_ode=1e-6))
        E = trace.energies()
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
        assert np.max(np.abs(trace.final_k())) > 50.0
        # radii collapse past the clamp on the way out
        assert trace.samples[-1].clamped

    def test_calabi_budget_on_infeasible_attaches_certificate(self, tetra, planted):
        lhat = planted.lhat.copy()
        lhat[0] = 10.0
        bad = Prescription(lhat)
        trace = run(tetra, bad, np.zeros(4),
                    FlowConfig(tol_ode=1e-4, max_time=50.0))
        assert trace.verdict == "budget-exhausted"
        assert trace.certificate is not None and not trace.certificate.feasible

    def test_integrator_alias(self, tetra, planted):
        cfg = FlowConfig(integrator="rkf45-adaptive")
        assert cfg.integrator == "rkf45"
        cfg = FlowConfig(integrator="rk4-fixed")
        assert cfg.integrator == "rk4"

    def test_rk4_step_halving_agrees(self, tetra):
        inst = make_synthetic(tetra, seed=51)
        k0 = inst.kbar + rng_for(52).uniform(-0.5, 0.5, 4)
        limits = []
        for h in (0.1, 0.05):
            cfg = FlowConfig(integrator="rk4", step=h, tol_curvature=1e-12,
                             max_iters=200_000)
            trace = run(tetra, inst.prescription, k0, cfg)
            assert trace.verdict == "converged"
            limits.append(trace.final_k())
        assert np.max(np.abs(limits[0] - limits[1])) <= 1e-9

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
        cfg = FlowConfig(tol_ode=1e-300)
        with pytest.raises(IntegrationError) as exc_info:
            run(tetra, planted, np.array([1.0, 0.0, 0.0, 0.0]), cfg)
        assert exc_info.value.trace is not None
        assert len(exc_info.value.trace.samples) >= 1

    def test_budget_verdict(self, tetra, planted):
        cfg = FlowConfig(max_iters=3)
        trace = run(tetra, planted, np.array([1.0, 0.0, 0.0, 0.0]), cfg)
        assert trace.verdict == "budget-exhausted"

    def test_input_validation(self, tetra, planted):
        with pytest.raises(InputError):
            run(tetra, planted, np.zeros(3))
        with pytest.raises(InputError):
            run(tetra, planted, np.array([np.inf, 0, 0, 0]))
        with pytest.raises(InputError):
            FlowConfig(method="amble")
        with pytest.raises(InputError):
            FlowConfig(step=-1.0)
        with pytest.raises(InputError):
            FlowConfig(tol_curvature=0.0)

    @pytest.mark.parametrize("name", ["step", "tol_curvature", "tol_ode",
                                      "max_time", "divergence_k"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(InputError, match=name):
            FlowConfig(**{name: value})


# Accepted RKF45 steps of seeded planted runs under the criterion-4
# configuration.  A faster evaluation or tableau may move the last bits of
# each stage, but must not move the step sequence by more than 1%.
PINNED_STEP_COUNTS = {
    ("tetrahedron", "calabi"): 664,
    ("tetrahedron", "curvature"): 75,
    ("cube", "calabi"): 433,
    ("cube", "curvature"): 63,
    ("torus3x3", "calabi"): 246,
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
        calls = []
        original = CurvatureState.eigenvalues

        def counted(state):
            calls.append(state)
            return original.func(state)

        spy = functools.cached_property(counted)
        spy.__set_name__(CurvatureState, "eigenvalues")
        monkeypatch.setattr(CurvatureState, "eigenvalues", spy)
        return calls

    @pytest.mark.parametrize("config", [
        FlowConfig(method="newton"),
        FlowConfig(integrator="rk4", step=0.05),
        FlowConfig(method="curvature", integrator="rk4", step=0.05),
    ], ids=["newton", "calabi-rk4", "curvature-rk4"])
    def test_untraced_runs_skip_the_spectrum(self, tetra, spectra, config):
        inst = make_synthetic(tetra, seed=63)
        k0 = inst.kbar + rng_for(64).uniform(-0.5, 0.5, 4)
        trace = run(tetra, inst.prescription, k0, config)
        assert trace.verdict == "converged"
        assert spectra == []
        assert all(s.min_eig is None for s in trace.samples)

    def test_adaptive_run_records_the_spectrum_it_computed(self, tetra, spectra):
        inst = make_synthetic(tetra, seed=65)
        k0 = inst.kbar + rng_for(66).uniform(-0.5, 0.5, 4)
        trace = run(tetra, inst.prescription, k0)
        # one spectrum per accepted step, for the step cap
        assert len(spectra) == len(trace.samples) - 1
        for sample in trace.samples[:-1]:
            assert sample.min_eig == evaluate(tetra, sample.K).min_eigenvalue
        assert trace.final.min_eig is None


class TestNewton:
    def test_agrees_with_flow(self, tetra):
        inst = make_synthetic(tetra, seed=55)
        k0 = inst.kbar + rng_for(56).uniform(-1, 1, 4)
        k_flow = run(tetra, inst.prescription, k0,
                     FlowConfig(tol_curvature=1e-12)).final_k()
        k_newton = newton_solve(tetra, inst.prescription, k0, tol=1e-12)
        assert np.max(np.abs(k_flow - k_newton)) <= 1e-10

    def test_zero_iterations_at_solution(self, tetra):
        inst = make_synthetic(tetra, seed=57)
        out = newton_solve(tetra, inst.prescription, inst.kbar)
        assert np.all(out == inst.kbar)

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

    def test_iteration_cap(self, tetra):
        inst = make_synthetic(tetra, seed=60)
        with pytest.raises(NonConvergenceError):
            newton_solve(tetra, inst.prescription, inst.kbar + 2.0,
                         tol=1e-10, max_iters=1)

    def test_newton_solve_is_run(self, tetra):
        inst = make_synthetic(tetra, seed=67)
        k0 = inst.kbar + rng_for(68).uniform(-1, 1, 4)
        for tol in (1e-8, 1e-12):
            expected = run(tetra, inst.prescription, k0,
                           FlowConfig(method="newton", tol_curvature=tol)).final_k()
            out = newton_solve(tetra, inst.prescription, k0, tol)
            assert out.tobytes() == expected.tobytes()

    def test_failed_newton_solve_computes_no_certificate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cpflow.flow, "check_mincut",
                            lambda *args: calls.append(args))
        c = fixtures.torus_grid(15, 15, phi=1.3)
        inst = make_synthetic(c, seed=5)
        with pytest.raises(NonConvergenceError, match="budget-exhausted"):
            newton_solve(c, inst.prescription, inst.kbar + 1.0, max_iters=1)
        assert calls == []

    def test_failed_backtrack_raises(self, tetra):
        # infeasible (margin +2.809): no step length reduces the error
        bad = Prescription(np.array([4.053, 4.053, 4.053, 9.5]))
        with pytest.raises(NonConvergenceError, match="backtracking"):
            run(tetra, bad, np.zeros(4), FlowConfig(method="newton"))


class TestDecayRate:
    def test_converged_trace_fit(self, tetra):
        inst = make_synthetic(tetra, seed=61)
        k0 = inst.kbar + rng_for(62).uniform(-1, 1, 4)
        trace = run(tetra, inst.prescription, k0, FlowConfig(tol_ode=1e-6))
        fit = fit_decay_rate(trace, max(10, int(0.3 * len(trace.samples))))
        assert fit.slope < 0
        assert fit.r_squared >= 0.99
        assert not fit.degenerate

    def test_constant_energy_flagged(self):
        samples = [FlowSample(t=float(i), K=np.zeros(2), err_inf=1.0,
                              energy=0.5, speed=0.0, min_eig=1.0, clamped=False)
                   for i in range(15)]
        trace = FlowTrace(method="calabi", samples=samples, verdict="converged")
        fit = fit_decay_rate(trace, 15)
        assert fit.degenerate
        assert fit.slope == 0.0

    def test_requires_convergence_and_samples(self, tetra, planted):
        trace = FlowTrace(method="calabi", samples=[], verdict="budget-exhausted")
        with pytest.raises(InputError):
            fit_decay_rate(trace, 10)
        short = FlowTrace(method="calabi", verdict="converged", samples=[
            FlowSample(t=float(i), K=np.zeros(1), err_inf=0.1, energy=0.1,
                       speed=0.0, min_eig=1.0, clamped=False) for i in range(5)])
        with pytest.raises(InputError):
            fit_decay_rate(short, 10)
        with pytest.raises(InputError):
            fit_decay_rate(short, 5)
