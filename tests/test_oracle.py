import numpy as np
import pytest

from cpflow import (FlowConfig, InputError, evaluate, fixtures,
                    make_synthetic, potential, run)
from cpflow.feasibility import check_bruteforce
from cpflow.oracle import rng_for
from fd_oracle import fd_gradient, fd_jacobian, relative_error

L_REF = 4.05306515313624


class TestFdGradient:
    def test_linear_field_exact(self):
        c = np.array([2.0, -1.0, 0.5])
        grad = fd_gradient(lambda K: float(c @ K), np.array([0.3, 0.4, -0.2]))
        assert np.max(np.abs(grad - c)) <= 1e-10

    def test_potential_gradient_is_curvature_error(self):
        tetra = fixtures.tetrahedron()
        inst = make_synthetic(tetra, seed=70)
        K = rng_for(71).uniform(-0.8, 0.8, 4)
        exact = evaluate(tetra, K).L - inst.prescription.lhat
        grad = fd_gradient(
            lambda k: potential(tetra, inst.prescription, k), K)
        assert np.max(relative_error(grad, exact)) <= 1e-6

    def test_energy_gradient_is_weighted_error(self):
        tetra = fixtures.tetrahedron()
        inst = make_synthetic(tetra, seed=72)
        K = rng_for(73).uniform(-0.8, 0.8, 4)
        st = evaluate(tetra, K)
        exact = st.J.T @ (st.L - inst.prescription.lhat)
        def energy(k):
            d = evaluate(tetra, k).L - inst.prescription.lhat
            return 0.5 * float(np.dot(d, d))

        grad = fd_gradient(energy, K)
        assert np.max(relative_error(grad, exact)) <= 1e-6

    def test_step_validation(self):
        with pytest.raises(InputError):
            fd_gradient(lambda K: 0.0, np.zeros(2), h=0.0)


class TestFdJacobian:
    @pytest.mark.parametrize("make", [
        fixtures.tetrahedron, fixtures.bigon, fixtures.cube_graph,
        fixtures.torus_grid,
    ])
    def test_matches_analytic_on_fixtures(self, make):
        c = make()
        K = rng_for(74).uniform(-1.0, 1.0, c.n_vertices)
        J = evaluate(c, K).J
        fd = fd_jacobian(c, K)
        assert np.max(np.abs(J - fd)) / np.max(np.abs(J)) <= 1e-6
        assert np.max(np.abs(fd - fd.T)) <= 1e-5

    def test_zero_pattern_is_exact(self):
        c = fixtures.cube_graph()
        fd = fd_jacobian(c, np.zeros(8))
        adj = np.zeros((8, 8), dtype=bool)
        for v, w in c.edges:
            adj[v, w] = adj[w, v] = True
        off = ~np.eye(8, dtype=bool)
        assert np.all(fd[off][~adj[off]] == 0.0)


class TestMakeSynthetic:
    def test_deterministic(self):
        tetra = fixtures.tetrahedron()
        a = make_synthetic(tetra, seed=75)
        b = make_synthetic(tetra, seed=75)
        assert np.all(a.kbar == b.kbar)
        assert np.all(a.prescription.lhat == b.prescription.lhat)
        c = make_synthetic(tetra, seed=76)
        assert np.any(a.kbar != c.kbar)

    def test_planted_targets_are_feasible(self):
        for i, make in enumerate([fixtures.tetrahedron, fixtures.bigon,
                                  fixtures.cube_graph, fixtures.torus_grid]):
            inst = make_synthetic(make(), seed=77 + i)
            assert check_bruteforce(inst.complex, inst.prescription).feasible

    def test_degenerate_range_plants_origin(self):
        tetra = fixtures.tetrahedron()
        inst = make_synthetic(tetra, seed=78, k_range=(0.0, 0.0))
        assert np.all(inst.kbar == 0.0)
        assert np.allclose(inst.prescription.lhat, L_REF, atol=1e-13)

    def test_recovery_from_several_starts(self):
        for make, seed in ((fixtures.bigon, 79), (fixtures.torus_grid, 86)):
            inst = make_synthetic(make(), seed=seed)
            n = inst.complex.n_vertices
            for s in range(5):
                k0 = inst.kbar + rng_for(80 + s).uniform(-1.5, 1.5, n)
                trace = run(inst.complex, inst.prescription, k0,
                            FlowConfig(method="newton", tol_curvature=1e-12))
                assert trace.verdict == "converged"
                assert np.max(np.abs(trace.final_k() - inst.kbar)) <= 1e-8

    def test_bad_range(self):
        with pytest.raises(InputError):
            make_synthetic(fixtures.bigon(), seed=81, k_range=(1.0, -1.0))

    def test_negative_seed_is_an_input_error(self):
        with pytest.raises(InputError, match="outside"):
            make_synthetic(fixtures.bigon(), seed=-1)


class TestRngFor:
    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="outside"):
            rng_for(-1)

    def test_seed_past_64_bits_rejected(self):
        with pytest.raises(InputError, match="outside"):
            rng_for(2 ** 64)

    def test_largest_seed_accepted(self):
        assert 0.0 <= rng_for(2 ** 64 - 1).uniform() < 1.0

    def test_fractional_seed_not_truncated(self):
        with pytest.raises(TypeError):
            rng_for(1.5)

    def test_numpy_integer_draws_as_the_int(self):
        for seed in (np.int64(7), np.uint64(7)):
            assert np.all(rng_for(seed).uniform(size=4)
                          == rng_for(7).uniform(size=4))


class TestRelativeError:
    def test_floor_prevents_blowup(self):
        assert relative_error(1e-9, 0.0) == pytest.approx(0.1)
        assert relative_error(2.0, 1.0) == pytest.approx(1.0)
