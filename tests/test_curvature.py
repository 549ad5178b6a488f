import math

import numpy as np
import pytest

from cpflow import (InputError, Prescription, QuadratureError,
                    edge_side_geometry, evaluate, fixtures, k_to_r,
                    make_synthetic, potential, prescribed_calabi_energy,
                    velocity_bound)
from cpflow.curvature import K_CLAMP, RADIUS_CLAMP, _edge_geometry
from cpflow.oracle import fd_jacobian, rng_for
from conftest import random_instance

# Tetrahedron with phi = pi/2 at K = 0, frozen from direct evaluation of
# the edge kernel (theta = arccos(-1/3)) and confirmed by finite
# differences.
THETA_REF = 1.9106332362490186
L_REF = 4.05306515313624               # 3 * THETA_REF * cos(pi/4)
ALPHA_REF = 5.731899708747056          # 3 * THETA_REF
J_DIAG_REF = 3.02653257656812          # 3 * (d_pair - d_cross)
ENERGY_REF = 32.854674271134584        # 0.5 * 4 * L_REF^2
VELOCITY_BOUND_REF = 2276.4798525797937


@pytest.fixture
def tetra():
    return fixtures.tetrahedron()


@pytest.fixture
def tetra_state(tetra):
    return evaluate(tetra, np.zeros(4))


class TestEvaluate:
    def test_symmetric_tetrahedron(self, tetra_state):
        st = tetra_state
        assert np.allclose(st.theta_v, THETA_REF, atol=1e-14)
        assert np.allclose(st.theta_w, THETA_REF, atol=1e-14)
        assert np.allclose(st.L, L_REF, atol=1e-13)
        assert np.allclose(st.alpha_v, ALPHA_REF, atol=1e-13)
        assert np.allclose(st.alpha_f, 3 * np.pi / 2, atol=1e-14)
        assert np.allclose(np.diag(st.J), J_DIAG_REF, atol=1e-13)
        off = st.J[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -2.0 / 3.0, atol=1e-13)
        assert not st.clamped

    def test_theta_lookup(self, tetra, tetra_state):
        v, w = tetra.edges[0]
        assert tetra_state.theta(0, v) == pytest.approx(THETA_REF, abs=1e-14)
        assert tetra_state.theta(0, w) == pytest.approx(THETA_REF, abs=1e-14)
        with pytest.raises(InputError):
            tetra_state.theta(0, 3)

    def test_parallel_edges_accumulate(self):
        big = fixtures.bigon()
        st = evaluate(big, np.zeros(2))
        # two identical quadrilaterals stack on the single adjacent pair
        assert st.J[0, 1] == pytest.approx(2 * (-2.0 / 3.0), abs=1e-12)
        assert st.L[0] == pytest.approx(2 * THETA_REF * math.cos(math.pi / 4), abs=1e-13)
        assert st.alpha_v[1] == pytest.approx(2 * THETA_REF, abs=1e-13)

    def test_clamp_flag(self, tetra):
        st = evaluate(tetra, np.array([40.0, 0.0, 0.0, 0.0]))
        assert st.clamped
        assert np.all(np.isfinite(st.L)) and np.all(np.isfinite(st.J))

    def test_edgeless_complex(self):
        from cpflow.surface import SurfaceComplex
        lone = SurfaceComplex(1, (), ((),), np.zeros(0))
        st = evaluate(lone, np.zeros(1))
        assert st.L.tolist() == [0.0] and st.diag.tolist() == [0.0]

    def test_input_errors(self, tetra):
        with pytest.raises(InputError):
            evaluate(tetra, np.zeros(3))
        with pytest.raises(InputError):
            evaluate(tetra, np.array([0.0, np.nan, 0.0, 0.0]))
        broken = fixtures.bigon()
        from cpflow.surface import SurfaceComplex
        loopy = SurfaceComplex(2, ((0, 0), (0, 1)), ((0, 1), (0, 1)),
                               np.full(2, 1.0))
        with pytest.raises(InputError):
            evaluate(loopy, np.zeros(2))


# L and diag(J) at points whose radii lie within 1e-12 of 0 or pi/2 at
# some vertices, evaluated once with mpmath at 50 digits from the
# closed-form kernel (the angle phi taken as the exact double) and rounded
# to doubles.  Radii reconstructed as r = pi/2 - delta lose the digits of
# cos r there: relative errors of 8.6e-6 (tetrahedron) and 7.4e-5 (torus).
MPMATH_REFERENCE = {
    "tetrahedron": (
        fixtures.tetrahedron,
        (-25.0, 1.0, -5.0, 0.5),
        (6.837811176802768e-11, 7.869525037891181, 0.03326495809501982,
         6.421350511186773),
        (6.837811176802768e-11, 1.652700335240231, 0.03326391743238027,
         2.3212836448092204),
    ),
    "torus3x3": (
        lambda: fixtures.torus_grid(3, 3, 1.3),
        (-15.0, -27.0, 3.0, 0.0, 27.0, -10.0, 0.5, -20.0, 8.0),
        (1.7830825296959114e-06, 1.1989620780012555e-11, 7.805218637219673,
         4.768780926953124, 10.399999999996378, 7.40104525425585e-05,
         6.134312512966855, 8.656886674638945e-09, 10.385972537885664),
        (1.7830824393778219e-06, 1.1989620780008627e-11, 0.028394123096647104,
         2.357820067827141, 3.622235201063438e-12, 7.400989889517688e-05,
         1.7958253075411053, 8.656886671679577e-09, 0.014004088994669437),
    ),
}


class TestAccuracyNearTheClamp:
    @pytest.mark.parametrize("name", sorted(MPMATH_REFERENCE))
    def test_matches_mpmath(self, name):
        make, K, L_ref, diag_ref = MPMATH_REFERENCE[name]
        st = evaluate(make(), np.array(K))
        assert np.max(np.abs(st.L / np.array(L_ref) - 1.0)) <= 1e-13
        assert np.max(np.abs(st.diag / np.array(diag_ref) - 1.0)) <= 1e-13

    def test_clamp_is_a_bound_on_K(self, tetra):
        # Past |K| = ln cot RADIUS_CLAMP the state equals the clamped one.
        edge = np.array([K_CLAMP, -K_CLAMP, 0.0, 1.0])
        at_edge = evaluate(tetra, edge)
        beyond = evaluate(tetra, edge * np.array([1.5, 40.0, 1.0, 1.0]))
        assert not at_edge.clamped and beyond.clamped
        assert np.array_equal(beyond.L, at_edge.L)
        assert np.array_equal(beyond.diag, at_edge.diag)
        assert np.allclose(beyond.r[:2], (RADIUS_CLAMP, 0.5 * np.pi - RADIUS_CLAMP),
                           rtol=1e-12, atol=0.0)

    def test_radii_are_lazy(self, tetra):
        K = rng_for(33).uniform(-2.0, 2.0, 4)
        st = evaluate(tetra, K)
        assert "r" not in st.__dict__
        assert np.array_equal(st.r, k_to_r(K))


class TestJacobianStructure:
    @pytest.mark.parametrize("i", range(12))
    def test_random_states(self, i):
        c = random_instance(i)
        n = c.n_vertices
        K = rng_for(700 + i).uniform(-2.0, 2.0, n)
        st = evaluate(c, K)
        J = st.J
        assert np.max(np.abs(J - J.T)) <= 1e-12
        # zero pattern equals non-adjacency
        adj = np.zeros((n, n), dtype=bool)
        for v, w in c.edges:
            adj[v, w] = adj[w, v] = True
        off = ~np.eye(n, dtype=bool)
        assert np.all((J[off] != 0.0) == adj[off])
        assert np.all(J[off] <= 0.0)
        # strict diagonal dominance and positive spectrum
        dominance = np.diag(J) - np.sum(np.abs(J * off), axis=1)
        assert np.all(dominance > 0.0)
        assert np.linalg.eigvalsh(J)[0] > 0.0
        # analytic vs central differences, matrix-relative
        fd = fd_jacobian(c, K)
        assert np.max(np.abs(J - fd)) / np.max(np.abs(J)) <= 1e-6
        # curvature bounds
        assert np.all(st.L > 0.0)
        assert np.all(st.L <= 2.0 * c.degrees * np.pi)


def dense_incidence_assembly(complex, K):
    """Reference: (L, J, alpha_v) assembled from dense V x E incidence
    matrices, the way evaluate() did before it summed over the edge list."""
    r = np.clip(k_to_r(K), RADIUS_CLAMP, 0.5 * np.pi - RADIUS_CLAMP)
    ev, ew = complex.endpoint_arrays
    g = edge_side_geometry(r[ev], r[ew], complex.phi)
    n, m = complex.n_vertices, complex.n_edges
    sv = np.zeros((n, m))
    sw = np.zeros((n, m))
    sv[ev, np.arange(m)] = 1.0
    sw[ew, np.arange(m)] = 1.0
    L = sv @ g.L_v_side + sw @ g.L_w_side
    half = (sv * g.d_cross) @ sw.T
    J = half + half.T
    J.ravel()[:: n + 1] += sv @ (g.d_pair_v - g.d_cross) + sw @ (g.d_pair_w - g.d_cross)
    alpha_v = sv @ g.theta_v + sw @ g.theta_w
    return L, J, alpha_v


def assert_matches(actual, expected, scale=1.0):
    worst = float(np.max(np.abs(actual - expected)))
    assert worst <= 1e-13 * max(1.0, scale, float(np.max(np.abs(expected))))


EDGE_FORM_COMPLEXES = {
    "tetrahedron": fixtures.tetrahedron,
    "bigon": fixtures.bigon,          # parallel edges
    "cube": fixtures.cube_graph,
    "torus5x5": lambda: fixtures.torus_grid(5, 5, 1.3),
}


class TestEdgeFormAssembly:
    @pytest.mark.parametrize("name", sorted(EDGE_FORM_COMPLEXES))
    @pytest.mark.parametrize("k_max", (2.0, 50.0))
    def test_matches_dense_incidence_assembly(self, name, k_max):
        c = EDGE_FORM_COMPLEXES[name]()
        rng = rng_for(int(k_max) * 1000 + len(name))
        for _ in range(20):
            K = rng.uniform(-k_max, k_max, c.n_vertices)
            st = evaluate(c, K)
            L, J, alpha_v = dense_incidence_assembly(c, K)
            assert_matches(st.L, L)
            assert_matches(st.J, J)
            assert_matches(st.alpha_v, alpha_v)
            x = rng.standard_normal(c.n_vertices)
            assert_matches(st.jvp(x), st.J @ x,
                           scale=float(np.max(np.abs(J)) * np.max(np.abs(x))))

    def test_evaluate_memory_is_linear_in_edges(self):
        import tracemalloc
        c = fixtures.torus_grid(45, 45, 1.3)
        K = rng_for(31).uniform(-1.0, 1.0, c.n_vertices)
        tracemalloc.start()
        try:
            st = evaluate(c, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.L.shape == (c.n_vertices,)
        # a dense 2025 x 2025 Jacobian alone would take 31 MiB
        assert peak < 8 * 2 ** 20

    def test_dense_jacobian_is_lazy_and_cached(self, tetra):
        st = evaluate(tetra, np.zeros(4))
        assert "J" not in st.__dict__ and "eigenvalues" not in st.__dict__
        assert st.J is st.J

    @pytest.mark.parametrize("make", [fixtures.tetrahedron, fixtures.bigon,
                                      lambda: fixtures.torus_grid(3, 3, 1.3)])
    def test_strict_dominance_over_runner_range(self, make):
        # |K| <= 50 is everything the runner visits before divergence_k.
        c = make()
        n = c.n_vertices
        ev, ew = c.endpoint_arrays
        off = ~np.eye(n, dtype=bool)
        rng = rng_for(32 + n)
        for _ in range(200):
            st = evaluate(c, rng.uniform(-50.0, 50.0, n))
            g = _edge_geometry(c, st.K)
            assert np.all(g.d_pair_v > 0.0) and np.all(g.d_pair_w > 0.0)
            # Row i of J exceeds its off-diagonal mass by exactly the sum of
            # d(L_v + L_w)/dK_v over the edge ends at i.
            surplus = np.bincount(ev, g.d_pair_v, n) + np.bincount(ew, g.d_pair_w, n)
            assert np.all(surplus > 0.0)
            diag = np.diag(st.J)
            dominance = diag - np.sum(np.abs(st.J * off), axis=1)
            # Doubles hold that surplus only to the rounding of the diagonal
            # (one rounding per summed term); where it exceeds that
            # rounding, the stored rows must show it.
            slack = (2 * c.degrees + 1) * np.spacing(diag)
            assert np.all(np.abs(dominance - surplus) <= slack)
            assert np.all(dominance[surplus > slack] > 0.0)


def plain_energy(L):
    """Half the squared norm of L itself: the energy against Lhat = 0."""
    return prescribed_calabi_energy(L, np.zeros_like(L))


class TestEnergies:
    def test_zero(self):
        assert plain_energy(np.zeros(5)) == 0.0

    def test_tetra_reference(self, tetra_state):
        assert plain_energy(tetra_state.L) == pytest.approx(ENERGY_REF, abs=1e-10)

    def test_quadratic_scaling(self):
        L = rng_for(17).uniform(0.5, 3.0, 6)
        assert plain_energy(3.0 * L) == pytest.approx(9.0 * plain_energy(L), rel=1e-14)

    def test_prescribed_at_target(self, tetra_state):
        p = Prescription(tetra_state.L.copy())
        assert prescribed_calabi_energy(tetra_state.L, p) == 0.0

    def test_prescribed_reduces_to_plain(self, tetra_state):
        L = tetra_state.L
        assert prescribed_calabi_energy(L, np.zeros(4)) \
            == pytest.approx(0.5 * float(np.dot(L, L)), rel=1e-15)

    def test_single_vertex_perturbation(self, tetra_state):
        p = Prescription(tetra_state.L.copy())
        bumped = tetra_state.L.copy()
        bumped[2] += 0.125
        assert prescribed_calabi_energy(bumped, p) == pytest.approx(0.5 * 0.125 ** 2, rel=1e-14)

    def test_dimension_mismatch(self, tetra_state):
        with pytest.raises(InputError):
            prescribed_calabi_energy(tetra_state.L, Prescription(np.ones(3)))


class TestPotential:
    def test_zero_at_base(self, tetra):
        p = Prescription(np.full(4, 2.0))
        K = rng_for(18).uniform(-1, 1, 4)
        assert potential(tetra, p, K, base=K) == 0.0
        assert potential(tetra, p, np.zeros(4)) == 0.0

    def test_gradient_matches_curvature_error(self, tetra):
        p = Prescription(evaluate(tetra, rng_for(19).uniform(-0.8, 0.8, 4)).L.copy())
        K = rng_for(20).uniform(-0.8, 0.8, 4)
        exact = evaluate(tetra, K).L - p.lhat

        h = 1e-5
        grad = np.empty(4)
        for i in range(4):
            up, dn = K.copy(), K.copy()
            up[i] += h
            dn[i] -= h
            grad[i] = (potential(tetra, p, up, tol=1e-13)
                       - potential(tetra, p, dn, tol=1e-13)) / (2 * h)
        rel = np.abs(grad - exact) / np.maximum(np.abs(exact), 1e-8)
        assert np.max(rel) <= 1e-6

    def test_path_independence(self, tetra):
        p = Prescription(np.full(4, 3.0))
        rng = rng_for(21)
        K = rng.uniform(-1.0, 1.0, 4)
        mid = rng.uniform(-1.0, 1.0, 4)
        direct = potential(tetra, p, K)
        two_leg = potential(tetra, p, mid) + potential(tetra, p, K, base=mid)
        assert abs(direct - two_leg) <= 1e-9

    def test_hessian_is_jacobian_transpose(self, tetra):
        p = Prescription(np.full(4, 3.0))
        K = rng_for(22).uniform(-0.6, 0.6, 4)
        J = evaluate(tetra, K).J

        h = 2e-3
        def f(dk):
            return potential(tetra, p, K + dk, tol=1e-12)
        H = np.empty((4, 4))
        f0 = f(np.zeros(4))
        for i in range(4):
            ei = np.zeros(4); ei[i] = h
            H[i, i] = (f(ei) - 2 * f0 + f(-ei)) / h ** 2
            for j in range(i + 1, 4):
                ej = np.zeros(4); ej[j] = h
                H[i, j] = H[j, i] = (f(ei + ej) - f(ei - ej)
                                     - f(-ei + ej) + f(-ei - ej)) / (4 * h ** 2)
        assert np.max(np.abs(H - J.T)) / np.max(np.abs(J)) <= 1e-5

    def test_quadrature_budget_error(self, tetra):
        p = Prescription(np.full(4, 3.0))
        with pytest.raises(QuadratureError) as exc_info:
            potential(tetra, p, np.full(4, 1.0), tol=1e-30, max_bisections=0)
        assert math.isfinite(exc_info.value.estimate)


class TestVelocityBound:
    def test_reference_value(self, tetra):
        p = Prescription(np.full(4, L_REF))
        # direct evaluation: 4 sqrt(4) (3 pi + 3)(6 pi + L)
        direct = 4 * math.sqrt(4) * (3 * math.pi + 3) * (6 * math.pi + L_REF)
        assert velocity_bound(tetra, p) == pytest.approx(direct, rel=1e-14)
        assert velocity_bound(tetra, p) == pytest.approx(VELOCITY_BOUND_REF, rel=1e-12)

    def test_halving_angles_increases_bound(self, tetra):
        p = Prescription(np.full(4, L_REF))
        smaller = fixtures.tetrahedron(phi=np.pi / 4)
        assert velocity_bound(smaller, p) > velocity_bound(tetra, p)

    def test_bounds_flow_speed(self, tetra):
        inst = make_synthetic(tetra, seed=23)
        bound = velocity_bound(tetra, inst.prescription)
        from cpflow import calabi_direction
        rng = rng_for(24)
        for _ in range(100):
            K = rng.uniform(-3.0, 3.0, 4)
            rhs = calabi_direction(evaluate(tetra, K), inst.prescription)
            assert np.linalg.norm(rhs) <= bound
