import io
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cpflow.curvature

from cpflow import (FlowConfig, InputError, Prescription, evaluate, fixtures,
                    make_synthetic, potential, run)
from cpflow.curvature import (K_CLAMP, LANCZOS_CUT, RADIUS_CLAMP,
                               gershgorin_bound, smallest_eigenvalue)
from cpflow.flow import integrator
from cpflow.geometry import _edge_derivatives
from cpflow.instancefile import fmt, write_solution
from cpflow.oracle import rng_for
from conftest import RKF45_CONFIG, random_instance
from edge_geometry import edge_side_geometry, k_to_r
from fd_oracle import fd_jacobian
from potential_quadrature import QuadratureError, potential_quadrature
from velocity_bound import degrees, velocity_bound

# Tetrahedron with phi = pi/2 at K = 0, frozen from direct evaluation of
# the edge kernel (theta = arccos(-1/3)) and confirmed by finite
# differences.
THETA_REF = 1.9106332362490186
L_REF = 4.05306515313624               # 3 * THETA_REF * cos(pi/4)
ALPHA_REF = 5.731899708747056          # 3 * THETA_REF
J_DIAG_REF = 3.02653257656812          # 3 * (d_pair - d_cross)
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
        assert np.allclose(st.theta_sides[0], THETA_REF, atol=1e-14)
        assert np.allclose(st.theta_sides[1], THETA_REF, atol=1e-14)
        assert np.allclose(st.L, L_REF, atol=1e-13)
        assert np.allclose(st.alpha_v, ALPHA_REF, atol=1e-13)
        assert np.allclose(st.complex.face_cone_angles, 3 * np.pi / 2, atol=1e-14)
        assert np.allclose(np.diag(st.J), J_DIAG_REF, atol=1e-13)
        off = st.J[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -2.0 / 3.0, atol=1e-13)
        assert not st.clamped

    def test_theta_lookup(self, tetra_state):
        # theta_sides[0, e] is the side of edge e's first endpoint,
        # theta_sides[1, e] the side of its second.
        assert tetra_state.theta_sides[0, 0] == pytest.approx(THETA_REF, abs=1e-14)
        assert tetra_state.theta_sides[1, 0] == pytest.approx(THETA_REF, abs=1e-14)

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
        # L and J vanish identically without edges, so no flow or Newton
        # step is defined: the complex is invalid.
        from cpflow.surface import SurfaceComplex
        lone = SurfaceComplex(1, (), ((),), np.zeros(0))
        with pytest.raises(InputError, match="complex has no edges"):
            evaluate(lone, np.zeros(1))

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


# Each caller of the one coordinate check, with the name it reports and
# whether it holds K within the radius clamp.
COORDINATE_CALLERS = {
    "evaluate": ("K", False, lambda c, p, K: evaluate(c, K)),
    "run": ("K0", True, lambda c, p, K: run(c, p, K)),
    "potential-K": ("K", True, lambda c, p, K: potential(c, p, K)),
    "potential-base": ("base", True,
                       lambda c, p, K: potential(c, p, np.zeros(4), K)),
}
COORDINATE_DEFECTS = {
    "length": (np.zeros(3), "{} must be a vector of length 4"),
    "shape": (np.zeros((4, 1)), "{} must be a vector of length 4"),
    "nan": (np.array([0.0, np.nan, 0.0, 0.0]), "{} must be finite"),
    "clamp": (np.array([0.0, 0.0, -1.5 * K_CLAMP, 0.0]),
              "{} lies past the radius clamp"),
}


@pytest.mark.parametrize("caller, defect", [
    (caller, defect) for caller, (_, clamps, _) in COORDINATE_CALLERS.items()
    for defect in COORDINATE_DEFECTS if clamps or defect != "clamp"])
def test_coordinate_rejections_share_one_wording(tetra, caller, defect):
    name, _, call = COORDINATE_CALLERS[caller]
    K, message = COORDINATE_DEFECTS[defect]
    with pytest.raises(InputError) as exc_info:
        call(tetra, Prescription(np.full(4, 3.0)), K)
    assert str(exc_info.value) == message.format(name)


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
        assert np.max(np.abs(st.edge_form[0] / np.array(diag_ref) - 1.0)) <= 1e-13

    def test_clamp_is_a_bound_on_K(self, tetra):
        # Past |K| = ln cot RADIUS_CLAMP the state equals the clamped one.
        edge = np.array([K_CLAMP, -K_CLAMP, 0.0, 1.0])
        at_edge = evaluate(tetra, edge)
        beyond = evaluate(tetra, edge * np.array([1.5, 40.0, 1.0, 1.0]))
        assert not at_edge.clamped and beyond.clamped
        assert np.array_equal(beyond.L, at_edge.L)
        assert np.array_equal(beyond.edge_form[0], at_edge.edge_form[0])
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
        assert np.all(st.L <= 2.0 * degrees(c) * np.pi)


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
    L = sv @ g.L_side[0] + sw @ g.L_side[1]
    half = (sv * g.d_cross) @ sw.T
    J = half + half.T
    J.ravel()[:: n + 1] += sv @ (g.d_pair[0] - g.d_cross) + sw @ (g.d_pair[1] - g.d_cross)
    alpha_v = sv @ g.theta[0] + sw @ g.theta[1]
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

    def test_edge_form_is_lazy(self, tetra):
        st = evaluate(tetra, np.zeros(4))
        assert np.all(st.L > 0.0) and np.all(st.alpha_v > 0.0)
        assert "edge_form" not in st.__dict__
        diag, d_cross = st.edge_form
        # One read stores both halves of the edge form.
        assert st.__dict__["edge_form"] is st.edge_form
        assert st.edge_form[0] is diag and st.edge_form[1] is d_cross

    @pytest.mark.parametrize("make", [fixtures.tetrahedron, fixtures.bigon,
                                      lambda: fixtures.torus_grid(3, 3, 1.3)])
    def test_read_order_keeps_every_byte(self, make):
        # |K| <= 50 reaches far past the clamp (about 27.63).
        c = make()
        rng = rng_for(35 + c.n_vertices)
        orders = (("diag", "d_cross", "J", "L"), ("L", "J", "d_cross", "diag"),
                  ("d_cross", "L", "diag", "J"), ("J", "L", "diag", "d_cross"))
        read = {"diag": lambda st: st.edge_form[0],
                "d_cross": lambda st: st.edge_form[1],
                "J": lambda st: st.J, "L": lambda st: st.L}
        clamped = 0
        for _ in range(50):
            K = rng.uniform(-50.0, 50.0, c.n_vertices)
            reads = []
            for order in orders:
                st = evaluate(c, K)
                reads.append({name: read[name](st).tobytes()
                              for name in order})
            clamped += st.clamped
            assert all(r == reads[0] for r in reads[1:])
        assert clamped >= 10

    @pytest.mark.parametrize("make", [fixtures.tetrahedron, fixtures.bigon,
                                      lambda: fixtures.torus_grid(3, 3, 1.3)])
    def test_strict_dominance_over_runner_range(self, make):
        # |K| <= 50 covers, with room to spare, every K the runner visits:
        # it stops at the first sample past K_CLAMP (about 27.63).
        c = make()
        n = c.n_vertices
        ev, ew = c.endpoint_arrays
        off = ~np.eye(n, dtype=bool)
        rng = rng_for(32 + n)
        for _ in range(200):
            st = evaluate(c, rng.uniform(-50.0, 50.0, n))
            d_pair = _edge_derivatives(c.cross_scale, st.sin_r_sides,
                                       st.cos_r_sides, st.half_sides,
                                       st.theta_sides)[1]
            assert np.all(d_pair > 0.0)
            # Row i of J exceeds its off-diagonal mass by exactly the sum of
            # d(L_v + L_w)/dK_v over the edge ends at i.
            surplus = np.bincount(ev, d_pair[0], n) + np.bincount(ew, d_pair[1], n)
            assert np.all(surplus > 0.0)
            diag = np.diag(st.J)
            dominance = diag - np.sum(np.abs(st.J * off), axis=1)
            # Doubles hold that surplus only to the rounding of the diagonal
            # (one rounding per summed term); where it exceeds that
            # rounding, the stored rows must show it.
            slack = (2 * degrees(c) + 1) * np.spacing(diag)
            assert np.all(np.abs(dominance - surplus) <= slack)
            assert np.all(dominance[surplus > slack] > 0.0)


class TestSmallestEigenvalue:
    def test_exact_up_to_the_cut(self):
        c = fixtures.torus_grid(8, 8, phi=1.3)
        state = evaluate(c, make_synthetic(c, seed=87, k_range=(-1.0, 1.0)).kbar)
        assert c.n_vertices == LANCZOS_CUT
        assert smallest_eigenvalue(state, 1e-14) == state.min_eigenvalue

    def test_lanczos_matches_the_dense_spectrum(self):
        c = fixtures.torus_grid(20, 20, phi=1.3)
        state = evaluate(c, make_synthetic(c, seed=89, k_range=(-1.0, 1.0)).kbar)
        lam = smallest_eigenvalue(state, 1e-14)
        exact = np.linalg.eigvalsh(state.J)[0]
        assert abs(lam / exact - 1.0) <= 1e-12


class TestGershgorinBound:
    """Both integrators' stiffness, so RKF45's step ceiling, rests on
    (1 + 1e-10) g >= the computed lambda_max."""

    @pytest.mark.parametrize("make", [
        fixtures.tetrahedron, fixtures.bigon, fixtures.cube_graph,
        fixtures.torus_grid, lambda: fixtures.necklace(4),
        lambda: fixtures.prism(5), lambda: fixtures.bipyramid(5),
    ], ids=["tetrahedron", "bigon", "cube", "torus3x3", "necklace4",
            "prism5", "bipyramid5"])
    def test_bounds_the_spectrum(self, make):
        c = make()
        rng = rng_for(90)
        for _ in range(200):
            # Scales from 1e-2 to 1 of the clamp, so both the bulk and the
            # near-frozen geometry are sampled.
            scale = K_CLAMP * 10.0 ** rng.uniform(-2.0, 0.0)
            state = evaluate(c, rng.uniform(-scale, scale, c.n_vertices))
            lam = np.linalg.eigvalsh(state.J)[-1]
            assert (1.0 + 1e-10) * gershgorin_bound(state) >= lam

    def test_is_twice_the_diagonal_less_the_row_sums(self):
        # The row sums J 1, bit for bit as jvp computes them.
        c = fixtures.torus_grid(4, 5, phi=1.2)
        rng = rng_for(92)
        for _ in range(20):
            state = evaluate(c, rng.uniform(-5.0, 5.0, c.n_vertices))
            ones = np.ones(c.n_vertices)
            assert gershgorin_bound(state) == float(
                (2.0 * state.edge_form[0] - state.jvp(ones)).max())

    def test_tight_on_the_symmetric_bigon(self):
        # J = [[d, c], [c, d]] has lambda_max = d - c, the bound itself,
        # so only the slack covers rounding here.
        for k in (-20.0, -1.0, 0.0, 0.7, 20.0):
            state = evaluate(fixtures.bigon(1.1), np.array([k, k]))
            lam = np.linalg.eigvalsh(state.J)[-1]
            assert abs(gershgorin_bound(state) / lam - 1.0) <= 1e-14


class TestUniformGershgorinBound:
    """A constant of the complex bounds the Gershgorin bound at every K.

    Row v of the bound is sum_{e at v} (d_pair + 2 |d_cross|), with d_pair
    at most 2 pi / (3 sqrt 3) (the largest sin^2 r cos r, times pi) and
    |d_cross| at most 2 / sin phi, so at no K, clamped or not, does the
    bound pass max_v sum_{e at v} (2 pi / (3 sqrt 3) + 4 / sin phi_e).
    """

    @pytest.mark.parametrize("phi", [0.2, 1.3, 0.5 * math.pi],
                             ids=["0.2", "1.3", "pi/2"])
    @pytest.mark.parametrize("make", [
        fixtures.tetrahedron, fixtures.bigon, fixtures.cube_graph,
        fixtures.torus_grid, lambda phi: fixtures.necklace(4, phi),
        lambda phi: fixtures.prism(5, phi),
        lambda phi: fixtures.bipyramid(5, phi),
    ], ids=["tetrahedron", "bigon", "cube", "torus3x3", "necklace4",
            "prism5", "bipyramid5"])
    def test_bounds_the_gershgorin_bound(self, make, phi):
        c = make(phi=phi)
        per_end = 2.0 * math.pi / (3.0 * math.sqrt(3.0)) + 4.0 / c.sin_phi
        bound = np.bincount(c.endpoint_arrays.ravel(),
                            np.concatenate((per_end, per_end)),
                            c.n_vertices).max()
        rng = np.random.default_rng(91)
        for _ in range(100):
            # Up to one past the clamp, so clamped states are drawn too.
            scale = (K_CLAMP + 1.0) * 10.0 ** rng.uniform(-2.0, 0.0)
            state = evaluate(c, rng.uniform(-scale, scale, c.n_vertices))
            g = gershgorin_bound(state)
            assert bound >= g
            assert (1.0 + 1e-10) * g >= state.max_eigenvalue


# Calabi under RKF45 and at a loose tol_ode (damped RKC), the curvature
# flow and Newton.
ENERGY_CONFIGS = {
    "calabi": RKF45_CONFIG,
    "calabi-rkc": FlowConfig(tol_ode=1e-4),
    "curvature": FlowConfig(method="curvature"),
    "newton": FlowConfig(method="newton"),
}


def planted_run(config):
    inst = make_synthetic(fixtures.cube_graph(), seed=26)
    k0 = inst.kbar + rng_for(27).uniform(-0.5, 0.5, inst.complex.n_vertices)
    return inst, run(inst.complex, inst.prescription, k0, config)


class TestEnergies:
    """The Calabi energy 0.5 ||L - Lhat||^2 has one formula: the one that
    ``flow.run`` records as ``FlowSample.energy``."""

    def test_prescribed_at_target(self, tetra, tetra_state):
        trace = run(tetra, Prescription(tetra_state.L.copy()), np.zeros(4))
        assert trace.samples[0].energy == 0.0

    def test_single_vertex_perturbation(self, tetra, tetra_state):
        bumped = tetra_state.L.copy()
        bumped[2] += 0.125
        trace = run(tetra, Prescription(bumped), np.zeros(4))
        assert trace.samples[0].energy == pytest.approx(0.5 * 0.125 ** 2, rel=1e-14)

    def test_configs_cover_both_calabi_integrators(self):
        assert {integrator(c) for c in ENERGY_CONFIGS.values()
                if c.method == "calabi"} == {"rkc", "rkf45"}

    @pytest.mark.parametrize("name", ENERGY_CONFIGS)
    def test_every_sample_is_half_the_squared_error(self, name):
        inst, trace = planted_run(ENERGY_CONFIGS[name])
        assert trace.verdict == "converged" and len(trace.samples) > 2
        for s in trace.samples:
            d = evaluate(inst.complex, s.K).L - inst.prescription.lhat
            assert s.energy == 0.5 * float(np.dot(d, d))

    @pytest.mark.parametrize("name", ENERGY_CONFIGS)
    def test_solution_file_writes_the_final_sample_energy(self, name):
        inst, trace = planted_run(ENERGY_CONFIGS[name])
        out = io.StringIO()
        write_solution(out, trace, inst.complex, inst.prescription)
        assert f"# final_energy {fmt(trace.final.energy)}\n" in out.getvalue()


class TestPotential:
    def test_import_computes_no_cl2_coefficient(self):
        # Only potential reads the exact Cl_2 series, so importing the
        # package (the CLI included) neither computes it nor pulls in
        # fractions; the oracle comparisons below guard its values.
        code = ("import sys, cpflow.cli, cpflow.curvature as c; "
                "print('fractions' in sys.modules, "
                "c._cl2_series.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "False 0\n"

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
            grad[i] = (potential(tetra, p, up)
                       - potential(tetra, p, dn)) / (2 * h)
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
            return potential(tetra, p, K + dk)
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

    def test_checks_once_however_long_the_segment(self, monkeypatch):
        # However long the segment, the closed form evaluates its two ends.
        c = fixtures.torus_grid(3, 3)
        p = Prescription(np.full(9, 3.0))
        checks, nodes = [], []
        for name, calls in (("check_instance", checks), ("_evaluate", nodes)):
            def counted(*args, real=getattr(cpflow.curvature, name),
                        calls=calls):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(cpflow.curvature, name, counted)
        counts = []
        for scale in (1e-3, 10.0):
            before, before_nodes = len(checks), len(nodes)
            potential(c, p, scale * rng_for(25).uniform(-1.0, 1.0, 9))
            counts.append((len(checks) - before, len(nodes) - before_nodes))
        (short, short_nodes), (long, long_nodes) = counts
        assert short == long > 0
        assert short_nodes == long_nodes == 2

    def test_infinite_base_rejected_without_a_warning(self, tetra):
        p = Prescription(np.full(4, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="finite"):
                potential(tetra, p, np.zeros(4), base=np.full(4, np.inf))

    @pytest.mark.parametrize("K, base", [
        (np.zeros(3), None), (np.zeros(4), np.zeros(3)),
        (np.zeros((4, 1)), None)], ids=["K", "base", "K-2d"])
    def test_shape_mismatch_rejected(self, tetra, K, base):
        with pytest.raises(InputError, match="must be a vector of length 4"):
            potential(tetra, Prescription(np.ones(4)), K, base)

    def test_quadrature_budget_error(self, tetra):
        p = Prescription(np.full(4, 3.0))
        with pytest.raises(QuadratureError) as exc_info:
            potential_quadrature(tetra, p, np.full(4, 1.0), tol=1e-30,
                                 max_bisections=0)
        assert math.isfinite(exc_info.value.estimate)

    @staticmethod
    def assert_matches_quadrature(c, p, K, base=None):
        exact = potential(c, p, K, base)
        quad = potential_quadrature(c, p, K, base, tol=1e-12)
        assert abs(exact - quad) <= 1e-13 * max(1.0, abs(quad))

    def test_matches_quadrature_on_criterion_3_samples(self):
        for idx, make in enumerate((fixtures.tetrahedron, fixtures.bigon)):
            c = make()
            n = c.n_vertices
            p = Prescription(evaluate(
                c, rng_for(1_200_000 + idx).uniform(-0.8, 0.8, n)).L.copy())
            K = rng_for(1_200_100 + idx).uniform(-0.8, 0.8, n)
            mid = rng_for(1_200_200 + idx).uniform(-1.0, 1.0, n)
            self.assert_matches_quadrature(c, p, K)
            self.assert_matches_quadrature(c, p, mid)
            self.assert_matches_quadrature(c, p, K, mid)

    @pytest.mark.parametrize("make", [
        fixtures.tetrahedron, fixtures.bigon, fixtures.cube_graph,
        fixtures.torus_grid, lambda: fixtures.necklace(6),
        lambda: fixtures.prism(5), lambda: fixtures.bipyramid(5)],
        ids=["tetrahedron", "bigon", "cube", "torus", "necklace6", "prism5",
             "bipyramid5"])
    def test_matches_quadrature_up_to_the_clamp(self, make):
        c = make()
        n = c.n_vertices
        rng = rng_for(2_600 + n)
        p = Prescription(evaluate(c, rng.uniform(-0.8, 0.8, n)).L.copy())
        for scale in (3.0, K_CLAMP):
            self.assert_matches_quadrature(
                c, p, rng.uniform(-scale, scale, n),
                rng.uniform(-scale, scale, n))

    def test_points_past_the_clamp_rejected(self, tetra):
        p = Prescription(np.full(4, 3.0))
        past = np.array([0.0, 0.0, 1.01 * K_CLAMP, 0.0])
        for K, base in ((past, None), (np.zeros(4), -past)):
            with pytest.raises(InputError, match="clamp"):
                potential(tetra, p, K, base)
        at = np.array([K_CLAMP, -K_CLAMP, 0.0, 1.0])
        assert math.isfinite(potential(tetra, p, at, -at))


class TestVelocityBound:
    def test_reference_value(self, tetra):
        p = Prescription(np.full(4, L_REF))
        # direct evaluation: 4 sqrt(4) (3 pi + 3)(6 pi + L)
        direct = 4 * math.sqrt(4) * (3 * math.pi + 3) * (6 * math.pi + L_REF)
        assert velocity_bound(tetra, p) == pytest.approx(direct, rel=1e-14)
        assert velocity_bound(tetra, p) == pytest.approx(VELOCITY_BOUND_REF, rel=1e-12)

    def test_subnormal_angle_gives_an_infinite_bound(self):
        # 1 / sin phi overflows: the bound is vacuous, and no warning.
        c = fixtures.bigon(np.array([1e-320, 0.5 * math.pi]))
        assert velocity_bound(c, Prescription(np.ones(2))) == math.inf

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
