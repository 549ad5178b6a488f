"""Acceptance suite: every release criterion at its contractual tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all even on success).  The shared 250-run flow campaign behind criteria
4-7 lives in the session fixture ``planted_runs``.
"""

import math
import time

import numpy as np
import pytest

from cpflow import (FlowConfig, Prescription, check_mincut, evaluate,
                    fit_decay_rate, fixtures, k_to_r, parse_instance,
                    potential, r_to_k, run, serialize_instance, velocity_bound)
from cpflow.cli import main
from cpflow.feasibility import check_bruteforce
from cpflow.geometry import edge_side_geometry
from cpflow.oracle import rng_for
from conftest import (ACCEPTANCE_CONFIG, random_instance, random_prescription,
                      single_vertex_violator)
from fd_oracle import fd_jacobian


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_variational_kernel():
    t0 = time.perf_counter()
    rng = rng_for(1_000_001)
    n = 10_000
    rv = rng.uniform(0.2, math.pi / 2 - 0.2, n)
    rw = rng.uniform(0.2, math.pi / 2 - 0.2, n)
    phi = rng.uniform(0.3, math.pi / 2, n)
    g = edge_side_geometry(rv, rw, phi)
    swapped = edge_side_geometry(rw, rv, phi)

    kv, kw = r_to_k(rv), r_to_k(rw)
    h = 1e-5

    def pair_sum(kv_, kw_):
        gg = edge_side_geometry(k_to_r(kv_), k_to_r(kw_), phi)
        return gg.L_side[0] + gg.L_side[1]

    def v_side(kv_, kw_):
        return edge_side_geometry(k_to_r(kv_), k_to_r(kw_), phi).L_side[0]

    fd_cross = (v_side(kv, kw + h) - v_side(kv, kw - h)) / (2 * h)
    fd_pair = (pair_sum(kv + h, kw) - pair_sum(kv - h, kw)) / (2 * h)

    rel_cross = float(np.max(np.abs(fd_cross - g.d_cross) / np.abs(g.d_cross)))
    rel_pair = float(np.max(np.abs(fd_pair - g.d_pair[0]) / np.abs(g.d_pair[0])))
    sym = float(np.max(np.abs(g.d_cross - swapped.d_cross)))
    sine = float(np.max(np.abs(np.sin(g.theta[0] / 2) / np.sin(rw)
                               - np.sin(g.theta[1] / 2) / np.sin(rv))))
    elapsed = time.perf_counter() - t0

    assert np.all((g.theta[0] > 0.0) & (g.theta[0] < math.pi))
    assert np.all(g.d_cross < 0.0) and np.all(g.d_pair[0] > 0.0)
    ok = (rel_cross <= 1e-6 and rel_pair <= 1e-6 and sym <= 1e-13
          and sine <= 1e-12 and elapsed < 5.0)
    report(1, "variational kernel", ok,
           f"fd_cross {rel_cross:.2e}, fd_pair {rel_pair:.2e}, sym {sym:.2e}, "
           f"sine {sine:.2e}, {elapsed:.2f}s")


def test_criterion_02_jacobian_structure():
    worst_sym = worst_fd = 0.0
    min_eig = np.inf
    for i in range(200):
        c = random_instance(i, max_vertices=12)
        K = rng_for(1_100_000 + i).uniform(-2.0, 2.0, c.n_vertices)
        st = evaluate(c, K)
        J = st.J
        n = c.n_vertices
        worst_sym = max(worst_sym, float(np.max(np.abs(J - J.T))))
        off = ~np.eye(n, dtype=bool)
        adj = np.zeros((n, n), dtype=bool)
        for v, w in c.edges:
            adj[v, w] = adj[w, v] = True
        assert np.all((J[off] != 0.0) == adj[off]), f"zero pattern, instance {i}"
        dominance = np.diag(J) - np.sum(np.abs(J * off), axis=1)
        assert np.all(dominance > 0.0), f"diagonal dominance, instance {i}"
        min_eig = min(min_eig, st.min_eigenvalue)
        fd = fd_jacobian(c, K)
        worst_fd = max(worst_fd, float(np.max(np.abs(J - fd)) / np.max(np.abs(J))))
    ok = worst_sym <= 1e-12 and min_eig > 0.0 and worst_fd <= 1e-6
    report(2, "jacobian structure", ok,
           f"sym {worst_sym:.2e}, min eig {min_eig:.3g}, fd {worst_fd:.2e}")


def test_criterion_03_potential():
    worst_grad = worst_path = worst_hess = 0.0
    for idx, make in enumerate((fixtures.tetrahedron, fixtures.bigon)):
        c = make()
        n = c.n_vertices
        lhat = Prescription(evaluate(
            c, rng_for(1_200_000 + idx).uniform(-0.8, 0.8, n)).L.copy())
        K = rng_for(1_200_100 + idx).uniform(-0.8, 0.8, n)
        exact = evaluate(c, K).L - lhat.lhat

        h = 1e-5
        for i in range(n):
            up, dn = K.copy(), K.copy()
            up[i] += h
            dn[i] -= h
            grad = (potential(c, lhat, up) - potential(c, lhat, dn)) / (2 * h)
            worst_grad = max(worst_grad,
                             abs(grad - exact[i]) / max(abs(exact[i]), 1e-8))

        mid = rng_for(1_200_200 + idx).uniform(-1.0, 1.0, n)
        direct = potential(c, lhat, K)
        legs = potential(c, lhat, mid) + potential(c, lhat, K, base=mid)
        worst_path = max(worst_path, abs(direct - legs))

        J = evaluate(c, K).J
        hh = 2e-3
        H = np.empty((n, n))
        f0 = potential(c, lhat, K)
        for i in range(n):
            ei = np.zeros(n); ei[i] = hh
            H[i, i] = (potential(c, lhat, K + ei) - 2 * f0
                       + potential(c, lhat, K - ei)) / hh ** 2
            for j in range(i + 1, n):
                ej = np.zeros(n); ej[j] = hh
                H[i, j] = H[j, i] = (
                    potential(c, lhat, K + ei + ej)
                    - potential(c, lhat, K + ei - ej)
                    - potential(c, lhat, K - ei + ej)
                    + potential(c, lhat, K - ei - ej)) / (4 * hh ** 2)
        worst_hess = max(worst_hess,
                         float(np.max(np.abs(H - J.T)) / np.max(np.abs(J))))

    ok = worst_grad <= 1e-6 and worst_path <= 1e-9 and worst_hess <= 1e-5
    report(3, "potential", ok,
           f"grad {worst_grad:.2e}, paths {worst_path:.2e}, hessian {worst_hess:.2e}")


def test_criterion_04_planted_recovery(planted_runs):
    instances, traces, elapsed = planted_runs
    worst_err = worst_dk = 0.0
    for (name, inst), per_instance in zip(instances, traces):
        for k0, trace in per_instance:
            assert trace.verdict == "converged", (name, trace.verdict)
            worst_err = max(worst_err, trace.final.err_inf)
            worst_dk = max(worst_dk,
                           float(np.max(np.abs(trace.final_k() - inst.kbar))))
    ok = worst_err <= 1e-10 and worst_dk <= 1e-8 and elapsed < 60.0
    report(4, "planted recovery", ok,
           f"250 runs, err {worst_err:.2e}, |K-Kbar| {worst_dk:.2e}, {elapsed:.1f}s")


def test_criterion_05_method_equivalence(planted_runs):
    instances, traces, _ = planted_runs
    worst = 0.0
    for (name, inst), per_instance in zip(instances, traces):
        k0, calabi_trace = per_instance[0]
        finals = [calabi_trace.final_k()]
        curvature = run(inst.complex, inst.prescription, k0,
                        FlowConfig(method="curvature", tol_ode=1e-4,
                                   tol_curvature=3e-11, max_time=4e4))
        assert curvature.verdict == "converged", name
        finals.append(curvature.final_k())
        newton = run(inst.complex, inst.prescription, k0,
                     FlowConfig(method="newton", tol_curvature=3e-12))
        assert newton.verdict == "converged", name
        finals.append(newton.final_k())
        for a in finals:
            for b in finals:
                worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-8
    report(5, "method equivalence", ok, f"pairwise max {worst:.2e}")


def test_criterion_06_exponential_decay(planted_runs):
    _, traces, _ = planted_runs
    worst_r2 = 1.0
    worst_slope = -np.inf
    worst_increase = 0.0
    for per_instance in traces:
        for _, trace in per_instance:
            fit = fit_decay_rate(trace)
            worst_slope = max(worst_slope, fit.slope)
            worst_r2 = min(worst_r2, fit.r_squared)
            E = np.array([s.energy for s in trace.samples])
            if len(E) > 1:
                worst_increase = max(worst_increase, float(np.max(np.diff(E))))
    ok = worst_slope < 0.0 and worst_r2 >= 0.99 and worst_increase <= 1e-9
    report(6, "exponential decay", ok,
           f"slope max {worst_slope:.3g}, R^2 min {worst_r2:.4f}, "
           f"energy increase max {worst_increase:.2e}")


def test_predicted_rate_matches_the_fitted_rate(planted_runs):
    # Near Kbar the Calabi energy decays like exp(-2 lambda_min^2 t), with
    # lambda_min the smallest eigenvalue of J at the solution.  Measured
    # over the 250 runs (damped RKC steps), fitted/predicted spans 0.9722
    # (tetrahedron instance 44, start 3, a 114-sample run) to 0.9967,
    # median 0.9899.
    _, traces, _ = planted_runs
    ratios = [trace.fitted_rate / trace.predicted_rate
              for per_instance in traces for _, trace in per_instance]
    worst = max(ratios, key=lambda r: abs(r - 1.0))
    print(f"fitted/predicted rate: worst {worst:.4f}, "
          f"median {np.median(ratios):.6f} over {len(ratios)} runs")
    assert len(ratios) == 250
    assert abs(worst - 1.0) <= 0.05


def test_criterion_07_velocity_bound(planted_runs):
    instances, traces, _ = planted_runs
    worst_ratio = 0.0
    for (name, inst), per_instance in zip(instances, traces):
        bound = velocity_bound(inst.complex, inst.prescription)
        for _, trace in per_instance:
            top = max(s.speed for s in trace.samples)
            worst_ratio = max(worst_ratio, top / bound)
    ok = worst_ratio <= 1.0
    report(7, "velocity bound", ok, f"max speed/bound {worst_ratio:.3g}")


def test_criterion_08_feasibility_equivalence():
    n_feasible = 0
    worst_gap = 0.0
    for i in range(500):
        c = random_instance(i, max_vertices=14)
        p = random_prescription(c, i)
        bf = check_bruteforce(c, p)
        mc = check_mincut(c, p)
        assert bf.feasible == mc.feasible, f"verdicts differ on instance {i}"
        worst_gap = max(worst_gap, abs(bf.worst_margin - mc.worst_margin))
        n_feasible += bf.feasible
    ok = worst_gap <= 1e-9 and 0 < n_feasible < 500
    report(8, "feasibility equivalence", ok,
           f"500 instances ({n_feasible} feasible), margin gap {worst_gap:.2e}")


def test_criterion_09_divergence_detection():
    detected = 0
    for j in range(20):
        name, complex, bad, v = single_vertex_violator(j)
        trace = run(complex, bad, np.zeros(complex.n_vertices),
                    FlowConfig(method="curvature", tol_ode=1e-4))
        if (trace.verdict == "diverged" and trace.certificate is not None
                and trace.certificate.worst_margin > 0
                and not trace.certificate.feasible):
            detected += 1
    ok = detected == 20
    report(9, "divergence detection", ok, f"{detected}/20 within budget")


def test_criterion_10_cli_contract(tmp_path, capsys):
    tetra = fixtures.tetrahedron()
    lhat = Prescription(evaluate(tetra, np.zeros(4)).L.copy())
    doc = serialize_instance(tetra, lhat, initial_k=np.zeros(4))

    # byte-identical round trip
    inst = parse_instance(doc)
    round_tripped = serialize_instance(inst.complex, inst.prescription,
                                       inst.initial_k)
    assert round_tripped == doc

    good = tmp_path / "good.icp"
    good.write_text(doc)

    loopy = tmp_path / "loopy.icp"
    loopy.write_text("[vertices]\na b\n[edges]\naa a a pi/2\nab a b pi/2\n"
                     "[faces]\nf0 aa ab\nf1 aa ab\n")

    garbled = tmp_path / "garbled.icp"
    garbled.write_text("[vertices]\na a\n")

    name, complex, bad, v = single_vertex_violator(3)
    infeasible = tmp_path / "infeasible.icp"
    infeasible.write_text(serialize_instance(complex, bad))

    matrix = [
        (["validate", str(good)], 0),
        (["validate", str(loopy)], 1),
        (["validate", str(garbled)], 2),
        (["check", str(good)], 0),
        (["check", str(infeasible)], 1),
        (["check", str(garbled)], 2),
        (["solve", str(good)], 0),
        (["solve", str(infeasible), "--method", "curvature"], 3),
        (["solve", str(good), "--seed", "4", "--max-time", "1e-7",
          "--tol", "1e-14"], 4),
        (["solve", str(garbled)], 2),
    ]
    failures = []
    for argv, expected in matrix:
        got = main(argv)
        if got != expected:
            failures.append(f"{' '.join(argv)} -> {got} (wanted {expected})")
    capsys.readouterr()
    ok = not failures
    report(10, "cli contract", ok,
           "round trip + exit codes" if ok else "; ".join(failures))
