"""Shared instance generators for the test suite.

Everything random is driven by the package's counter-based generator so
the whole suite is bit-reproducible.
"""

import functools

import numpy as np
import pytest

from cpflow import (CurvatureState, FlowConfig, Prescription, evaluate,
                    fixtures, make_synthetic, run)
from cpflow.oracle import rng_for
from cpflow.surface import SurfaceComplex, edge_neighborhood

PLANTED_FAMILIES = (
    ("tetrahedron", fixtures.tetrahedron),
    ("cube", fixtures.cube_graph),
    ("bigon", fixtures.bigon),
    ("torus", fixtures.torus_grid),
)

# Families used for structurally-random instances, keyed by max vertex count.
def family_pool(max_vertices: int):
    pool = [lambda: fixtures.tetrahedron(), lambda: fixtures.bigon()]
    if max_vertices >= 8:
        pool.append(lambda: fixtures.cube_graph())
    if max_vertices >= 9:
        pool.append(lambda: fixtures.torus_grid())
    for beads in (3, 4, 5, 6, 7):
        if beads <= max_vertices:
            pool.append(lambda b=beads: fixtures.necklace(b))
    for sides in (3, 4, 5):
        if 2 * sides <= max_vertices:
            pool.append(lambda s=sides: fixtures.prism(s))
    for sides in (3, 5, 8, 12):
        if sides + 2 <= max_vertices:
            pool.append(lambda s=sides: fixtures.bipyramid(s))
    return pool


def with_phi(complex: SurfaceComplex, phi) -> SurfaceComplex:
    return SurfaceComplex(complex.n_vertices, complex.edges, complex.faces, phi,
                          complex.vertex_names, complex.edge_names,
                          complex.face_names)


def random_instance(i: int, max_vertices: int = 12, phi_low: float = 0.1):
    """Deterministic structurally-varied complex with random angles."""
    pool = family_pool(max_vertices)
    rng = rng_for(500_000 + i)
    base = pool[i % len(pool)]()
    phi = rng.uniform(phi_low, np.pi / 2, base.n_edges)
    return with_phi(base, phi)


def random_prescription(complex: SurfaceComplex, i: int) -> Prescription:
    """Random targets scaled by the per-vertex feasibility caps; yields a
    mix of feasible and infeasible instances."""
    rng = rng_for(600_000 + i)
    caps = np.zeros(complex.n_vertices)
    ev, ew = complex.endpoint_arrays
    np.add.at(caps, ev, 2.0 * complex.phi)
    np.add.at(caps, ew, 2.0 * complex.phi)
    return Prescription(rng.uniform(0.15, 1.1, complex.n_vertices) * caps
                        * rng.uniform(0.5, 1.05))


def planted_instances(count: int, seed0: int = 8000, lmin_floor: float = 0.25):
    """Screened planted instances over the four fixture families.

    Angles are drawn from [1.2, pi/2] and seeds whose Jacobian at the
    planted solution has smallest eigenvalue below ``lmin_floor`` are
    skipped, keeping flow runtimes bounded.
    """
    out = []
    i = 0
    while len(out) < count:
        name, fam = PLANTED_FAMILIES[len(out) % len(PLANTED_FAMILIES)]
        phi = rng_for(7000 + i).uniform(1.2, np.pi / 2)
        complex = fam(phi=phi)
        inst = make_synthetic(complex, seed=seed0 + i)
        i += 1
        if np.linalg.eigvalsh(evaluate(complex, inst.kbar).J)[0] >= lmin_floor:
            out.append((name, inst))
    return out


def single_vertex_violator(j: int):
    """Planted instance with one vertex pushed past its own edge budget."""
    name, fam = PLANTED_FAMILIES[j % len(PLANTED_FAMILIES)]
    phi = rng_for(60_000 + j).uniform(1.2, np.pi / 2)
    complex = fam(phi=phi)
    inst = make_synthetic(complex, seed=61_000 + j)
    v = int(rng_for(62_000 + j).integers(complex.n_vertices))
    cap = 2.0 * sum(complex.phi[e] for e in edge_neighborhood(complex, [v]))
    lhat = inst.prescription.lhat.copy()
    lhat[v] = cap * 1.05 + 0.3
    return name, complex, Prescription(lhat), v


def count_computed(monkeypatch, prop: str) -> list:
    """Collects every state whose cached property ``prop`` is computed
    while the test runs."""
    calls = []
    original = getattr(CurvatureState, prop)

    def counted(state):
        calls.append(state)
        return original.func(state)

    spy = functools.cached_property(counted)
    spy.__set_name__(CurvatureState, prop)
    monkeypatch.setattr(CurvatureState, prop, spy)
    return calls


ACCEPTANCE_CONFIG = FlowConfig(tol_ode=1e-4, tol_curvature=3e-11, max_time=4e4)


@pytest.fixture(scope="session")
def planted_runs():
    """The 50-instance, 5-start Calabi-flow campaign shared by several
    acceptance criteria.  Returns (instances, traces, wall_seconds)."""
    import time

    instances = planted_instances(50)
    traces = []
    t0 = time.perf_counter()
    for j, (name, inst) in enumerate(instances):
        per_instance = []
        for s in range(5):
            k0 = inst.kbar + rng_for(90_000 + 10 * j + s).uniform(
                -1.0, 1.0, inst.complex.n_vertices)
            per_instance.append((k0, run(inst.complex, inst.prescription, k0,
                                         ACCEPTANCE_CONFIG)))
        traces.append(per_instance)
    return instances, traces, time.perf_counter() - t0


def wedge() -> SurfaceComplex:
    """A 3x3 torus grid and a tetrahedron glued at one vertex: every edge
    lies on two closed walks, the graph is connected and chi = 1, but the
    faces around the shared vertex v0 form two cycles."""
    torus, tetra = fixtures.torus_grid(), fixtures.tetrahedron()
    # Tetrahedron vertex 0 becomes v0; its others follow the torus's.
    shift = {0: 0, 1: 9, 2: 10, 3: 11}
    edges = torus.edges + tuple((shift[v], shift[w]) for v, w in tetra.edges)
    faces = torus.faces + tuple(tuple(torus.n_edges + e for e in walk)
                                for walk in tetra.faces)
    return SurfaceComplex(12, edges, faces, np.full(len(edges), np.pi / 2))
