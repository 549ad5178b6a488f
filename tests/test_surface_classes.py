"""Closed surfaces of genus 2 and 3 and the non-orientable Klein bottle.

Every other family in the suite is a sphere or a torus.  These tests hold
the same contracts on the surfaces of ``surfaces.py``: ``validate`` accepts
them with their Euler characteristic, the instance format carries them,
the min-cut decider agrees with the brute-force oracle, every method
recovers a planted solution, and an infeasible prescription makes the
curvature flow diverge with a certificate.
"""

import numpy as np
import pytest

from cpflow import (FlowConfig, check_mincut, fixtures, make_synthetic,
                    parse_instance, run, serialize_instance, validate)
from cpflow.feasibility import check_bruteforce
from cpflow.oracle import rng_for
from conftest import random_prescription, with_phi
from surfaces import connected_sum, klein_bottle, orientable

# name -> (complex, (V, E, F), chi, orientable)
SURFACES = {
    "genus2": (connected_sum(2), (14, 32, 16), -2, True),
    "genus3": (connected_sum(3), (19, 46, 23), -4, True),
    "klein": (klein_bottle(4, 4), (16, 32, 16), 0, False),
}
IDS = list(SURFACES)


def random_genus2(i: int):
    """Genus-2 draw i: angles from U(0.1, pi/2) and ``random_prescription``."""
    base = SURFACES["genus2"][0]
    c = with_phi(base, rng_for(1_300_000 + i).uniform(0.1, np.pi / 2, base.n_edges))
    return c, random_prescription(c, i)


GENUS2_DRAWS = [random_genus2(i) for i in range(40)]


@pytest.mark.parametrize("name", IDS)
def test_valid_with_the_stated_counts(name):
    c, counts, chi, is_orientable = SURFACES[name]
    assert validate(c) == []
    assert (c.n_vertices, c.n_edges, c.n_faces) == counts
    assert c.euler_characteristic == chi
    assert orientable(c) == is_orientable


def test_orientability_of_known_surfaces():
    for c in (fixtures.tetrahedron(), fixtures.bigon(), fixtures.torus_grid(),
              fixtures.necklace(4), fixtures.bipyramid(5), connected_sum(4)):
        assert orientable(c)
    assert not orientable(klein_bottle(3, 5))


@pytest.mark.parametrize("name", IDS)
def test_survives_the_instance_format(name):
    c = SURFACES[name][0]
    again = parse_instance(serialize_instance(c)).complex
    assert again == c
    assert serialize_instance(again) == serialize_instance(c)


def test_mincut_agrees_with_bruteforce_on_genus2():
    verdicts = []
    for c, p in GENUS2_DRAWS:
        bf, mc = check_bruteforce(c, p), check_mincut(c, p)
        assert bf.feasible == mc.feasible
        assert abs(bf.worst_margin - mc.worst_margin) <= 1e-9
        verdicts.append(mc.feasible)
    # both verdicts are sampled
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("method", ["calabi", "curvature", "newton"])
@pytest.mark.parametrize("name", IDS)
def test_planted_prescription_converges(name, method):
    base = SURFACES[name][0]
    c = with_phi(base, rng_for(1_310_000 + IDS.index(name)).uniform(
        1.0, np.pi / 2, base.n_edges))
    inst = make_synthetic(c, seed=1)
    trace = run(c, inst.prescription, np.zeros(c.n_vertices),
                FlowConfig(method=method))
    assert trace.verdict == "converged"
    assert np.abs(trace.final.K - inst.kbar).max() <= 1e-8


def test_infeasible_genus2_draws_diverge_with_a_certificate():
    infeasible = [(c, p) for c, p in GENUS2_DRAWS if not check_mincut(c, p).feasible]
    assert infeasible
    for c, p in infeasible:
        trace = run(c, p, np.zeros(c.n_vertices),
                    FlowConfig(method="curvature", tol_ode=1e-4))
        assert trace.verdict == "diverged"
        assert trace.certificate is not None
        assert trace.certificate == check_mincut(c, p)
