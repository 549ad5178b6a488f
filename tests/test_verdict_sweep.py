"""One verdict table for every method on five closed surface classes.

PAPER.md's theorem: the flow converges if and only if the prescription is
feasible.  Each class (a sphere, a torus, the Klein bottle, genus 2 and
genus 3) gets one angle per edge from its own seeded draw, a planted
prescription and the same prescription with vertex 0 pushed past its own
edge budget, as in conftest's ``single_vertex_violator``.  Every method
starts from K = 0 at the configuration ``cpflow solve`` runs.

- A feasible row converges to the planted K within criterion 4's
  tolerances.
- An infeasible row ends ``diverged`` and carries ``check_mincut``'s
  certificate.  ROADMAP item 1 plans a verdict ``infeasible`` for a Calabi
  run that reads the certificate before its first step; the table accepts
  it already.

The rows that do not hold yet are strict xfails that name the ROADMAP
item meant to fix them, so a fix shows as an XPASS.  A Calabi run on an
infeasible input gets ``max_time`` 100, which still ends it
``budget-exhausted``, in place of the default 1e4 (seconds per row).
"""

import dataclasses

import numpy as np
import pytest

from cpflow import (FlowConfig, Prescription, check_mincut, fixtures,
                    make_synthetic, run)
from cpflow.oracle import rng_for
from cpflow.surface import edge_neighborhood
from conftest import with_phi
from surfaces import connected_sum, klein_bottle

CLASSES = {
    "sphere": fixtures.tetrahedron,
    "torus": fixtures.torus_grid,
    "klein": lambda: klein_bottle(4, 4),
    "genus2": lambda: connected_sum(2),
    "genus3": lambda: connected_sum(3),
}
METHODS = ("calabi", "curvature", "newton")

ITEM_1 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: Calabi runs out its budget on an infeasible "
    "prescription instead of ending at once with the certificate"))
ITEM_2 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: Newton's backtracking on ||L - Lhat|| finds no "
    "decrease and ends numerical-failure on an infeasible prescription"))


def instance(name: str, feasible: bool):
    """The complex, the prescription and the planted K of one row."""
    base = CLASSES[name]()
    i = list(CLASSES).index(name)
    c = with_phi(base, rng_for(1_400_000 + i).uniform(1.0, np.pi / 2,
                                                      base.n_edges))
    inst = make_synthetic(c, 1)
    if feasible:
        return c, inst.prescription, inst.kbar
    budget = 2.0 * sum(c.phi[e] for e in edge_neighborhood(c, [0]))
    lhat = inst.prescription.lhat.copy()
    lhat[0] = 1.05 * budget + 0.3
    return c, Prescription(lhat), inst.kbar


def rows():
    for name in CLASSES:
        for feasible in (True, False):
            for method in METHODS:
                marks = ()
                if not feasible and method == "calabi":
                    marks = ITEM_1
                elif (not feasible and method == "newton"
                      and name in ("sphere", "genus3")):
                    marks = ITEM_2
                kind = "feasible" if feasible else "infeasible"
                yield pytest.param(name, feasible, method, marks=marks,
                                   id=f"{name}-{kind}-{method}")


@pytest.mark.parametrize("name,feasible,method", rows())
def test_verdict_table(name, feasible, method):
    c, prescription, kbar = instance(name, feasible)
    config = FlowConfig(method=method)
    if not feasible and method == "calabi":
        config = dataclasses.replace(config, max_time=100.0)
    trace = run(c, prescription, np.zeros(c.n_vertices), config)
    if feasible:
        assert trace.verdict == "converged", (trace.verdict, trace.failure)
        assert trace.final.err_inf <= 1e-10
        assert np.max(np.abs(trace.final_k() - kbar)) <= 1e-8
    else:
        assert trace.verdict in ("diverged", "infeasible"), (
            trace.verdict, trace.failure)
        cert = check_mincut(c, prescription)
        assert not cert.feasible
        assert trace.certificate == cert
