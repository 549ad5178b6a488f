import itertools
import json
import math
import sys

import numpy as np
import pytest

import cpflow.feasibility
from cpflow import (Prescription, check_mincut, evaluate, fixtures,
                    make_synthetic)
from cpflow.errors import InputError
from cpflow.feasibility import check_bruteforce
from cpflow.oracle import rng_for
from conftest import random_instance, random_prescription, with_phi
from mincut_rounds import check_mincut_rounds

L_REF = 4.05306515313624  # tetrahedron curvature at K = 0, phi = pi/2


@pytest.fixture
def tetra():
    return fixtures.tetrahedron()


@pytest.fixture
def uniform_prescription():
    return Prescription(np.full(4, L_REF))


class TestBruteForce:
    def test_uniform_tetrahedron_feasible(self, tetra, uniform_prescription):
        v = check_bruteforce(tetra, uniform_prescription)
        assert v.feasible and not v.boundary
        assert v.method == "brute-force"
        # the tightest subset is all of V: 4 L - 2 * 6 * (pi/2)
        assert v.worst_subset == frozenset(range(4))
        assert v.worst_margin == pytest.approx(4 * L_REF - 6 * math.pi, abs=1e-12)

    def test_single_vertex_violation(self, tetra):
        lhat = np.full(4, L_REF)
        lhat[0] = 10.0
        v = check_bruteforce(tetra, Prescription(lhat))
        assert not v.feasible
        # {v0} violates its own edge budget: 10 > 3 pi
        assert 10.0 - 3 * math.pi > 0
        # but the whole vertex set is the extremal witness here
        assert v.worst_subset == frozenset(range(4))
        assert v.worst_margin == pytest.approx(10 + 3 * L_REF - 6 * math.pi, abs=1e-12)

    def test_exact_boundary_is_infeasible(self, tetra):
        lhat = np.full(4, 0.1)
        lhat[0] = 2.0 * float(np.sum(tetra.phi[[0, 1, 2]]))  # exactly 2 sum phi
        v = check_bruteforce(tetra, Prescription(lhat))
        assert not v.feasible
        assert v.boundary
        assert v.worst_subset == frozenset({0})
        assert v.worst_margin == 0.0

    def test_nonempty_witness_even_when_deeply_feasible(self, tetra):
        v = check_bruteforce(tetra, Prescription(np.full(4, 0.01)))
        assert v.feasible
        assert len(v.worst_subset) > 0
        assert v.worst_margin < 0

    def test_size_guard(self):
        c = fixtures.necklace(25)
        p = Prescription(np.full(25, 0.1))
        with pytest.raises(InputError, match="check_mincut"):
            check_bruteforce(c, p)


class TestMinCut:
    def test_agrees_on_reference_cases(self, tetra, uniform_prescription):
        for lhat in (uniform_prescription.lhat,
                     np.array([10.0, L_REF, L_REF, L_REF]),
                     np.full(4, 0.01)):
            p = Prescription(lhat)
            bf = check_bruteforce(tetra, p)
            mc = check_mincut(tetra, p)
            assert bf.feasible == mc.feasible
            assert mc.method == "min-cut"
            assert mc.worst_margin == pytest.approx(bf.worst_margin, abs=1e-9)

    @pytest.mark.parametrize("i", range(100))
    def test_matches_bruteforce_on_random_instances(self, i):
        c = random_instance(i, max_vertices=14)
        p = random_prescription(c, i)
        bf = check_bruteforce(c, p)
        mc = check_mincut(c, p)
        assert bf.feasible == mc.feasible
        assert mc.worst_margin == pytest.approx(bf.worst_margin, abs=1e-9)
        assert len(mc.worst_subset) > 0

    def test_disconnected_witness(self):
        # load two non-adjacent prism vertices; the extremal subset has
        # two components
        c = fixtures.prism(3)
        assert (0, 4) not in c.edges and (4, 0) not in c.edges
        caps = np.zeros(6)
        ev, ew = c.endpoint_arrays
        np.add.at(caps, ev, 2 * c.phi)
        np.add.at(caps, ew, 2 * c.phi)
        lhat = np.full(6, 0.1)
        lhat[0] = 1.2 * caps[0]
        lhat[4] = 1.2 * caps[4]
        p = Prescription(lhat)
        bf = check_bruteforce(c, p)
        mc = check_mincut(c, p)
        assert bf.worst_subset == mc.worst_subset == frozenset({0, 4})
        assert not bf.feasible and not mc.feasible

    def test_works_beyond_enumeration_guard(self):
        c = fixtures.necklace(25)
        v = check_mincut(c, Prescription(np.full(25, 0.1)))
        assert v.feasible

    def test_planted_instances_are_feasible(self):
        for seed in (3, 17, 95):
            inst = make_synthetic(fixtures.cube_graph(), seed=seed)
            assert check_mincut(inst.complex, inst.prescription).feasible


def margin(complex, prescription, subset):
    touched = [e for e, (v, w) in enumerate(complex.edges)
               if v in subset or w in subset]
    return (float(np.sum(prescription.lhat[sorted(subset)]))
            - 2.0 * float(np.sum(complex.phi[touched])))


def star_caps(complex):
    """Per vertex, twice the angle sum of its edges."""
    ev, ew = complex.endpoint_arrays
    return (np.bincount(ev, 2 * complex.phi, complex.n_vertices)
            + np.bincount(ew, 2 * complex.phi, complex.n_vertices))


# Complexes with 15 to 24 vertices, beyond criterion 8's 14.
LARGER = (
    ("necklace15", lambda: fixtures.necklace(15)),
    ("torus4x4", lambda: fixtures.torus_grid(4, 4)),
    ("bipyramid15", lambda: fixtures.bipyramid(15)),
    ("prism9", lambda: fixtures.prism(9)),
    ("torus3x6", lambda: fixtures.torus_grid(3, 6)),
    ("torus4x5", lambda: fixtures.torus_grid(4, 5)),
    ("bipyramid18", lambda: fixtures.bipyramid(18)),
)


class TestMinCutBeyondCriterion8:
    """Min-cut against enumeration on 15 to 24 vertices."""

    @pytest.mark.parametrize("name, make", LARGER, ids=[n for n, _ in LARGER])
    @pytest.mark.parametrize("i", range(3))
    def test_random_angles_and_targets(self, name, make, i):
        base = make()
        rng = rng_for(900_000 + 10 * i + len(name))
        c = with_phi(base, rng.uniform(0.1, np.pi / 2, base.n_edges))
        # scales 0.55, 0.8, 1.05 of the star caps: mostly feasible to
        # mostly infeasible
        p = Prescription(star_caps(c) * rng.uniform(0.15, 1.0, c.n_vertices)
                         * (0.55 + 0.25 * i))
        bf = check_bruteforce(c, p)
        mc = check_mincut(c, p)
        assert bf.feasible == mc.feasible
        assert mc.worst_margin == pytest.approx(bf.worst_margin, abs=1e-9)
        assert margin(c, p, mc.worst_subset) == pytest.approx(mc.worst_margin,
                                                              abs=1e-12)
        assert mc == check_mincut_rounds(c, p)

    @pytest.mark.parametrize("name, make", LARGER + (
        ("prism11", lambda: fixtures.prism(11)),
        ("torus3x8", lambda: fixtures.torus_grid(3, 8)),
    ), ids=[n for n, _ in LARGER] + ["prism11", "torus3x8"])
    def test_uniform_targets_full_of_ties(self, name, make):
        # one target for every vertex on uniform angles, around the value
        # 2 sum(phi) / V at which the whole vertex set sits on the boundary:
        # many subsets share the worst margin
        c = make()
        t0 = 2.0 * float(np.sum(c.phi)) / c.n_vertices
        for scale in (0.99, 1.0, 1.01) if c.n_vertices <= 20 else (1.0,):
            p = Prescription(np.full(c.n_vertices, scale * t0))
            bf = check_bruteforce(c, p)
            mc = check_mincut(c, p)
            assert bf.feasible == mc.feasible
            assert mc.boundary == bf.boundary
            assert mc.worst_margin == pytest.approx(bf.worst_margin, abs=1e-9)
            assert mc == check_mincut_rounds(c, p)


class TestMinCutDecider:
    def test_infeasible_costs_one_max_flow(self, monkeypatch):
        network = cpflow.feasibility._ClosureNetwork
        solves, reached = [], []
        real_flow, real_levels = network.max_flow, network._levels

        def counting(net, *args):
            solves.append(net)
            return real_flow(net, *args)

        def sweeping(net, *args):
            level = real_levels(net, *args)
            reached.append(sum(d >= 0 for d in level))
            return level

        monkeypatch.setattr(network, "max_flow", counting)
        monkeypatch.setattr(network, "_levels", sweeping)
        c = fixtures.torus_grid(10, 10, phi=1.3)
        lhat = make_synthetic(c, seed=4).prescription.lhat.copy()
        lhat[7] = 1.1 * star_caps(c)[7]
        assert not check_mincut(c, Prescription(lhat)).feasible
        assert len(solves) == 1
        # The feasible pass works on the closure flow's own network, and
        # its phases are local: together their breadth-first sweeps reach
        # at most twice the nodes that the sweeps of that first max flow
        # reach (about 1.2 times here).
        p = make_synthetic(c, seed=4).prescription
        reached.clear()
        net = network(c, p.lhat)
        net.max_flow()
        net.source_vertices()
        first = sum(reached)
        reached.clear()
        solves.clear()
        assert check_mincut(c, p).feasible
        assert len(set(map(id, solves))) == 1 < len(solves)
        assert sum(reached) - first <= 2 * first

    def test_margins_never_rescan_the_edge_list(self, monkeypatch):
        # Both branches sum a margin over the edges the network has listed.
        real, seen = cpflow.feasibility._margin_of, []

        def recorded(complex, prescription, subset, touched=None):
            seen.append(touched)
            return real(complex, prescription, subset, touched)

        monkeypatch.setattr(cpflow.feasibility, "_margin_of", recorded)
        c = fixtures.torus_grid(5, 5, phi=1.3)
        p = make_synthetic(c, seed=4).prescription
        lhat = p.lhat.copy()
        lhat[7] = 1.1 * star_caps(c)[7]
        assert check_mincut(c, p).feasible
        assert not check_mincut(c, Prescription(lhat)).feasible
        assert seen and None not in seen

    @pytest.mark.parametrize("i", range(120))
    def test_reported_subset_is_inclusion_minimal(self, i):
        # whenever the margin is >= 0 no smaller nonempty subset of the
        # witness is as bad
        c = random_instance(i, max_vertices=14)
        p = random_prescription(c, i)
        if i % 3 == 0:
            p = Prescription(np.full(c.n_vertices, float(np.median(p.lhat))))
        mc = check_mincut(c, p)
        if mc.worst_margin < 0.0:
            return
        assert mc.worst_margin == pytest.approx(
            check_bruteforce(c, p).worst_margin, abs=1e-9)
        witness = sorted(mc.worst_subset)
        for k in range(1, len(witness)):
            for smaller in itertools.combinations(witness, k):
                assert margin(c, p, set(smaller)) < mc.worst_margin - 1e-9

    @pytest.fixture
    def shallow_stack(self):
        """Caps the recursion depth at 100 frames below the caller."""
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        yield
        sys.setrecursionlimit(old)

    def test_long_augmenting_paths_need_no_recursion(self, shallow_stack):
        # a barely feasible necklace: the flow travels around the whole ring
        n = 300
        v = check_mincut(fixtures.necklace(n, phi=1.0),
                         Prescription(np.full(n, 4.0 * (1.0 - 1e-6))))
        assert v.feasible and not v.boundary
        assert v.worst_subset == frozenset(range(n))
        assert v.worst_margin == pytest.approx(-4e-6 * n, rel=1e-6)


# Uniform targets beyond the enumeration guard, around the value at which
# the whole vertex set sits on the boundary.
LARGE_TIES = (
    ("necklace40", lambda: fixtures.necklace(40)),
    ("necklace120", lambda: fixtures.necklace(120, phi=1.0)),
    ("bipyramid30", lambda: fixtures.bipyramid(30)),
    ("prism20", lambda: fixtures.prism(20)),
    ("torus6x6", lambda: fixtures.torus_grid(6, 6)),
    ("torus9x9", lambda: fixtures.torus_grid(9, 9, phi=1.3)),
)


class TestPassMatchesRounds:
    """The single pass against the per-vertex rounds it replaced
    (tests/mincut_rounds.py): the whole verdict, margins bit for bit."""

    def test_criterion_8_instances(self):
        for i in range(500):
            c = random_instance(i, max_vertices=14)
            p = random_prescription(c, i)
            assert check_mincut(c, p) == check_mincut_rounds(c, p), i

    def test_random_instances(self):
        for i in range(300):
            c = random_instance(i)
            p = random_prescription(c, i)
            assert check_mincut(c, p) == check_mincut_rounds(c, p), i

    @pytest.mark.parametrize("name, make", LARGE_TIES,
                             ids=[n for n, _ in LARGE_TIES])
    def test_uniform_targets_full_of_ties(self, name, make):
        c = make()
        t0 = 2.0 * float(np.sum(c.phi)) / c.n_vertices
        for scale in (0.9, 0.99, 1.0 - 1e-9, 1.0):
            p = Prescription(np.full(c.n_vertices, scale * t0))
            assert check_mincut(c, p) == check_mincut_rounds(c, p), scale

    @pytest.mark.parametrize("rows", (5, 10))
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_tori(self, rows, seed):
        c = fixtures.torus_grid(rows, rows, phi=1.3)
        p = make_synthetic(c, seed=seed).prescription
        assert check_mincut(c, p) == check_mincut_rounds(c, p)


class TestMonotonicity:
    def test_decreasing_target_preserves_feasibility(self):
        c = random_instance(7)
        inst = make_synthetic(c, seed=31)
        assert check_bruteforce(c, inst.prescription).feasible
        smaller = Prescription(inst.prescription.lhat * 0.7)
        assert check_bruteforce(c, smaller).feasible

    def test_increasing_angle_preserves_feasibility(self):
        base = fixtures.prism(3, phi=1.0)
        inst = make_synthetic(base, seed=32)
        assert check_bruteforce(base, inst.prescription).feasible
        wider = with_phi(base, np.full(base.n_edges, 1.4))
        assert check_bruteforce(wider, inst.prescription).feasible


class TestVerdictFields:
    @pytest.mark.parametrize("check", [check_mincut, check_bruteforce])
    @pytest.mark.parametrize("lhat, feasible", [
        (np.full(4, L_REF), True), (np.array([10.0, 1.0, 1.0, 1.0]), False),
    ], ids=["feasible", "infeasible"])
    def test_fields_are_plain_python_values(self, tetra, check, lhat,
                                            feasible):
        v = check(tetra, Prescription(lhat))
        assert v.feasible is feasible and v.boundary is False
        assert type(v.worst_margin) is float
        json.dumps([v.feasible, v.boundary, v.worst_margin, v.method,
                    sorted(v.worst_subset)])
