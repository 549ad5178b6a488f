"""Workload generators for the cpflow benchmark.

Each ``build_*`` function turns a seed into the inputs of one workload and
returns a :class:`Workload`: a list of operations, each with the check that
decides whether its answer is right, plus a digest of the generated inputs.
The same seed always gives the same inputs (and the same digest).

Operations look up ``cpflow.flow.run`` and ``cpflow.cli.main`` as module
attributes at call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cpflow.cli
import cpflow.flow
from cpflow import fixtures
from cpflow.curvature import evaluate
from cpflow.instancefile import instance_digest, serialize_instance
from cpflow.oracle import make_synthetic
from cpflow.surface import Prescription, SurfaceComplex, edge_neighborhood

METHODS = ("calabi", "curvature", "newton")

# The planted criterion-4 campaign: its families, angle range, screening
# floor on the smallest Jacobian eigenvalue, and flow configuration.
PLANTED_FAMILIES = (
    ("tetrahedron", fixtures.tetrahedron),
    ("cube", fixtures.cube_graph),
    ("bigon", fixtures.bigon),
    ("torus", fixtures.torus_grid),
)
PHI_RANGE = (1.2, 0.5 * math.pi)
MIN_EIG_FLOOR = 0.25
CAMPAIGN_CONFIG = cpflow.flow.FlowConfig(tol_ode=1e-4, tol_curvature=3e-11,
                                         max_time=4e4)
# The Calabi flow's step count tracks the squared condition number
# (lambda_max / lambda_min)^2 of J at the planted solution closely (about
# 7 accepted steps per unit on these families), so planted-small draws one
# instance per band of it; without the bands, which instances a seed draws
# moves the per-call percentiles by 20-40%.
KAPPA2_RANGE = (4.0, 80.0)

# Accuracy every converged solve must reach (criterion 4's tolerances).
ERR_TOL = 1e-10
K_TOL = 1e-8

# torus-ladder: (grid side, methods, band of the squared condition number
# at the planted solution).  The two small rungs run every method; the
# V=2025 rung runs Newton alone.  Flow step counts follow the condition
# number, so the flow rungs keep a planted solution inside the band; Newton
# takes five iterations either way, and is not screened because the
# V=2025 spectrum alone costs a second.
LADDER = ((10, METHODS, (40.0, 44.0)), (12, METHODS, (40.0, 44.0)),
          (45, ("newton",), None))
# The median rung is the 12x12 one.  It runs at the start and again at the
# end of each pass, so the median does not rest on one moment of the host's
# speed drift.
LADDER_ORDER = (1, 0, 2, 1)
LADDER_PHI = 1.3
LADDER_K_RANGE = (-1.0, 1.0)
LADDER_PERTURBATION = 0.3

# cli-certify: (label, complex for an angle, file count).  Files are ranked by the time
# of their `check` call; each class is a block of ranks, sized so that the
# median falls inside the block of V=16 brute-force and V=25 min-cut files
# (both about 15 ms) and the 90th percentile inside the V=100 min-cut block,
# away from any class boundary.
CLI_MIX = (
    ("tetrahedron", fixtures.tetrahedron, 6),
    ("bigon", fixtures.bigon, 6),
    ("cube", fixtures.cube_graph, 6),
    ("torus3x3", lambda phi: fixtures.torus_grid(3, 3, phi), 6),
    ("prism5", lambda phi: fixtures.prism(5, phi), 6),
    ("bipyramid8", lambda phi: fixtures.bipyramid(8, phi), 6),
    ("torus4x4", lambda phi: fixtures.torus_grid(4, 4, phi), 30),
    ("torus5x5", lambda phi: fixtures.torus_grid(5, 5, phi), 4),
    ("torus6x6", lambda phi: fixtures.torus_grid(6, 6, phi), 4),
    ("torus7x7", lambda phi: fixtures.torus_grid(7, 7, phi), 4),
    ("torus8x8", lambda phi: fixtures.torus_grid(8, 8, phi), 6),
    ("torus10x10", lambda phi: fixtures.torus_grid(10, 10, phi), 16),
)

_MARGIN = re.compile(r"worst_margin=(\S+)")
_CERTIFICATE = re.compile(r"infeasible: subset=\{[^}]*\} margin=(\S+)")


@dataclass
class Op:
    """One operation of a pass.

    ``call`` does the work and is the only part timed; ``check`` inspects
    its result and returns one failure reason per wrong answer.  ``count``
    is how many answers the operation produces (a ladder rung solves with
    several methods).  ``interpreter_bound`` is false for an operation whose
    time goes to dense linear algebra, which barely follows the host's
    speed drift.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    count: int = 1
    interpreter_bound: bool = True


@dataclass
class Workload:
    ops: list[Op]
    digest: str
    # Kind of operation whose latency the end-to-end percentiles report.
    call_kind: str


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def planted(complex_for: Callable[[float], SurfaceComplex],
            rng: np.random.Generator):
    """A planted instance whose Jacobian at the solution is well
    conditioned, drawn as the criterion-4 campaign draws them.  Returns
    the instance and the squared condition number of that Jacobian."""
    while True:
        complex = complex_for(rng.uniform(*PHI_RANGE))
        inst = make_synthetic(complex, seed=_seed_of(rng))
        state = evaluate(complex, inst.kbar)
        if state.min_eigenvalue >= MIN_EIG_FLOOR:
            return inst, (state.max_eigenvalue / state.min_eigenvalue) ** 2


def violator(inst, rng: np.random.Generator) -> Prescription:
    """The planted prescription with one vertex pushed past its own edge
    budget, which makes it infeasible (criterion 9)."""
    complex = inst.complex
    v = int(rng.integers(complex.n_vertices))
    cap = 2.0 * sum(complex.phi[e] for e in edge_neighborhood(complex, [v]))
    lhat = inst.prescription.lhat.copy()
    lhat[v] = cap * 1.05 + 0.3
    return Prescription(lhat)


def _solution_failures(trace, kbar: np.ndarray) -> list[str]:
    if trace.verdict != "converged":
        return [f"{trace.method}: verdict {trace.verdict}"]
    err = trace.final.err_inf
    dk = float(np.max(np.abs(trace.final_k() - kbar)))
    if not (err <= ERR_TOL and dk <= K_TOL):
        return [f"{trace.method}: err_inf {err:.3g}, |K-Kbar| {dk:.3g}"]
    return []


def _hash_instance(h, complex, prescription, *arrays) -> None:
    h.update(instance_digest(complex, prescription).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())


# ----------------------------------------------------------------------
# planted-small
# ----------------------------------------------------------------------

def build_planted_small(seed: int, instances: int = 25,
                        starts: int = 4) -> Workload:
    """Small planted instances, each solved by the Calabi flow from several
    seeded starts with the campaign configuration.

    Campaign draws are kept one per band of the squared condition number,
    the bands splitting ``KAPPA2_RANGE`` geometrically, so every seed gets
    the same spread of difficulty."""
    rng = _rng(seed, 1)
    edges = np.geomspace(*KAPPA2_RANGE, instances + 1)
    chosen = [None] * instances
    draws = 0
    while None in chosen:
        if draws >= 1000 * instances:
            raise RuntimeError("could not fill every difficulty band")
        _, family = PLANTED_FAMILIES[draws % len(PLANTED_FAMILIES)]
        draws += 1
        inst, kappa2 = planted(lambda phi: family(phi=phi), rng)
        band = int(np.searchsorted(edges, kappa2, side="right")) - 1
        if 0 <= band < instances and chosen[band] is None:
            chosen[band] = inst

    h = hashlib.sha256()
    ops = []
    for inst in chosen:
        n = inst.complex.n_vertices
        for _ in range(starts):
            k0 = inst.kbar + rng.uniform(-1.0, 1.0, n)
            _hash_instance(h, inst.complex, inst.prescription, k0)
            ops.append(Op(
                kind="solve",
                call=lambda c=inst.complex, p=inst.prescription, k=k0:
                    cpflow.flow.run(c, p, k, CAMPAIGN_CONFIG),
                check=lambda tr, kbar=inst.kbar: _solution_failures(tr, kbar),
            ))
    # Run the calls in a seeded order, so each band's calls are spread over
    # the pass instead of sharing one moment of the host's speed drift.
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, h.hexdigest(), call_kind="solve")


# ----------------------------------------------------------------------
# torus-ladder
# ----------------------------------------------------------------------

def _solve_rung(complex, prescription, k0, methods):
    return [cpflow.flow.run(complex, prescription, k0,
                            cpflow.flow.FlowConfig(method=m))
            for m in methods]


def build_torus_ladder(seed: int, ladder=LADDER,
                       order=LADDER_ORDER) -> Workload:
    """Planted torus grids solved at the default configuration (what
    ``cpflow solve`` runs) from the planted K plus a seeded perturbation.
    One operation is one rung: every listed method, one after another.
    A pass runs the rungs in ``order`` (indices into ``ladder``)."""
    rng = _rng(seed, 2)
    h = hashlib.sha256()
    ops = []
    for side, methods, band in ladder:
        complex = fixtures.torus_grid(side, side, phi=LADDER_PHI)
        for _ in range(1000):
            inst = make_synthetic(complex, seed=_seed_of(rng),
                                  k_range=LADDER_K_RANGE)
            if band is None:
                break
            state = evaluate(complex, inst.kbar)
            if band[0] <= (state.max_eigenvalue / state.min_eigenvalue) ** 2 <= band[1]:
                break
        else:
            raise RuntimeError(f"no {side}x{side} draw inside the band {band}")
        k0 = inst.kbar + rng.uniform(-LADDER_PERTURBATION, LADDER_PERTURBATION,
                                     complex.n_vertices)
        _hash_instance(h, complex, inst.prescription, k0)
        ops.append(Op(
            kind="rung",
            call=lambda c=complex, p=inst.prescription, k=k0, ms=methods:
                _solve_rung(c, p, k, ms),
            check=lambda traces, kbar=inst.kbar:
                [f for tr in traces for f in _solution_failures(tr, kbar)],
            count=len(methods),
            # The flows and the small Newton solves are interpreter-bound;
            # the V=2025 Newton rung is dense linear algebra.
            interpreter_bound=side <= 20,
        ))
    ops = [ops[i] for i in order]
    return Workload(ops, h.hexdigest(), call_kind="rung")


# ----------------------------------------------------------------------
# cli-certify
# ----------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cpflow.cli.main(argv)
    return code, out.getvalue()


def _check_failures(result, feasible: bool) -> list[str]:
    code, text = result
    m = _MARGIN.search(text)
    if code != (0 if feasible else 1) or m is None:
        return [f"check: exit {code}, output {text.strip()!r}"]
    margin = float(m.group(1))
    if (margin < 0.0) != feasible:
        return [f"check: margin {margin} has the wrong sign"]
    return []


def _diverge_failures(result) -> list[str]:
    code, text = result
    m = _CERTIFICATE.search(text)
    if code != 3 or m is None or not float(m.group(1)) > 0.0:
        return [f"solve: exit {code}, output {text.strip()!r}"]
    return []


def build_cli_certify(seed: int, workdir: Path, mix=CLI_MIX) -> Workload:
    """Instance files written to ``workdir``: half planted (feasible), half
    with one vertex over its edge budget (infeasible).  Every file goes
    through ``cpflow check``; every infeasible file also through a
    diverging ``cpflow solve --method curvature`` that writes a trace and a
    solution report."""
    rng = _rng(seed, 3)
    inputs = workdir / "inputs"
    outputs = workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    ops = []
    index = 0
    for label, complex_for, count in mix:
        for j in range(count):
            inst, _ = planted(complex_for, rng)
            feasible = j % 2 == 0
            prescription = inst.prescription if feasible else violator(inst, rng)
            text = serialize_instance(inst.complex, prescription)
            stem = f"{index:03d}-{label}-{'feasible' if feasible else 'infeasible'}"
            path = inputs / f"{stem}.icp"
            path.write_text(text)
            h.update(text.encode())
            index += 1
            ops.append(Op(
                kind="check",
                call=lambda p=str(path): _cli(["check", p]),
                check=lambda r, ok=feasible: _check_failures(r, ok),
            ))
            if not feasible:
                argv = ["solve", str(path), "--method", "curvature",
                        "--trace", str(outputs / f"{stem}.trace.tsv"),
                        "--solution", str(outputs / f"{stem}.solution.txt")]
                ops.append(Op(kind="solve",
                                 call=lambda a=argv: _cli(a),
                                 check=_diverge_failures))
    # A seeded order spreads each size class over the pass (see planted-small).
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops, h.hexdigest(), call_kind="check")


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "planted-small":
        return build_planted_small(seed)
    if name == "torus-ladder":
        return build_torus_ladder(seed)
    if name == "cli-certify":
        return build_cli_certify(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
