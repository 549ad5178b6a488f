"""Command-line interface.

Subcommands: ``validate`` (structural checks), ``check`` (feasibility of
the prescription), ``solve`` (run a flow and write trace/solution files).

Exit codes are a stable contract:

    0  valid / feasible / converged
    1  invalid complex or infeasible prescription
    2  parse or usage error
    3  flow diverged (feasibility certificate printed)
    4  budget exhausted or numerical failure
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .curvature import evaluate
from .errors import (InputError, IntegrationError, NonConvergenceError,
                     ParseError, SizeError)
# check_bruteforce is not called here; it stays importable from this module
# because the benchmark's tracer counts calls through this name.
from .feasibility import (FeasibilityVerdict, check_bruteforce,  # noqa: F401
                          check_mincut)
from .flow import VERDICT_CONVERGED, VERDICT_DIVERGED, FlowConfig, run
from .instancefile import Instance, parse_instance, write_solution, write_trace
from .oracle import rng_for
from .surface import SurfaceComplex

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DIVERGED = 3
EXIT_BUDGET = 4

# Failures of the numerics rather than of the input; reported per file.
NUMERICAL_ERRORS = (IntegrationError, NonConvergenceError, np.linalg.LinAlgError)


def _load(path: Path) -> Instance:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def _report_violations(inst: Instance) -> bool:
    violations = inst.complex.violations
    for v in violations:
        print(f"violation: {v}")
    return not violations


def cmd_validate(args) -> int:
    inst = _load(Path(args.instance))
    if _report_violations(inst):
        print(f"valid, chi={inst.complex.euler_characteristic}")
        return EXIT_OK
    return EXIT_NEGATIVE


def _subset_text(verdict: FeasibilityVerdict, complex: SurfaceComplex) -> str:
    return "{" + ",".join(verdict.subset_names(complex)) + "}"


def cmd_check(args) -> int:
    inst = _load(Path(args.instance))
    if not _report_violations(inst):
        return EXIT_NEGATIVE
    if inst.prescription is None:
        raise ParseError("instance has no [prescription] section")
    verdict = check_mincut(inst.complex, inst.prescription)
    flag = " (boundary)" if verdict.boundary else ""
    word = "feasible" if verdict.feasible else "infeasible"
    print(f"{word}{flag} worst_subset={_subset_text(verdict, inst.complex)} "
          f"worst_margin={verdict.worst_margin:.12g} method={verdict.method}")
    return EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def _solve_one(path: Path, args, trace_path: Path | None,
               solution_path: Path | None) -> int:
    inst = _load(path)
    if not _report_violations(inst):
        return EXIT_NEGATIVE
    if inst.prescription is None:
        raise ParseError("instance has no [prescription] section")

    config = FlowConfig(
        method=args.method,
        integrator=args.integrator,
        step=args.step,
        tol_curvature=args.tol,
        max_time=args.max_time,
    )
    n = inst.complex.n_vertices
    if args.seed is not None:
        k0 = rng_for(args.seed).uniform(-1.0, 1.0, size=n)
    elif inst.initial_k is not None:
        k0 = inst.initial_k
    else:
        k0 = np.zeros(n)

    cert = None
    try:
        trace = run(inst.complex, inst.prescription, k0, config)
        cert = trace.certificate
        if trace.verdict == VERDICT_DIVERGED and cert.feasible:
            # Only infeasibility can make the exact flow diverge, so this is
            # the integrator failing, not a certificate of infeasibility.
            raise NonConvergenceError(
                "flow diverged although the prescription is feasible "
                f"(worst margin {cert.worst_margin:.12g})")
        if trace_path is not None:
            with open(trace_path, "w") as fh:
                write_trace(fh, trace, inst.complex, inst.prescription, config)
        if solution_path is not None:
            with open(solution_path, "w") as fh:
                write_solution(fh, trace, inst.complex, inst.prescription)
    except NUMERICAL_ERRORS as exc:
        # A failure on an infeasible prescription says why: one max flow
        # proves it and names the violated subset.
        if cert is None:
            cert = check_mincut(inst.complex, inst.prescription)
        proof = ("" if cert.feasible else
                 f"; prescription infeasible: subset="
                 f"{_subset_text(cert, inst.complex)} "
                 f"margin={cert.worst_margin:.12g}")
        print(f"{path.name}: error: numerical failure: {exc}{proof}",
              file=sys.stderr)
        return EXIT_BUDGET

    final = trace.final
    print(f"{path.name}: {trace.verdict} t={final.t:.6g} "
          f"err_inf={final.err_inf:.6g} energy={final.energy:.6g}")
    if args.report_geometry:
        state = evaluate(inst.complex, trace.final_k())
        for v, name in enumerate(inst.complex.vertex_names):
            print(f"  vertex {name}: r={state.r[v]:.12g} K={state.K[v]:.12g} "
                  f"L={state.L[v]:.12g} cone_angle={state.alpha_v[v]:.12g}")
        for f, name in enumerate(inst.complex.face_names):
            print(f"  face {name}: cone_angle={state.alpha_f[f]:.12g}")
    if trace.verdict == VERDICT_CONVERGED:
        return EXIT_OK
    if trace.verdict == VERDICT_DIVERGED:
        print(f"  infeasible: subset={_subset_text(cert, inst.complex)} "
              f"margin={cert.worst_margin:.12g}")
        return EXIT_DIVERGED
    return EXIT_BUDGET


def _worker(path: Path, args, trace_path: Path | None,
            solution_path: Path | None) -> int:
    try:
        return _solve_one(path, args, trace_path, solution_path)
    except (ParseError, InputError, SizeError) as exc:
        print(f"{path.name}: error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def cmd_solve(args) -> int:
    target = Path(args.instance)
    if not target.is_dir():
        trace_path = Path(args.trace) if args.trace else None
        solution_path = Path(args.solution) if args.solution else None
        return _solve_one(target, args, trace_path, solution_path)

    # Batch mode: every *.icp file in the directory, one after another in
    # name order; a failing file does not stop the others.
    files = sorted(target.glob("*.icp"))
    if not files:
        raise ParseError(f"no *.icp instances in {target}")
    codes = []
    for path in files:
        trace_path = solution_path = None
        if args.trace:
            d = Path(args.trace)
            d.mkdir(parents=True, exist_ok=True)
            trace_path = d / (path.stem + ".trace.tsv")
        if args.solution:
            d = Path(args.solution)
            d.mkdir(parents=True, exist_ok=True)
            solution_path = d / (path.stem + ".solution.txt")
        codes.append(_worker(path, args, trace_path, solution_path))
    return max(codes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpflow",
        description="Ideal circle patterns with prescribed total geodesic "
                    "curvatures: validation, feasibility, and curvature flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the structural invariants")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="decide feasibility of the prescription")
    p.add_argument("instance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="run a flow (or all *.icp in a directory)")
    p.add_argument("instance")
    p.add_argument("--method", choices=("calabi", "curvature", "newton"),
                   default="calabi")
    p.add_argument("--integrator", choices=("rk4", "rkf45"), default="rkf45")
    p.add_argument("--step", type=float, default=1e-2,
                   help="initial step size (fixed size for rk4)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="termination threshold on ||L - Lhat||_inf")
    p.add_argument("--max-time", type=float, default=1e4, dest="max_time",
                   help="flow-time budget")
    p.add_argument("--trace", help="write the step-by-step trace here")
    p.add_argument("--solution", help="write the solution report here")
    p.add_argument("--report-geometry", action="store_true",
                   help="also print cone angles of the solved pattern")
    p.add_argument("--seed", type=int, default=None,
                   help="randomize the start coordinates (overrides [initial_k])")
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InputError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
