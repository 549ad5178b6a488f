"""Command-line interface.

Subcommands: ``validate`` (structural checks), ``check`` (feasibility of
the prescription), ``solve`` (run a flow, print a summary line, and write
trace/solution files; the solution file is the report of the pattern).

Exit codes are a stable contract:

    0  valid / feasible / converged
    1  invalid complex or infeasible prescription
    2  parse or usage error
    3  flow diverged (infeasibility certificate printed)
    4  budget exhausted or numerical failure

``main(argv)`` may be called any number of times in one process: the
argument parser is built on the first call and reused, and no option
carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError
# check_bruteforce is not called here; it stays importable from this module
# because the benchmark's tracer counts calls through this name.
from .feasibility import (FeasibilityVerdict, check_bruteforce,  # noqa: F401
                          check_mincut)
from .flow import (METHODS, VERDICT_CONVERGED, VERDICT_DIVERGED, FlowConfig,
                   run)
from .instancefile import Instance, parse_instance, write_solution, write_trace
from .oracle import rng_for
from .surface import SurfaceComplex

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_DIVERGED = 3
EXIT_BUDGET = 4


def _load(path: Path) -> Instance:
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def _report_violations(inst: Instance) -> bool:
    violations = inst.complex.violations
    for v in violations:
        print(f"violation: {v}")
    return not violations


def _load_problem(path: Path) -> Instance | None:
    """The instance at ``path``, which needs a [prescription] section, or
    None once the violations of its complex are printed."""
    inst = _load(path)
    if not _report_violations(inst):
        return None
    if inst.prescription is None:
        raise ParseError("instance has no [prescription] section")
    return inst


def cmd_validate(args) -> int:
    inst = _load(Path(args.instance))
    if _report_violations(inst):
        print(f"valid, chi={inst.complex.euler_characteristic}")
        return EXIT_OK
    return EXIT_NEGATIVE


def _subset_text(verdict: FeasibilityVerdict, complex: SurfaceComplex) -> str:
    return "{" + ",".join(verdict.subset_names(complex)) + "}"


def cmd_check(args) -> int:
    inst = _load_problem(Path(args.instance))
    if inst is None:
        return EXIT_NEGATIVE
    verdict = check_mincut(inst.complex, inst.prescription)
    flag = " (boundary)" if verdict.boundary else ""
    word = "feasible" if verdict.feasible else "infeasible"
    print(f"{word}{flag} worst_subset={_subset_text(verdict, inst.complex)} "
          f"worst_margin={verdict.worst_margin:.12g} method={verdict.method}")
    return EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def _solve_one(path: Path, args, trace_path: Path | None,
               solution_path: Path | None) -> int:
    inst = _load_problem(path)
    if inst is None:
        return EXIT_NEGATIVE

    config = FlowConfig(
        method=args.method,
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

    trace = run(inst.complex, inst.prescription, k0, config)
    try:
        if trace_path is not None:
            target = trace_path
            with open(trace_path, "w") as fh:
                write_trace(fh, trace, inst.complex, inst.prescription, config)
        if solution_path is not None and trace.failure is None:
            target = solution_path
            with open(solution_path, "w") as fh:
                write_solution(fh, trace, inst.complex, inst.prescription)
    except OSError as exc:
        print(f"{path.name}: error: cannot write {target}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        if trace.failure is None:
            return EXIT_PARSE
    if trace.failure is not None:
        # A failure on an infeasible prescription says why: the run's
        # certificate names the violated subset.
        cert = trace.certificate
        proof = ("" if cert is None else
                 f"; prescription infeasible: subset="
                 f"{_subset_text(cert, inst.complex)} "
                 f"margin={cert.worst_margin:.12g}")
        print(f"{path.name}: error: numerical failure: {trace.failure}{proof}",
              file=sys.stderr)
        return EXIT_BUDGET

    final = trace.final
    print(f"{path.name}: {trace.verdict} t={final.t:.6g} "
          f"err_inf={final.err_inf:.6g} energy={final.energy:.6g}")
    # A diverged run always carries its certificate; a budget-exhausted one
    # carries it when the prescription is infeasible.
    cert = trace.certificate
    if cert is not None:
        print(f"  infeasible: subset={_subset_text(cert, inst.complex)} "
              f"margin={cert.worst_margin:.12g}")
    if trace.verdict == VERDICT_CONVERGED:
        return EXIT_OK
    if trace.verdict == VERDICT_DIVERGED:
        return EXIT_DIVERGED
    return EXIT_BUDGET


def _worker(path: Path, args, trace_path: Path | None,
            solution_path: Path | None) -> int:
    try:
        return _solve_one(path, args, trace_path, solution_path)
    except (ParseError, InputError) as exc:
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
    trace_dir = Path(args.trace) if args.trace else None
    solution_dir = Path(args.solution) if args.solution else None
    for d in (trace_dir, solution_dir):
        if d is not None:
            try:
                d.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ParseError(f"cannot write {d}: {exc.strerror or exc}") \
                    from exc
    codes = []
    for path in files:
        trace_path = (None if trace_dir is None
                      else trace_dir / (path.stem + ".trace.tsv"))
        solution_path = (None if solution_dir is None
                         else solution_dir / (path.stem + ".solution.txt"))
        codes.append(_worker(path, args, trace_path, solution_path))
    return max(codes)


def _seed(text: str) -> int:
    """A start-coordinate seed: an integer key of the Philox generator,
    in the range ``rng_for`` accepts."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    try:
        rng_for(seed)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``main`` reuses it on every call.

    ``parse_args`` does not change it, and each call gets a fresh
    Namespace; a caller that adds to the parser changes every later call.
    """
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
    defaults = FlowConfig()
    p.add_argument("--method", choices=METHODS, default=defaults.method)
    p.add_argument("--tol", type=float, default=defaults.tol_curvature,
                   help="termination threshold on ||L - Lhat||_inf")
    p.add_argument("--max-time", type=float, default=defaults.max_time,
                   dest="max_time", help="flow-time budget")
    p.add_argument("--trace", help="write the step-by-step trace here")
    p.add_argument("--solution",
                   help="write the solution report (radii, cone angles) here")
    p.add_argument("--seed", type=_seed, default=None,
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
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
