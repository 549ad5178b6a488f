"""cpflow benchmark: one workload per invocation, closed loop, one caller.

Usage, from the root of a checkout::

    python3 bench/run.py --workload planted-small --seed 1 --seconds 20 --trace 0

Set-up (a fresh interpreter importing cpflow, plus input generation;
median of ``SETUP_REPS`` repetitions) is timed apart from the passes.  A
pass runs every operation of the workload once, each starting after the
previous one returns, and checks each answer.  Passes repeat until
``--seconds`` have elapsed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one traced pass, and prints the per-layer metrics
of the traced pass plus the tracing overhead; its spans are written to
``.bench_work/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the environment and a digest of the generated inputs.
"""

import os

# Threaded BLAS makes small-matrix timings erratic; pin it before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
# The speed of the host (a 2-vCPU Xeon VM) drifts by up to 1.7x over
# seconds: a fixed loop flips between about 0.6 ms and 1.0 ms.
# Interpreter-bound code follows that drift and dense linear algebra barely
# does.  So the time of an interpreter-bound operation is reported at the
# speed at which calibrate() takes CALIBRATION_S.
CALIBRATION_S = 1e-3
WORKLOADS = ("planted-small", "torus-ladder", "cli-certify")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def calibrate() -> float:
    """Best of two timings of a fixed loop of interpreter and small-array
    numpy work that does not touch cpflow (about a millisecond)."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 16)
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(150):
            acc += float((np.sin(x) * np.cos(x) + np.arctan2(x, x + 1.0)).sum()) + i
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the host speed where calibrate() takes CALIBRATION_S,
    given the calibrations just before and just after."""
    return seconds * CALIBRATION_S / math.sqrt(before * after)


def run_pass(workload):
    """Run every operation once, each between two calibrations.

    Returns (pass seconds, call latencies, attempted, failures, unscaled
    pass seconds).  An interpreter-bound operation's time is scaled by the
    calibrations around it; other operations keep their wall time.
    """
    latencies, failures, attempted = [], [], 0
    total = raw = 0.0
    before = calibrate()
    for op in workload.ops:
        attempted += op.count
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation, not a failed benchmark
            elapsed = time.perf_counter() - t0
            failures.extend([f"{op.kind}: raised {exc!r}"] * op.count)
        else:
            elapsed = time.perf_counter() - t0
            failures.extend(op.check(result)[:op.count])
        after = calibrate()
        raw += elapsed
        if op.interpreter_bound:
            elapsed = scaled(elapsed, before, after)
        before = after
        total += elapsed
        if op.kind == workload.call_kind:
            latencies.append(elapsed)
    return total, latencies, attempted, failures, raw


def start_and_import() -> None:
    """Start a fresh interpreter that imports cpflow (and numpy), as every
    ``cpflow`` command does."""
    subprocess.run([sys.executable, "-c", "import cpflow.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   timeout=120)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cpflow" / "__init__.py").is_file():
        print(f"error: no cpflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads   # imports numpy and cpflow
    import cpflow
    if Path(cpflow.__file__).resolve().parent != SRC / "cpflow":
        print(f"error: cpflow was imported from {cpflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times = []
        before = calibrate()
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            t = time.perf_counter()
            start_and_import()
            workload = workloads.build(args.workload, args.seed, workdir)
            elapsed = time.perf_counter() - t
            after = calibrate()
            if all(op.interpreter_bound for op in workload.ops):
                elapsed = scaled(elapsed, before, after)
            setup_times.append(elapsed)
            before = after
        setup_s = statistics.median(setup_times)

        pass_times, raw_times, latencies, failures, attempted = [], [], [], [], 0
        started = time.perf_counter()
        while not pass_times or time.perf_counter() - started < args.seconds:
            seconds, lat, n, fails, raw = run_pass(workload)
            pass_times.append(seconds)
            raw_times.append(raw)
            latencies.extend(lat)
            attempted += n
            failures.extend(fails)
        pass_s = statistics.median(pass_times)

        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s, _, n, fails, _ = run_pass(workload)
            finally:
                tracer.uninstall()
            attempted += n
            failures.extend(fails)
            metrics = tracer.metrics()
            metrics["trace.overhead_s"] = {"value": traced_s - pass_s, "unit": "s"}
            tracer.write_spans(WORK / f"spans-{args.workload}.tsv")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "pass_s": {"value": pass_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
                "ok_share": {"value": (attempted - len(failures)) / attempted,
                             "unit": "share"},
                "call_ms.p50": {"value": 1e3 * percentile(latencies, 50), "unit": "ms"},
                "call_ms.p90": {"value": 1e3 * percentile(latencies, 90), "unit": "ms"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"inputs {args.workload} seed={args.seed} sha256:{workload.digest} "
          f"ops={len(workload.ops)} passes={len(pass_times)} calls={len(latencies)}")
    print("wall seconds per pass, unscaled: "
          + " ".join(f"{t:.3f}" for t in raw_times))
    for reason in sorted(set(failures)):
        print(f"failure: {reason}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
