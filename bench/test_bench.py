"""Smoke test of the benchmark at tiny sizes.

Run from the root of the repository::

    python3 -m pytest bench/test_bench.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import cpflow.cli  # noqa: E402
from cpflow import fixtures  # noqa: E402

TINY_MIX = (
    ("tetrahedron", fixtures.tetrahedron, 2),
    ("torus5x5", lambda phi: fixtures.torus_grid(5, 5, phi), 2),
)


def tiny(name, seed, workdir):
    if name == "planted-small":
        return workloads.build_planted_small(seed, instances=4, starts=1)
    if name == "torus-ladder":
        return workloads.build_torus_ladder(
            seed, ladder=((4, workloads.METHODS, None),), order=(0,))
    return workloads.build_cli_certify(seed, workdir, mix=TINY_MIX)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = tiny(name, 7, tmp_path / "a")
    again = tiny(name, 7, tmp_path / "b")
    other = tiny(name, 8, tmp_path / "c")
    assert first.digest == again.digest
    assert first.digest != other.digest


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_answer_checks_out(name, tmp_path):
    workload = tiny(name, 3, tmp_path)
    _, latencies, attempted, failures, _ = run.run_pass(workload)
    assert failures == []
    assert attempted >= len(workload.ops) > 0
    assert len(latencies) == sum(op.kind == workload.call_kind
                                 for op in workload.ops)


def test_failure_counter_catches_a_wrong_expected_verdict(tmp_path):
    workload = tiny("cli-certify", 3, tmp_path)
    op = next(op for op in workload.ops if op.kind == "check")
    # Expect the opposite of the verdict the exit code reports.
    op.check = lambda result: workloads._check_failures(
        result, feasible=result[0] != 0)
    _, _, attempted, failures, _ = run.run_pass(workload)
    assert len(failures) == 1 and failures[0].startswith("check:")
    assert attempted == len(workload.ops)


def test_a_raising_operation_counts_as_failed(tmp_path):
    workload = tiny("torus-ladder", 3, tmp_path)
    workload.ops[0].call = lambda: 1 / 0
    _, _, attempted, failures, _ = run.run_pass(workload)
    assert attempted == len(failures) == len(workloads.METHODS)


def test_trace_reports_a_missing_boundary_as_absent(tmp_path, monkeypatch):
    boundaries = [b for b in tracing.BOUNDARIES
                  if b[2] != "feasibility.bruteforce"]
    boundaries.append(("cpflow.cli", "no_such_function", "feasibility.bruteforce"))
    monkeypatch.setattr(tracing, "BOUNDARIES", tuple(boundaries))
    original = cpflow.cli.check_mincut
    workload = tiny("cli-certify", 3, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, _, failures, _ = run.run_pass(workload)
    finally:
        tracer.uninstall()
    assert cpflow.cli.check_mincut is original
    metrics = tracer.metrics()
    assert failures == []
    assert metrics["feasibility.bruteforce_calls"]["value"] is None
    assert metrics["feasibility.mincut_calls"]["value"] > 0
    assert metrics["flow.runs"]["value"] == 2


def test_refuses_to_run_without_the_sources(tmp_path):
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        shutil.copy(path, tmp_path / "bench" / path.name)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"),
         "--workload", "planted-small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
