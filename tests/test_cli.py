import subprocess
import sys

import numpy as np
import pytest

import cpflow.cli
from cpflow import (IntegrationError, NonConvergenceError, Prescription,
                    evaluate, fixtures, make_synthetic, serialize_instance)
from cpflow.cli import main
from conftest import single_vertex_violator

L_REF = 4.05306515313624


def write_instance(path, complex, prescription=None, initial_k=None):
    path.write_text(serialize_instance(complex, prescription, initial_k))
    return str(path)


@pytest.fixture
def tetra_file(tmp_path):
    tetra = fixtures.tetrahedron()
    p = Prescription(np.full(4, L_REF))
    return write_instance(tmp_path / "tetra.icp", tetra, p)


@pytest.fixture
def infeasible_file(tmp_path):
    name, complex, bad, v = single_vertex_violator(1)
    return write_instance(tmp_path / "bad.icp", complex, bad)


class TestValidate:
    def test_valid_instance(self, tetra_file, capsys):
        assert main(["validate", tetra_file]) == 0
        assert "valid, chi=2" in capsys.readouterr().out

    def test_loop_rejected(self, tmp_path, capsys):
        doc = """\
[vertices]
a b
[edges]
aa a a pi/2
ab a b pi/2
[faces]
f0 aa ab
f1 aa ab
"""
        path = tmp_path / "loop.icp"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 1
        assert "loop" in capsys.readouterr().out

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "broken.icp"
        path.write_text("[vertices]\na a\n")
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.icp")]) == 2


class TestCheck:
    def test_feasible(self, tetra_file, capsys):
        # every instance, however small, goes through the min-cut decider
        assert main(["check", tetra_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("feasible")
        assert "method=min-cut" in out

    def test_infeasible(self, infeasible_file, capsys):
        assert main(["check", infeasible_file]) == 1
        out = capsys.readouterr().out
        assert out.startswith("infeasible")
        assert "worst_subset=" in out

    def test_boundary_flagged(self, tmp_path, capsys):
        tetra = fixtures.tetrahedron()
        lhat = np.full(4, 0.1)
        lhat[0] = 2.0 * float(np.sum(tetra.phi[[0, 1, 2]]))
        path = write_instance(tmp_path / "edge.icp", tetra, Prescription(lhat))
        assert main(["check", path]) == 1
        assert "(boundary)" in capsys.readouterr().out

    def test_mincut_used_above_cutoff(self, tmp_path, capsys):
        # there is no size cutoff any more; a large instance takes the same
        # min-cut route as the tetrahedron above
        c = fixtures.necklace(18)
        path = write_instance(tmp_path / "big.icp", c,
                              Prescription(np.full(18, 0.2)))
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("feasible")
        assert "method=min-cut" in out

    def test_missing_prescription(self, tmp_path):
        path = write_instance(tmp_path / "bare.icp", fixtures.tetrahedron())
        assert main(["check", path]) == 2


class TestSolve:
    def test_converged(self, tetra_file, tmp_path, capsys):
        trace = tmp_path / "out.trace.tsv"
        solution = tmp_path / "out.solution.txt"
        code = main(["solve", tetra_file, "--trace", str(trace),
                     "--solution", str(solution)])
        assert code == 0
        assert "converged" in capsys.readouterr().out
        assert trace.exists() and solution.exists()
        assert "# verdict converged" in trace.read_text()
        # planted solution is r = pi/4 per vertex
        body = solution.read_text().split("[vertices]")[1].split("[faces]")[0]
        rows = [l for l in body.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 4
        for line in rows:
            assert abs(float(line.split()[2]) - np.pi / 4) < 1e-6

    def test_curvature_method_matches(self, tetra_file, capsys):
        assert main(["solve", tetra_file, "--method", "curvature"]) == 0

    def test_newton_method(self, tetra_file):
        assert main(["solve", tetra_file, "--method", "newton"]) == 0

    def test_diverged_with_certificate(self, infeasible_file, capsys):
        code = main(["solve", infeasible_file, "--method", "curvature"])
        assert code == 3
        out = capsys.readouterr().out
        assert "diverged" in out
        assert "infeasible: subset=" in out

    def test_budget_exhausted(self, tetra_file, tmp_path):
        code = main(["solve", tetra_file, "--seed", "9",
                     "--max-time", "1e-7", "--tol", "1e-14"])
        assert code == 4

    def test_seeded_traces_are_byte_identical(self, tetra_file, tmp_path):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for p in paths:
            code = main(["solve", tetra_file, "--integrator", "rk4",
                         "--step", "0.05", "--tol", "1e-8",
                         "--seed", "12", "--trace", str(p)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_initial_k_used(self, tmp_path, capsys):
        tetra = fixtures.tetrahedron()
        p = Prescription(np.full(4, L_REF))
        path = write_instance(tmp_path / "warm.icp", tetra, p,
                              initial_k=np.zeros(4))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "t=0 " in out  # converged immediately at the planted start

    def test_report_geometry(self, tetra_file, capsys):
        assert main(["solve", tetra_file, "--report-geometry"]) == 0
        out = capsys.readouterr().out
        assert "cone_angle" in out
        assert "face" in out

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"),
                                             ("--max-time", "nan"),
                                             ("--step", "inf")])
    def test_non_finite_flag_rejected(self, tetra_file, capsys, flag, value):
        assert main(["solve", tetra_file, flag, value]) == 2
        assert "finite" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["solve"]) == 2
        assert main(["frobnicate", "x"]) == 2

    def test_batch_directory(self, tmp_path, capsys):
        tetra = fixtures.tetrahedron()
        good = Prescription(np.full(4, L_REF))
        write_instance(tmp_path / "one.icp", tetra, good, initial_k=np.zeros(4))
        inst = make_synthetic(fixtures.cube_graph(), seed=95)
        write_instance(tmp_path / "two.icp", inst.complex, inst.prescription)
        out = tmp_path / "traces"
        code = main(["solve", str(tmp_path), "--trace", str(out)])
        assert code == 0
        assert (out / "one.trace.tsv").exists()
        assert (out / "two.trace.tsv").exists()

    def test_batch_runs_in_name_order(self, tmp_path, capsys):
        # the first file takes longest, so completion order would differ
        inst = make_synthetic(fixtures.cube_graph(), seed=98)
        write_instance(tmp_path / "a.icp", inst.complex, inst.prescription)
        for stem in ("c", "d", "b"):
            write_instance(tmp_path / f"{stem}.icp", fixtures.tetrahedron(),
                           Prescription(np.full(4, L_REF)),
                           initial_k=np.zeros(4))
        assert main(["solve", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert [l.split()[0] for l in out.splitlines()] == [
            "a.icp:", "b.icp:", "c.icp:", "d.icp:"]

    def test_batch_exit_code_is_worst(self, tmp_path):
        tetra = fixtures.tetrahedron()
        write_instance(tmp_path / "good.icp", tetra,
                       Prescription(np.full(4, L_REF)), initial_k=np.zeros(4))
        name, complex, bad, v = single_vertex_violator(2)
        write_instance(tmp_path / "bad.icp", complex, bad)
        code = main(["solve", str(tmp_path), "--method", "curvature"])
        assert code == 3


def test_module_entry_point(tetra_file):
    proc = subprocess.run([sys.executable, "-m", "cpflow", "validate", tetra_file],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


class TestNumericalFailure:
    """A solver failure is one file's outcome (exit 4), not a traceback."""

    @pytest.fixture(params=[
        IntegrationError("step size underflow at t=0.5 (local error 1e-3)"),
        NonConvergenceError("linear solve failed"),
        np.linalg.LinAlgError("Singular matrix"),
    ], ids=["integration", "non-convergence", "linalg"])
    def failing_run(self, request, monkeypatch):
        """Makes every run on a 4-vertex complex raise the error."""
        real_run = cpflow.cli.run

        def run(complex, *args, **kwargs):
            if complex.n_vertices == 4:
                raise request.param
            return real_run(complex, *args, **kwargs)

        monkeypatch.setattr(cpflow.cli, "run", run)
        return request.param

    def test_single_file(self, tetra_file, capsys, failing_run):
        assert main(["solve", tetra_file]) == 4
        err = capsys.readouterr().err
        assert err == f"tetra.icp: error: numerical failure: {failing_run}\n"

    def test_batch_continues_past_the_failure(self, tmp_path, capsys,
                                              failing_run):
        write_instance(tmp_path / "b.icp", fixtures.tetrahedron(),
                       Prescription(np.full(4, L_REF)))
        for stem, seed in (("a", 96), ("c", 97)):
            inst = make_synthetic(fixtures.cube_graph(), seed=seed)
            write_instance(tmp_path / f"{stem}.icp", inst.complex,
                           inst.prescription)
        solutions = tmp_path / "solutions"
        code = main(["solve", str(tmp_path), "--solution", str(solutions)])
        assert code == 4
        out, err = capsys.readouterr()
        assert err == f"b.icp: error: numerical failure: {failing_run}\n"
        assert [l.split()[:2] for l in out.splitlines()] == [
            ["a.icp:", "converged"], ["c.icp:", "converged"]]
        assert sorted(p.name for p in solutions.iterdir()) == [
            "a.solution.txt", "c.solution.txt"]


class TestHonestVerdicts:
    """Exit 3 only where the certificate proves infeasibility."""

    def tetra_with(self, tmp_path, lhat_d):
        lhat = np.array([4.053, 4.053, 4.053, lhat_d])
        return write_instance(tmp_path / "tetra.icp", fixtures.tetrahedron(),
                              Prescription(lhat))

    def test_divergence_of_a_feasible_prescription(self, tmp_path, capsys):
        path = self.tetra_with(tmp_path, 3.9)
        assert main(["check", path]) == 0
        capsys.readouterr()
        code = main(["solve", path, "--integrator", "rk4", "--step", "1e300",
                     "--trace", str(tmp_path / "t.tsv")])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("tetra.icp: error: numerical failure: flow diverged "
                       "although the prescription is feasible "
                       "(worst margin -2.79055592154)\n")

    def test_newton_without_descent(self, tmp_path, capsys):
        path = self.tetra_with(tmp_path, 9.5)
        assert main(["check", path]) == 1
        capsys.readouterr()
        assert main(["solve", path, "--method", "newton"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("tetra.icp: error: numerical failure: "
                              "backtracking found no decrease")

    def test_newton_failure_names_the_violated_subset(self, tmp_path, capsys):
        path = self.tetra_with(tmp_path, 9.5)
        assert main(["solve", path, "--method", "newton"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("tetra.icp: error: numerical failure: backtracking "
                       "found no decrease; prescription infeasible: "
                       "subset={v0,v1,v2,v3} margin=2.80944407846\n")
