import argparse
import subprocess
import sys

import numpy as np
import pytest

import cpflow.cli
import cpflow.flow
from cpflow import (Prescription, evaluate, fixtures, make_synthetic,
                    serialize_instance)
from cpflow.cli import main
from cpflow.errors import NonConvergenceError
from cpflow.surface import edge_neighborhood
from conftest import count_computed, single_vertex_violator, wedge

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

    @pytest.mark.parametrize("argv", [
        ["validate"], ["check"], ["solve", "--method", "calabi"],
        ["solve", "--method", "curvature"], ["solve", "--method", "newton"],
    ], ids=["validate", "check", "calabi", "curvature", "newton"])
    def test_edgeless_complex_rejected(self, tmp_path, capsys, argv):
        # A lone vertex has chi = 1 but no edge to carry a circle pattern.
        path = tmp_path / "lone.icp"
        path.write_text("[vertices]\na\n[prescription]\na 1\n")
        assert main(argv[:1] + [str(path)] + argv[1:]) == 1
        out, err = capsys.readouterr()
        assert out == "violation: complex has no edges\n"
        assert err == ""

    @pytest.mark.parametrize("argv", [["validate"], ["check"], ["solve"]],
                             ids=["validate", "check", "solve"])
    def test_open_face_walk_rejected(self, tmp_path, capsys, argv):
        # Every edge lies on two walks and chi = 2, but f1 jumps from ab to
        # the far edge cd, so it bounds no face.
        path = tmp_path / "square.icp"
        path.write_text("[vertices]\na b c d\n[edges]\nab a b pi/2\n"
                        "bc b c pi/2\ncd c d pi/2\nda d a pi/2\n[faces]\n"
                        "f0 ab bc cd da\nf1 ab cd bc da\n"
                        "[prescription]\na 1\nb 1\nc 1\nd 1\n")
        assert main(argv + [str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "violation: face f1 is not a closed walk\n"
        assert err == ""

    @pytest.mark.parametrize("argv", [["validate"], ["check"], ["solve"]],
                             ids=["validate", "check", "solve"])
    def test_pinched_complex_rejected(self, tmp_path, capsys, argv):
        # A torus and a tetrahedron glued at v0 pass every other check,
        # and the prescription would be feasible.
        path = write_instance(tmp_path / "wedge.icp", wedge(),
                              Prescription(np.ones(12)))
        assert main(argv + [path]) == 1
        out, err = capsys.readouterr()
        assert out == ("violation: vertex v0 is not a surface point: its "
                       "faces form 2 cycles\n")
        assert err == ""

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "broken.icp"
        path.write_text("[vertices]\na a\n")
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.icp")]) == 2

    def test_angle_violations_print_plain_numbers(self, tmp_path, capsys):
        path = tmp_path / "angles.icp"
        path.write_text("[vertices]\na b\n[edges]\nab a b nan\nba a b 0pi\n"
                        "[faces]\nf0 ab ba\nf1 ab ba\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "violation: edge ab has intersection angle nan outside (0, pi/2]\n"
            "violation: edge ba has intersection angle 0.0 outside (0, pi/2]\n")


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

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.icp"
        path.write_bytes(b"\xff\xfe[vertices]\n")
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: cannot read {path}: 'utf-8' codec can't "
                       "decode byte 0xff in position 0: invalid start byte\n")

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        # as some editors save UTF-8; 4 < 2 pi, so the bigon is feasible
        path = tmp_path / "bom.icp"
        path.write_bytes(b"\xef\xbb\xbf[vertices]\na b\n[edges]\n"
                         b"ab a b pi/2\nba a b pi/2\n[faces]\nf0 ab ba\n"
                         b"f1 ab ba\n[prescription]\na 2\nb 2\n")
        assert main(["validate", str(path)]) == 0
        assert main(["check", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("valid, chi=2\nfeasible ")
        assert err == ""

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

    def test_budget_exhausted_prints_its_certificate(self, tmp_path, capsys):
        # 7 > 2 pi, the budget of a's two edges at pi/2: infeasible, and the
        # Calabi flow is still short of the clamp at t = 1.
        path = tmp_path / "bigon.icp"
        path.write_text("[vertices]\na b\n[edges]\nab a b pi/2\n"
                        "ba a b pi/2\n[faces]\nf0 ab ba\nf1 ab ba\n"
                        "[prescription]\na 7\nb 2\n")
        trace = tmp_path / "bigon.tsv"
        code = main(["solve", str(path), "--max-time", "1",
                     "--trace", str(trace)])
        assert code == 4
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("bigon.icp: budget-exhausted t=1 ")
        assert out[1] == "  infeasible: subset={a,b} margin=2.71681469282"
        assert "# certificate_subset a,b" in trace.read_text().splitlines()

    def test_seeded_traces_are_byte_identical(self, tetra_file, tmp_path):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for p in paths:
            code = main(["solve", tetra_file, "--tol", "1e-8",
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

    def test_initial_k_past_the_clamp_rejected(self, tmp_path, capsys):
        tetra = fixtures.tetrahedron()
        p = Prescription(np.full(4, L_REF))
        path = write_instance(tmp_path / "far.icp", tetra, p,
                              initial_k=np.array([30.0, 0.0, 0.0, 0.0]))
        assert main(["solve", str(path)]) == 2
        assert "K0 lies past the radius clamp" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"),
                                             ("--max-time", "nan")])
    def test_non_finite_flag_rejected(self, tetra_file, capsys, flag, value):
        assert main(["solve", tetra_file, flag, value]) == 2
        assert "finite" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["solve"]) == 2
        assert main(["frobnicate", "x"]) == 2

    def test_report_geometry_flag_removed(self, tetra_file, capsys):
        # The solution report (--solution) carries the solved geometry.
        assert main(["solve", tetra_file, "--report-geometry"]) == 2
        assert ("unrecognized arguments: --report-geometry"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("seed", ["-1", "99999999999999999999999",
                                      "18446744073709551616"])
    def test_seed_out_of_range_rejected(self, tetra_file, capsys, seed):
        assert main(["solve", tetra_file, f"--seed={seed}"]) == 2
        assert "argument --seed: seed " + seed + " lies outside [0, 2**64)" \
            in capsys.readouterr().err

    def test_seed_that_is_not_an_integer_rejected(self, tetra_file, capsys):
        assert main(["solve", tetra_file, "--seed", "abc"]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: invalid seed 'abc'" in err
        assert "Traceback" not in err

    def test_missing_prescription(self, tmp_path, capsys):
        path = write_instance(tmp_path / "bare.icp", fixtures.tetrahedron())
        assert main(["solve", path]) == 2
        assert capsys.readouterr() == (
            "", "error: instance has no [prescription] section\n")

    def test_directory_without_instances(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not an instance\n")
        assert main(["solve", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: no *.icp instances in {tmp_path}\n")

    def test_largest_seed_accepted(self, tetra_file):
        assert main(["solve", tetra_file, "--seed", str(2 ** 64 - 1)]) == 0

    @pytest.mark.parametrize("flag", ["--trace", "--solution"])
    def test_unwritable_output_path(self, tetra_file, tmp_path, capsys, flag):
        target = tmp_path / "missing" / "out.txt"
        assert main(["solve", tetra_file, flag, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"tetra.icp: error: cannot write {target}: "
                       "No such file or directory\n")

    def test_batch_continues_past_an_unwritable_output(self, tmp_path, capsys):
        for stem in ("a", "b", "c"):
            write_instance(tmp_path / f"{stem}.icp", fixtures.tetrahedron(),
                           Prescription(np.full(4, L_REF)),
                           initial_k=np.zeros(4))
        traces = tmp_path / "traces"
        (traces / "b.trace.tsv").mkdir(parents=True)
        code = main(["solve", str(tmp_path), "--trace", str(traces)])
        assert code == 2
        out, err = capsys.readouterr()
        assert err == (f"b.icp: error: cannot write {traces / 'b.trace.tsv'}: "
                       "Is a directory\n")
        assert [l.split()[:2] for l in out.splitlines()] == [
            ["a.icp:", "converged"], ["c.icp:", "converged"]]
        assert (traces / "a.trace.tsv").is_file()
        assert (traces / "c.trace.tsv").is_file()

    def test_batch_continues_past_a_non_utf8_file(self, tmp_path, capsys):
        for stem in ("a", "c"):
            write_instance(tmp_path / f"{stem}.icp", fixtures.tetrahedron(),
                           Prescription(np.full(4, L_REF)),
                           initial_k=np.zeros(4))
        (tmp_path / "b.icp").write_bytes(b"\xff\xfe[vertices]\n")
        assert main(["solve", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"b.icp: error: cannot read {tmp_path / 'b.icp'}: ")
        assert [l.split()[:2] for l in out.splitlines()] == [
            ["a.icp:", "converged"], ["c.icp:", "converged"]]

    def test_traced_divergence_above_the_cut_takes_no_spectrum(
            self, tmp_path, monkeypatch, capsys):
        # A diverging run records no smallest eigenvalue, and the trace
        # writer computes none.
        c = fixtures.torus_grid(10, 10, phi=1.3)
        inst = make_synthetic(c, seed=93, k_range=(-1.0, 1.0))
        lhat = inst.prescription.lhat.copy()
        lhat[0] = 2.1 * sum(c.phi[e] for e in edge_neighborhood(c, [0])) + 0.3
        path = write_instance(tmp_path / "bad.icp", c, Prescription(lhat))
        spectra = count_computed(monkeypatch, "eigenvalues")
        dense = count_computed(monkeypatch, "J")
        trace = tmp_path / "t.tsv"
        assert main(["solve", path, "--method", "curvature", "--trace",
                     str(trace), "--solution", str(tmp_path / "s.txt")]) == 3
        assert spectra == [] and dense == []
        assert "# verdict diverged" in trace.read_text()

    def test_batch_output_directory_unwritable(self, tmp_path, capsys):
        write_instance(tmp_path / "a.icp", fixtures.tetrahedron(),
                       Prescription(np.full(4, L_REF)), initial_k=np.zeros(4))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["solve", str(tmp_path), "--trace", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {blocker}: ")

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


class TestOneParser:
    """``main`` reuses one parser, and no call sees another's options."""

    def test_built_once_however_many_calls(self, tetra_file, infeasible_file,
                                           monkeypatch, capsys):
        assert cpflow.cli.build_parser() is cpflow.cli.build_parser()
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        cpflow.cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [main(["check", tetra_file]), main(["check", infeasible_file]),
                 main(["validate", tetra_file]), main(["solve"]),
                 main(["solve", tetra_file, "--method", "newton"])]
        assert codes == [0, 1, 0, 2, 0]
        # one tree: the top-level parser and its three subcommand parsers
        assert built == ["cpflow", "cpflow validate", "cpflow check",
                         "cpflow solve"]

    def test_solve_options_do_not_carry_over(self, tetra_file, tmp_path,
                                             capsys):
        def solve_defaults(directory):
            # the same tetra.icp, solved with every option at its default
            directory.mkdir()
            instance = write_instance(directory / "tetra.icp",
                                      fixtures.tetrahedron(),
                                      Prescription(np.full(4, L_REF)))
            trace = directory / "b.tsv"
            assert main(["solve", instance, "--trace", str(trace)]) == 0
            return capsys.readouterr().out, trace.read_bytes()

        fresh = solve_defaults(tmp_path / "fresh")
        assert main(["solve", tetra_file, "--method", "curvature",
                     "--tol", "1e-8", "--seed", "12",
                     "--trace", str(tmp_path / "a.tsv")]) == 0
        capsys.readouterr()
        assert solve_defaults(tmp_path / "after") == fresh
        assert b"# method calabi\n" in fresh[1]

    def test_solve_defaults_are_the_flow_defaults(self):
        parser = cpflow.cli.build_parser()
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in subcommands.choices["solve"]._actions
                      if a.dest == "method")
        assert tuple(method.choices) == cpflow.flow.METHODS
        args = parser.parse_args(["solve", "x.icp"])
        defaults = cpflow.flow.FlowConfig()
        assert (args.method, args.tol, args.max_time) == (
            defaults.method, defaults.tol_curvature, defaults.max_time)

    def test_check_unchanged_by_usage_error_and_help(self, tetra_file, capsys):
        assert main(["check", tetra_file]) == 0
        before = capsys.readouterr().out
        assert main(["solve"]) == 2
        assert main(["--help"]) == 0
        assert "usage: cpflow" in capsys.readouterr().out
        assert main(["check", tetra_file]) == 0
        assert capsys.readouterr().out == before
        assert before.startswith("feasible ")


class TestNumericalFailure:
    """A solver failure is one file's outcome (exit 4), not a traceback."""

    TINY_BIGON = """\
[vertices]
a b
[edges]
ab a b 1e-300
ba a b 1e-300
[faces]
f0 ab ba
f1 ab ba
[prescription]
a 1e-6
b 1e-6
"""

    # A target near the largest double overflows the energy and J's
    # products.
    HUGE_TARGET_BIGON = """\
[vertices]
a b
[edges]
ab a b pi/2
ba a b pi/2
[faces]
f0 ab ba
f1 ab ba
[prescription]
a 1e308
b 2
"""

    # 1 / sin phi overflows at a subnormal angle.
    SUBNORMAL_ANGLE_BIGON = """\
[vertices]
a b
[edges]
ab a b 1e-320
ba a b pi/2
[faces]
f0 ab ba
f1 ab ba
[prescription]
a 2
b 2
"""

    @pytest.mark.parametrize("text, method", [
        pytest.param(text, method, id=prefix + method)
        for prefix, text in (("", TINY_BIGON),
                             ("huge-target-", HUGE_TARGET_BIGON),
                             ("subnormal-angle-", SUBNORMAL_ANGLE_BIGON))
        for method in ("calabi", "curvature", "newton")])
    def test_tiny_angles_end_without_a_traceback(self, tmp_path, text, method):
        # Below an angle of about 1e-162, lambda_max^2 of J underflows to
        # 0; a zero step ceiling caps nothing.  Overflow ends as a verdict,
        # not as a warning.
        path = tmp_path / "tiny.icp"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "cpflow", "solve", str(path),
             "--method", method], capture_output=True, text=True)
        assert 0 <= proc.returncode <= 4
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("method", ["calabi", "curvature", "newton"])
    def test_feasible_subnormal_angle_converges(self, tmp_path, method):
        # The mixed partial of the 1e-320 edge stays finite, so every
        # method solves the feasible prescription.
        path = tmp_path / "subnormal.icp"
        path.write_text(self.SUBNORMAL_ANGLE_BIGON.replace(
            "a 2\nb 2\n", "a 1\nb 1\n"))
        proc = subprocess.run(
            [sys.executable, "-m", "cpflow", "solve", str(path),
             "--method", method], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "converged" in proc.stdout
        assert proc.stderr == ""

    @pytest.fixture(params=[
        NonConvergenceError("step size underflow at t=0.5 (local error 1e-3)"),
        NonConvergenceError("linear solve failed"),
        np.linalg.LinAlgError("Singular matrix"),
    ], ids=["integration", "non-convergence", "linalg"])
    def failing_run(self, request, monkeypatch):
        """Makes the step ceiling of every run on a 4-vertex complex raise
        the error, after the run's start sample."""
        real_eigenvalue = cpflow.flow.extreme_eigenvalue

        def eigenvalue(state, *args):
            if state.complex.n_vertices == 4:
                raise request.param
            return real_eigenvalue(state, *args)

        monkeypatch.setattr(cpflow.flow, "extreme_eigenvalue", eigenvalue)
        return request.param

    def assert_failed_trace(self, path, failure):
        lines = path.read_text().splitlines()
        at = lines.index("# verdict numerical-failure")
        assert lines[at + 1] == f"# failure {failure}"
        assert len([l for l in lines if not l.startswith("#")]) == 1

    def test_single_file(self, tetra_file, tmp_path, capsys, failing_run):
        # The tetrahedron's own start is its solution; a seeded start is not.
        trace = tmp_path / "t.tsv"
        assert main(["solve", tetra_file, "--seed", "1",
                     "--trace", str(trace)]) == 4
        err = capsys.readouterr().err
        assert err == f"tetra.icp: error: numerical failure: {failing_run}\n"
        self.assert_failed_trace(trace, failing_run)

    def test_batch_continues_past_the_failure(self, tmp_path, capsys,
                                              failing_run):
        write_instance(tmp_path / "b.icp", fixtures.tetrahedron(),
                       Prescription(np.full(4, L_REF)))
        for stem, seed in (("a", 96), ("c", 97)):
            inst = make_synthetic(fixtures.cube_graph(), seed=seed)
            write_instance(tmp_path / f"{stem}.icp", inst.complex,
                           inst.prescription)
        solutions, traces = tmp_path / "solutions", tmp_path / "traces"
        code = main(["solve", str(tmp_path), "--seed", "1",
                     "--solution", str(solutions), "--trace", str(traces)])
        assert code == 4
        out, err = capsys.readouterr()
        assert err == f"b.icp: error: numerical failure: {failing_run}\n"
        assert [l.split()[:2] for l in out.splitlines()] == [
            ["a.icp:", "converged"], ["c.icp:", "converged"]]
        assert sorted(p.name for p in solutions.iterdir()) == [
            "a.solution.txt", "c.solution.txt"]
        self.assert_failed_trace(traces / "b.trace.tsv", failing_run)


class TestHonestVerdicts:
    """Exit 3 only where the certificate proves infeasibility."""

    # On the feasible lhat_d = 3.9, Newton steps from here land past the
    # radius clamp.
    FAR_START = (20.0, -20.0, 0.0, 0.0)

    def tetra_with(self, tmp_path, lhat_d, initial_k=None):
        lhat = np.array([4.053, 4.053, 4.053, lhat_d])
        return write_instance(tmp_path / "tetra.icp", fixtures.tetrahedron(),
                              Prescription(lhat), initial_k)

    def test_divergence_of_a_feasible_prescription(self, tmp_path, capsys):
        path = self.tetra_with(tmp_path, 3.9, self.FAR_START)
        assert main(["check", path]) == 0
        capsys.readouterr()
        code = main(["solve", path, "--method", "newton",
                     "--trace", str(tmp_path / "t.tsv")])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("tetra.icp: error: numerical failure: flow diverged "
                       "although the prescription is feasible "
                       "(worst margin -2.79055592154)\n")

    @pytest.mark.parametrize("lhat_d, k0, rows, failure", [
        (3.9, FAR_START, 3,
         "flow diverged although the prescription is feasible "
         "(worst margin -2.79055592154)"),
        (9.5, None, None, "backtracking found no decrease"),
    ], ids=["diverged-feasible", "newton-no-descent"])
    def test_failed_solve_writes_its_partial_trace(self, tmp_path, capsys,
                                                    lhat_d, k0, rows,
                                                    failure):
        path = self.tetra_with(tmp_path, lhat_d, k0)
        trace = tmp_path / "t.tsv"
        assert main(["solve", path, "--method", "newton",
                     "--trace", str(trace)]) == 4
        assert "numerical failure" in capsys.readouterr().err
        lines = trace.read_text().splitlines()
        at = lines.index("# verdict numerical-failure")
        assert lines[at + 1] == f"# failure {failure}"
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) >= 1 and (rows is None or len(body) == rows)

    @pytest.mark.parametrize("lhat_d, k0", [(3.9, FAR_START), (9.5, None)],
                             ids=["diverged-feasible", "newton-no-descent"])
    def test_failed_solve_computes_one_min_cut(self, tmp_path, monkeypatch,
                                               lhat_d, k0):
        calls = []
        for module in (cpflow.flow, cpflow.cli):
            def counted(*args, real=module.check_mincut):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(module, "check_mincut", counted)
        path = self.tetra_with(tmp_path, lhat_d, k0)
        assert main(["solve", path, "--method", "newton"]) == 4
        assert len(calls) == 1

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
