import io
import math
import time

import numpy as np
import pytest

from cpflow import (FlowConfig, ParseError, Prescription, build_complex,
                    evaluate, fixtures, instance_digest, make_synthetic,
                    parse_instance, run, serialize_instance)
from cpflow.instancefile import fmt, parse_angle, write_solution, write_trace
from cpflow.oracle import rng_for

TETRA_DOC = """\
# four circles, all crossings orthogonal
[vertices]
a b c d

[edges]
ab a b pi/2
ac a c pi/2
ad a d pi/2
bc b c pi/2
bd b d pi/2
cd c d pi/2

[faces]
bcd bc cd bd
acd ac cd ad
abd ab bd ad
abc ab bc ac

[prescription]
a 4.05306515313624
b 4.05306515313624
c 4.05306515313624
d 4.05306515313624
"""


class TestParseAngle:
    @pytest.mark.parametrize("token,value", [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("2pi/3", 2 * math.pi / 3),
        ("0.25pi", 0.25 * math.pi),
        ("1.5707963267948966", 1.5707963267948966),
    ])
    def test_values(self, token, value):
        assert parse_angle(token) == pytest.approx(value, rel=1e-16)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("pie")
        with pytest.raises(ValueError):
            parse_angle("pi/0")


class TestParse:
    def test_tetrahedron_document(self):
        inst = parse_instance(TETRA_DOC)
        c = inst.complex
        assert c.n_vertices == 4 and c.n_edges == 6 and c.n_faces == 4
        assert c.vertex_names == ("a", "b", "c", "d")
        assert np.all(c.phi == math.pi / 2)
        assert not c.violations
        assert inst.prescription is not None
        assert np.all(inst.prescription.lhat == 4.05306515313624)
        assert inst.initial_k is None

    def test_round_trip_structural_equality(self):
        inst = parse_instance(TETRA_DOC)
        text = serialize_instance(inst.complex, inst.prescription)
        again = parse_instance(text)
        assert again.complex == inst.complex
        assert again.prescription == inst.prescription

    def test_round_trip_byte_identical(self):
        inst = parse_instance(TETRA_DOC)
        text = serialize_instance(inst.complex, inst.prescription)
        assert serialize_instance(parse_instance(text).complex,
                                  parse_instance(text).prescription) == text

    def test_seventeen_digit_round_trip(self):
        c = fixtures.tetrahedron(phi=np.pi / 2 - 0.123456789012345e-3)
        inst = make_synthetic(c, seed=90)
        text = serialize_instance(c, inst.prescription, initial_k=inst.kbar)
        again = parse_instance(text)
        assert np.all(again.complex.phi == c.phi)
        assert np.all(again.prescription.lhat == inst.prescription.lhat)
        assert np.all(again.initial_k == inst.kbar)

    def test_initial_radii_converted(self):
        doc = TETRA_DOC + "\n[initial_r]\n" + "\n".join(
            f"{v} 0.78539816339744828" for v in "abcd") + "\n"
        inst = parse_instance(doc)
        assert np.allclose(inst.initial_k, 0.0, atol=1e-15)

    @pytest.mark.parametrize("mangle,expected_line", [
        (lambda s: s.replace("[vertices]", "[vertebrae]"), 2),
        (lambda s: s.replace("ab a b pi/2", "ab a b"), 6),
        (lambda s: s.replace("ab a b pi/2", "ab a b halfpi"), 6),
        (lambda s: "stray\n" + s, 1),
    ])
    def test_errors_carry_line_numbers(self, mangle, expected_line):
        with pytest.raises(ParseError) as exc_info:
            parse_instance(mangle(TETRA_DOC))
        assert exc_info.value.line == expected_line

    def test_duplicate_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance(TETRA_DOC.replace("ac a c pi/2", "ab a c pi/2"))
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance(TETRA_DOC.replace("a b c d", "a b c c"))

    @pytest.mark.parametrize("section, line, duplicate", [
        ("vertices", "v{}", "v7"),
        ("edges", "e{} a b pi/2", "e7 a b pi/2"),
        ("faces", "f{} e0 e1", "f7 e0 e1"),
    ])
    def test_duplicate_on_the_last_line_of_a_long_section(self, section, line,
                                                          duplicate):
        head = "[vertices]\na b\n"
        if section == "faces":
            head += "[edges]\ne0 a b pi/2\ne1 a b pi/2\n"
        body = [f"[{section}]"] + [line.format(i) for i in range(4096)]
        doc = head + "\n".join(body + [duplicate]) + "\n"
        last = doc.count("\n")
        with pytest.raises(ParseError, match=f"duplicate .*{duplicate.split()[0]!r}"
                           ) as exc_info:
            parse_instance(doc)
        assert exc_info.value.line == last

    def test_parse_time_is_linear_in_the_section_length(self):
        # 16 times the vertices, edges and faces; a quadratic duplicate
        # check made the ratio about 95
        def best_of_3(doc):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                parse_instance(doc)
                times.append(time.perf_counter() - t0)
            return min(times)

        small, large = (serialize_instance(fixtures.torus_grid(k, k))
                        for k in (16, 64))
        assert best_of_3(large) / best_of_3(small) < 45

    @pytest.mark.parametrize("old, new, message", [
        ("[edges]", "[edges", "unterminated section header"),
        ("bcd bc cd bd", "bcd", "face lines need"),
        ("a 4.05306515313624", "a", "prescription lines need"),
        ("b 4.05306515313624", "a 4.05306515313624", "duplicate entry for 'a'"),
        ("a 4.05306515313624", "a x", "bad number 'x'"),
        ("a b c d", "a [b c d", r"bad vertex name '\[b'"),
    ], ids=["header", "empty-face", "per-vertex-line", "repeated-entry",
            "number", "vertex-name"])
    def test_line_rejections(self, old, new, message):
        line = TETRA_DOC.splitlines().index(old) + 1
        with pytest.raises(ParseError, match=message) as exc_info:
            parse_instance(TETRA_DOC.replace(old, new))
        assert exc_info.value.line == line

    @pytest.mark.parametrize("doc, message", [
        (TETRA_DOC.replace("a 4.05306515313624", "a 0"), "> 0"),
        (TETRA_DOC + "[initial_r]\na 2\nb 0.5\nc 0.5\nd 0.5\n",
         "initial radii out of range"),
    ], ids=["target", "radius"])
    def test_value_rejections(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_instance(doc)

    def test_unknown_references(self):
        with pytest.raises(ParseError):
            parse_instance(TETRA_DOC.replace("ab a b pi/2", "ab a z pi/2"))
        with pytest.raises(ParseError):
            parse_instance(TETRA_DOC.replace("bcd bc cd bd", "bcd bc cd zz"))

    def test_prescription_coverage(self):
        with pytest.raises(ParseError, match="missing"):
            parse_instance(TETRA_DOC.replace("d 4.05306515313624\n", ""))
        with pytest.raises(ParseError, match="unknown"):
            parse_instance(TETRA_DOC + "z 1.0\n")

    def test_initial_exclusivity(self):
        doc = TETRA_DOC + "\n[initial_k]\na 0\nb 0\nc 0\nd 0\n\n[initial_r]\na 0.7\n"
        with pytest.raises(ParseError, match="mutually exclusive"):
            parse_instance(doc)

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_instance("# nothing here\n")

    @pytest.mark.parametrize("doc", [
        "[edges]\nab a b pi/2\n",
        "[vertices]\n[edges]\nab a b pi/2\n",
    ], ids=["missing", "empty"])
    def test_no_vertex_names(self, doc):
        with pytest.raises(ParseError,
                           match=r"^\[vertices\] is missing or names no vertex$"):
            parse_instance(doc)

    def test_prescription_optional(self):
        head = TETRA_DOC.split("[prescription]")[0]
        inst = parse_instance(head)
        assert inst.prescription is None


class TestRoundTrip:
    @pytest.mark.parametrize("make", [
        fixtures.tetrahedron, fixtures.bigon, fixtures.cube_graph,
        lambda phi: fixtures.torus_grid(3, 4, phi),
        lambda phi: fixtures.necklace(4, phi),
        lambda phi: fixtures.prism(5, phi),
        lambda phi: fixtures.bipyramid(5, phi), None,
    ], ids=["tetrahedron", "bigon", "cube", "torus3x4", "necklace4",
            "prism5", "bipyramid5", "build_complex"])
    def test_parse_reproduces_the_serialized_instance(self, make):
        rng = rng_for(281)
        if make is None:
            c = build_complex(
                ["north", "south"],
                [("north", "south", 0.7), ("south", "north", 1.2)],
                [["m]", "é"], ["é", "m]"]], edge_names=["m]", "é"],
                face_names=["east", "west["])
            assert not c.violations
        else:
            n_edges = make(1.0).n_edges
            c = make(rng.uniform(0.1, 0.5 * np.pi, n_edges))
        p = Prescription(rng.uniform(0.5, 3.0, c.n_vertices))
        k = rng.uniform(-2.0, 2.0, c.n_vertices)
        again = parse_instance(serialize_instance(c, p, initial_k=k))
        assert again.complex == c
        assert again.prescription == p
        assert np.array_equal(again.initial_k, k)


class TestReports:
    def _solved(self):
        inst = parse_instance(TETRA_DOC)
        config = FlowConfig(tol_ode=1e-6, tol_curvature=1e-9)
        trace = run(inst.complex, inst.prescription,
                    np.array([0.4, -0.3, 0.2, 0.0]), config)
        return inst, config, trace

    def test_trace_file(self):
        inst, config, trace = self._solved()
        buf = io.StringIO()
        write_trace(buf, trace, inst.complex, inst.prescription, config)
        text = buf.getvalue()
        lines = text.splitlines()
        assert lines[0] == "# cpflow trace v2"
        assert any(l.startswith("# verdict converged") for l in lines)
        assert not any(l.startswith("# failure") for l in lines)
        digest = instance_digest(inst.complex, inst.prescription)
        assert f"# instance sha256:{digest}" in lines
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == len(trace.samples)
        ts = [float(r.split("\t")[0]) for r in rows]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("method, tol_ode, name", [
        ("calabi", 1e-4, "rkc"), ("calabi", 1e-9, "rkf45"),
        ("curvature", 1e-4, "rkf45"), ("newton", 1e-9, "none")])
    def test_integrator_header_names_the_integrator(self, method, tol_ode,
                                                    name):
        inst = parse_instance(TETRA_DOC)
        config = FlowConfig(method=method, tol_ode=tol_ode, tol_curvature=1e-9)
        trace = run(inst.complex, inst.prescription,
                    np.array([0.4, -0.3, 0.2, 0.0]), config)
        assert trace.verdict == "converged"
        buf = io.StringIO()
        write_trace(buf, trace, inst.complex, inst.prescription, config)
        assert f"# integrator {name}" in buf.getvalue().splitlines()

    @pytest.mark.parametrize("case", ["converged", "diverged"])
    def test_rows_are_per_value_fmt(self, case):
        # Every value of a row formats as ``fmt`` formats it alone,
        # including the clamped K of a diverged run.
        if case == "converged":
            inst, config, trace = self._solved()
            complex, prescription = inst.complex, inst.prescription
        else:
            from conftest import single_vertex_violator
            _, complex, prescription, _ = single_vertex_violator(4)
            config = FlowConfig(method="curvature", tol_ode=1e-4)
            trace = run(complex, prescription,
                        np.zeros(complex.n_vertices), config)
        assert trace.verdict == case
        buf = io.StringIO()
        write_trace(buf, trace, complex, prescription, config)
        rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert rows == ["\t".join(
            [fmt(s.t)] + [fmt(k) for k in s.K]
            + [fmt(s.err_inf), fmt(s.energy), fmt(s.speed),
               "1" if s.clamped else "0"]) for s in trace.samples]
        assert rows[-1].endswith("\t" + ("1" if case == "diverged" else "0"))

    def test_trace_deterministic(self):
        inst, config, trace = self._solved()
        a, b = io.StringIO(), io.StringIO()
        write_trace(a, trace, inst.complex, inst.prescription, config)
        _, config2, trace2 = self._solved()
        write_trace(b, trace2, inst.complex, inst.prescription, config2)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("side", [None, 10],
                             ids=["rkf45", "rkf45-torus10x10"])
    def test_min_eig_header_is_the_solution_spectrum(self, side):
        # On the tetrahedron the run reads the cached dense spectrum; on the
        # 10x10 torus it runs Lanczos to a relative error bound of 1e-14.
        if side is None:
            inst = parse_instance(TETRA_DOC)
            complex, prescription = inst.complex, inst.prescription
            k0 = np.array([0.4, -0.3, 0.2, 0.0])
            method = "calabi"
        else:
            complex = fixtures.torus_grid(side, side, phi=1.3)
            planted = make_synthetic(complex, seed=81, k_range=(-1.0, 1.0))
            prescription = planted.prescription
            k0 = planted.kbar + 0.3
            method = "curvature"
        config = FlowConfig(method=method, tol_curvature=1e-9)
        trace = run(complex, prescription, k0, config)
        buf = io.StringIO()
        write_trace(buf, trace, complex, prescription, config)
        lines = buf.getvalue().splitlines()
        header = dict(l[2:].split(" ", 1) for l in lines if l.startswith("# "))
        assert "min_eig" not in header["columns"].split()
        K = trace.final_k()
        exact = np.linalg.eigvalsh(evaluate(complex, K).J)[0]
        lam = float(header["min_eig"])
        if side is None:
            assert lam == exact
        else:
            assert abs(lam / exact - 1.0) <= 1e-12
        rate = float(header["predicted_rate"])
        assert rate == -2.0 * (lam * lam if method == "calabi" else lam)
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == len(trace.samples) > 1
        assert len(rows[0].split("\t")) == len(header["columns"].split())

    def test_solution_file(self):
        inst, config, trace = self._solved()
        buf = io.StringIO()
        write_solution(buf, trace, inst.complex, inst.prescription)
        text = buf.getvalue()
        assert "[vertices]" in text and "[faces]" in text
        assert "# verdict converged" in text
        # all radii near pi/4 for the planted uniform instance
        for line in text.split("[vertices]")[1].split("[faces]")[0].splitlines():
            if line and not line.startswith("#"):
                name, K, r, L, alpha = line.split()
                assert abs(float(r) - math.pi / 4) < 1e-6
                assert abs(float(L) - 4.05306515313624) < 1e-6
        # every face of the right-angled tetrahedron has cone angle 3 pi/2
        faces = [line for line in text.split("[faces]")[1].splitlines()
                 if line and not line.startswith("#")]
        assert len(faces) == 4
        for line in faces:
            assert line.split()[1] == fmt(3 * math.pi / 2)

    def test_digest_tracks_content(self):
        inst = parse_instance(TETRA_DOC)
        d1 = instance_digest(inst.complex, inst.prescription)
        d2 = instance_digest(inst.complex, None)
        assert d1 != d2
        assert d1 == instance_digest(inst.complex, inst.prescription)

    def test_diverged_trace_carries_certificate(self):
        from conftest import single_vertex_violator
        name, complex, bad, v = single_vertex_violator(4)
        config = FlowConfig(method="curvature", tol_ode=1e-4)
        trace = run(complex, bad, np.zeros(complex.n_vertices), config)
        buf = io.StringIO()
        write_trace(buf, trace, complex, bad, config)
        text = buf.getvalue()
        assert "# verdict diverged" in text
        assert "# failure" not in text
        assert "# min_eig none\n# predicted_rate none\n" in text
        assert "# certificate_subset" in text
        assert "# certificate_margin" in text
