"""Reading and writing the on-disk formats.

Instance documents are human-writable sectioned text::

    # ideal circle pattern instance
    [vertices]
    a b c d

    [edges]
    ab a b pi/2          # name endpoint endpoint angle

    [faces]
    f0 ab bc ca          # name followed by a cyclic walk of edge names

    [prescription]
    a 4.05306515313624   # vertex -> target total geodesic curvature

    [initial_k]          # optional start coordinates ([initial_r] for radii)
    a 0

Angles are plain radians or fractions of pi written as ``pi``, ``pi/2``,
``3pi/4``.  Numbers serialize with 17 significant digits, so parse ->
serialize -> parse is exact.  Trace files are tab-separated tables with a
``#``-prefixed header block; solution reports reuse the sectioned layout.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import geometry
from .curvature import evaluate
from .errors import InputError, ParseError
from .flow import FIRST_STEP, FlowConfig, FlowTrace, integrator
from .surface import Prescription, SurfaceComplex, build_complex, check_names

SECTIONS = ("vertices", "edges", "faces", "prescription", "initial_k", "initial_r")

_PI_TOKEN = re.compile(r"^(\d+(?:\.\d+)?)?pi(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(token: str) -> float:
    """A radian literal or a fraction of pi such as ``pi/2`` or ``3pi/4``."""
    m = _PI_TOKEN.match(token)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ValueError("zero denominator in angle")
        return num * math.pi / den
    return float(token)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class Instance:
    """A parsed instance document."""

    complex: SurfaceComplex
    prescription: Prescription | None
    initial_k: np.ndarray | None


def parse_instance(text: str) -> Instance:
    """Parse an instance document; raises ParseError with a line number."""
    section: str | None = None
    # Each section's entries by name, in document order.
    vertices: dict[str, None] = {}
    edges: dict[str, tuple[str, str, float]] = {}
    faces: dict[str, list[str]] = {}
    prescription: dict[str, float] = {}
    initial: dict[str, float] = {}
    initial_kind: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = line[1:-1].strip().lower()
            if name not in SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in ("initial_k", "initial_r"):
                if initial_kind is not None and initial_kind != name:
                    raise ParseError("initial_k and initial_r are mutually exclusive", lineno)
                initial_kind = name
            section = name
            continue
        if section is None:
            raise ParseError("content before any section header", lineno)

        tokens = line.split()
        if section == "vertices":
            try:
                check_names("vertex", tokens)
            except InputError as exc:
                raise ParseError(str(exc), lineno) from None
            for name in tokens:
                if name in vertices:
                    raise ParseError(f"duplicate vertex name {name!r}", lineno)
                vertices[name] = None
        elif section == "edges":
            if len(tokens) != 4:
                raise ParseError("edge lines need: name endpoint endpoint angle", lineno)
            name, a, b, angle = tokens
            if name in edges:
                raise ParseError(f"duplicate edge name {name!r}", lineno)
            try:
                edges[name] = (a, b, parse_angle(angle))
            except ValueError:
                raise ParseError(f"bad angle {angle!r}", lineno) from None
        elif section == "faces":
            if len(tokens) < 2:
                raise ParseError("face lines need: name followed by edge names", lineno)
            if tokens[0] in faces:
                raise ParseError(f"duplicate face name {tokens[0]!r}", lineno)
            faces[tokens[0]] = tokens[1:]
        else:
            if len(tokens) != 2:
                raise ParseError(f"{section} lines need: vertex value", lineno)
            target = prescription if section == "prescription" else initial
            if tokens[0] in target:
                raise ParseError(f"duplicate entry for {tokens[0]!r}", lineno)
            try:
                target[tokens[0]] = float(tokens[1])
            except ValueError:
                raise ParseError(f"bad number {tokens[1]!r}", lineno) from None

    if not vertices:
        raise ParseError("[vertices] is missing or names no vertex")
    try:
        complex = build_complex(vertices, edges.values(), faces.values(),
                                edge_names=edges, face_names=faces)
    except Exception as exc:
        raise ParseError(str(exc)) from exc

    presc = None
    if prescription:
        lhat = _vertex_values(prescription, vertices, "prescription", "names")
        try:
            presc = Prescription(lhat)
        except Exception as exc:
            raise ParseError(str(exc)) from exc

    initial_k = None
    if initial:
        vals = _vertex_values(initial, vertices, "initial values", "name")
        if initial_kind == "initial_r":
            try:
                initial_k = np.asarray(geometry.r_to_k(vals), dtype=float)
            except Exception as exc:
                raise ParseError(f"initial radii out of range: {exc}") from exc
        else:
            initial_k = vals

    return Instance(complex=complex, prescription=presc, initial_k=initial_k)


def _vertex_values(values: dict[str, float], vertices: dict[str, None],
                   subject: str, verb: str) -> np.ndarray:
    """The values of a per-vertex section in vertex order; raises
    ParseError, worded with ``subject`` and ``verb``, when the section
    names a vertex the document does not declare or misses one it does."""
    unknown = set(values).difference(vertices)
    if unknown:
        raise ParseError(f"{subject} {verb} unknown vertex {sorted(unknown)[0]!r}")
    missing = set(vertices).difference(values)
    if missing:
        raise ParseError(f"{subject} missing vertex {sorted(missing)[0]!r}")
    return np.array([values[v] for v in vertices])


def serialize_instance(complex: SurfaceComplex,
                       prescription: Prescription | None = None,
                       initial_k: np.ndarray | None = None) -> str:
    """Canonical text form; numbers at 17 significant digits."""
    lines = ["[vertices]"]
    lines.extend(complex.vertex_names)
    lines.append("")
    lines.append("[edges]")
    for e, (v, w) in enumerate(complex.edges):
        lines.append(f"{complex.edge_names[e]} {complex.vertex_names[v]} "
                     f"{complex.vertex_names[w]} {fmt(complex.phi[e])}")
    lines.append("")
    lines.append("[faces]")
    for f, walk in enumerate(complex.faces):
        names = " ".join(complex.edge_names[e] for e in walk)
        lines.append(f"{complex.face_names[f]} {names}")
    if prescription is not None:
        lines.append("")
        lines.append("[prescription]")
        for v, name in enumerate(complex.vertex_names):
            lines.append(f"{name} {fmt(prescription.lhat[v])}")
    if initial_k is not None:
        lines.append("")
        lines.append("[initial_k]")
        for v, name in enumerate(complex.vertex_names):
            lines.append(f"{name} {fmt(initial_k[v])}")
    return "\n".join(lines) + "\n"


def instance_digest(complex: SurfaceComplex,
                    prescription: Prescription | None = None) -> str:
    text = serialize_instance(complex, prescription)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Trace and solution reports
# ----------------------------------------------------------------------

def write_trace(out: IO[str], trace: FlowTrace, complex: SurfaceComplex,
                prescription: Prescription, config: FlowConfig) -> None:
    """Tab-separated table, one row per accepted step, with a header block."""
    digest = instance_digest(complex, prescription)
    out.write("# cpflow trace v2\n")
    out.write(f"# instance sha256:{digest}\n")
    out.write(f"# method {config.method}\n")
    out.write(f"# integrator {integrator(config)}\n")
    out.write(f"# step {fmt(FIRST_STEP)}\n")
    out.write(f"# tol_curvature {fmt(config.tol_curvature)}\n")
    out.write(f"# tol_ode {fmt(config.tol_ode)}\n")
    out.write(f"# max_time {fmt(config.max_time)}\n")
    out.write(f"# verdict {trace.verdict}\n")
    if trace.failure is not None:
        out.write(f"# failure {trace.failure}\n")
    for name in ("fitted_rate", "min_eig", "predicted_rate"):
        value = getattr(trace, name)
        out.write(f"# {name} {'none' if value is None else fmt(value)}\n")
    if trace.certificate is not None:
        subset = ",".join(trace.certificate.subset_names(complex))
        out.write(f"# certificate_subset {subset}\n")
        out.write(f"# certificate_margin {fmt(trace.certificate.worst_margin)}\n")
    cols = ["t"] + [f"K[{name}]" for name in complex.vertex_names]
    cols += ["err_inf", "energy", "speed", "clamped"]
    out.write("# columns " + " ".join(cols) + "\n")
    for s in trace.samples:
        # tolist() hands over Python floats, which format as ``fmt`` does
        # without making a numpy scalar per value.
        row = [fmt(s.t)] + [f"{k:.17g}" for k in s.K.tolist()]
        row += [fmt(s.err_inf), fmt(s.energy), fmt(s.speed),
                "1" if s.clamped else "0"]
        out.write("\t".join(row) + "\n")


def write_solution(out: IO[str], trace: FlowTrace, complex: SurfaceComplex,
                   prescription: Prescription) -> None:
    """Final pattern data: coordinates, radii, curvatures, cone angles."""
    state = evaluate(complex, trace.final_k())
    digest = instance_digest(complex, prescription)
    out.write("# cpflow solution v1\n")
    out.write(f"# instance sha256:{digest}\n")
    out.write(f"# verdict {trace.verdict}\n")
    out.write(f"# final_energy {fmt(trace.final.energy)}\n")
    rate = "none" if trace.fitted_rate is None else fmt(trace.fitted_rate)
    out.write(f"# fitted_rate {rate}\n")
    out.write("\n[vertices]\n")
    out.write("# name K r L cone_angle\n")
    for v, name in enumerate(complex.vertex_names):
        out.write(f"{name} {fmt(state.K[v])} {fmt(state.r[v])} "
                  f"{fmt(state.L[v])} {fmt(state.alpha_v[v])}\n")
    out.write("\n[faces]\n")
    out.write("# name cone_angle\n")
    for f, name in enumerate(complex.face_names):
        out.write(f"{name} {fmt(complex.face_cone_angles[f])}\n")
