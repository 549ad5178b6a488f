"""Combinatorial input model: a loopless multigraph embedded in a closed surface.

The embedding is encoded by face boundary walks (cyclic sequences of edge
ids).  Nothing geometric is stored here beyond the per-edge intersection
angle; the closed-surface structure is captured combinatorially by
closed face walks that together cover every edge exactly twice.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .geometry import HALF_PI, _cross_scale


# A name the instance format reads back as written: one token that does not
# open a comment or, at the start of a line, a section header.
_NAME = re.compile(r"[^\s#\[][^\s#]*")
_NAME_LINES = re.compile(rf"{_NAME.pattern}(?:\n{_NAME.pattern})*")


def check_names(kind: str, names: Sequence) -> None:
    """Raise InputError unless every name in ``names`` is a ``kind`` name
    ("vertex", "edge" or "face") that the instance format reads back as
    written."""
    try:
        joined = "\n".join(names)
    except TypeError:  # some name is not a str
        joined = ""
    # No name holds a newline, so one line per name means each one matched.
    if not names or (_NAME_LINES.fullmatch(joined) and joined.count("\n") == len(names) - 1):
        return
    name = next(n for n in names if not (isinstance(n, str) and _NAME.fullmatch(n)))
    raise InputError(f"bad {kind} name {name!r}: a name is a nonempty string "
                     f"with no whitespace or '#' that does not start with '['")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SurfaceComplex:
    """A finite loopless multigraph with face boundary walks and edge angles.

    Vertices and edges are dense integer indices: ``n_vertices``, every
    endpoint and every walk entry must be an integer (a Python or numpy
    int, stored as ``int``), and anything else, such as 1.7 or "1", raises
    TypeError, as in ``edge_neighborhood``.  The name tuples carry
    the user-facing labels (by default v0, v1, ..., e0, ..., f0, ...),
    unique within each tuple and each one token of the instance format.
    ``edges[e]`` is the endpoint pair of edge ``e``; ``faces[f]`` the
    cyclic walk of edge ids bounding face ``f``; ``phi[e]`` the
    intersection angle in radians, kept as a read-only copy.  Instances
    are immutable and safe to share between threads.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, ...], ...]
    phi: np.ndarray
    vertex_names: tuple[str, ...] = ()
    edge_names: tuple[str, ...] = ()
    face_names: tuple[str, ...] = ()

    def __post_init__(self):
        index = operator.index
        object.__setattr__(self, "n_vertices", index(self.n_vertices))
        if self.n_vertices <= 0:
            raise InputError("complex needs at least one vertex")
        phi = _frozen(np.array(self.phi, dtype=float))
        if phi.shape != (len(self.edges),):
            raise InputError("phi must hold one angle per edge")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "edges", tuple((index(v), index(w)) for v, w in self.edges))
        object.__setattr__(self, "faces", tuple(tuple(map(index, walk)) for walk in self.faces))
        for v, w in self.edges:
            if not (0 <= v < self.n_vertices and 0 <= w < self.n_vertices):
                raise InputError("edge endpoint out of range")
        for walk in self.faces:
            for e in walk:
                if not 0 <= e < len(self.edges):
                    raise InputError("face walk references unknown edge")
        for kind, count in (("vertex", self.n_vertices), ("edge", len(self.edges)),
                            ("face", len(self.faces))):
            names = getattr(self, f"{kind}_names")
            names = tuple(names) if names else tuple(f"{kind[0]}{i}" for i in range(count))
            if len(names) != count:
                raise InputError("name lists must match element counts")
            check_names(kind, names)
            if len(set(names)) != count:
                name = next(n for i, n in enumerate(names) if n in names[:i])
                raise InputError(f"duplicate {kind} name {name!r}")
            object.__setattr__(self, f"{kind}_names", names)

    # -- basic counts -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    # -- cached incidence structure ------------------------------------

    @cached_property
    def endpoint_arrays(self) -> np.ndarray:
        """Edge endpoints as a (2, E) int array: row 0 holds the first
        endpoints ev[e], row 1 the second endpoints ew[e], so
        ``ev, ew = complex.endpoint_arrays`` unpacks them.  The array is
        C-contiguous, so ``endpoint_arrays.ravel()`` is a view: the vertex
        of every edge end, first endpoints first, the order in which
        stacked per-side quantities are summed onto the vertices."""
        return _frozen(np.array([[v for v, _ in self.edges],
                                 [w for _, w in self.edges]], dtype=np.intp))

    @cached_property
    def opposite_endpoints(self) -> np.ndarray:
        """``endpoint_arrays`` with its rows swapped: for each end of each
        edge, the vertex at the other end."""
        return _frozen(self.endpoint_arrays[::-1].copy())

    @cached_property
    def sin_phi(self) -> np.ndarray:
        return _frozen(np.sin(self.phi))

    @cached_property
    def cos_phi(self) -> np.ndarray:
        return _frozen(np.cos(self.phi))

    @cached_property
    def cross_scale(self) -> np.ndarray:
        """``geometry._cross_scale`` per edge."""
        return _frozen(_cross_scale(self.sin_phi))

    @cached_property
    def face_cone_angles(self) -> np.ndarray:
        """Cone angle at each face center: sum of (pi - phi) over its walk."""
        return _frozen(np.array([sum(np.pi - self.phi[e] for e in walk)
                                 for walk in self.faces]))

    @cached_property
    def violations(self) -> tuple[str, ...]:
        return tuple(validate(self))

    # -- equality is structural ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurfaceComplex):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and self.edges == other.edges
                and self.faces == other.faces
                and self.phi.shape == other.phi.shape
                and bool(np.all(self.phi == other.phi))
                and self.vertex_names == other.vertex_names
                and self.edge_names == other.edge_names
                and self.face_names == other.face_names)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ holds equal.
        return hash((self.n_vertices, self.edges, self.faces, (self.phi + 0.0).tobytes()))


@dataclass(frozen=True, eq=False)
class Prescription:
    """Target total geodesic curvature per vertex, all strictly positive,
    kept as a read-only copy: immutable and safe to share."""

    lhat: np.ndarray

    def __post_init__(self):
        lhat = _frozen(np.array(self.lhat, dtype=float))
        if lhat.ndim != 1:
            raise InputError("lhat must be a flat vector")
        if np.any(~np.isfinite(lhat)) or np.any(lhat <= 0.0):
            raise InputError("prescribed curvatures must be finite and > 0")
        object.__setattr__(self, "lhat", lhat)

    def __len__(self) -> int:
        return len(self.lhat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Prescription):
            return NotImplemented
        return self.lhat.shape == other.lhat.shape and bool(np.all(self.lhat == other.lhat))


def check_instance(complex: SurfaceComplex,
                   prescription: Prescription | None = None) -> None:
    """Raise InputError unless ``complex`` is valid and ``prescription``,
    when given, has one target per vertex."""
    if complex.violations:
        raise InputError("invalid complex: " + "; ".join(complex.violations))
    if prescription is not None and len(prescription) != complex.n_vertices:
        raise InputError("prescription length does not match complex")


def validate(complex: SurfaceComplex) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Empty result means the complex is a usable closed-surface instance:
    at least one edge, loopless, connected, every edge covered exactly
    twice by face walks, every face walk closed, the faces around every
    vertex forming one cycle, all intersection angles in (0, pi/2], and
    Euler characteristic <= 2.  Orientable or not, every such closed
    surface is accepted: no check, kernel, subset condition or flow uses a
    global orientation (``_entries`` orients each walk on its own).
    """
    problems: list[str] = []
    if not complex.edges:
        problems.append("complex has no edges")

    problems.extend(f"edge {complex.edge_names[e]} is a loop at vertex "
                    f"{complex.vertex_names[v]}"
                    for e, (v, w) in enumerate(complex.edges) if v == w)

    coverage = [0] * complex.n_edges
    for walk in complex.faces:
        for e in walk:
            coverage[e] += 1
    problems.extend(f"edge {complex.edge_names[e]} covered {c} times by face walks "
                    f"(expected 2)" for e, c in enumerate(coverage) if c != 2)
    entries = [_entries(complex.edges, walk) for walk in complex.faces]
    problems.extend(f"face {complex.face_names[f]} is not a closed walk"
                    for f, entered in enumerate(entries) if entered is None)
    # The corners are defined only once every walk is closed and every
    # edge end lies on exactly two of them.
    if not problems:
        for v, k in enumerate(_corner_cycles(complex, entries)):
            if k > 1:
                problems.append(f"vertex {complex.vertex_names[v]} is not a "
                                f"surface point: its faces form {k} cycles")

    phi = complex.phi
    # NaN fails both comparisons, so it is flagged with +-inf.
    for e in np.flatnonzero(~((phi > 0.0) & (phi <= HALF_PI))).tolist():
        problems.append(f"edge {complex.edge_names[e]} has intersection angle "
                        f"{float(phi[e])!r} outside (0, pi/2]")

    if not _connected(complex):
        problems.append("underlying graph is not connected")

    chi = complex.euler_characteristic
    if chi > 2:
        problems.append(f"Euler characteristic {chi} exceeds 2; not a closed surface")

    return problems


def _entries(edges: tuple[tuple[int, int], ...],
             walk: tuple[int, ...]) -> list[int] | None:
    """The vertex at which the walk enters each of its edges, for the first
    orientation of the edges that chains end to end back to its start (the
    first edge's orientation forces all the others); None when none does."""
    for start in edges[walk[0]] if walk else ():
        at, entered = start, []
        for e in walk:
            entered.append(at)
            v, w = edges[e]
            at = w if at == v else v if at == w else None
        if at == start:
            return entered
    return None


def _corner_cycles(complex: SurfaceComplex,
                   entries: list[list[int]]) -> list[int]:
    """How many cycles the face corners form around each vertex.

    Node 2e + s is end s of edge e.  The corner where a closed walk enters
    edge e at vertex x links the ends at x of e and of the edge before it.
    Each edge end lies on two corners, so its two links (``one``, ``two``)
    chain the ends at a vertex into rings, each walked once (O(E)); around
    a point of a surface they form one.
    """
    edges = complex.edges
    one = [-1] * (2 * len(edges))
    two = one.copy()
    for walk, entered in zip(complex.faces, entries):
        ends = [2 * e + (edges[e][0] != x) for e, x in zip(walk, entered)]
        # No edge is a loop, so the edge before leaves by its other end.
        b = ends[-1] ^ 1
        for a in ends:
            (one if one[a] < 0 else two)[a] = b
            (one if one[b] < 0 else two)[b] = a
            b = a ^ 1
    cycles = [0] * complex.n_vertices
    seen = bytearray(len(one))
    for start in range(len(one)):
        if seen[start]:
            continue
        cycles[edges[start >> 1][start & 1]] += 1
        before, node = -1, start
        while not seen[node]:
            seen[node] = 1
            before, node = node, one[node] if one[node] != before else two[node]
    return cycles


def _connected(complex: SurfaceComplex) -> bool:
    n = complex.n_vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for v, w in complex.edges:
        adj[v].append(w)
        adj[w].append(v)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def edge_neighborhood(complex: SurfaceComplex, w: Iterable[int]) -> set[int]:
    """Ids of all edges with at least one endpoint in the vertex set ``w``.

    A vertex is an integer index; one outside [0, V) raises InputError, and
    a value that is not an integer (1.7, "1") raises TypeError.
    """
    members = {operator.index(v) for v in w}
    bad = [v for v in members if not 0 <= v < complex.n_vertices]
    if bad:
        raise InputError(f"unknown vertex index {min(bad)}")
    return {e for e, (a, b) in enumerate(complex.edges) if a in members or b in members}

