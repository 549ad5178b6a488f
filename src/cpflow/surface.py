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


def check_names(kind: str, names: Iterable) -> None:
    """Raise InputError unless every name in ``names`` is a ``kind`` name
    ("vertex", "edge" or "face") that the instance format reads back as
    written."""
    for name in names:
        if not (isinstance(name, str) and _NAME.fullmatch(name)):
            raise InputError(f"bad {kind} name {name!r}: a name is a nonempty string "
                             f"with no whitespace or '#' that does not start with '['")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SurfaceComplex:
    """A finite loopless multigraph with face boundary walks and edge angles.

    Vertices and edges are dense integer indices; the name tuples carry
    the user-facing labels (by default v0, v1, ..., e0, ..., f0, ...),
    unique within each tuple and each one token of the instance format.
    ``edges[e]`` is the endpoint pair of edge ``e``; ``faces[f]`` the
    cyclic walk of edge ids bounding face ``f``; ``phi[e]`` the
    intersection angle in radians.  Instances are immutable and safe to
    share between threads.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, ...], ...]
    phi: np.ndarray
    vertex_names: tuple[str, ...] = ()
    edge_names: tuple[str, ...] = ()
    face_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n_vertices <= 0:
            raise InputError("complex needs at least one vertex")
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != (len(self.edges),):
            raise InputError("phi must hold one angle per edge")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "edges", tuple((int(v), int(w)) for v, w in self.edges))
        object.__setattr__(self, "faces", tuple(tuple(int(e) for e in walk) for walk in self.faces))
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
            seen = set()
            for name in names:
                if name in seen:
                    raise InputError(f"duplicate {kind} name {name!r}")
                seen.add(name)
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
        ``ev, ew = complex.endpoint_arrays`` unpacks them."""
        return _frozen(np.array([[v for v, _ in self.edges],
                                 [w for _, w in self.edges]], dtype=np.intp))

    @cached_property
    def flat_ends(self) -> np.ndarray:
        """``endpoint_arrays`` flattened: the vertex of every edge end,
        first endpoints first, which is the index order in which stacked
        per-side edge quantities are summed onto the vertices."""
        return self.endpoint_arrays.ravel()

    @cached_property
    def opposite_endpoints(self) -> np.ndarray:
        """``endpoint_arrays`` with its rows swapped: for each end of each
        edge, the vertex at the other end."""
        return _frozen(self.endpoint_arrays[::-1].copy())

    @cached_property
    def degrees(self) -> np.ndarray:
        """Edge-ends per vertex (parallel edges counted separately)."""
        return _frozen(np.bincount(self.flat_ends, minlength=self.n_vertices))

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
        return hash((self.n_vertices, self.edges, self.faces, self.phi.tobytes()))


@dataclass(frozen=True, eq=False)
class Prescription:
    """Target total geodesic curvature per vertex, all strictly positive."""

    lhat: np.ndarray

    def __post_init__(self):
        lhat = np.asarray(self.lhat, dtype=float)
        if lhat.ndim != 1:
            raise InputError("lhat must be a flat vector")
        if np.any(~np.isfinite(lhat)) or np.any(lhat <= 0.0):
            raise InputError("prescribed curvatures must be finite and > 0")
        lhat.flags.writeable = False
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
    Euler characteristic <= 2.
    """
    problems: list[str] = []
    if not complex.edges:
        problems.append("complex has no edges")

    for e, (v, w) in enumerate(complex.edges):
        if v == w:
            problems.append(f"edge {complex.edge_names[e]} is a loop at vertex "
                            f"{complex.vertex_names[v]}")

    coverage = [0] * complex.n_edges
    for walk in complex.faces:
        for e in walk:
            coverage[e] += 1
    for e, c in enumerate(coverage):
        if c != 2:
            problems.append(f"edge {complex.edge_names[e]} covered {c} times by "
                            f"face walks (expected 2)")
    entries = [_entries(complex.edges, walk) for walk in complex.faces]
    for f, entered in enumerate(entries):
        if entered is None:
            problems.append(f"face {complex.face_names[f]} is not a closed walk")
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
    edge e at vertex x joins the ends at x of e and of the edge before it
    (union-find, O(E)).  Each edge end lies on two corners, so the corners
    at a vertex chain its edge ends into cycles; around a point of a
    surface they form one.
    """
    edges = complex.edges
    parent = list(range(2 * len(edges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for walk, entered in zip(complex.faces, entries):
        before = walk[-1]
        for e, x in zip(walk, entered):
            parent[find(2 * before + (edges[before][0] != x))] = \
                find(2 * e + (edges[e][0] != x))
            before = e
    roots: list[set[int]] = [set() for _ in range(complex.n_vertices)]
    for node in range(len(parent)):
        roots[edges[node >> 1][node & 1]].add(find(node))
    return [len(r) for r in roots]


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


def build_complex(vertex_names: Sequence[str],
                  edges: Sequence[tuple[str, str, float]],
                  faces: Sequence[Sequence[str]],
                  edge_names: Sequence[str] | None = None,
                  face_names: Sequence[str] | None = None) -> SurfaceComplex:
    """Assemble a SurfaceComplex from named parts, assigning dense indices.

    ``edges`` holds (endpoint, endpoint, phi) triples; ``faces`` holds
    cyclic walks of edge names.  Unnamed edges are called e0, e1, ...;
    unnamed faces take ``SurfaceComplex``'s names.  Raises InputError on
    an unknown name, and ``SurfaceComplex`` on a repeated or malformed one.
    """
    vnames = list(vertex_names)
    vidx = {name: i for i, name in enumerate(vnames)}
    enames = ([f"e{i}" for i in range(len(edges))] if edge_names is None
              else list(edge_names))
    eidx = {name: i for i, name in enumerate(enames)}

    pairs = []
    phis = []
    for (a, b, p) in edges:
        if a not in vidx or b not in vidx:
            raise InputError(f"edge endpoint {a if a not in vidx else b!r} is not a vertex")
        pairs.append((vidx[a], vidx[b]))
        phis.append(float(p))

    walks = []
    for walk in faces:
        ids = []
        for name in walk:
            if name not in eidx:
                raise InputError(f"face walk references unknown edge {name!r}")
            ids.append(eidx[name])
        walks.append(tuple(ids))

    return SurfaceComplex(
        n_vertices=len(vnames),
        edges=tuple(pairs),
        faces=tuple(walks),
        phi=np.array(phis, dtype=float),
        vertex_names=tuple(vnames),
        edge_names=tuple(enames),
        face_names=() if face_names is None else tuple(face_names),
    )
