"""Combinatorial input model: a loopless multigraph embedded in a closed surface.

The embedding is encoded by face boundary walks (cyclic sequences of edge
ids).  Nothing geometric is stored here beyond the per-edge intersection
angle; the closed-surface structure is captured combinatorially by the
condition that every edge is covered exactly twice by the face walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

HALF_PI = 0.5 * np.pi


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SurfaceComplex:
    """A finite loopless multigraph with face boundary walks and edge angles.

    Vertices and edges are dense integer indices; ``vertex_names`` and
    ``edge_names`` carry the user-facing labels.  ``edges[e]`` is the
    endpoint pair of edge ``e``; ``faces[f]`` the cyclic walk of edge ids
    bounding face ``f``; ``phi[e]`` the intersection angle in radians.
    Instances are immutable and safe to share between threads.
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
        if not self.vertex_names:
            object.__setattr__(self, "vertex_names", tuple(f"v{i}" for i in range(self.n_vertices)))
        if not self.edge_names:
            object.__setattr__(self, "edge_names", tuple(f"e{i}" for i in range(len(self.edges))))
        if not self.face_names:
            object.__setattr__(self, "face_names", tuple(f"f{i}" for i in range(len(self.faces))))
        if len(self.vertex_names) != self.n_vertices or len(self.edge_names) != len(self.edges) \
                or len(self.face_names) != len(self.faces):
            raise InputError("name lists must match element counts")

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
        """-2 / sin phi per edge, the factor of the mixed partial dL_v/dK_w."""
        return _frozen(-2.0 / self.sin_phi)

    @cached_property
    def face_cone_angles(self) -> np.ndarray:
        """Cone angle at each face center: sum of (pi - phi) over its walk."""
        return _frozen(np.array([sum(np.pi - self.phi[e] for e in walk)
                                 for walk in self.faces]))

    @cached_property
    def violations(self) -> tuple[str, ...]:
        return tuple(validate(self))

    @property
    def is_valid(self) -> bool:
        return not self.violations

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

    def require_vertex(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.n_vertices:
            raise InputError(f"unknown vertex index {v}")
        return v


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


def validate(complex: SurfaceComplex) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Empty result means the complex is a usable closed-surface instance:
    loopless, connected, every edge covered exactly twice by face walks,
    all intersection angles in (0, pi/2], and Euler characteristic <= 2.
    """
    problems: list[str] = []

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

    for e in range(complex.n_edges):
        p = complex.phi[e]
        if not (0.0 < p <= HALF_PI) or not np.isfinite(p):
            problems.append(f"edge {complex.edge_names[e]} has intersection angle "
                            f"{p!r} outside (0, pi/2]")

    if not _connected(complex):
        problems.append("underlying graph is not connected")

    chi = complex.euler_characteristic
    if chi > 2:
        problems.append(f"Euler characteristic {chi} exceeds 2; not a closed surface")

    return problems


def _connected(complex: SurfaceComplex) -> bool:
    n = complex.n_vertices
    if n == 1:
        return True
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
    """Ids of all edges with at least one endpoint in the vertex set ``w``."""
    members = {complex.require_vertex(v) for v in w}
    return {e for e, (a, b) in enumerate(complex.edges) if a in members or b in members}


def degree(complex: SurfaceComplex, v: int) -> int:
    """Number of edge-ends at ``v`` (parallel edges counted separately)."""
    return int(complex.degrees[complex.require_vertex(v)])


def build_complex(vertex_names: Sequence[str],
                  edges: Sequence[tuple[str, str, float]],
                  faces: Sequence[Sequence[str]],
                  edge_names: Sequence[str] | None = None,
                  face_names: Sequence[str] | None = None) -> SurfaceComplex:
    """Assemble a SurfaceComplex from named parts, assigning dense indices.

    ``edges`` holds (endpoint, endpoint, phi) triples; ``faces`` holds
    cyclic walks of edge names.  Raises InputError on duplicate or unknown
    names.
    """
    vnames = list(vertex_names)
    if len(set(vnames)) != len(vnames):
        raise InputError("duplicate vertex name")
    vidx = {name: i for i, name in enumerate(vnames)}

    if edge_names is None:
        edge_names = [f"e{i}" for i in range(len(edges))]
    enames = list(edge_names)
    if len(enames) != len(edges):
        raise InputError("edge_names must match edges")
    if len(set(enames)) != len(enames):
        raise InputError("duplicate edge name")
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

    if face_names is None:
        face_names = [f"f{i}" for i in range(len(walks))]

    return SurfaceComplex(
        n_vertices=len(vnames),
        edges=tuple(pairs),
        faces=tuple(walks),
        phi=np.array(phis, dtype=float),
        vertex_names=tuple(vnames),
        edge_names=tuple(enames),
        face_names=tuple(face_names),
    )
