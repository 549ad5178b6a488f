"""Builders for standard embedded complexes used in tests and demos.

All builders take either a single angle (applied to every edge) or a full
per-edge array.  The sphere fixtures (tetrahedron, bigon, cube, necklace,
prism, bipyramid) have Euler characteristic 2; the torus grid has 0.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .surface import SurfaceComplex


def _phi_array(phi, m: int) -> np.ndarray:
    arr = np.array(phi, dtype=float)
    return np.full(m, float(arr)) if arr.ndim == 0 else arr


def tetrahedron(phi=np.pi / 2) -> SurfaceComplex:
    """Complete graph on 4 vertices with its 4 triangular faces."""
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    # Faces opposite each vertex, as walks over edge ids.
    faces = ((3, 5, 4),   # 1-2, 2-3, 3-1
             (1, 5, 2),   # 0-2, 2-3, 3-0
             (0, 4, 2),   # 0-1, 1-3, 3-0
             (0, 3, 1))   # 0-1, 1-2, 2-0
    return SurfaceComplex(4, edges, faces, _phi_array(phi, 6))


def bigon(phi=np.pi / 2) -> SurfaceComplex:
    """Two vertices joined by two parallel edges, bounding two bigon faces."""
    return SurfaceComplex(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)), _phi_array(phi, 2))


def cube_graph(phi=np.pi / 2) -> SurfaceComplex:
    """The 1-skeleton of the cube with its 6 quadrilateral faces: the
    square prism."""
    return prism(4, phi)


def torus_grid(rows: int = 3, cols: int = 3, phi=np.pi / 2) -> SurfaceComplex:
    """Quadrangulation of the torus by a rows x cols wrap-around grid.

    Needs rows, cols >= 3 to stay loopless and free of parallel edges.
    """
    if rows < 3 or cols < 3:
        raise InputError("torus grid needs at least 3 rows and 3 columns")

    def vid(i: int, j: int) -> int:
        return (i % rows) * cols + (j % cols)

    # Edge vid(i, j) runs right from vertex (i, j), edge rows * cols +
    # vid(i, j) down from it.
    edges = [(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(rows) for j in range(cols)]
    down = rows * cols
    faces = [(vid(i, j), down + vid(i, j + 1), vid(i + 1, j), down + vid(i, j))
             for i in range(rows) for j in range(cols)]
    return SurfaceComplex(rows * cols, tuple(edges), tuple(faces),
                          _phi_array(phi, len(edges)))


def necklace(beads: int = 3, phi=np.pi / 2) -> SurfaceComplex:
    """Cycle of ``beads`` vertices with doubled edges; every doubled pair
    bounds a bigon face, and the two sides of the necklace close it up."""
    if beads < 2:
        raise InputError("necklace needs at least 2 beads")
    edges = []
    for i in range(beads):
        j = (i + 1) % beads
        edges.append((i, j))
        edges.append((i, j))
    faces = [(2 * i, 2 * i + 1) for i in range(beads)]
    faces.append(tuple(2 * i for i in range(beads)))
    faces.append(tuple(2 * i + 1 for i in range(beads)))
    return SurfaceComplex(beads, tuple(edges), tuple(faces),
                          _phi_array(phi, 2 * beads))


def prism(sides: int = 3, phi=np.pi / 2) -> SurfaceComplex:
    """Two ``sides``-gons joined by rungs (the triangular prism for 3)."""
    if sides < 3:
        raise InputError("prism needs at least 3 sides")
    bottom = [(i, (i + 1) % sides) for i in range(sides)]
    top = [(sides + i, sides + (i + 1) % sides) for i in range(sides)]
    rungs = [(i, sides + i) for i in range(sides)]
    edges = tuple(bottom + top + rungs)
    faces = [tuple(range(sides)), tuple(range(sides, 2 * sides))]
    for i in range(sides):
        faces.append((i, 2 * sides + (i + 1) % sides, sides + i, 2 * sides + i))
    return SurfaceComplex(2 * sides, edges, tuple(faces),
                          _phi_array(phi, 3 * sides))


def bipyramid(sides: int = 3, phi=np.pi / 2) -> SurfaceComplex:
    """Double pyramid over a ``sides``-gon (the octahedron for 4)."""
    if sides < 3:
        raise InputError("bipyramid needs at least 3 sides")
    apex_top, apex_bot = sides, sides + 1
    ring = [(i, (i + 1) % sides) for i in range(sides)]
    up = [(i, apex_top) for i in range(sides)]
    down = [(i, apex_bot) for i in range(sides)]
    edges = tuple(ring + up + down)
    faces = []
    for i in range(sides):
        j = (i + 1) % sides
        faces.append((i, sides + j, sides + i))          # ring edge + two ups
        faces.append((i, 2 * sides + j, 2 * sides + i))  # ring edge + two downs
    return SurfaceComplex(sides + 2, edges, tuple(faces),
                          _phi_array(phi, 3 * sides))
