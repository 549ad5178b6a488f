"""Closed surfaces beyond the sphere and torus fixtures: connected sums of
3x3 torus grids (genus >= 2) and a Klein bottle, with an orientability
test for face walks and a union-find oracle for the corner cycles.

They live in tests/ because the benchmark does not build them.  Their
random draws are new ones beside conftest's ``family_pool``, so no seeded
instance drawn from that pool changes.
"""

import numpy as np

from cpflow import SurfaceComplex, fixtures
from cpflow.surface import _entries


def connected_sum(genus: int) -> SurfaceComplex:
    """The orientable surface of ``genus`` >= 1 as a chain of ``genus`` 3x3
    torus grids, each glued to the next along a removed face; every angle
    is pi/2.

    Torus k gives up face (1, 1) and torus k + 1 face (0, 0); the corners
    and sides of the two squares are identified by the translation (1, 1).
    A torus inside the chain gives up both, two diagonal faces that share
    vertex (1, 1).  Each gluing removes 4 vertices, 4 edges and 2 faces, so
    chi = 2 - 2 genus: V 14, E 32, F 16 for genus 2.
    """
    torus = fixtures.torus_grid()
    back, front = torus.faces[0], torus.faces[4]
    n_vertices, edges, faces = 0, [], []
    for k in range(genus):
        # The global id of each vertex and edge of torus k.
        vertex, edge = {}, {}
        if k:
            for a, b in zip(back, front):
                edge[a] = front_edge[b]
                for x, y in zip(torus.edges[a], torus.edges[b]):
                    vertex[x] = front_vertex[y]
        for v in range(torus.n_vertices):
            if v not in vertex:
                vertex[v], n_vertices = n_vertices, n_vertices + 1
        for e, (v, w) in enumerate(torus.edges):
            if e not in edge:
                edge[e] = len(edges)
                edges.append((vertex[v], vertex[w]))
        holes = ((back,) if k else ()) + ((front,) if k < genus - 1 else ())
        faces += [tuple(edge[e] for e in walk) for walk in torus.faces
                  if walk not in holes]
        front_vertex, front_edge = vertex, edge
    return SurfaceComplex(n_vertices, tuple(edges), tuple(faces),
                          np.full(len(edges), np.pi / 2))


def klein_bottle(rows: int = 4, cols: int = 4) -> SurfaceComplex:
    """A rows x cols grid whose side wrap is plain and whose bottom wrap
    flips the columns, (rows, j) ~ (0, -j): the Klein bottle, with chi = 0
    and every angle pi/2.  Not orientable."""
    down = rows * cols

    def vid(i: int, j: int) -> int:
        if i == rows:
            i, j = 0, -j
        return i * cols + j % cols

    def right(i: int, j: int) -> int:
        """The edge that joins vertices (i, j) and (i, j + 1)."""
        return vid(0, -j - 1) if i == rows else vid(i, j)

    # Edge vid(i, j) runs right from vertex (i, j), edge down + vid(i, j)
    # down from it.
    edges = [(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(rows) for j in range(cols)]
    faces = [(right(i, j), down + vid(i, j + 1), right(i + 1, j), down + vid(i, j))
             for i in range(rows) for j in range(cols)]
    return SurfaceComplex(down, tuple(edges), tuple(faces),
                          np.full(len(edges), np.pi / 2))


def orientable(complex: SurfaceComplex) -> bool:
    """Whether the face walks of a valid complex can be reversed so that the
    two sides of every edge run it in opposite directions.

    Each walk runs its edges in the direction ``surface._entries`` finds,
    forwards where it enters an edge at its first endpoint.  Reversing
    walks is a two-colouring of the faces, done by one search.
    """
    sides: dict[int, list[tuple[int, int]]] = {}
    for f, walk in enumerate(complex.faces):
        for e, x in zip(walk, _entries(complex.edges, walk)):
            sides.setdefault(e, []).append((f, 1 if x == complex.edges[e][0] else -1))
    # Face g must be reversed relative to face f exactly when link is -1.
    links: list[list[tuple[int, int]]] = [[] for _ in complex.faces]
    for (f, run_f), (g, run_g) in sides.values():
        links[f].append((g, -run_f * run_g))
        links[g].append((f, -run_f * run_g))
    sign, stack = [0] * complex.n_faces, [0]
    sign[0] = 1
    while stack:
        f = stack.pop()
        for g, link in links[f]:
            if sign[g] == 0:
                sign[g] = sign[f] * link
                stack.append(g)
            elif sign[g] != sign[f] * link:
                return False
    return True


def corner_cycles_union_find(complex: SurfaceComplex,
                             entries: list[list[int]]) -> list[int]:
    """Oracle for ``surface._corner_cycles``: how many cycles the face
    corners form around each vertex, by union-find over edge ends.

    Node 2e + s is end s of edge e.  The corner where a closed walk enters
    edge e at vertex x joins the ends at x of e and of the edge before it;
    the number of classes among the ends at a vertex is its cycle count.
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
