"""Feasibility of a curvature prescription.

A prescription Lhat admits an ideal circle pattern exactly when

    sum_{v in W} Lhat_v  <  2 sum_{e in E(W)} phi(e)

holds strictly for every nonempty vertex subset W, where E(W) is the set
of edges with at least one endpoint in W.  Equivalently, the margin
f(W) = sum_W Lhat - 2 sum_{E(W)} phi is negative on every nonempty W.
``check_mincut`` is the decider; ``check_bruteforce`` enumerates all
subsets (exponential, guarded) and serves as its test oracle.

The min-cut decider works on the closure network of Picard (1976):
source -> v with capacity Lhat_v, v -> e unbounded for both ends of each
edge e, e -> sink with capacity 2 phi(e).  A cut whose source side holds
the vertex set W costs sum Lhat - f(W), so a maximum flow maximizes f,
and the vertices reachable from the source in its residual network form
the inclusion-minimal maximizer W*.

- Infeasible input.  Since f(empty) = 0, a nonempty W* has f(W*) >= 0 and
  is the worst nonempty subset (the smallest one, should several tie).
  One max flow settles the input.
- Feasible input.  W* is empty and every source arc is saturated; only
  cuts whose source side holds a vertex count.  One pass in vertex order
  then finds them, in the manner of Hao & Orlin (J. Algorithms 17, 1994):
  phase v makes v's source arc unbounded, so v joins W, and augments the
  flow the pass carries, in which the vertices 0..v-1 are already held on
  the sink side.  The flow the phase adds is -max f(W) over the W that
  hold v and none of 0..v-1, and its residual gives the minimal such W.
  After the phase v joins the sink side for good: its flow into its edges
  is withdrawn from their arcs to the sink, which leaves a maximum flow
  for the next phase to start from.  No flow is ever reset.
- Tie-break.  Every nonempty W is counted in the phase of its lowest
  vertex, so the first phase to reach the worst margin belongs to the
  lowest vertex of any worst subset, and its minimal cut is the minimal
  worst subset holding that vertex.  A later phase replaces it only with
  a strictly larger margin.
- Pruning.  A phase adds at least the residual capacity of v's edges to
  the sink, since those direct paths are open, so v's margin is at most
  minus that sum: a phase whose sum already rules v out is skipped, and
  a phase is abandoned as soon as the flow it added rules v out.

Every reported margin is recomputed from its subset by ``_margin_of``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .surface import (Prescription, SurfaceComplex, check_instance,
                      edge_neighborhood)

BRUTEFORCE_LIMIT = 24
# Margins this close to zero sit on the boundary where the strict
# inequality fails; they are classified infeasible and flagged.
BOUNDARY_SLACK = 1e-12


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the subset condition, with the extremal subset as witness.

    ``worst_margin`` is max over nonempty W of
    sum_W Lhat - 2 sum_{E(W)} phi; the prescription is feasible iff it is
    strictly negative.  ``boundary`` marks margins within the numerical
    slack of zero.
    """

    feasible: bool
    worst_subset: frozenset[int]
    worst_margin: float
    method: str
    boundary: bool = False

    def subset_names(self, complex: SurfaceComplex) -> tuple[str, ...]:
        return tuple(complex.vertex_names[v] for v in sorted(self.worst_subset))


def _margin_of(complex: SurfaceComplex, prescription: Prescription,
               subset: frozenset[int], touched: list[int] | None = None) -> float:
    """f(subset): the targets summed in the set's iteration order, the
    angles of the edges it touches in edge order.  ``touched`` lists those
    edges in ascending order, when the caller knows them."""
    if touched is None:
        touched = sorted(edge_neighborhood(complex, subset))
    lhat_sum = float(sum(prescription.lhat[v] for v in subset))
    phi, phi_sum = complex.phi, 0.0
    for e in touched:
        phi_sum += phi[e]
    return float(lhat_sum - 2.0 * phi_sum)


def _verdict(subset: frozenset[int], margin: float,
             method: str) -> FeasibilityVerdict:
    boundary = abs(margin) <= BOUNDARY_SLACK
    return FeasibilityVerdict(
        feasible=(margin < 0.0 and not boundary),
        worst_subset=subset,
        worst_margin=margin,
        method=method,
        boundary=boundary,
    )


def check_bruteforce(complex: SurfaceComplex,
                     prescription: Prescription) -> FeasibilityVerdict:
    """Exact maximization of the subset margin over all 2^n - 1 subsets."""
    check_instance(complex, prescription)
    n = complex.n_vertices
    if n > BRUTEFORCE_LIMIT:
        raise InputError(f"{n} vertices exceeds the enumeration guard of "
                         f"{BRUTEFORCE_LIMIT}; use check_mincut instead")

    ev, ew = complex.endpoint_arrays
    edge_bits = (1 << ev.astype(np.int64)) | (1 << ew.astype(np.int64))
    phi = complex.phi
    lhat = prescription.lhat

    best_margin = -np.inf
    best_mask = 0
    total = 1 << n
    chunk = 1 << 18
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        member = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        lsum = member @ lhat
        psum = np.zeros(len(masks))
        for bits, p in zip(edge_bits, phi):
            psum += np.where(masks & bits, p, 0.0)
        margins = lsum - 2.0 * psum
        i = int(np.argmax(margins))
        if margins[i] > best_margin:
            best_margin = float(margins[i])
            best_mask = int(masks[i])

    subset = frozenset(v for v in range(n) if best_mask >> v & 1)
    return _verdict(subset, _margin_of(complex, prescription, subset),
                    "brute-force")


def check_mincut(complex: SurfaceComplex,
                 prescription: Prescription) -> FeasibilityVerdict:
    """Exact maximization of the subset margin by max-flow (see the module
    docstring): one max flow settles an infeasible prescription, and a
    feasible one takes one pass over the vertices from that flow."""
    check_instance(complex, prescription)
    net = _ClosureNetwork(complex, prescription.lhat)
    net.max_flow()
    closure = net.source_vertices()
    if closure:
        return _verdict(closure, _margin_of(complex, prescription, closure,
                                            net.touched_edges(closure)),
                        "min-cut")

    best_margin, best_subset = -math.inf, frozenset()
    # A phase must add at most this much flow to beat the best margin.
    limit = math.inf
    for v in range(complex.n_vertices):
        if (net.sink_residual(v) <= limit
                and net.max_flow(limit, 1 + v) <= limit):
            subset = net.source_vertices(1 + v)
            margin = _margin_of(complex, prescription, subset,
                                net.touched_edges(subset))
            if margin > best_margin:
                best_margin, best_subset = margin, subset
                limit = math.nextafter(-margin, -math.inf)
        net.exclude(v)
    return _verdict(best_subset, best_margin, "min-cut")


class _ClosureNetwork:
    """Residual network source -> vertex -> edge node -> sink as flat arcs.

    Node 0 is the source, 1..n the vertices, n+1..n+m the edge nodes and
    n+m+1 the sink.  Arc a and its reverse a ^ 1 are stored side by side;
    arc 2v is source -> v, arcs 2n + 6e and 2n + 6e + 2 lead from e's
    endpoints into e, and arc 2n + 6e + 4 is edge e -> sink.  So the arcs
    of vertex v are the reverse of its source arc, then its arcs into its
    edges.  A new network already carries the flow of the first phase of
    Dinic's augmentation; ``max_flow`` goes on from there, iteratively, so
    path length is not limited by the interpreter's recursion limit.
    """

    # Residuals at or below this count as saturated, so that floating-point
    # dust cannot stall the augmentation.
    EPS = 1e-12

    def __init__(self, complex: SurfaceComplex, lhat: np.ndarray):
        n, m = complex.n_vertices, complex.n_edges
        self.n = n
        t = self.sink = n + m + 1
        first = 2 * n
        # Arc by arc: source -> v, then per edge e, v -> e, w -> e and
        # e -> sink, each followed by its reverse.
        ev, ew = complex.endpoint_arrays
        edge_node = np.arange(1 + n, 1 + n + m)
        to = np.empty(first + 6 * m, dtype=np.int64)
        to[0:first:2] = np.arange(1, n + 1)
        to[1:first:2] = 0
        to[first:] = np.column_stack((edge_node, 1 + ev, edge_node, 1 + ew,
                                      np.full(m, t), edge_node)).ravel()
        cap = np.zeros(first + 6 * m)
        cap[0:first:2] = lhat
        cap[first::6] = cap[first + 2::6] = math.inf
        cap[first + 4::6] = 2.0 * complex.phi
        self.to: list[int] = to.tolist()
        self.cap: list[float] = cap.tolist()
        # Each node's arcs in the order they were listed.
        head: list[list[int]] = [[2 * v + 1] for v in range(n)]
        for e, (v, w) in enumerate(complex.edges):
            head[v].append(first + 6 * e)
            head[w].append(first + 6 * e + 2)
        self.head = ([list(range(0, first, 2))] + head
                     + [[a + 1, a + 3, a + 4] for a in range(first, first + 6 * m, 6)]
                     + [list(range(first + 5, first + 6 * m, 6))])
        # The first phase of Dinic's augmentation, in the order its search
        # takes: along every path source -> v -> e -> sink, vertex by
        # vertex and edge by edge, push what both finite arcs have left.
        cap, eps = self.cap, self.EPS
        for v in range(n):
            for a in self._edge_arcs(v):
                if not cap[2 * v] > eps:
                    break
                to_sink = a + 4 - (a - first) % 6
                if cap[to_sink] > eps:
                    push = min(cap[2 * v], cap[to_sink])
                    cap[2 * v] -= push
                    cap[2 * v + 1] += push
                    cap[a + 1] += push
                    cap[to_sink] -= push
                    cap[to_sink + 1] += push

    def _levels(self, start: int = 0) -> list[int]:
        """BFS distances from ``start`` over unsaturated arcs (-1 where
        unreachable), stopping once the sink is found.  The source is
        never entered."""
        head, to, cap, eps, t = self.head, self.to, self.cap, self.EPS, self.sink
        level = [-1] * len(head)
        level[0] = level[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            lu = level[u] + 1
            for a in head[u]:
                w = to[a]
                if level[w] < 0 and cap[a] > eps:
                    level[w] = lu
                    if w == t:
                        return level
                    queue.append(w)
        return level

    def max_flow(self, limit: float = math.inf, start: int = 0) -> float:
        """Augment the current residual to a maximum flow from ``start``
        (the source, or a vertex node whose source arc counts as unbounded);
        returns the flow added, stopping early once that exceeds ``limit``."""
        head, to, cap, eps, t = self.head, self.to, self.cap, self.EPS, self.sink
        total = 0.0
        while (level := self._levels(start))[t] >= 0:
            it = [0] * len(head)
            path: list[int] = []
            u = start
            while True:
                if u == t:
                    push = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= push
                        cap[a ^ 1] += push
                    total += push
                    if total > limit:
                        return total
                    # Each node's current arc leads back along the path
                    # to the first saturated arc.
                    path.clear()
                    u = start
                    continue
                arcs, i, lu = head[u], it[u], level[u] + 1
                while i < len(arcs) and not (cap[arcs[i]] > eps
                                             and level[to[arcs[i]]] == lu):
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break
        return total

    def _edge_arcs(self, v: int) -> list[int]:
        """The arcs from vertex v into its edges."""
        return self.head[1 + v][1:]

    def sink_residual(self, v: int) -> float:
        """The residual capacity to the sink of the edges at vertex v."""
        cap, first = self.cap, 2 * self.n
        return sum(cap[a + 4 - (a - first) % 6] for a in self._edge_arcs(v))

    def touched_edges(self, subset: frozenset[int]) -> list[int]:
        """The edges with an endpoint in ``subset``, in ascending order."""
        first = 2 * self.n
        return sorted({(a - first) // 6 for v in subset
                       for a in self._edge_arcs(v)})

    def exclude(self, v: int) -> None:
        """Hold vertex v on the sink side from now on: the flow it sends
        into its edges is withdrawn from their arcs to the sink.  A flow
        stays a flow, and with every source arc saturated a maximum one;
        no residual arc leads into v any more."""
        cap, first = self.cap, 2 * self.n
        for a in self._edge_arcs(v):
            flow = cap[a + 1]
            if flow:
                cap[a + 1] = 0.0
                to_sink = a + 4 - (a - first) % 6
                cap[to_sink] += flow
                cap[to_sink + 1] -= flow

    def source_vertices(self, start: int = 0) -> frozenset[int]:
        """The vertices reachable from ``start`` in the residual network of
        a maximum flow from it: the source side of the inclusion-minimal
        min cut."""
        level = self._levels(start)
        return frozenset(v for v in range(self.n) if level[1 + v] >= 0)
