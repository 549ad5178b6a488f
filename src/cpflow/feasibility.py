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
- Feasible input.  W* is empty and every source arc is saturated.  Each
  vertex v gets a round that starts from a copy of that residual with
  v's source arc made unbounded; the flow the round adds is
  -max_{W containing v} f(W), and its residual gives the minimal such W.
- Pruning.  A round adds at least LB_v, the residual capacity of v's
  edges to the sink, since those direct paths stay open.  So the margin
  of v is at most -LB_v: rounds run in ascending order of LB_v and stop
  once -LB_v falls below the best margin, and a round is abandoned as
  soon as the flow it added rules v out.  Both cuts are exact.
- Tie-break.  Among vertices whose rounds reach the same margin, the
  lowest-numbered one supplies the subset.

Every reported margin is recomputed from its subset by ``_margin_of``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .surface import Prescription, SurfaceComplex, check_instance

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
               subset: frozenset[int]) -> float:
    lhat_sum = float(sum(prescription.lhat[v] for v in subset))
    phi_sum = 0.0
    for (v, w), p in zip(complex.edges, complex.phi):
        if v in subset or w in subset:
            phi_sum += p
    return lhat_sum - 2.0 * phi_sum


def _verdict(complex: SurfaceComplex, prescription: Prescription,
             subset: frozenset[int], method: str) -> FeasibilityVerdict:
    margin = _margin_of(complex, prescription, subset)
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
        raise SizeError(f"{n} vertices exceeds the enumeration guard of "
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
    return _verdict(complex, prescription, subset, "brute-force")


def check_mincut(complex: SurfaceComplex,
                 prescription: Prescription) -> FeasibilityVerdict:
    """Exact maximization of the subset margin by max-flow (see the module
    docstring): one max flow settles an infeasible prescription, and a
    feasible one takes a pruned round per vertex from that flow."""
    check_instance(complex, prescription)
    net = _ClosureNetwork(complex, prescription.lhat)
    net.max_flow()
    closure = net.source_vertices()
    if closure:
        return _verdict(complex, prescription, closure, "min-cut")

    n = complex.n_vertices
    base = net.cap
    # Per vertex, the residual capacity of its edges to the sink.
    ev, ew = complex.endpoint_arrays
    sink_residual = np.array(base[2 * n + 4::6])
    bound = (np.bincount(ev, sink_residual, n)
             + np.bincount(ew, sink_residual, n)).tolist()
    best_margin, best_v, best_subset = -math.inf, -1, frozenset()
    for v in sorted(range(n), key=lambda v: (bound[v], v)):
        # v wins with a margin above the best, or equal to it if v is the
        # lower-numbered vertex.  Its margin is minus the flow its round
        # adds, and that flow is at least bound[v].
        limit = -best_margin
        if bound[v] > limit:
            break
        if v > best_v:
            limit = math.nextafter(limit, -math.inf)
            if bound[v] > limit:
                continue
        net.cap = base.copy()
        net.cap[2 * v] = math.inf
        if net.max_flow(limit) > limit:
            continue
        subset = net.source_vertices()
        margin = _margin_of(complex, prescription, subset)
        if margin > best_margin or (margin == best_margin and v < best_v):
            best_margin, best_v, best_subset = margin, v, subset
    return _verdict(complex, prescription, best_subset, "min-cut")


class _ClosureNetwork:
    """Residual network source -> vertex -> edge node -> sink as flat arcs.

    Node 0 is the source, 1..n the vertices, n+1..n+m the edge nodes and
    n+m+1 the sink.  Arc a and its reverse a ^ 1 are stored side by side;
    arc 2v is source -> v and arc 2n + 6e + 4 is edge e -> sink.
    Augmentation is Dinic's, iterative, so path length is not limited by
    the interpreter's recursion limit.
    """

    # Residuals at or below this count as saturated, so that floating-point
    # dust cannot stall the augmentation.
    EPS = 1e-12

    def __init__(self, complex: SurfaceComplex, lhat: np.ndarray):
        n, m = complex.n_vertices, complex.n_edges
        self.n = n
        self.sink = n + m + 1
        self.head: list[list[int]] = [[] for _ in range(n + m + 2)]
        self.to: list[int] = []
        self.cap: list[float] = []
        for v in range(n):
            self._add_arc(0, 1 + v, float(lhat[v]))
        for e, ((v, w), p) in enumerate(zip(complex.edges, complex.phi)):
            self._add_arc(1 + v, 1 + n + e, math.inf)
            self._add_arc(1 + w, 1 + n + e, math.inf)
            self._add_arc(1 + n + e, self.sink, 2.0 * float(p))

    def _add_arc(self, u: int, v: int, capacity: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def _levels(self) -> list[int]:
        """BFS distances from the source over unsaturated arcs (-1 where
        unreachable), stopping once the sink is found."""
        head, to, cap, eps, t = self.head, self.to, self.cap, self.EPS, self.sink
        level = [-1] * len(head)
        level[0] = 0
        queue = deque([0])
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

    def max_flow(self, limit: float = math.inf) -> float:
        """Augment the current residual to a maximum flow; returns the flow
        added, stopping early once that exceeds ``limit``."""
        head, to, cap, eps, t = self.head, self.to, self.cap, self.EPS, self.sink
        total = 0.0
        while (level := self._levels())[t] >= 0:
            it = [0] * len(head)
            path: list[int] = []
            u = 0
            while True:
                if u == t:
                    push = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= push
                        cap[a ^ 1] += push
                    total += push
                    if total > limit:
                        return total
                    # Resume from the tail of the first saturated arc.
                    k = 0
                    while cap[path[k]] > eps:
                        k += 1
                    del path[k:]
                    u = to[path[-1]] if path else 0
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

    def source_vertices(self) -> frozenset[int]:
        """The vertices reachable from the source in the residual network of
        a maximum flow: the source side of the inclusion-minimal min cut."""
        level = self._levels()
        return frozenset(v for v in range(self.n) if level[1 + v] >= 0)
