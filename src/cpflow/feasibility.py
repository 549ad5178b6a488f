"""Feasibility of a curvature prescription.

A prescription Lhat admits an ideal circle pattern exactly when

    sum_{v in W} Lhat_v  <  2 sum_{e in E(W)} phi(e)

holds strictly for every nonempty vertex subset W, where E(W) is the set
of edges with at least one endpoint in W.  Two deciders are provided: an
exact enumeration over all subsets (exponential, guarded), and a min-cut
reduction that scales polynomially and must agree with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeError
from .surface import Prescription, SurfaceComplex

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


def _check_instance(complex: SurfaceComplex, prescription: Prescription) -> None:
    if not complex.is_valid:
        raise InputError("invalid complex: " + "; ".join(complex.violations))
    if len(prescription) != complex.n_vertices:
        raise InputError("prescription length does not match complex")


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
    _check_instance(complex, prescription)
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
    """Polynomial-time equivalent of the enumeration via project selection.

    Network: source -> v with capacity Lhat_v, v -> edge node with
    unbounded capacity, edge node -> sink with capacity 2 phi(e).  For
    each cut, the source side restricted to V is a subset W whose margin
    is (sum Lhat) - (cut value), so a max-flow computation maximizes the
    margin.  Nonemptiness of W is enforced by an outer loop that pins one
    vertex at unbounded source capacity.
    """
    _check_instance(complex, prescription)
    n = complex.n_vertices
    m = complex.n_edges
    lhat = prescription.lhat
    total_lhat = float(np.sum(lhat))
    inf_cap = total_lhat + 2.0 * float(np.sum(complex.phi)) + 1.0

    # Node layout: 0 = source, 1..n = vertices, n+1..n+m = edge nodes, n+m+1 = sink.
    source, sink = 0, n + m + 1

    best: tuple[float, frozenset[int]] | None = None
    for forced in range(n):
        net = _FlowNetwork(n + m + 2)
        for v in range(n):
            net.add_arc(source, 1 + v, inf_cap if v == forced else float(lhat[v]))
        for e, (v, w) in enumerate(complex.edges):
            net.add_arc(1 + v, 1 + n + e, inf_cap)
            net.add_arc(1 + w, 1 + n + e, inf_cap)
            net.add_arc(1 + n + e, sink, 2.0 * float(complex.phi[e]))
        net.max_flow(source, sink)
        side = net.source_side(source)
        subset = frozenset(v for v in range(n) if side[1 + v])
        margin = _margin_of(complex, prescription, subset)
        if best is None or margin > best[0]:
            best = (margin, subset)

    assert best is not None
    return _verdict(complex, prescription, best[1], "min-cut")


class _FlowNetwork:
    """Dinic max-flow on real capacities (arc arrays, paired reverse arcs)."""

    # Residuals below this threshold count as saturated so that floating
    # point dust cannot stall the augmentation loop.
    EPS = 1e-12

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_arc(self, u: int, v: int, capacity: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.head[u]:
                v = self.to[a]
                if level[v] < 0 and self.cap[a] > self.EPS:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, limit: float, level: list[int],
              it: list[int]) -> float:
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            a = self.head[u][it[u]]
            v = self.to[a]
            if self.cap[a] > self.EPS and level[v] == level[u] + 1:
                pushed = self._push(v, t, min(limit, self.cap[a]), level, it)
                if pushed > 0.0:
                    self.cap[a] -= pushed
                    self.cap[a ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._push(s, t, float("inf"), level, it)
                if pushed <= 0.0:
                    break
                flow += pushed

    def source_side(self, s: int) -> list[bool]:
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.head[u]:
                v = self.to[a]
                if not seen[v] and self.cap[a] > self.EPS:
                    seen[v] = True
                    q.append(v)
        return seen
