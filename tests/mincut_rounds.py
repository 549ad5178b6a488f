"""The per-vertex min-cut rounds that decided feasible prescriptions before
the single pass of ``feasibility.check_mincut``; kept as its test oracle.

After the closure max flow of ``check_mincut`` finds no violated subset,
each vertex v gets a round that starts from a copy of that residual with
v's source arc made unbounded; the flow the round adds is
-max_{W containing v} f(W), and its residual gives the minimal such W.

- Pruning.  A round adds at least LB_v, the residual capacity of v's
  edges to the sink, since those direct paths stay open.  So the margin
  of v is at most -LB_v: rounds run in ascending order of LB_v and stop
  once -LB_v falls below the best margin, and a round is abandoned as
  soon as the flow it added rules v out.  Both cuts are exact.
- Tie-break.  Among vertices whose rounds reach the same margin, the
  lowest-numbered one supplies the subset.
"""

import math

import numpy as np

from cpflow.feasibility import (FeasibilityVerdict, _ClosureNetwork,
                                _margin_of, _verdict)
from cpflow.surface import Prescription, SurfaceComplex, check_instance


def check_mincut_rounds(complex: SurfaceComplex,
                        prescription: Prescription) -> FeasibilityVerdict:
    """The verdict of one closure max flow, then a pruned round per vertex
    when that flow finds the prescription feasible."""
    check_instance(complex, prescription)
    net = _ClosureNetwork(complex, prescription.lhat)
    net.max_flow()
    closure = net.source_vertices()
    if closure:
        return _verdict(closure, _margin_of(complex, prescription, closure),
                        "min-cut")

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
    return _verdict(best_subset, best_margin, "min-cut")
