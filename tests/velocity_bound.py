"""The paper's closed-form ceiling on the speed of the Calabi flow, an
estimate for the convergence proof that the solver never reads, and the
vertex degrees it is written on.  Criterion 7 and the flow tests hold
the speed of ``calabi_direction`` under it.
"""

import numpy as np

from cpflow import Prescription, SurfaceComplex
from cpflow.surface import check_instance


def degrees(complex: SurfaceComplex) -> np.ndarray:
    """Edge-ends per vertex (parallel edges counted separately)."""
    return np.bincount(complex.endpoint_arrays.ravel(),
                       minlength=complex.n_vertices)


def velocity_bound(complex: SurfaceComplex, prescription: Prescription) -> float:
    """Closed-form ceiling on ||dK/dt|| along the Calabi flow.

    Depends only on the graph structure, the intersection angles, and the
    prescription:

        4 sqrt(|V|) max_v(d_v pi + sum_{e at v} 1/sin phi_e)
                    max_v(2 d_v pi + Lhat_v)

    An angle so small that 1 / sin phi overflows makes it inf: valid, if
    vacuous.
    """
    check_instance(complex, prescription)
    with np.errstate(over="ignore"):
        inv_sin = 1.0 / complex.sin_phi
    s = np.bincount(complex.endpoint_arrays.ravel(),
                    np.concatenate((inv_sin, inv_sin)), complex.n_vertices)
    d = degrees(complex)
    return float(4.0 * np.sqrt(complex.n_vertices)
                 * np.max(d * np.pi + s)
                 * np.max(2.0 * d * np.pi + prescription.lhat))
