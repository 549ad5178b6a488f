"""The curvature flow in radius space, the test oracle for the K-space
flow that ``flow.run`` integrates.

Under K = ln cot r the flow dK/dt = -(L - Lhat) reads

    dr_v/dt = (L_v - Lhat_v)/2 * sin(2 r_v),

which damps every radius near the ends of (0, pi/2).  It is written on the
public ``evaluate`` and ``r_to_k`` only.
"""

import numpy as np

from cpflow import Prescription, SurfaceComplex, evaluate, r_to_k


def curvature_rhs(complex: SurfaceComplex, prescription: Prescription,
                  r) -> np.ndarray:
    """dr/dt of the radius-space curvature flow at the radii ``r``.

    ``r_to_k`` rejects radii outside (0, pi/2) with InputError."""
    r = np.asarray(r, dtype=float)
    state = evaluate(complex, r_to_k(r))
    return 0.5 * (state.L - prescription.lhat) * np.sin(2.0 * r)
