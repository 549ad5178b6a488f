"""The per-edge reference kernel, the test oracle for one edge of the
O(E) evaluation that ``curvature.evaluate`` runs.

``edge_side_geometry`` takes checked radii and an angle, composes the
production halves ``geometry._edge_kernel`` and
``geometry._edge_derivatives`` and returns everything in one
``EdgeSideGeometry``.  It copies none of their math, so a test of it
tests the kernel that ``evaluate`` runs.  ``k_to_r`` is the checked
inverse of ``r_to_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cpflow import geometry
from cpflow.errors import InputError
from cpflow.geometry import HALF_PI, _check_radius


def _check_phi(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if not bool(np.all((phi > 0.0) & (phi <= HALF_PI))):
        raise InputError("intersection angle must lie in (0, pi/2]")
    return phi


def k_to_r(k):
    """Inverse coordinate change r = arccot(exp K): ``geometry._k_to_r``
    of a finite K, a float for a scalar K."""
    k = np.asarray(k, dtype=float)
    if np.any(~np.isfinite(k)):
        raise InputError("K must be finite")
    out = geometry._k_to_r(k)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EdgeSideGeometry:
    """Angles, arc curvatures, and K-derivatives for one edge quadrilateral.

    Per-side quantities are stacked along a leading axis of length 2: row 0
    is the side of the first endpoint v, row 1 the side of w, so
    ``theta[0]`` is theta_v and ``L_side[1]`` is L_w_side.  ``d_cross``
    and ``d_pair`` are the partials of ``geometry._edge_derivatives``,
    whose docstring gives their formulas and signs.
    """

    theta: np.ndarray
    L_side: np.ndarray
    d_cross: float | np.ndarray
    d_pair: np.ndarray


def edge_side_geometry(r_v, r_w, phi) -> EdgeSideGeometry:
    """Evaluate both side angles and all analytic partials for one edge.

    The center angle theta_v = 2 atan2(sin phi, cot r_w sin r_v + cos r_v
    cos phi) is the cotangent four-part relation of the quadrilateral, and
    L_v_side = theta_v cos r_v; the w side mirrors both.  The derivatives
    are those of ``geometry._edge_derivatives``.  The trigonometry of the
    radii is taken from ``r_v`` and ``r_w`` here; ``curvature`` runs the
    same two halves from K directly, the derivative half only when J is
    read.  Scalars and arrays broadcast elementwise.
    """
    r_v = _check_radius(r_v, "r_v")
    r_w = _check_radius(r_w, "r_w")
    phi = _check_phi(phi)
    r_v, r_w, phi = np.broadcast_arrays(r_v, r_w, phi)
    r = np.array((r_v, r_w))
    sin_r, cos_r = np.sin(r), np.cos(r)
    sin_phi = np.sin(phi)
    half, theta, L_side = geometry._edge_kernel(
        sin_phi, np.cos(phi), (cos_r / sin_r)[::-1], sin_r, cos_r)
    return EdgeSideGeometry(theta, L_side, *geometry._edge_derivatives(
        geometry._cross_scale(sin_phi), sin_r, cos_r, half, theta))
