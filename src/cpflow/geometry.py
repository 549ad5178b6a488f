"""Spherical-trigonometry kernel for a single edge quadrilateral.

Every edge of the embedded graph carries a spherical quadrilateral spanned
by the two circle centers v, w and the two adjacent face centers.
``edge_side_geometry`` computes the center angles of that quadrilateral,
the total geodesic curvature contributed by each circular arc, and the
analytic partial derivatives with respect to the log-cotangent
coordinates K = ln cot r, all in one ``EdgeSideGeometry``.  It composes
two check-free halves: ``_edge_kernel`` (angles and arc curvatures) and
``_edge_derivatives`` (the partials).

All functions accept scalars or numpy arrays (broadcasting elementwise)
and work in radians.  Radii live in (0, pi/2), intersection angles in
(0, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

HALF_PI = 0.5 * np.pi


def _check_radius(r, name: str) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    # NaN and infinities fail the comparisons, so one reduction covers all.
    if not bool(np.all((r > 0.0) & (r < HALF_PI))):
        raise InputError(f"{name} must lie in the open interval (0, pi/2)")
    return r


def _check_phi(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if not bool(np.all((phi > 0.0) & (phi <= HALF_PI))):
        raise InputError("intersection angle must lie in (0, pi/2]")
    return phi


def r_to_k(r):
    """Log-cotangent coordinate K = ln cot r, strictly decreasing on (0, pi/2)."""
    r = _check_radius(r, "r")
    out = np.log(np.cos(r)) - np.log(np.sin(r))
    return float(out) if out.ndim == 0 else out


def k_to_r(k):
    """Inverse coordinate change r = arccot(exp K).

    Evaluated as arctan(exp(-|K|)) on the matching side so that no
    intermediate exp overflows; accurate for |K| up to ~700.
    """
    k = np.asarray(k, dtype=float)
    if np.any(~np.isfinite(k)):
        raise InputError("K must be finite")
    out = _k_to_r(k)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EdgeSideGeometry:
    """Angles, arc curvatures, and K-derivatives for one edge quadrilateral.

    Per-side quantities are stacked along a leading axis of length 2: row 0
    is the side of the first endpoint v, row 1 the side of w, so
    ``theta[0]`` is theta_v and ``L_side[1]`` is L_w_side.
    ``d_cross`` is the mixed partial dL_v/dK_w (equal to dL_w/dK_v and
    always negative); ``d_pair[0]`` is d(L_v + L_w)/dK_v (always positive),
    likewise ``d_pair[1]``.  The own-coordinate derivatives, not stored,
    are ``d_pair - d_cross``; ``d_pair > 0`` makes the per-edge 2x2
    derivative block strictly diagonally dominant.
    """

    theta: np.ndarray
    L_side: np.ndarray
    d_cross: float | np.ndarray
    d_pair: np.ndarray


# Below _TMS_SERIES_BELOW, theta - sin(theta) is summed from its Taylor
# series: the direct difference has an absolute error of about half an ulp
# of theta, so its relative error grows like 1/theta^2 (the result is
# exactly 0.0 once theta < ~1e-8).  Six terms keep the truncation error
# under 1e-18 relative at the switch, where the two forms agree to within
# that half ulp of theta; above it the direct form is good to ~1e-14.
_TMS_SERIES_BELOW = 0.25
_TMS_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(6))


def _theta_minus_sin(theta: np.ndarray) -> np.ndarray:
    """theta - sin(theta) for an array of angles, accurate at small theta."""
    out = theta - np.sin(theta)
    small = theta < _TMS_SERIES_BELOW
    if np.count_nonzero(small):
        t = theta[small]
        t2 = t * t
        acc = 0.0
        for c in reversed(_TMS_SERIES):
            acc = c + t2 * acc
        out[small] = t * t2 * acc
    return out


def _k_to_r(k: np.ndarray) -> np.ndarray:
    """Check-free ``k_to_r`` for a finite float array."""
    small = np.arctan(np.exp(-np.abs(k)))
    return np.where(k >= 0.0, small, HALF_PI - small)


def _edge_kernel(sin_phi, cos_phi, cot_across, sin_r, cos_r):
    """Check-free angle half of the kernel: the half angles, the center
    angles theta and the arc curvatures L_side, from the trigonometry of
    the radii and the angle.

    ``sin_r`` and ``cos_r`` stack the v side (row 0) over the w side (row
    1); ``cot_across`` holds the cotangent of the radius at the other end
    (row 0: cot r_w, row 1: cot r_v).  ``sin_phi`` and ``cos_phi``
    broadcast against one row.  Callers must guarantee the domains.
    """
    # Row 0 is cot r_w sin r_v + cos r_v cos phi, row 1 the mirror image.
    half = np.arctan2(sin_phi, cot_across * sin_r + cos_r * cos_phi)
    theta = half + half
    return half, theta, theta * cos_r


def _cross_scale(sin_phi):
    """-2 / sin phi, the factor of the mixed partial dL_v/dK_w, held at
    -DBL_MAX where a subnormal angle makes it overflow, so that a mixed
    partial whose sines underflow is 0 and not -inf * 0 = NaN."""
    with np.errstate(over="ignore"):
        return np.maximum(-2.0 / sin_phi, -np.finfo(float).max)


def _edge_derivatives(cross_scale, sin_r, cos_r, half, theta):
    """Check-free derivative half of the kernel: ``d_cross`` and
    ``d_pair`` of ``EdgeSideGeometry`` from the inputs and outputs of
    ``_edge_kernel``; ``cross_scale`` (``_cross_scale``) broadcasts
    against one row.
    """
    cos_sin_half = cos_r * np.sin(half)
    d_cross = cross_scale * cos_sin_half[0] * cos_sin_half[1]
    return d_cross, sin_r * sin_r * cos_r * _theta_minus_sin(theta)


def edge_side_geometry(r_v, r_w, phi) -> EdgeSideGeometry:
    """Evaluate both side angles and all analytic partials for one edge.

    The center angle theta_v = 2 atan2(sin phi, cot r_w sin r_v + cos r_v
    cos phi) is the cotangent four-part relation of the quadrilateral, and
    L_v_side = theta_v cos r_v; the w side mirrors both.  The derivatives:

        dL_v/dK_w          = -2 cos r_v cos r_w sin(theta_v/2) sin(theta_w/2) / sin phi
        d(L_v + L_w)/dK_v  = sin^2 r_v cos r_v (theta_v - sin theta_v)

    with theta - sin theta summed from its Taylor series at small theta.
    The trigonometry of the radii is taken from ``r_v`` and ``r_w`` here;
    ``curvature`` runs the same two halves from K directly, the
    derivative half only when J is read.
    """
    r_v = _check_radius(r_v, "r_v")
    r_w = _check_radius(r_w, "r_w")
    phi = _check_phi(phi)
    r_v, r_w, phi = np.broadcast_arrays(r_v, r_w, phi)
    r = np.array((r_v, r_w))
    sin_r, cos_r = np.sin(r), np.cos(r)
    sin_phi = np.sin(phi)
    half, theta, L_side = _edge_kernel(sin_phi, np.cos(phi),
                                       (cos_r / sin_r)[::-1], sin_r, cos_r)
    return EdgeSideGeometry(theta, L_side, *_edge_derivatives(
        _cross_scale(sin_phi), sin_r, cos_r, half, theta))
