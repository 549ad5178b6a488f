"""Spherical-trigonometry kernel for a single edge quadrilateral.

Every edge of the embedded graph carries a spherical quadrilateral spanned
by the two circle centers v, w and the two adjacent face centers.  The
kernel has two check-free halves, which ``curvature`` runs over the whole
edge list: ``_edge_kernel`` gives the center angles of that quadrilateral
and the total geodesic curvature contributed by each circular arc, and
``_edge_derivatives`` their analytic partial derivatives with respect to
the log-cotangent coordinates K = ln cot r.  ``r_to_k`` is the coordinate
change, which the instance parser applies to given radii, and ``_k_to_r``
its check-free inverse.

The kernel works elementwise on numpy arrays, in radians.  Radii live in
(0, pi/2), intersection angles in (0, pi/2].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

HALF_PI = 0.5 * np.pi


def _check_radius(r, name: str) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    # NaN and infinities fail the comparisons, so one reduction covers all.
    if not bool(np.all((r > 0.0) & (r < HALF_PI))):
        raise InputError(f"{name} must lie in the open interval (0, pi/2)")
    return r


def r_to_k(r):
    """Log-cotangent coordinate K = ln cot r, strictly decreasing on (0, pi/2)."""
    r = _check_radius(r, "r")
    out = np.log(np.cos(r)) - np.log(np.sin(r))
    return float(out) if out.ndim == 0 else out


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
    """The inverse coordinate change r = arccot(exp K) of a finite float
    array, evaluated as arctan(exp(-|K|)) on the matching side so that no
    intermediate exp overflows; accurate for |K| up to ~700."""
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
    """Check-free derivative half of the kernel, from the inputs and
    outputs of ``_edge_kernel``; ``cross_scale`` (``_cross_scale``)
    broadcasts against one row.  Returns the mixed partial dL_v/dK_w =
    dL_w/dK_v and, stacked like ``sin_r``, d(L_v + L_w)/dK_v over its
    mirror d(L_v + L_w)/dK_w:

        d_cross = -2 cos r_v cos r_w sin(theta_v/2) sin(theta_w/2) / sin phi
        d_pair  = sin^2 r cos r (theta - sin theta)

    with theta - sin theta summed from its Taylor series at small theta.
    d_cross < 0 (0 once its sines underflow) and d_pair > 0, so the
    per-edge 2x2 derivative block, own derivatives d_pair - d_cross on its
    diagonal, is strictly diagonally dominant.
    """
    cos_sin_half = cos_r * np.sin(half)
    d_cross = cross_scale * cos_sin_half[0] * cos_sin_half[1]
    return d_cross, sin_r * sin_r * cos_r * _theta_minus_sin(theta)
