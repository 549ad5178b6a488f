import math

import numpy as np
import pytest

from cpflow import InputError, evaluate, fixtures, r_to_k
from cpflow.oracle import rng_for
from edge_geometry import edge_side_geometry, k_to_r

# Reference values for r_v = r_w = pi/4, phi = pi/2, frozen from direct
# high-precision evaluation (theta = 2 atan sqrt(2) = arccos(-1/3)) and
# confirmed against central finite differences in K.
THETA_REF = 1.9106332362490186
L_SIDE_REF = 1.35102171771208          # THETA_REF * cos(pi/4)
D_CROSS_REF = -2.0 / 3.0               # sin^2(theta/2) = 2/3 at this corner
D_PAIR_REF = 0.34217752552270664       # 0.5*(sqrt2/2)*(theta - sin theta)


class TestCoordinateChange:
    def test_quarter_pi_maps_to_zero(self):
        assert abs(r_to_k(math.pi / 4)) < 1e-15

    def test_pi_sixth(self):
        # cot(pi/6) = sqrt(3)
        assert r_to_k(math.pi / 6) == pytest.approx(math.log(math.sqrt(3.0)), abs=1e-15)

    def test_zero_maps_to_quarter_pi(self):
        assert k_to_r(0.0) == pytest.approx(math.pi / 4, abs=1e-16)

    def test_inverse_of_pi_sixth(self):
        assert k_to_r(math.log(math.sqrt(3.0))) == pytest.approx(math.pi / 6, abs=1e-15)

    def test_roundtrip_thousand_radii(self):
        r = rng_for(11).uniform(1e-3, math.pi / 2 - 1e-3, 1000)
        back = k_to_r(r_to_k(r))
        assert np.max(np.abs(back - r)) <= 1e-14

    def test_large_k_asymptotics(self):
        # r = arccot(e^K) ~ e^-K to first order
        assert k_to_r(30.0) == pytest.approx(math.exp(-30.0), rel=1e-10)

    def test_extreme_k_stays_finite(self):
        for k in (700.0, -700.0):
            r = k_to_r(k)
            assert math.isfinite(r)
            assert 0.0 < r <= math.pi / 2
        assert k_to_r(700.0) < 1e-300
        assert k_to_r(-700.0) > 1.57

    def test_strictly_decreasing(self):
        rs = np.linspace(0.05, math.pi / 2 - 0.05, 50)
        ks = r_to_k(rs)
        assert np.all(np.diff(ks) < 0.0)

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2, -0.3, math.pi, float("nan")])
    def test_r_domain(self, bad):
        with pytest.raises(InputError):
            r_to_k(bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_k_domain(self, bad):
        with pytest.raises(InputError):
            k_to_r(bad)


def theta_v(r_v, r_w, phi):
    return edge_side_geometry(r_v, r_w, phi).theta[0]


class TestQuadAngle:
    """The center angle of the edge quadrilateral at the v side."""

    def test_symmetric_reference(self):
        theta = theta_v(math.pi / 4, math.pi / 4, math.pi / 2)
        assert theta == pytest.approx(THETA_REF, abs=1e-15)
        assert theta == pytest.approx(2.0 * math.atan(math.sqrt(2.0)), abs=1e-15)
        assert theta == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-15)

    def test_equal_radii_both_sides_agree(self):
        for r, phi in [(0.3, 1.0), (1.2, math.pi / 2), (0.7, 0.4)]:
            g = edge_side_geometry(r, r, phi)
            assert g.theta[0] == g.theta[1]

    def test_far_circle_limit(self):
        # r_w -> pi/2 at phi = pi/2 closes up the angle to pi
        theta = theta_v(0.3, math.pi / 2 - 1e-9, math.pi / 2)
        assert theta == pytest.approx(math.pi, abs=1e-8)

    def test_increasing_in_other_radius(self):
        rw = np.linspace(0.05, math.pi / 2 - 0.05, 80)
        theta = theta_v(0.6, rw, 1.1)
        assert np.all(np.diff(theta) > 0.0)

    def test_range(self):
        rng = rng_for(12)
        rv = rng.uniform(0.01, math.pi / 2 - 0.01, 500)
        rw = rng.uniform(0.01, math.pi / 2 - 0.01, 500)
        phi = rng.uniform(0.01, math.pi / 2, 500)
        theta = theta_v(rv, rw, phi)
        assert np.all(theta > 0.0) and np.all(theta < math.pi)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            theta_v(0.0, 0.3, 1.0)
        with pytest.raises(InputError):
            theta_v(0.3, math.pi / 2, 1.0)
        with pytest.raises(InputError):
            theta_v(0.3, 0.3, math.pi / 2 + 1e-9)
        with pytest.raises(InputError):
            theta_v(0.3, 0.3, 0.0)


class TestSideCurvature:
    """The arc curvature L_v_side = theta_v cos r_v."""

    def test_reference(self):
        g = edge_side_geometry(math.pi / 4, math.pi / 4, math.pi / 2)
        assert g.L_side[0] == pytest.approx(L_SIDE_REF, abs=1e-14)

    def test_vanishes_at_equator(self):
        assert edge_side_geometry(math.pi / 2 - 1e-9, 0.3, 1.0).L_side[0] < 1e-8

    def test_positive(self):
        rng = rng_for(13)
        rv = rng.uniform(0.01, math.pi / 2 - 0.01, 200)
        rw = rng.uniform(0.01, math.pi / 2 - 0.01, 200)
        phi = rng.uniform(0.01, math.pi / 2, 200)
        assert np.all(edge_side_geometry(rv, rw, phi).L_side > 0.0)

    def test_domain(self):
        with pytest.raises(InputError):
            edge_side_geometry(math.pi / 2, 0.3, 1.0)


def _fd_in_k(f, k, h=1e-5):
    return (f(k + h) - f(k - h)) / (2.0 * h)


class TestEdgeSideGeometry:
    def test_reference_corner(self):
        g = edge_side_geometry(math.pi / 4, math.pi / 4, math.pi / 2)
        assert g.theta[0] == pytest.approx(THETA_REF, abs=1e-15)
        assert g.theta[1] == pytest.approx(THETA_REF, abs=1e-15)
        assert g.L_side[0] == pytest.approx(L_SIDE_REF, abs=1e-14)
        assert g.d_cross == pytest.approx(D_CROSS_REF, abs=1e-12)
        assert g.d_pair[0] == pytest.approx(D_PAIR_REF, abs=1e-12)
        assert g.d_pair[1] == pytest.approx(D_PAIR_REF, abs=1e-12)

    def test_cross_partial_symmetry(self):
        rng = rng_for(14)
        for _ in range(200):
            rv, rw = rng.uniform(0.05, math.pi / 2 - 0.05, 2)
            phi = rng.uniform(0.05, math.pi / 2)
            a = edge_side_geometry(rv, rw, phi)
            b = edge_side_geometry(rw, rv, phi)
            assert abs(a.d_cross - b.d_cross) <= 1e-13
            assert a.theta[0] == b.theta[1]

    def test_signs_and_sine_law(self):
        rng = rng_for(15)
        rv = rng.uniform(0.05, math.pi / 2 - 0.05, 1000)
        rw = rng.uniform(0.05, math.pi / 2 - 0.05, 1000)
        phi = rng.uniform(0.05, math.pi / 2, 1000)
        g = edge_side_geometry(rv, rw, phi)
        assert np.all(g.d_cross < 0.0)
        assert np.all(g.d_pair[0] > 0.0)
        assert np.all(g.d_pair[1] > 0.0)
        # 2x2 block strict diagonal dominance
        assert np.all(g.d_pair[0] - g.d_cross > np.abs(g.d_cross))
        residual = (np.sin(g.theta[0] / 2) / np.sin(rw)
                    - np.sin(g.theta[1] / 2) / np.sin(rv))
        assert np.max(np.abs(residual)) <= 1e-12

    def test_derivatives_match_finite_differences(self):
        rng = rng_for(16)
        worst_cross = worst_pair = worst_own = 0.0
        for _ in range(300):
            rv = rng.uniform(0.2, math.pi / 2 - 0.2)
            rw = rng.uniform(0.2, math.pi / 2 - 0.2)
            phi = rng.uniform(0.3, math.pi / 2)
            g = edge_side_geometry(rv, rw, phi)
            kv, kw = r_to_k(rv), r_to_k(rw)

            fd_cross = _fd_in_k(
                lambda k: edge_side_geometry(rv, k_to_r(k), phi).L_side[0], kw)
            fd_pair = _fd_in_k(
                lambda k: (lambda h: h.L_side[0] + h.L_side[1])(
                    edge_side_geometry(k_to_r(k), rw, phi)), kv)
            fd_own = _fd_in_k(
                lambda k: edge_side_geometry(k_to_r(k), rw, phi).L_side[0], kv)

            worst_cross = max(worst_cross, abs(fd_cross - g.d_cross) / abs(g.d_cross))
            worst_pair = max(worst_pair, abs(fd_pair - g.d_pair[0]) / abs(g.d_pair[0]))
            d_own = g.d_pair[0] - g.d_cross
            worst_own = max(worst_own, abs(fd_own - d_own) / abs(d_own))
        assert worst_cross <= 1e-6
        assert worst_pair <= 1e-6
        assert worst_own <= 1e-6

    def test_array_broadcast(self):
        rv = np.array([0.3, 0.5, 1.0])
        g = edge_side_geometry(rv, 0.4, 1.2)
        assert g.theta[0].shape == (3,)
        scalar = edge_side_geometry(0.5, 0.4, 1.2)
        assert isinstance(scalar.theta[0], float)
        assert scalar.theta[0] == pytest.approx(g.theta[0, 1], abs=0)


# Kernel outputs at r_v = k_to_r(K_v), r_w = k_to_r(K_w), evaluated once
# with mpmath at 50 digits from the exact binary radii given here.  At both
# points theta_v is so small that theta_v - sin(theta_v) cancels in doubles.
SMALL_ANGLE_REFS = [
    (1.5707963247337429, 2.061153622438558e-09, math.pi / 2, {  # K = (-20, 20)
        ("theta", 0): 4.1223072448771157e-9,
        ("theta", 1): 3.1415926535897931,
        ("L_side", 0): 8.49670905044685e-18,
        ("L_side", 1): 3.1415926535897931,
        ("d_cross", None): -8.49670905044685e-18,
        ("d_pair", 0): 2.4064686700293622e-35,
        ("d_pair", 1): 1.3346598518270992e-17,
    }),
    (1.5640584817604737, 0.006737845034422798, 0.05, {  # K = (-5, 5)
        ("theta", 0): 6.7349871173802387e-4,
        ("theta", 1): 9.9997728190921885e-2,
        ("L_side", 0): 4.5378956147412843e-6,
        ("L_side", 1): 9.9995458323292328e-2,
        ("d_cross", None): -4.5376895183504149e-6,
        ("d_pair", 0): 3.4304971554619674e-13,
        ("d_pair", 1): 7.5618423085316906e-9,
    }),
]


class TestSmallAngles:
    @pytest.mark.parametrize("rv, rw, phi, ref", SMALL_ANGLE_REFS)
    def test_high_precision_reference(self, rv, rw, phi, ref):
        g = edge_side_geometry(rv, rw, phi)
        for (name, row), value in ref.items():
            got = getattr(g, name) if row is None else getattr(g, name)[row]
            assert got == pytest.approx(value, rel=1e-13), (name, row)

    def test_series_meets_direct_difference_at_switch(self):
        from cpflow.geometry import _TMS_SERIES_BELOW, _theta_minus_sin
        theta = np.linspace(0.999, 1.001, 201) * _TMS_SERIES_BELOW
        gap = np.abs(_theta_minus_sin(theta) - (theta - np.sin(theta)))
        # the direct form is off by its rounding of sin(theta), about
        # half an ulp of theta; the series adds no more than that
        assert np.all(gap <= np.spacing(theta))

    def test_subnormal_angle_keeps_the_mixed_partial_finite(self):
        # -2 / sin phi overflows below an angle of about 1e-308; the kernel
        # holds it at -DBL_MAX, as ``evaluate`` does on the same edge.
        g = edge_side_geometry(0.7, 0.8, 1e-320)
        assert all(np.all(np.isfinite(x))
                   for x in (g.theta, g.L_side, g.d_cross, g.d_pair))
        state = evaluate(fixtures.bigon(np.array([1e-320, 0.5 * np.pi])),
                         r_to_k(np.array([0.7, 0.8])))
        assert g.d_cross == state.edge_form[1][0] == 0.0
