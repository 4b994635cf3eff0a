import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dot3, stacked_membership_h2, stacked_membership_s2
from hypexpand import convexity, sphere
from hypexpand.convexity import GeodesicPolygon, dilate_region
from hypexpand.dilation import DilationParams, dilate_origin_chart, dilate_origin_polar, dilate_xy
from hypexpand.disk import (ChartSaturation, hyperboloid_cart, hyperboloid_lift, mobius_translate,
                            polar_to_cart)
from hypexpand.sphere import Chart, SphericalPolygon, contract_polygon
from references import ZERO, cart_mobius_translate, cart_point, polar_point


def rand_point(rng, r_max=3.0):
    return polar_point(rng.uniform(0.05, r_max), rng.uniform(-math.pi, math.pi))


def dilate_polar(k1, k2, p):
    """The origin dilation of the point p, as a point."""
    return polar_point(*dilate_origin_polar(k1, k2, p.r, p.theta))


def inverse(params):
    return DilationParams(params.center, 1.0 / params.k1, 1.0 / params.k2)


def dilate_cart(params, rows):
    """dilate_xy's images of sheet rows, projected to Poincare Cartesian rows."""
    return hyperboloid_cart(dilate_xy(params, rows))


class TestParams:
    def test_positive_factors_required(self):
        with pytest.raises(ValueError):
            DilationParams(ZERO.xy, 0.0, 1.0)
        with pytest.raises(ValueError):
            DilationParams(ZERO.xy, 1.0, -2.0)


class TestOriginDilation:
    def test_identity(self):
        p = polar_point(1.7, 2.1)
        assert np.max(np.abs(dilate_polar(1.0, 1.0, p).xy - p.xy)) <= 1e-15

    def test_axis_doubling(self):
        p = polar_point(0.8, 0.0)
        q = dilate_polar(2.0, 1.0, p)
        assert q.r == pytest.approx(1.6, abs=1e-14)
        assert q.theta == 0.0

    def test_diagonal_example(self):
        # independently recomputed: r' = sqrt(4*cos^2 + sin^2)/sqrt(2)... at
        # theta = pi/4 the factor is sqrt(5/2); the angle maps to atan(1/2)
        q = dilate_polar(2.0, 1.0, polar_point(1.0, math.pi / 4))
        assert q.r == pytest.approx(1.5811388300841898, abs=1e-14)
        assert q.theta == pytest.approx(0.46364760900080615, abs=1e-14)

    def test_full_angle_range_continuous(self):
        k1, k2 = 2.0, 3.0
        thetas = np.linspace(-math.pi, math.pi, 400, endpoint=False)
        r2, th2 = dilate_origin_polar(k1, k2, np.ones_like(thetas), thetas)
        # radius factor is continuous and pi-periodic in theta
        assert np.all(np.isfinite(r2)) and np.all(np.isfinite(th2))
        m = r2
        m_shift = dilate_origin_polar(k1, k2, np.ones_like(thetas), thetas + math.pi)[0]
        assert np.max(np.abs(m - m_shift)) < 1e-12

    def test_saturation_is_an_error_naming_the_factors(self):
        # tanh(r/2) rounds to 1.0 from r ~ 38, so k1 = 13 carries a boundary at
        # r = 4 onto the unit circle, and the region refuses it
        poly = GeodesicPolygon.from_polar([(4.0, 0.0), (4.0, 2.0), (4.0, -2.0)])
        for center in (ZERO, polar_point(0.3, 1.0)):
            with pytest.raises(ChartSaturation, match=r"k1=13\.0, k2=1\.0"):
                dilate_region(poly, DilationParams(center.xy, 13.0, 1.0))

    @pytest.mark.parametrize("k1", [4.0, 1e308])
    def test_the_chart_saturates_without_a_warning(self, k1):
        # k1 = 4 gives r' = 60.  k1 = 1e308 overflows r' to inf, whose lift the boost back to a
        # center turns into nan rows: tanh(nan / 2) < 1 is False, so the check refuses them too
        rows = hyperboloid_lift(np.array([15.0, 1.0]), np.array([0.0, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for center in (ZERO, polar_point(0.3, 1.0)):
                about = f" about the center {center.xy.tolist()}" if center.r else ""
                cause = "^" + re.escape(f"factors k1={k1!r}, k2=1.0{about} carry")
                with pytest.raises(ChartSaturation, match=cause):
                    dilate_xy(DilationParams(center.xy, k1, 1.0), rows)
            r, _ = dilate_origin_polar(4.0, 1.0, 15.0, 0.0)  # the polar map alone is chart-free
            assert r == 60.0

    def test_a_saturated_image_is_refused_where_its_row_stays_inside(self):
        # in about 1.4% of directions cos and sin round a unit direction below 1, so the
        # row of an image whose tanh(r'/2) is 1 keeps the norm 1 - 1.1e-16, and a check of
        # Cartesian norms alone passes it; the image's distance from the origin is checked
        thetas = np.linspace(-math.pi, math.pi, 2001)
        r2, th2 = dilate_origin_polar(50.0, 50.0, 2.0, thetas)  # r' = 100
        inside = np.hypot(*polar_to_cart(r2, th2).T) < 1.0
        assert np.tanh(50.0) == 1.0 and np.any(inside)
        points = hyperboloid_lift(np.full(np.count_nonzero(inside), 2.0), thetas[inside])
        for center in (ZERO, polar_point(0.3, 1.0)):
            params = DilationParams(center.xy, 50.0, 50.0)
            about = f" about the center {center.xy.tolist()}" if center.r else ""
            cause = "^" + re.escape(f"factors k1=50.0, k2=50.0{about} carry")
            for rows in (points, *points):  # together and each alone
                moved = mobius_translate(center.xy, rows) if center.r else rows
                with pytest.raises(ChartSaturation, match=cause):
                    dilate_xy(params, moved)

    def test_an_image_the_translation_back_carries_past_the_chart_is_refused(self):
        # about a center 1.5 from the origin, r' = 37 keeps tanh(r'/2) below 1, yet the image
        # rows, boosted back to the center, lie up to 38.5 from the origin: their exact
        # distance, arccosh z, is checked
        center = polar_point(1.5, 0.3)
        thetas = np.linspace(-math.pi, math.pi, 20001)
        rows = mobius_translate(center.xy, hyperboloid_lift(np.full(thetas.shape, 3.7), thetas))
        r2, _ = dilate_origin_polar(10.0, 10.0, 3.7, thetas)
        assert np.all(np.tanh(r2 / 2.0) < 1.0)
        cause = re.escape(f"factors k1=10.0, k2=10.0 about the center {center.xy.tolist()} carry")
        with pytest.raises(ChartSaturation, match="^" + cause):
            dilate_xy(DilationParams(center.xy, 10.0, 10.0), rows)

    @pytest.mark.parametrize("s, d", [(0.3, 3.65), (0.3, 3.7), (0.6, 3.65)])
    def test_a_boundary_inside_the_chart_about_a_far_center_builds(self, s, d):
        # triangles on the origin side of a center 1.5 out, dilated by 10: r' up to 37 about the
        # center, but the boundary stays 35.4 to 36.0 from the origin, 4 ulps or more inside
        # the chart.  Their images, formed as Cartesian rows about the center and translated
        # back, kept only the last bits of 1 - tanh(r'/2) and landed past the unit circle.
        center = polar_point(1.5, 0.3)
        sheet = hyperboloid_lift(np.full(3, d), math.pi + 0.3 + np.array([-s, 0.0, s]))
        poly = GeodesicPolygon(mobius_translate(center.xy, sheet))
        region = dilate_region(poly, DilationParams(center.xy, 10.0, 10.0))
        far = float(np.max(np.arccosh(region.boundary[:, 2])))
        assert 35.3 < far < 36.0 and 1.0 - math.tanh(far / 2.0) >= 4 * 2.0 ** -53
        assert math.isfinite(convexity.convexity_defect(region))

    def test_rows_with_their_own_dilations_are_each_dilated_alone(self):
        rng = np.random.default_rng(61)
        pts = [rand_point(rng, 2.0) for _ in range(30)]
        params = [DilationParams(rand_point(rng, 1.5).xy if i % 3 else ZERO.xy,
                                 rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
                  for i in range(30)]
        rows = DilationParams(np.array([p.center for p in params]),
                              np.array([p.k1 for p in params]), np.array([p.k2 for p in params]))
        out = dilate_xy(rows, np.array([p.sheet for p in pts]))
        alone = np.array([dilate_xy(p, q.sheet) for p, q in zip(params, pts)])
        # the origin rows are translated by 0 with the others, which is exact here
        assert np.array_equal(out, alone)


class TestOriginChartMap:
    @pytest.mark.parametrize("f, r_max", [(np.tanh, 12.0), (np.tan, 0.6)])
    def test_is_the_polar_map_then_the_chart(self, f, r_max):
        rng = np.random.default_rng(22)
        r = rng.uniform(0.0, r_max, 2000)
        th = rng.uniform(-math.pi, math.pi, 2000)
        scale = rng.choice([1e-3, 1.0, 1e3], 2000)  # only the direction of (x, y) counts
        for k1, k2 in [(2.5, 1.0), (0.4, 1.7), (1.0, 0.3), (1.0, 1.0)]:
            x, y = scale * np.cos(th), scale * np.sin(th)
            got = dilate_origin_chart(k1, k2, r, x, y, np.hypot(x, y), f)
            r2, th2 = dilate_origin_polar(k1, k2, r, th)
            ref = f(r2)[:, None] * np.stack([np.cos(th2), np.sin(th2)], axis=-1)
            assert np.allclose(got, ref, rtol=1e-14, atol=1e-15)

    def test_the_center_maps_to_zero_without_warning(self):
        x, y = np.array([0.0, 0.3, 0.0]), np.array([0.0, -0.2, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dilate_origin_chart(2.0, 0.5, np.array([0.0, 0.36, 0.0]), x, y, np.hypot(x, y),
                                      np.tanh)
        assert np.array_equal(out[[0, 2]], np.zeros((2, 2))) and np.all(out[1] != 0.0)


class TestCenterGuard:
    """Probes so near the center that x * x underflows to 0 (below ~1.5e-162) while k * x may
    not, or the other way round, through both surfaces' exact membership."""

    OFFSETS = [1e-150, 1e-161, 3e-162, 1e-162, 1e-170, 0.0]
    INVERSE = [(0.25, 0.25), (4.0, 4.0), (100.0, 100.0), (100.0, 0.25), (0.25, 4.0)]
    THETAS = np.array([0.0, 0.5 * math.pi, -math.pi, 0.3, 2.0, -1.1])

    def offsets(self):
        """Chart coordinates x, y of the probes at each offset in each direction, and the
        offsets."""
        d = np.repeat(self.OFFSETS, len(self.THETAS))
        th = np.tile(self.THETAS, len(self.OFFSETS))
        return d * np.cos(th), d * np.sin(th), d

    @staticmethod
    def chart_rows(inv1, inv2, x, y, r_of, f):
        """dilate_origin_chart of the probes at x, y, as membership forms its arguments."""
        n = np.sqrt(x * x + y * y)
        return dilate_origin_chart(inv1, inv2, r_of(n), x, y, n, f)

    def assert_inside_as_by_hypot(self, inside, hypot, rows, d, inv1, inv2):
        assert np.all(inside) and np.array_equal(inside, hypot)
        assert np.all(np.isfinite(rows))
        # the image of a probe at d from the center lies within max(k) * d of it; squares in
        # the subnormal range keep a few digits, so the rows there are off by up to ~10%
        assert np.all(np.hypot(*rows.T) <= 2.0 * max(inv1, inv2) * d)

    @pytest.mark.parametrize("inv1, inv2", INVERSE)
    def test_h2_probes_at_the_center(self, inv1, inv2):
        poly = GeodesicPolygon.from_polar([(0.5, t) for t in (0.0, 1.3, 2.5, -2.6, -1.2)])
        region = dilate_region(poly, DilationParams(ZERO.xy, 1.0 / inv1, 1.0 / inv2))
        x, y, d = self.offsets()
        pts = np.stack([x, y, np.sqrt(1.0 + x * x + y * y)], axis=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = convexity._exact_membership(region, pts)
            rows = self.chart_rows(inv1, inv2, x, y, np.arcsinh, np.tanh)
            hypot = stacked_membership_h2(region, pts)
        self.assert_inside_as_by_hypot(inside, hypot, rows, d, inv1, inv2)

    @pytest.mark.parametrize("inv1, inv2", INVERSE)
    def test_s2_probes_at_the_center(self, inv1, inv2):
        chart = Chart(np.array([0.0, 0.0, 1.0]))
        poly = SphericalPolygon(chart.from_polar(0.25, np.array([0.0, 1.3, 2.5, -2.6, -1.2])),
                                chart)
        region = contract_polygon([poly], [1.0 / inv1], [1.0 / inv2])[0]
        x, y, d = self.offsets()
        pts = chart.from_polar(d, np.arctan2(y, x))
        assert np.array_equal(dot3(pts, chart.e1), x) and np.array_equal(dot3(pts, chart.e2), y)
        # the antipode of the center, and probes as near it, are outside: f(r = pi) is nan
        far = -pts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = sphere._exact_membership(region, pts)
            rows = self.chart_rows(inv1, inv2, x, y, lambda n: np.arctan2(n, 1.0),
                                   sphere._gnomonic_radius)
            hypot = stacked_membership_s2(region, pts)
            outside = sphere._exact_membership(region, far)
            far_rows = self.chart_rows(inv1, inv2, -x, -y, lambda n: np.arctan2(n, -1.0),
                                       sphere._gnomonic_radius)
            assert np.array_equal(outside, stacked_membership_s2(region, far))
        self.assert_inside_as_by_hypot(inside, hypot, rows, d, inv1, inv2)
        assert not np.any(outside)
        tiny = np.sqrt(x * x + y * y) == 0.0
        assert np.all(np.isnan(far_rows[tiny])) and np.any(d[tiny] > 0.0)


class TestCenteredDilation:
    def test_center_zero_reduces_to_origin_map(self):
        p = polar_point(1.2, 0.7)
        xy = dilate_cart(DilationParams(ZERO.xy, 2.0, 1.3), p.sheet)
        assert np.max(np.abs(xy - dilate_polar(2.0, 1.3, p).xy)) <= 1e-15

    def test_center_is_fixed(self):
        c = cart_point(0.4, -0.2)
        params = DilationParams(c.xy, 3.0, 1.5)
        assert np.max(np.abs(dilate_cart(params, c.sheet) - c.xy)) <= 1e-12

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(1000):
            c = rand_point(rng, 1.5)
            p = rand_point(rng, 3.0)
            params = DilationParams(c.xy, rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
            back = dilate_cart(inverse(params), dilate_xy(params, p.sheet))
            worst = max(worst, float(np.max(np.abs(back - p.xy))))
        assert worst < 1e-10

    def test_inverse_example(self):
        q = polar_point(math.sqrt(2.5), math.atan(0.5))
        p = cart_point(*dilate_cart(inverse(DilationParams(ZERO.xy, 2.0, 1.0)), q.sheet))
        assert p.r == pytest.approx(1.0, abs=1e-12)
        assert p.theta == pytest.approx(math.pi / 4, abs=1e-12)

    def test_identity_inverse(self):
        p = polar_point(2.0, -1.0)
        back = dilate_cart(inverse(DilationParams(ZERO.xy, 1.0, 1.0)), p.sheet)
        assert np.max(np.abs(back - p.xy)) <= 1e-15

    def test_conjugation_matches_manual_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = rand_point(rng, 1.5)
            p = rand_point(rng, 2.5)
            k1, k2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            params = DilationParams(c.xy, k1, k2)
            centered = cart_point(*cart_mobius_translate(-c.xy, p.xy))
            manual = cart_mobius_translate(c.xy, dilate_polar(k1, k2, centered).xy)
            assert np.max(np.abs(dilate_cart(params, p.sheet) - manual)) < 1e-14


class TestAlgebraicProperties:
    def test_factor_composition(self):
        # composing the two single-axis maps gives the general map
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            p = rand_point(rng, 3.0)
            k1, k2 = rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)
            one = dilate_polar(k1, k2, p)
            two = dilate_polar(k1, 1.0, dilate_polar(1.0, k2, p))
            worst = max(worst, float(np.max(np.abs(one.xy - two.xy))))
        assert worst < 1e-11

    def test_symmetric_case_scales_radius(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = rand_point(rng, 2.0)
            k = rng.uniform(0.5, 3.0)
            q = dilate_polar(k, k, p)
            assert q.r == pytest.approx(k * p.r, rel=1e-12)
            assert q.theta == pytest.approx(p.theta, abs=1e-12)

    def test_rays_map_to_rays(self):
        k1, k2 = 2.0, 0.7
        theta = 0.9
        angles = [dilate_polar(k1, k2, polar_point(r, theta)).theta
                  for r in (0.2, 1.0, 2.8)]
        assert max(angles) - min(angles) < 1e-14

    def test_angle_map_strictly_increasing(self):
        k1, k2 = 2.0, 0.7
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 200, endpoint=False)
        _, mapped = dilate_origin_polar(k1, k2, np.ones_like(thetas), thetas)
        assert np.all(np.diff(mapped) > 0.0)

    def test_expansion_never_shrinks_radius(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = rand_point(rng, 2.5)
            k1, k2 = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)
            q = dilate_polar(k1, k2, p)
            assert q.r >= p.r - 1e-13
        # equality on the axis whose factor is 1
        p = polar_point(1.4, 0.0)
        assert dilate_polar(1.0, 3.0, p).r == pytest.approx(p.r, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=-math.pi, max_value=math.pi - 1e-9),
           st.floats(min_value=0.3, max_value=4.0),
           st.floats(min_value=0.3, max_value=4.0))
    def test_inverse_roundtrip_property(self, r, theta, k1, k2):
        p = polar_point(r, theta)
        params = DilationParams(ZERO.xy, k1, k2)
        back = dilate_cart(inverse(params), dilate_xy(params, p.sheet))
        assert np.max(np.abs(back - p.xy)) < 1e-10


def test_array_path_matches_scalar():
    rng = np.random.default_rng(15)
    c = cart_point(0.3, -0.1)
    params = DilationParams(c.xy, 2.2, 0.8)
    pts = [rand_point(rng, 2.0) for _ in range(40)]
    batch = dilate_xy(params, np.array([p.sheet for p in pts]))
    for row, p in zip(batch, pts):
        assert np.max(np.abs(row - dilate_xy(params, p.sheet))) < 1e-15
