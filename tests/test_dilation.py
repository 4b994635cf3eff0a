import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypexpand.dilation import (
    DilationParams,
    dilate,
    dilate_inverse,
    dilate_origin,
    dilate_origin_chart,
    dilate_origin_polar,
    dilate_xy,
    origin_params,
)
from hypexpand.disk import DiskPoint, ORIGIN, polar_to_cart, translate


def rand_point(rng, r_max=3.0):
    return DiskPoint.from_polar(rng.uniform(0.05, r_max), rng.uniform(-math.pi, math.pi))


class TestParams:
    def test_positive_factors_required(self):
        with pytest.raises(ValueError):
            DilationParams(ORIGIN, 0.0, 1.0)
        with pytest.raises(ValueError):
            DilationParams(ORIGIN, 1.0, -2.0)

    def test_expansion_predicate(self):
        assert origin_params(1.0, 1.0).is_expansion
        assert origin_params(2.0, 1.5).is_expansion
        assert not origin_params(0.9, 2.0).is_expansion

    def test_reciprocal_factor(self):
        assert origin_params(4.0, 1.0).s == 0.25
        assert origin_params(4.0, 2.0).s is None


class TestOriginDilation:
    def test_identity(self):
        p = DiskPoint.from_polar(1.7, 2.1)
        assert dilate_origin(origin_params(1.0, 1.0), p).isclose(p, tol=1e-15)

    def test_axis_doubling(self):
        p = DiskPoint.from_polar(0.8, 0.0)
        q = dilate_origin(origin_params(2.0, 1.0), p)
        assert q.r == pytest.approx(1.6, abs=1e-14)
        assert q.theta == 0.0

    def test_diagonal_example(self):
        # independently recomputed: r' = sqrt(4*cos^2 + sin^2)/sqrt(2)... at
        # theta = pi/4 the factor is sqrt(5/2); the angle maps to atan(1/2)
        q = dilate_origin(origin_params(2.0, 1.0), DiskPoint.from_polar(1.0, math.pi / 4))
        assert q.r == pytest.approx(1.5811388300841898, abs=1e-14)
        assert q.theta == pytest.approx(0.46364760900080615, abs=1e-14)

    def test_requires_origin_center(self):
        params = DilationParams(DiskPoint.from_cart(0.2, 0.0), 2.0, 1.0)
        with pytest.raises(ValueError):
            dilate_origin(params, DiskPoint.from_polar(1.0, 0.0))

    def test_full_angle_range_continuous(self):
        k1, k2 = 2.0, 3.0
        thetas = np.linspace(-math.pi, math.pi, 400, endpoint=False)
        r2, th2 = dilate_origin_polar(k1, k2, np.ones_like(thetas), thetas)
        # radius factor is continuous and pi-periodic in theta
        assert np.all(np.isfinite(r2)) and np.all(np.isfinite(th2))
        m = r2
        m_shift = dilate_origin_polar(k1, k2, np.ones_like(thetas), thetas + math.pi)[0]
        assert np.max(np.abs(m - m_shift)) < 1e-12

    def test_saturation_warning(self):
        with pytest.warns(RuntimeWarning):
            dilate_origin(origin_params(4.0, 1.0), DiskPoint.from_polar(15.0, 0.0))

    def test_saturation_warning_comes_from_the_poincare_chart_callers(self):
        xy = polar_to_cart(np.array([15.0, 1.0]), np.array([0.0, 0.5]))
        for center in (ORIGIN, DiskPoint.from_polar(0.3, 1.0)):
            with pytest.warns(RuntimeWarning, match="exceeds 50"):
                dilate_xy(DilationParams(center, 4.0, 1.0), xy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, _ = dilate_origin_polar(4.0, 1.0, 15.0, 0.0)  # the polar map alone is chart-free
            assert r == 60.0


class TestOriginChartMap:
    @pytest.mark.parametrize("f, r_max", [(np.tanh, 12.0), (np.tan, 0.6)])
    def test_is_the_polar_map_then_the_chart(self, f, r_max):
        rng = np.random.default_rng(22)
        r = rng.uniform(0.0, r_max, 2000)
        th = rng.uniform(-math.pi, math.pi, 2000)
        scale = rng.choice([1e-3, 1.0, 1e3], 2000)  # only the direction of (x, y) counts
        for k1, k2 in [(2.5, 1.0), (0.4, 1.7), (1.0, 0.3), (1.0, 1.0)]:
            got = dilate_origin_chart(k1, k2, r, scale * np.cos(th), scale * np.sin(th), f)
            r2, th2 = dilate_origin_polar(k1, k2, r, th)
            ref = f(r2)[:, None] * np.stack([np.cos(th2), np.sin(th2)], axis=-1)
            assert np.allclose(got, ref, rtol=1e-14, atol=1e-15)

    def test_the_center_maps_to_zero_without_warning(self):
        x, y = np.array([0.0, 0.3, 0.0]), np.array([0.0, -0.2, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dilate_origin_chart(2.0, 0.5, np.array([0.0, 0.36, 0.0]), x, y, np.tanh)
        assert np.array_equal(out[[0, 2]], np.zeros((2, 2))) and np.all(out[1] != 0.0)


class TestCenteredDilation:
    def test_center_zero_reduces_to_origin_map(self):
        p = DiskPoint.from_polar(1.2, 0.7)
        params = origin_params(2.0, 1.3)
        assert dilate(params, p).isclose(dilate_origin(params, p), tol=1e-15)

    def test_center_is_fixed(self):
        c = DiskPoint.from_cart(0.4, -0.2)
        params = DilationParams(c, 3.0, 1.5)
        assert dilate(params, c).isclose(c, tol=1e-12)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(1000):
            c = rand_point(rng, 1.5)
            p = rand_point(rng, 3.0)
            params = DilationParams(c, rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
            back = dilate_inverse(params, dilate(params, p))
            worst = max(worst, float(np.max(np.abs(back.xy - p.xy))))
        assert worst < 1e-10

    def test_inverse_example(self):
        q = DiskPoint.from_polar(math.sqrt(2.5), math.atan(0.5))
        p = dilate_inverse(origin_params(2.0, 1.0), q)
        assert p.r == pytest.approx(1.0, abs=1e-12)
        assert p.theta == pytest.approx(math.pi / 4, abs=1e-12)

    def test_identity_inverse(self):
        p = DiskPoint.from_polar(2.0, -1.0)
        assert dilate_inverse(origin_params(1.0, 1.0), p).isclose(p, tol=1e-15)

    def test_conjugation_matches_manual_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = rand_point(rng, 1.5)
            p = rand_point(rng, 2.5)
            k1, k2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            params = DilationParams(c, k1, k2)
            manual = translate(c, dilate_origin(origin_params(k1, k2),
                                                translate(c.neg(), p)))
            assert np.max(np.abs(dilate(params, p).xy - manual.xy)) < 1e-14


class TestAlgebraicProperties:
    def test_factor_composition(self):
        # composing the two single-axis maps gives the general map
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            p = rand_point(rng, 3.0)
            k1, k2 = rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)
            one = dilate_origin(origin_params(k1, k2), p)
            two = dilate_origin(origin_params(k1, 1.0),
                                dilate_origin(origin_params(1.0, k2), p))
            worst = max(worst, float(np.max(np.abs(one.xy - two.xy))))
        assert worst < 1e-11

    def test_symmetric_case_scales_radius(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = rand_point(rng, 2.0)
            k = rng.uniform(0.5, 3.0)
            q = dilate_origin(origin_params(k, k), p)
            assert q.r == pytest.approx(k * p.r, rel=1e-12)
            assert q.theta == pytest.approx(p.theta, abs=1e-12)

    def test_rays_map_to_rays(self):
        k1, k2 = 2.0, 0.7
        theta = 0.9
        angles = [dilate_origin(origin_params(k1, k2),
                                DiskPoint.from_polar(r, theta)).theta
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
            q = dilate_origin(origin_params(k1, k2), p)
            assert q.r >= p.r - 1e-13
        # equality on the axis whose factor is 1
        p = DiskPoint.from_polar(1.4, 0.0)
        assert dilate_origin(origin_params(1.0, 3.0), p).r == pytest.approx(p.r, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=-math.pi, max_value=math.pi - 1e-9),
           st.floats(min_value=0.3, max_value=4.0),
           st.floats(min_value=0.3, max_value=4.0))
    def test_inverse_roundtrip_property(self, r, theta, k1, k2):
        p = DiskPoint.from_polar(r, theta)
        params = origin_params(k1, k2)
        back = dilate_inverse(params, dilate(params, p))
        assert np.max(np.abs(back.xy - p.xy)) < 1e-10


def test_array_path_matches_scalar():
    rng = np.random.default_rng(15)
    c = DiskPoint.from_cart(0.3, -0.1)
    params = DilationParams(c, 2.2, 0.8)
    pts = [rand_point(rng, 2.0) for _ in range(40)]
    xy = np.array([p.xy for p in pts])
    batch = dilate_xy(params, xy)
    for row, p in zip(batch, pts):
        assert np.max(np.abs(row - dilate(params, p).xy)) < 1e-15
