import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypexpand.disk import (
    DiskPoint,
    FirstFundamentalForm,
    ORIGIN,
    ParamCurve,
    geodesic_between,
    geodesic_chord_points,
    geodesic_curvature,
    hyperbolic_distance,
    hyperboloid_chord_vectors,
    hyperboloid_lift,
    hyperboloid_polar,
    hyperboloid_translate,
    mobius_translate,
    polar_cartesian_roundtrip,
    translate,
)
from conftest import curvature_via_conformal

RADII = st.floats(min_value=1e-3, max_value=8.0)
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi - 1e-9)


def rand_point(rng, r_max=3.0, r_min=0.05):
    return DiskPoint.from_polar(rng.uniform(r_min, r_max), rng.uniform(-math.pi, math.pi))


class TestDiskPoint:
    def test_origin_maps_to_zero(self):
        p = DiskPoint.from_polar(0.0, 2.3)
        assert p.cart == (0.0, 0.0)
        assert p.theta == 0.0

    def test_axis_point_radius(self):
        p = DiskPoint.from_cart(0.5, 0.0)
        assert p.r == pytest.approx(2.0 * math.atanh(0.5), abs=1e-15)
        assert p.theta == 0.0

    def test_roundtrip_example(self):
        p = DiskPoint.from_polar(1.0, math.pi / 3)
        rho = math.tanh(0.5)
        assert p.cart[0] == pytest.approx(rho * 0.5, abs=1e-15)
        assert p.cart[1] == pytest.approx(rho * math.sqrt(3) / 2, abs=1e-15)
        q = polar_cartesian_roundtrip(p)
        assert abs(q.r - p.r) < 1e-12 and abs(q.theta - p.theta) < 1e-12

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            DiskPoint.from_cart(1.0, 0.0)
        with pytest.raises(ValueError):
            DiskPoint.from_cart(0.8, 0.7)

    def test_rejects_inconsistent_representation(self):
        with pytest.raises(ValueError):
            DiskPoint(1.0, 0.0, (0.9, 0.0))

    @settings(max_examples=80, deadline=None)
    @given(RADII, ANGLES)
    def test_roundtrip_property(self, r, theta):
        p = DiskPoint.from_polar(r, theta)
        q = polar_cartesian_roundtrip(p)
        assert abs(q.r - p.r) < 1e-12
        assert abs(q.theta - p.theta) < 1e-12
        assert math.hypot(*p.cart) < 1.0
        assert abs(math.hypot(*p.cart) - math.tanh(p.r / 2.0)) < 1e-12


class TestTranslate:
    def test_identity_at_origin_parameter(self):
        x = DiskPoint.from_cart(0.3, -0.4)
        assert translate(ORIGIN, x).isclose(x)

    def test_carries_origin_to_center(self):
        c = DiskPoint.from_cart(0.5, 0.1)
        assert translate(c, ORIGIN).isclose(c)

    def test_isometry_example(self):
        c = DiskPoint.from_cart(0.5, 0.0)
        x = DiskPoint.from_cart(0.0, 0.5)
        pts = [ORIGIN, x, c]
        for u in pts:
            for v in pts:
                lhs = hyperbolic_distance(translate(c, u), translate(c, v))
                assert lhs == pytest.approx(hyperbolic_distance(u, v), abs=1e-12)

    def test_inverse_is_negated_parameter(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c, x = rand_point(rng, 2.5), rand_point(rng, 2.5)
            back = translate(c.neg(), translate(c, x))
            assert np.max(np.abs(back.xy - x.xy)) < 1e-12

    def test_isometry_property(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(300):
            c, u, v = (rand_point(rng) for _ in range(3))
            err = abs(hyperbolic_distance(translate(c, u), translate(c, v))
                      - hyperbolic_distance(u, v))
            worst = max(worst, err)
        assert worst < 1e-11


class TestHyperboloidTranslate:
    def test_matches_mobius_translate_to_a_few_ulps(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(300):
            c = rand_point(rng, 1.0, 0.0)
            r, th = rng.uniform(0.0, 2.0, 20), rng.uniform(-math.pi, math.pi, 20)
            moved = hyperboloid_translate(c.xy, hyperboloid_lift(r, th))
            poincare = moved[:, :2] / (1.0 + moved[:, 2:])
            ref = mobius_translate(c.xy, np.stack([np.tanh(r / 2) * np.cos(th),
                                                   np.tanh(r / 2) * np.sin(th)], axis=-1))
            worst = max(worst, float(np.max(np.abs(poincare - ref))))
        assert worst < 8 * np.finfo(float).eps

    def test_finite_at_r30_and_undone_by_the_negated_center(self):
        rng = np.random.default_rng(45)
        c = rand_point(rng, 1.5)
        pts = hyperboloid_lift(rng.uniform(29.0, 31.0, 200), rng.uniform(-math.pi, math.pi, 200))
        moved = hyperboloid_translate(c.xy, pts)
        assert np.all(np.isfinite(moved))
        sheet = moved[:, 2] ** 2 - moved[:, 0] ** 2 - moved[:, 1] ** 2
        assert np.max(np.abs(sheet - 1.0) / moved[:, 2] ** 2) < 1e-13
        back = hyperboloid_translate(-c.xy, moved)
        assert np.max(np.abs(back - pts) / pts[:, 2:]) < 1e-13

    def test_carries_the_apex_to_the_lift_of_the_center(self):
        c = DiskPoint.from_polar(1.2, -0.7)
        apex = np.array([0.0, 0.0, 1.0])
        assert np.allclose(hyperboloid_translate(c.xy, apex), hyperboloid_lift(c.r, c.theta),
                           rtol=1e-15, atol=1e-15)


class TestDistance:
    def test_radial_distance(self):
        for r in (0.3, 1.0, 2.7):
            assert hyperbolic_distance(DiskPoint.from_polar(r, 1.2), ORIGIN) == \
                pytest.approx(r, abs=1e-12)

    def test_zero_iff_equal(self):
        p = DiskPoint.from_cart(0.2, 0.6)
        assert hyperbolic_distance(p, p) == 0.0

    def test_diameter_adds(self):
        u = DiskPoint.from_polar(1.0, 0.0)
        v = DiskPoint.from_polar(1.0, math.pi)
        assert hyperbolic_distance(u, v) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            u, v, w = (rand_point(rng) for _ in range(3))
            duv = hyperbolic_distance(u, v)
            assert duv == pytest.approx(hyperbolic_distance(v, u), abs=1e-12)
            assert duv <= hyperbolic_distance(u, w) + hyperbolic_distance(w, v) + 1e-12

    def test_triangle_equality_iff_between(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u, v = rand_point(rng), rand_point(rng)
            r, th = geodesic_chord_points(u.r, u.theta, v.r, v.theta, np.array([0.4]))
            mid = DiskPoint.from_polar(float(r[0]), float(th[0]))
            gap = hyperbolic_distance(u, mid) + hyperbolic_distance(mid, v) \
                - hyperbolic_distance(u, v)
            assert abs(gap) < 1e-9
            # a point pushed off the geodesic breaks equality
            off = DiskPoint.from_polar(float(r[0]) + 0.3, float(th[0]))
            gap_off = hyperbolic_distance(u, off) + hyperbolic_distance(off, v) \
                - hyperbolic_distance(u, v)
            assert gap_off > 1e-9


class TestGeodesic:
    def test_endpoints_reproduce(self):
        u = DiskPoint.from_polar(1.3, -0.4)
        v = DiskPoint.from_polar(2.1, 0.9)
        g = geodesic_between(u, v)
        assert g.point(0.0).isclose(u, tol=1e-12)
        assert g.point(1.0).isclose(v, tol=1e-12)

    def test_identical_endpoints_rejected(self):
        p = DiskPoint.from_polar(1.0, 0.3)
        with pytest.raises(ValueError):
            geodesic_between(p, p)

    def test_endpoint_radius_identity_is_exact(self):
        # at t = 0 and t = 1 the chord combination collapses to a single
        # coth term, so the endpoint radii are reproduced to rounding
        rng = np.random.default_rng(4)
        for _ in range(100):
            u, v = rand_point(rng), rand_point(rng)
            if u.isclose(v):
                continue
            g = geodesic_between(u, v)
            assert abs(float(g.eval(0.0)[0]) - u.r) < 1e-12
            assert abs(float(g.eval(1.0)[0]) - v.r) < 1e-12

    def test_zero_curvature_analytic(self):
        rng = np.random.default_rng(5)
        ts = np.linspace(0.01, 0.99, 50)
        worst = 0.0
        for _ in range(100):
            u, v = rand_point(rng), rand_point(rng)
            if u.isclose(v):
                continue
            g = geodesic_between(u, v)
            worst = max(worst, float(np.max(np.abs(geodesic_curvature(g, ts)))))
        assert worst < 1e-10

    def test_zero_curvature_finite_difference(self):
        # independent derivative route; valid where the curve does not dip
        # below r ~ 0.05, under which the curvature bracket is a cancellation
        # of terms ~ 1/r^2 and no differencing scheme can resolve 1e-6
        rng = np.random.default_rng(6)
        ts = np.linspace(0.01, 0.99, 50)
        worst = 0.0
        checked = 0
        while checked < 100:
            u, v = rand_point(rng), rand_point(rng)
            if u.isclose(v):
                continue
            g = geodesic_between(u, v)
            if float(np.min(g.eval(ts)[0])) < 0.05:
                continue
            checked += 1
            fd = ParamCurve.from_polar_function(g.eval)
            assert fd.derivative_kind == "finite-difference"
            worst = max(worst, float(np.max(np.abs(geodesic_curvature(fd, ts)))))
        assert worst < 1e-6

    def test_symmetric_midpoint(self):
        dth = 1.0
        u = DiskPoint.from_polar(1.0, 0.0)
        v = DiskPoint.from_polar(1.0, dth)
        g = geodesic_between(u, v)
        r_mid = float(g.eval(0.5)[0])
        assert 1.0 / math.tanh(r_mid) == pytest.approx(
            (1.0 / math.tanh(1.0)) / math.cos(dth / 2.0), rel=1e-12)

    def test_radial_branch(self):
        u = DiskPoint.from_polar(0.5, 1.1)
        v = DiskPoint.from_polar(2.0, 1.1)
        g = geodesic_between(u, v)
        assert g.meta["branch"] == "diameter"
        r, th = g.eval(0.25)
        assert float(r) == pytest.approx(0.875, abs=1e-12)
        assert float(th) == pytest.approx(1.1, abs=1e-12)

    def test_diameter_branch_through_origin(self):
        u = DiskPoint.from_polar(1.0, 0.5)
        v = DiskPoint.from_polar(1.5, 0.5 - math.pi)
        g = geodesic_between(u, v)
        assert g.meta["branch"] == "diameter"
        assert g.point(0.0).isclose(u, tol=1e-12)
        assert g.point(1.0).isclose(v, tol=1e-12)
        # passes through the origin at the sign change
        t_cross = 1.0 / 2.5
        assert float(g.eval(t_cross)[0]) == pytest.approx(0.0, abs=1e-12)

    def test_origin_endpoint(self):
        v = DiskPoint.from_polar(1.7, -2.0)
        g = geodesic_between(ORIGIN, v)
        assert g.point(0.0).isclose(ORIGIN, tol=1e-12)
        assert g.point(1.0).isclose(v, tol=1e-12)

    def test_samples_collinear_in_klein_model(self):
        # geodesics are straight chords in the projective chart
        from hypexpand.convexity import to_klein
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = rand_point(rng), rand_point(rng)
            if u.isclose(v):
                continue
            g = geodesic_between(u, v)
            ts = np.linspace(0.0, 1.0, 9)
            r, th = g.eval(ts)
            from hypexpand.disk import polar_to_cart
            k = to_klein(polar_to_cart(r, th))
            chord = k[-1] - k[0]
            offsets = k[1:-1] - k[0]
            cross = chord[0] * offsets[:, 1] - chord[1] * offsets[:, 0]
            assert np.max(np.abs(cross)) < 1e-12

    def test_matches_hyperboloid_interpolation(self):
        u = DiskPoint.from_polar(1.3, -0.4)
        v = DiskPoint.from_polar(2.1, 0.9)
        g = geodesic_between(u, v)
        ts = np.linspace(0.0, 1.0, 7)
        r_s, th_s = geodesic_chord_points(u.r, u.theta, v.r, v.theta, ts)
        # same geodesic set: chord radii satisfy the curve's radius function
        # at matching angles
        dth = g.meta["delta_theta"]
        t_match = (th_s - u.theta) / dth
        r_curve, _ = g.eval(t_match)
        assert np.max(np.abs(r_curve - r_s)) < 1e-10


def reference_polar_chord_closures(u, v, dth):
    """eval, d1 and d2 of the polar-chord branch as written before the shared chord jet."""
    r1, r2 = u.r, v.r
    th1 = u.theta
    coth1, coth2 = 1.0 / math.tanh(r1), 1.0 / math.tanh(r2)
    sin_dth = math.sin(dth)
    a = abs(dth)
    sin_a = math.sin(a)
    q1 = 2.0 / math.expm1(2.0 * r1)
    q2 = 2.0 / math.expm1(2.0 * r2)
    half = math.sin(a / 2.0)

    def radius(t):
        t = np.asarray(t, dtype=float)
        bracket = 4.0 * half * np.sin((1.0 - t) * a / 2.0) * np.sin(t * a / 2.0)
        delta = (q1 * np.sin((1.0 - t) * a) + q2 * np.sin(t * a) + bracket) / sin_a
        w = np.sqrt(delta * (2.0 + delta)) - delta
        return np.log((2.0 - w) / w)

    def ev(t):
        t = np.asarray(t, dtype=float)
        return radius(t), th1 + t * dth

    def d1(t):
        t = np.asarray(t, dtype=float)
        r = radius(t)
        dr = dth * np.sinh(r) ** 2 * (
            coth1 * np.cos((1.0 - t) * dth) - coth2 * np.cos(t * dth)) / sin_dth
        return dr, np.full_like(t, dth)

    def d2(t):
        t = np.asarray(t, dtype=float)
        r = radius(t)
        dr, _ = d1(t)
        d2r = 2.0 * dr ** 2 / np.tanh(r) + dth ** 2 * np.sinh(2.0 * r) / 2.0
        return d2r, np.zeros_like(t)

    return ev, d1, d2


def test_polar_chord_branch_matches_reference_closures_bitwise():
    rng = np.random.default_rng(49)
    ts = np.concatenate([[0.0, 1.0], rng.uniform(size=30)])
    checked = 0
    for _ in range(200):
        u = rand_point(rng, r_max=30.0)
        v = rand_point(rng, r_max=30.0)
        g = geodesic_between(u, v)
        if g.meta["branch"] != "polar-chord":
            continue
        checked += 1
        ref = reference_polar_chord_closures(u, v, g.meta["delta_theta"])
        for got_fn, ref_fn in zip((g.eval, g.d1, g.d2), ref):
            for t in (ts, 0.3):
                for got, want in zip(got_fn(t), ref_fn(t)):
                    assert np.array_equal(got, want)
    assert checked > 150


class TestCurvature:
    def test_radial_segment_is_flat(self):
        u = DiskPoint.from_polar(0.5, 0.7)
        v = DiskPoint.from_polar(2.5, 0.7)
        g = geodesic_between(u, v)
        assert geodesic_curvature(g, 0.5) == 0.0

    def test_circle_curvature(self):
        for r in (0.5, 1.0, 2.0):
            circle = ParamCurve(
                eval=lambda t, r=r: (np.full_like(np.asarray(t, float), r),
                                     2 * math.pi * np.asarray(t, float)),
                d1=lambda t, r=r: (np.zeros_like(np.asarray(t, float)),
                                   np.full_like(np.asarray(t, float), 2 * math.pi)),
                d2=lambda t: (np.zeros_like(np.asarray(t, float)),
                              np.zeros_like(np.asarray(t, float))),
                start=DiskPoint.from_polar(r, 0.0),
                end=DiskPoint.from_polar(r, 0.0),
            )
            for t in (0.1, 0.5, 0.9):
                assert geodesic_curvature(circle, t) == pytest.approx(
                    1.0 / math.tanh(r), rel=1e-12)

    def test_polar_linear_curve_curves_left(self):
        from hypexpand.curvature import gamma_curve
        g = gamma_curve(DiskPoint.from_polar(1.0, -0.5), DiskPoint.from_polar(2.0, 0.8))
        ts = np.linspace(0.0, 1.0, 21)
        assert np.all(geodesic_curvature(g, ts) > 0.0)

    def test_degenerate_raises(self):
        stationary = ParamCurve(
            eval=lambda t: (np.full_like(np.asarray(t, float), 1.0),
                            np.zeros_like(np.asarray(t, float))),
            d1=lambda t: (np.zeros_like(np.asarray(t, float)),
                          np.zeros_like(np.asarray(t, float))),
            d2=lambda t: (np.zeros_like(np.asarray(t, float)),
                          np.zeros_like(np.asarray(t, float))),
            start=DiskPoint.from_polar(1.0, 0.0),
            end=DiskPoint.from_polar(1.0, 0.0),
        )
        with pytest.raises(ValueError):
            geodesic_curvature(stationary, 0.5)

    def test_agrees_with_conformal_route(self):
        # cross-check of the polar formula and its sign convention against
        # the Euclidean-curvature-plus-conformal-correction route
        def f(t):
            t = np.asarray(t, float)
            return 1.0 + 0.3 * np.sin(t), 0.5 * t

        curve = ParamCurve.from_polar_function(f)
        for t in (0.2, 0.5, 0.8):
            a = geodesic_curvature(curve, t)
            b = float(curvature_via_conformal(curve, t))
            assert a == pytest.approx(b, rel=1e-6)


class TestMetric:
    def test_components(self):
        form = FirstFundamentalForm()
        assert form.E == 1.0 and form.F == 0.0
        assert form.G(1.3) == pytest.approx(math.sinh(1.3) ** 2, rel=1e-15)

    def test_radial_derivative_consistent(self):
        form = FirstFundamentalForm()
        h = 1e-6
        for r in (0.4, 1.0, 2.2):
            fd = (form.G(r + h) - form.G(r - h)) / (2.0 * h)
            assert form.G_r(r) == pytest.approx(fd, abs=1e-10 * max(1.0, abs(fd)))
        assert np.all(form.G(np.array([0.1, 1.0, 3.0])) > 0.0)


class TestParamCurve:
    def test_regularity_check(self):
        g = geodesic_between(DiskPoint.from_polar(1.0, 0.0), DiskPoint.from_polar(1.0, 1.0))
        assert g.check_regular() > 0.0

    def test_speed_matches_definition(self):
        g = geodesic_between(DiskPoint.from_polar(1.2, 0.2), DiskPoint.from_polar(2.0, 1.4))
        t = 0.37
        r, _ = g.eval(t)
        dr, dth = g.d1(t)
        expected = math.sqrt(float(dr) ** 2 + math.sinh(float(r)) ** 2 * float(dth) ** 2)
        assert float(g.speed(t)) == pytest.approx(expected, rel=1e-14)


def test_mobius_translate_array_shape():
    c = np.array([0.3, 0.1])
    pts = np.random.default_rng(8).uniform(-0.5, 0.5, size=(17, 2))
    out = mobius_translate(c, pts)
    assert out.shape == (17, 2)
    assert np.all(np.hypot(out[:, 0], out[:, 1]) < 1.0)


def chord_points_per_pair(r1, th1, r2, th2, ts):
    """Reference: the one-pair-at-a-time form of geodesic_chord_points."""
    a = np.array([math.sinh(r1) * math.cos(th1), math.sinh(r1) * math.sin(th1), math.cosh(r1)])
    b = np.array([math.sinh(r2) * math.cos(th2), math.sinh(r2) * math.sin(th2), math.cosh(r2)])
    cosh_d = a[2] * b[2] - a[0] * b[0] - a[1] * b[1]
    d = math.acosh(max(cosh_d, 1.0))
    if d < 1e-9:
        pts = (1.0 - ts)[:, None] * a + ts[:, None] * b
        norm = np.sqrt(np.maximum(pts[:, 2] ** 2 - pts[:, 0] ** 2 - pts[:, 1] ** 2, 1e-300))
        pts = pts / norm[:, None]
    else:
        sinh_d = math.sinh(d)
        pts = (np.sinh((1.0 - ts) * d) / sinh_d)[:, None] * a \
            + (np.sinh(ts * d) / sinh_d)[:, None] * b
    return np.arccosh(np.maximum(pts[:, 2], 1.0)), np.arctan2(pts[:, 1], pts[:, 0])


class TestBatchedChordPoints:
    TS = np.concatenate([[0.0, 1.0], np.random.default_rng(0).uniform(size=14)])

    def assert_matches_per_pair(self, r1, th1, r2, th2):
        r, th = geodesic_chord_points(r1, th1, r2, th2, self.TS)
        assert r.shape == th.shape == r1.shape + self.TS.shape
        for idx in np.ndindex(r1.shape):
            r_ref, th_ref = chord_points_per_pair(r1[idx], th1[idx], r2[idx], th2[idx], self.TS)
            assert np.array_equal(r[idx], r_ref) and np.array_equal(th[idx], th_ref)

    def test_random_pairs_up_to_r30(self):
        rng = np.random.default_rng(41)
        r1, r2 = rng.uniform(0.0, 30.0, (2, 300))
        th1, th2 = rng.uniform(-math.pi, math.pi, (2, 300))
        self.assert_matches_per_pair(r1, th1, r2, th2)

    def test_short_identical_and_ordinary_pairs_in_one_batch(self):
        rng = np.random.default_rng(42)
        r1 = rng.uniform(0.0, 20.0, (6, 5))
        th1 = rng.uniform(-math.pi, math.pi, (6, 5))
        r2 = np.where(rng.uniform(size=r1.shape) < 0.5, r1 + 1e-11, rng.uniform(0.0, 20.0, r1.shape))
        th2 = np.where(r2 == r1 + 1e-11, th1, rng.uniform(-math.pi, math.pi, r1.shape))
        r2[0], th2[0] = r1[0], th1[0]
        self.assert_matches_per_pair(r1, th1, r2, th2)

    def test_scalar_call_keeps_its_shape(self):
        r, th = geodesic_chord_points(1.3, -0.4, 2.1, 0.9, self.TS)
        assert r.shape == th.shape == self.TS.shape

    def test_chords_of_a_lifted_indexed_boundary(self):
        # a boundary lifted once and indexed per chord, as a defect
        # measurement samples it, with repeated and identical endpoints
        rng = np.random.default_rng(43)
        r = rng.uniform(0.0, 30.0, 64)
        th = rng.uniform(-math.pi, math.pi, 64)
        r[1], th[1] = r[0] + 1e-11, th[0]
        i, j = rng.integers(0, 64, (2, 300))
        i[:3], j[:3] = (0, 0, 5), (1, 0, 5)
        lifted = hyperboloid_lift(r, th)
        assert lifted.shape == (64, 3)
        rs, ths = hyperboloid_polar(hyperboloid_chord_vectors(lifted[i], lifted[j], self.TS))
        assert rs.shape == ths.shape == (300,) + self.TS.shape
        for k in range(300):
            r_ref, th_ref = chord_points_per_pair(r[i[k]], th[i[k]], r[j[k]], th[j[k]], self.TS)
            assert np.array_equal(rs[k], r_ref) and np.array_equal(ths[k], th_ref)
