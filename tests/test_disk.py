import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypexpand.convexity import GeodesicPolygon, hyperbolic_hull
from hypexpand.disk import (
    curvature_from_derivatives,
    geodesic_chord_points,
    hyperboloid_cart,
    hyperboloid_lift,
    hyperboloid_polar,
    mobius_translate,
    polar_to_cart,
)
from conftest import broadcast_chord_vectors, curvature_via_conformal, stacked_translate
from references import (ZERO, ParamCurve, cart_mobius_translate, cart_point, from_polar_function,
                        geodesic_between, geodesic_curvature, hyperbolic_distance, polar_point,
                        to_klein)

RADII = st.floats(min_value=1e-3, max_value=8.0)
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi - 1e-9)


def rand_point(rng, r_max=3.0, r_min=0.05):
    return polar_point(rng.uniform(r_min, r_max), rng.uniform(-math.pi, math.pi))


def translate(c, x):
    """mobius_translate(c, .) of the point x's sheet row, as a point."""
    return cart_point(*hyperboloid_cart(mobius_translate(c.xy, x.sheet)))


def chord_polar(r1, th1, r2, th2, ts):
    """Polar (r, theta) arrays (..., T) of the chords between lifted polar endpoints."""
    return hyperboloid_polar(geodesic_chord_points(hyperboloid_lift(r1, th1),
                                                   hyperboloid_lift(r2, th2), ts))


def close(p, q, tol=1e-12):
    """The Cartesian coordinates of points p and q agree to tol."""
    return np.max(np.abs(p.xy - q.xy)) <= tol


def point_at(curve, t):
    return polar_point(*curve.eval(t))


class TestPolarForms:
    """Polar forms of points, and the polar vertices a witness stores and a polygon is built
    from."""

    def test_origin_maps_to_zero(self):
        p = polar_point(0.0, 2.3)
        assert p.xy.tolist() == [0.0, 0.0]
        assert p.theta == 0.0 and cart_point(0.0, 0.0).theta == 0.0
        assert hyperboloid_lift(0.0, 2.3).tolist() == [0.0, 0.0, 1.0]
        assert [float(a) for a in hyperboloid_polar(np.array([0.0, 0.0, 1.0]))] == [0.0, 0.0]

    def test_turned_angles_give_the_same_vertices_and_radii_are_nonnegative(self):
        tri = [(1.0, math.pi / 3), (2.0, math.pi - 0.5), (1.5, -math.pi / 2)]
        turned = [(r, th + 2.0 * math.pi * k) for (r, th), k in zip(tri, (1, -1, 2))]
        assert np.allclose(GeodesicPolygon.from_polar(turned).sheet,
                           GeodesicPolygon.from_polar(tri).sheet, rtol=0.0, atol=1e-12)
        with pytest.raises(ValueError, match="nonnegative"):
            GeodesicPolygon.from_polar([(1.0, 0.0), (1.0, 2.0), (-1e-300, 4.0)])

    def test_witness_radii_match_mpmath_at_every_radius(self):
        # arcsinh |(x, y)| of a sheet row, where arccosh z loses digits near 0
        r = np.geomspace(1e-8, 300.0, 400)
        pts = hyperboloid_lift(r, np.random.default_rng(9).uniform(-math.pi, math.pi, r.shape))
        got, _ = hyperboloid_polar(pts)
        with mp.workdps(40):
            ref = [mp.asinh(mp.hypot(mp.mpf(x), mp.mpf(y))) for x, y in pts[:, :2].tolist()]
            assert max(abs(g - e) / e for g, e in zip(got.tolist(), ref)) < 1e-15
        # and the row's radius is r to the same accuracy
        assert np.max(np.abs(got - r) / r) < 1e-15

    def test_axis_point_radius(self):
        p = cart_point(0.5, 0.0)
        assert p.r == pytest.approx(2.0 * math.atanh(0.5), abs=1e-15)
        assert p.theta == 0.0

    def test_roundtrip_example(self):
        p = polar_point(1.0, math.pi / 3)
        rho = math.tanh(0.5)
        assert p.xy[0] == pytest.approx(rho * 0.5, abs=1e-15)
        assert p.xy[1] == pytest.approx(rho * math.sqrt(3) / 2, abs=1e-15)
        q = cart_point(*p.xy)
        assert abs(q.r - p.r) < 1e-12 and abs(q.theta - p.theta) < 1e-12

    def test_polygons_refuse_rows_off_the_sheet(self):
        tri = hyperboloid_lift([1.0, 1.2, 0.8], [0.0, 2.0, 4.0])
        assert GeodesicPolygon(tri).hconvex
        for k, bad in [(2, 0.999), (2, np.nan), (0, np.inf), (1, np.nan)]:
            rows = tri.copy()
            rows[0, k] = bad
            with pytest.raises(ValueError, match="hyperboloid sheet"):
                GeodesicPolygon(rows)
        # the hull's rows arrive at the polygon
        with pytest.raises(ValueError, match="hyperboloid sheet"):
            hyperbolic_hull(np.array([[0.1, 0.0, 1.01], [0.0, 0.1, 1.01], [-0.5, -0.5, 0.9]]))

    @settings(max_examples=80, deadline=None)
    @given(RADII, ANGLES)
    def test_roundtrip_property(self, r, theta):
        p = polar_point(r, theta)
        q = cart_point(*p.xy)
        assert abs(q.r - p.r) < 1e-12
        assert abs(q.theta - p.theta) < 1e-12
        assert math.hypot(*p.xy) < 1.0
        assert abs(math.hypot(*p.xy) - math.tanh(p.r / 2.0)) < 1e-12


class TestTranslate:
    def test_identity_at_origin_parameter(self):
        x = cart_point(0.3, -0.4)
        assert close(translate(ZERO, x), x)

    def test_carries_origin_to_center(self):
        c = cart_point(0.5, 0.1)
        assert close(translate(c, ZERO), c)

    def test_isometry_example(self):
        c = cart_point(0.5, 0.0)
        x = cart_point(0.0, 0.5)
        pts = [ZERO, x, c]
        for u in pts:
            for v in pts:
                lhs = hyperbolic_distance(translate(c, u), translate(c, v))
                assert lhs == pytest.approx(hyperbolic_distance(u, v), abs=1e-12)

    def test_inverse_is_negated_parameter(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c, x = rand_point(rng, 2.5), rand_point(rng, 2.5)
            back = translate(cart_point(*-c.xy), translate(c, x))
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


class TestSheetTranslate:
    def test_matches_the_cartesian_formula_to_a_few_ulps(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(300):
            c = rand_point(rng, 1.0, 0.0)
            r, th = rng.uniform(0.0, 2.0, 20), rng.uniform(-math.pi, math.pi, 20)
            moved = mobius_translate(c.xy, hyperboloid_lift(r, th))
            poincare = moved[:, :2] / (1.0 + moved[:, 2:])
            ref = cart_mobius_translate(c.xy, np.stack([np.tanh(r / 2) * np.cos(th),
                                                        np.tanh(r / 2) * np.sin(th)], axis=-1))
            worst = max(worst, float(np.max(np.abs(poincare - ref))))
        assert worst < 8 * np.finfo(float).eps

    def test_finite_at_r30_and_undone_by_the_negated_center(self):
        rng = np.random.default_rng(45)
        c = rand_point(rng, 1.5)
        pts = hyperboloid_lift(rng.uniform(29.0, 31.0, 200), rng.uniform(-math.pi, math.pi, 200))
        moved = mobius_translate(c.xy, pts)
        assert np.all(np.isfinite(moved))
        sheet = moved[:, 2] ** 2 - moved[:, 0] ** 2 - moved[:, 1] ** 2
        assert np.max(np.abs(sheet - 1.0) / moved[:, 2] ** 2) < 1e-13
        back = mobius_translate(-c.xy, moved)
        assert np.max(np.abs(back - pts) / pts[:, 2:]) < 1e-13

    def test_carries_the_apex_to_the_lift_of_the_center(self):
        c = polar_point(1.2, -0.7)
        apex = np.array([0.0, 0.0, 1.0])
        assert np.allclose(mobius_translate(c.xy, apex), hyperboloid_lift(c.r, c.theta),
                           rtol=1e-15, atol=1e-15)


class TestDistance:
    def test_radial_distance(self):
        for r in (0.3, 1.0, 2.7):
            assert hyperbolic_distance(polar_point(r, 1.2), ZERO) == \
                pytest.approx(r, abs=1e-12)

    def test_zero_iff_equal(self):
        p = cart_point(0.2, 0.6)
        assert hyperbolic_distance(p, p) == 0.0

    def test_diameter_adds(self):
        u = polar_point(1.0, 0.0)
        v = polar_point(1.0, math.pi)
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
            r, th = chord_polar(u.r, u.theta, v.r, v.theta, np.array([0.4]))
            mid = polar_point(float(r[0]), float(th[0]))
            gap = hyperbolic_distance(u, mid) + hyperbolic_distance(mid, v) \
                - hyperbolic_distance(u, v)
            assert abs(gap) < 1e-9
            # a point pushed off the geodesic breaks equality
            off = polar_point(float(r[0]) + 0.3, float(th[0]))
            gap_off = hyperbolic_distance(u, off) + hyperbolic_distance(off, v) \
                - hyperbolic_distance(u, v)
            assert gap_off > 1e-9


class TestGeodesic:
    def test_endpoints_reproduce(self):
        u = polar_point(1.3, -0.4)
        v = polar_point(2.1, 0.9)
        g = geodesic_between(u, v)
        assert close(point_at(g, 0.0), u) and close(point_at(g, 1.0), v)

    def test_identical_endpoints_rejected(self):
        p = polar_point(1.0, 0.3)
        with pytest.raises(ValueError):
            geodesic_between(p, p)

    def test_endpoint_radius_identity_is_exact(self):
        # at t = 0 and t = 1 the chord combination collapses to a single
        # coth term, so the endpoint radii are reproduced to rounding
        rng = np.random.default_rng(4)
        for _ in range(100):
            u, v = rand_point(rng), rand_point(rng)
            if close(u, v):
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
            if close(u, v):
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
            if close(u, v):
                continue
            g = geodesic_between(u, v)
            if float(np.min(g.eval(ts)[0])) < 0.05:
                continue
            checked += 1
            fd = from_polar_function(g.eval)
            assert fd.derivative_kind == "finite-difference"
            worst = max(worst, float(np.max(np.abs(geodesic_curvature(fd, ts)))))
        assert worst < 1e-6

    def test_symmetric_midpoint(self):
        dth = 1.0
        u = polar_point(1.0, 0.0)
        v = polar_point(1.0, dth)
        g = geodesic_between(u, v)
        r_mid = float(g.eval(0.5)[0])
        assert 1.0 / math.tanh(r_mid) == pytest.approx(
            (1.0 / math.tanh(1.0)) / math.cos(dth / 2.0), rel=1e-12)

    def test_radial_branch(self):
        u = polar_point(0.5, 1.1)
        v = polar_point(2.0, 1.1)
        g = geodesic_between(u, v)
        assert g.meta["branch"] == "diameter"
        r, th = g.eval(0.25)
        assert float(r) == pytest.approx(0.875, abs=1e-12)
        assert float(th) == pytest.approx(1.1, abs=1e-12)

    def test_diameter_branch_through_origin(self):
        u = polar_point(1.0, 0.5)
        v = polar_point(1.5, 0.5 - math.pi)
        g = geodesic_between(u, v)
        assert g.meta["branch"] == "diameter"
        assert close(point_at(g, 0.0), u) and close(point_at(g, 1.0), v)
        # passes through the origin at the sign change
        t_cross = 1.0 / 2.5
        assert float(g.eval(t_cross)[0]) == pytest.approx(0.0, abs=1e-12)

    def test_origin_endpoint(self):
        v = polar_point(1.7, -2.0)
        g = geodesic_between(ZERO, v)
        assert close(point_at(g, 0.0), ZERO) and close(point_at(g, 1.0), v)

    def test_samples_collinear_in_klein_model(self):
        # geodesics are straight chords in the projective chart
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = rand_point(rng), rand_point(rng)
            if close(u, v):
                continue
            g = geodesic_between(u, v)
            ts = np.linspace(0.0, 1.0, 9)
            r, th = g.eval(ts)
            k = to_klein(polar_to_cart(r, th))
            chord = k[-1] - k[0]
            offsets = k[1:-1] - k[0]
            cross = chord[0] * offsets[:, 1] - chord[1] * offsets[:, 0]
            assert np.max(np.abs(cross)) < 1e-12

    def test_matches_hyperboloid_interpolation(self):
        u = polar_point(1.3, -0.4)
        v = polar_point(2.1, 0.9)
        g = geodesic_between(u, v)
        ts = np.linspace(0.0, 1.0, 7)
        r_s, th_s = chord_polar(u.r, u.theta, v.r, v.theta, ts)
        # same geodesic set: chord radii satisfy the curve's radius function
        # at matching angles
        dth = g.meta["delta_theta"]
        t_match = (th_s - u.theta) / dth
        r_curve, _ = g.eval(t_match)
        assert np.max(np.abs(r_curve - r_s)) < 1e-10


def reference_polar_chord_closures(u, v, dth):
    """eval, d1 and d2 of the polar-chord branch as written before the shared chord jet, with
    the chord's own factors from numpy's elementary functions, as the jet takes them."""
    r1, r2 = u.r, v.r
    th1 = u.theta
    coth1, coth2 = 1.0 / np.tanh(r1), 1.0 / np.tanh(r2)
    sin_dth = np.sin(dth)
    a = abs(dth)
    sin_a = np.sin(a)
    q1 = 2.0 / np.expm1(2.0 * r1)
    q2 = 2.0 / np.expm1(2.0 * r2)
    half = np.sin(a / 2.0)

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
        u = polar_point(0.5, 0.7)
        v = polar_point(2.5, 0.7)
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
                start=polar_point(r, 0.0),
                end=polar_point(r, 0.0),
            )
            for t in (0.1, 0.5, 0.9):
                assert geodesic_curvature(circle, t) == pytest.approx(
                    1.0 / math.tanh(r), rel=1e-12)

    def test_polar_linear_curve_curves_left(self):
        # r from 1 to 2 while theta turns from -0.5 to 0.8, both linear in t
        ts = np.linspace(0.0, 1.0, 21)
        assert np.all(curvature_from_derivatives(1.0 + ts, 1.0, 0.0, 1.3, 0.0) > 0.0)

    def test_degenerate_raises(self):
        stationary = ParamCurve(
            eval=lambda t: (np.full_like(np.asarray(t, float), 1.0),
                            np.zeros_like(np.asarray(t, float))),
            d1=lambda t: (np.zeros_like(np.asarray(t, float)),
                          np.zeros_like(np.asarray(t, float))),
            d2=lambda t: (np.zeros_like(np.asarray(t, float)),
                          np.zeros_like(np.asarray(t, float))),
            start=polar_point(1.0, 0.0),
            end=polar_point(1.0, 0.0),
        )
        with pytest.raises(ValueError):
            geodesic_curvature(stationary, 0.5)

    def test_agrees_with_conformal_route(self):
        # cross-check of the polar formula and its sign convention against
        # the Euclidean-curvature-plus-conformal-correction route
        def f(t):
            t = np.asarray(t, float)
            return 1.0 + 0.3 * np.sin(t), 0.5 * t

        curve = from_polar_function(f)
        for t in (0.2, 0.5, 0.8):
            a = geodesic_curvature(curve, t)
            b = float(curvature_via_conformal(curve, t))
            assert a == pytest.approx(b, rel=1e-6)


class TestParamCurve:
    def test_regularity_check(self):
        g = geodesic_between(polar_point(1.0, 0.0), polar_point(1.0, 1.0))
        ts = np.linspace(0.01, 0.99, 64)
        (r, _), (dr, dth) = g.eval(ts), g.d1(ts)
        assert float(np.min(np.sqrt(dr ** 2 + np.sinh(r) ** 2 * dth ** 2))) > 0.0


def test_mobius_translate_array_shape():
    c = np.array([0.3, 0.1])
    rng = np.random.default_rng(8)
    out = mobius_translate(c, hyperboloid_lift(rng.uniform(0.0, 2.0, 17),
                                               rng.uniform(-math.pi, math.pi, 17)))
    assert out.shape == (17, 3)
    assert np.allclose(out[:, 2] ** 2 - out[:, 0] ** 2 - out[:, 1] ** 2, 1.0, rtol=0.0,
                       atol=1e-12)


def chord_points_per_pair(r1, th1, r2, th2, ts):
    """Reference: the one-pair-at-a-time form of chord_polar, on numpy scalars."""
    s1, s2 = np.sinh(r1), np.sinh(r2)
    a = np.array([s1 * np.cos(th1), s1 * np.sin(th1), np.cosh(r1)])
    b = np.array([s2 * np.cos(th2), s2 * np.sin(th2), np.cosh(r2)])
    na, nb = np.hypot(a[0], a[1]), np.hypot(b[0], b[1])
    ua = a[:2] / max(na, 1e-300)
    ub = b[:2] / max(nb, 1e-300)
    u = ua - ub
    half = (na - nb) ** 2 / (2.0 * (1.0 + a[2] * b[2] + na * nb)) \
        + 0.25 * (na * nb) * (u[0] ** 2 + u[1] ** 2)
    d = max(2.0 * np.arcsinh(np.sqrt(half)), 1e-200)
    sinh_d = np.sinh(d)
    pts = (np.sinh((1.0 - ts) * d) / sinh_d)[:, None] * a \
        + (np.sinh(ts * d) / sinh_d)[:, None] * b
    return np.arcsinh(np.hypot(pts[:, 0], pts[:, 1])), np.arctan2(pts[:, 1], pts[:, 0])


class TestBatchedChordPoints:
    TS = np.concatenate([[0.0, 1.0], np.random.default_rng(0).uniform(size=14)])

    def assert_matches_per_pair(self, r1, th1, r2, th2):
        r, th = chord_polar(r1, th1, r2, th2, self.TS)
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
        r, th = chord_polar(1.3, -0.4, 2.1, 0.9, self.TS)
        assert r.shape == th.shape == self.TS.shape
        assert geodesic_chord_points(hyperboloid_lift(1.3, -0.4), hyperboloid_lift(2.1, 0.9),
                                     self.TS).shape == self.TS.shape + (3,)

    def test_chords_of_a_lifted_indexed_boundary(self):
        # sheet rows indexed per chord, as a defect measurement samples its stored
        # boundary, with repeated and identical endpoints
        rng = np.random.default_rng(43)
        r = rng.uniform(0.0, 30.0, 64)
        th = rng.uniform(-math.pi, math.pi, 64)
        r[1], th[1] = r[0] + 1e-11, th[0]
        i, j = rng.integers(0, 64, (2, 300))
        i[:3], j[:3] = (0, 0, 5), (1, 0, 5)
        lifted = hyperboloid_lift(r, th)
        assert lifted.shape == (64, 3)
        rs, ths = hyperboloid_polar(geodesic_chord_points(lifted[i], lifted[j], self.TS))
        assert rs.shape == ths.shape == (300,) + self.TS.shape
        for k in range(300):
            r_ref, th_ref = chord_points_per_pair(r[i[k]], th[i[k]], r[j[k]], th[j[k]], self.TS)
            assert np.array_equal(rs[k], r_ref) and np.array_equal(ths[k], th_ref)

    @pytest.mark.parametrize("r", [20.0, 25.0, 30.0])
    def test_chords_between_equal_rows_far_out_stay_on_the_row(self, r):
        # cosh d = a_z b_z - A.B cancels to about eps a_z b_z this far out, and samples formed
        # from it land near r ~ 365; the chord length from positive terms is 0 here
        th = np.linspace(-math.pi, math.pi, 7)
        row = hyperboloid_lift(np.full(7, r), th)
        rs, ths = hyperboloid_polar(geodesic_chord_points(row, row, self.TS))
        assert np.max(np.abs(rs - r)) <= 4 * np.spacing(r)
        assert np.max(np.abs(ths - hyperboloid_polar(row)[1][:, None])) <= 4 * np.spacing(math.pi)

    def test_component_major_vectors_match_the_broadcast_formula(self):
        rng = np.random.default_rng(44)
        r = rng.uniform(0.0, 30.0, 64)
        th = rng.uniform(-math.pi, math.pi, 64)
        r[1], th[1] = r[0] + 1e-11, th[0]
        lifted = hyperboloid_lift(r, th)
        i, j = rng.integers(0, 64, (2, 300))
        i[:3], j[:3] = (0, 0, 5), (1, 0, 5)  # a short, an identical and a repeated pair
        for a, b in [(lifted[i], lifted[j]), (lifted[i].reshape(20, 15, 3), lifted[j][0]),
                     (lifted[2], lifted[3]), (lifted[0], lifted[1])]:
            pts = geodesic_chord_points(a, b, self.TS)
            ref = broadcast_chord_vectors(a, b, self.TS)
            assert pts.shape == ref.shape and np.array_equal(pts, ref)
            # each coordinate is one contiguous array, and the flat (P, 3) form a view of it
            assert pts[..., 0].flags.c_contiguous
            assert np.shares_memory(pts.reshape(-1, 3), pts)
            c = rand_point(rng)
            moved = mobius_translate(c.xy, pts)
            assert np.array_equal(moved, stacked_translate(c.xy, pts))
            assert moved[..., 2].flags.c_contiguous
