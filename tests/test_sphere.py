import dataclasses
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import (dot3, edge_probes, mp_dilate_chart, mp_margin, spherical_polygons,
                      stacked_membership_s2)
from hypexpand import convexity, sphere
from hypexpand.convexity import SIDEDNESS_TOL, TRIAL_BLOCK, GeodesicPolygon
from hypexpand.dilation import dilate_origin_polar
from hypexpand.sphere import (
    Chart,
    SphericalPolygon,
    SphericalRegion,
    angular_distance,
    conjecture_trial,
    contract_polygon,
    great_circle_points,
    random_convex_spherical_polygon,
    s_convexity_defect,
    tangent_frame,
)
from references import (gnomonic_inverse, per_trial_conjecture, per_trial_contraction,
                        per_trial_spherical_polygon)

NORTH = np.array([0.0, 0.0, 1.0])


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def one_polygon(rng, center=None):
    """random_convex_spherical_polygon of the one generator rng, a block of one; about the given
    center, spherical_polygons of it."""
    if center is None:
        return random_convex_spherical_polygon([rng])[0]
    return spherical_polygons([rng], [center])[0]


def one_region(poly, k1, k2, per_edge=sphere.PER_EDGE):
    """contract_polygon of the one polygon poly, a block of one."""
    return contract_polygon([poly], [k1], [k2], per_edge)[0]


def north_polygon(rho, thetas):
    """The polygon with vertices at (rho, theta) about NORTH, in its chart."""
    return SphericalPolygon(Chart(NORTH).from_polar(rho, np.asarray(thetas)), Chart(NORTH))


class TestUnitVectors:
    """Unit 3-vectors, checked where they arrive: Chart and SphericalPolygon."""

    def test_unit_validation(self):
        with pytest.raises(ValueError, match="unit vector"):
            Chart([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="unit vector"):
            SphericalPolygon(2.0 * Chart(NORTH).from_polar(0.5, np.array([0.0, 2.1, 4.2])),
                             Chart(NORTH))
        poly = one_polygon(np.random.default_rng(3))
        for v in (*poly.xyz, poly.chart.n):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("vec", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                     (0.0, -math.inf, math.nan)])
    def test_non_finite_vectors_are_rejected(self, vec):
        verts = Chart(NORTH).from_polar(0.5, np.array([0.0, 2.1, 4.2]))
        verts[2] = vec
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
            with pytest.raises(ValueError):
                Chart(vec)
            with pytest.raises(ValueError):
                SphericalPolygon(verts, Chart(NORTH))

    def test_angular_distance(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert angular_distance(a, b) == pytest.approx(math.pi / 2, abs=1e-15)


class TestContraction:
    def test_identity_factors(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            p = unit(Chart(NORTH).from_polar(rng.uniform(0.1, 1.4), rng.uniform(-math.pi, math.pi)))
            q = Chart(NORTH).contract(1.0, 1.0, p)
            assert np.max(np.abs(q - p)) < 1e-14

    def test_center_fixed(self):
        assert np.max(np.abs(Chart(NORTH).contract(0.5, 0.8, NORTH) - NORTH)) < 1e-15

    def test_symmetric_case_scales_colatitude(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            rho = rng.uniform(0.1, 1.4)
            th = rng.uniform(-math.pi, math.pi)
            k = rng.uniform(0.2, 1.0)
            p = Chart(NORTH).from_polar(rho, th)
            rho2, th2 = Chart(NORTH).to_polar(Chart(NORTH).contract(k, k, p))
            assert float(rho2) == pytest.approx(k * rho, rel=1e-12)
            assert float(th2) == pytest.approx(th, abs=1e-12)

    def test_rejects_outside_hemisphere(self):
        p = Chart(NORTH).from_polar(1.7, 0.0)
        with pytest.raises(ValueError):
            Chart(NORTH).contract(0.5, 1.0, p)

    def test_never_increases_colatitude(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            rho = rng.uniform(0.01, 1.5)
            p = Chart(NORTH).from_polar(rho, rng.uniform(-math.pi, math.pi))
            k1, k2 = rng.uniform(0.1, 1.0, 2)
            q = Chart(NORTH).contract(k1, k2, p[None, :])[0]
            rho2, _ = Chart(NORTH).to_polar(q)
            assert float(rho2) <= rho + 1e-14


class TestGnomonic:
    def test_roundtrip(self):
        rng = np.random.default_rng(65)
        c = unit(rng.normal(size=3))
        pts = Chart(c).from_polar(rng.uniform(0.01, 1.5, 200), rng.uniform(-math.pi, math.pi, 200))
        uv = Chart(c).gnomonic(pts)
        back = gnomonic_inverse(Chart(c), uv)
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_rejects_equator(self):
        p = Chart(NORTH).from_polar(math.pi / 2, 0.3)
        with pytest.raises(ValueError):
            Chart(NORTH).gnomonic(p[None, :])

    def test_convexity_equivalence(self):
        # a polygon is spherically convex within the hemisphere iff its
        # gnomonic image is a convex planar polygon
        tri = north_polygon(0.8, [0.0, 2.1, 4.2])
        assert tri.convex
        dart_uv = np.array([[0.05, 0.0], [0.0, -0.5], [0.5, 0.0], [0.0, 0.5]])
        dart = SphericalPolygon(gnomonic_inverse(Chart(NORTH), dart_uv), Chart(NORTH))
        assert not dart.convex

    def test_self_intersecting_order_is_rejected_as_on_the_disk(self):
        # a pentagram winds twice about its center, so its signed area is positive
        star = [(0.8, 4 * math.pi * k / 5) for k in range(5)]
        with pytest.raises(ValueError, match="self-intersect"):
            north_polygon(0.8, [theta for _, theta in star])
        with pytest.raises(ValueError, match="self-intersect"):
            GeodesicPolygon.from_polar(star)

    def test_hemisphere_validation(self):
        verts = Chart(NORTH).from_polar(np.array([0.5, 0.5, 1.8]), np.array([0.0, 2.1, 0.0]))
        with pytest.raises(ValueError):
            SphericalPolygon(verts, Chart(NORTH))


class TestSphericalDefect:
    def test_triangle_convex(self):
        tri = north_polygon(0.9, [0.2, 2.2, 4.4])
        assert s_convexity_defect(one_region(tri, 1.0, 1.0)) < 1e-9

    def test_reflex_quad_defect(self):
        # a dart is no region's polygon, so none is measured without exact membership
        dart_uv = np.array([[0.05, 0.0], [0.0, -0.5], [0.5, 0.0], [0.0, 0.5]])
        dart = SphericalPolygon(gnomonic_inverse(Chart(NORTH), dart_uv), Chart(NORTH))
        assert not dart.convex
        for build in (lambda: one_region(dart, 1.0, 1.0, per_edge=32),
                      lambda: one_region(dart, 0.5, 0.5)):
            with pytest.raises(ValueError, match="convex polygon"):
                build()

    def test_counts_validated(self):
        poly = one_polygon(np.random.default_rng(68), NORTH)
        region = one_region(poly, 0.5, 0.8)
        for counts in [(64, 0), (8, 16), (16, 15)]:
            with pytest.raises(ValueError, match="at least 16"):
                s_convexity_defect(region, *counts)
        for per_edge in (0, 1, 15):
            with pytest.raises(ValueError, match="samples_per_edge must be at least 16"):
                one_region(poly, 0.5, 0.8, per_edge=per_edge)
        assert s_convexity_defect(one_region(poly, 0.5, 0.8, per_edge=16), 16, 16) >= 0.0

    def test_symmetric_contraction_stays_convex(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            poly = one_polygon(rng)
            k = float(rng.uniform(0.1, 1.0))
            region = one_region(poly, k, k)
            assert s_convexity_defect(region) < 1e-6

    def test_asymmetric_contraction_can_break_convexity(self):
        # measured behavior of the adopted polar-analog map: an edge
        # straddling the strongly contracted axis bends toward the center,
        # so chords across it leave the image
        rng = np.random.default_rng([0, 7])
        poly = one_polygon(rng)
        k1 = float(rng.uniform(0.01, 1.0))
        k2 = float(rng.uniform(0.01, 1.0))
        region = one_region(poly, k1, k2, per_edge=96)
        assert s_convexity_defect(region, 256, 64) > 1e-4

    def test_asymmetric_violation_confirmed_from_scratch(self):
        # pin the violation above with raw vector algebra sharing no code
        # with the library: rebuild the contraction from its definition and
        # test membership by spherical sidedness determinants
        rng = np.random.default_rng([0, 7])
        poly = one_polygon(rng)
        k1 = float(rng.uniform(0.01, 1.0))
        k2 = float(rng.uniform(0.01, 1.0))
        n = poly.chart.n
        seed_vec = np.array([1.0, 0, 0]) if abs(n[0]) < 0.9 else np.array([0, 1.0, 0])
        e1 = seed_vec - (seed_vec @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        verts = poly.xyz

        def raw_map(p, f1, f2):
            x, y, z = p @ e1, p @ e2, p @ n
            rho = math.atan2(math.hypot(x, y), z)
            th = math.atan2(y, x)
            rho2 = rho * math.hypot(f1 * math.cos(th), f2 * math.sin(th))
            th2 = math.atan2(f2 * math.sin(th), f1 * math.cos(th))
            return (math.cos(rho2) * n
                    + math.sin(rho2) * (math.cos(th2) * e1 + math.sin(th2) * e2))

        def in_source(q):
            m = len(verts)
            return all(np.linalg.det(np.vstack([verts[i], verts[(i + 1) % m], q]))
                       >= -1e-12 for i in range(m))

        # densely sample the image boundary, then check short chords
        ts = np.linspace(0.0, 1.0, 160, endpoint=False)
        boundary = []
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            w = math.acos(np.clip(a @ b, -1.0, 1.0))
            for t in ts:
                q = (math.sin((1 - t) * w) * a + math.sin(t * w) * b) / math.sin(w)
                boundary.append(raw_map(q / np.linalg.norm(q), k1, k2))
        boundary = np.array(boundary)
        worst = 0.0
        for span in (8, 40, 160):
            for i in np.arange(0, len(boundary) - span, 4):
                a, b = boundary[i], boundary[i + span]
                w = math.acos(np.clip(a @ b, -1.0, 1.0))
                if w < 1e-9:
                    continue
                mid = (math.sin(0.5 * w) * (a + b)) / math.sin(w)
                mid /= np.linalg.norm(mid)
                pre = raw_map(mid, 1.0 / k1, 1.0 / k2)
                rho_pre = math.atan2(math.hypot(pre @ e1, pre @ e2), pre @ n)
                if rho_pre >= math.pi / 2 or not in_source(pre):
                    dist = math.acos(np.clip(np.max(boundary @ mid), -1.0, 1.0))
                    worst = max(worst, dist)
        assert worst > 1e-4


class TestRandomPolygon:
    def test_well_formed(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            poly = one_polygon(rng)
            assert poly.convex
            assert 3 <= len(poly.xyz) <= 10
            assert np.all(angular_distance(poly.xyz, poly.chart.n) < math.pi / 2)

    def test_vertices_are_rows_of_the_drawn_points(self):
        # the hull is taken in the gnomonic chart and keeps the drawn unit vectors
        for seed in range(50):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            poly = one_polygon(rng)
            rng.bit_generator.state = state
            v = rng.normal(size=3)
            chart = Chart(v / np.sqrt(dot3(v, v)))
            drawn = chart.from_polar(*convexity._star_polar(rng, sphere.MAX_VERTICES,
                                                            (0.1, sphere.MAX_RHO)))
            rows = drawn.tolist()
            assert all(x in rows for x in poly.xyz.tolist())
            assert np.array_equal(poly.uv, chart.gnomonic(poly.xyz))


class TestConjectureTrials:
    def test_deterministic(self):
        a = conjecture_trial(7, 12)
        b = conjecture_trial(7, 12)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_shape(self):
        rep = conjecture_trial(3, 10)
        assert rep["trials"] == 10
        assert len(rep["results"]) == 10
        assert "contraction_definition" in rep
        for rec in rep["results"]:
            assert set(rec) >= {"trial", "seed", "k1", "k2", "symmetric",
                                "n_vertices", "defect", "exceeds"}
        assert rep["summary"]["symmetric"]["count"] == 2

    def test_symmetric_trials_clean(self):
        rep = conjecture_trial(11, 25)
        assert rep["summary"]["symmetric"]["exceedances"] == 0
        assert rep["summary"]["symmetric"]["max_defect"] < 1e-6

    def test_zero_trials(self):
        rep = conjecture_trial(5, 0)
        assert rep["trials"] == 0 and rep["results"] == []
        assert rep["summary"] == {
            "max_defect": 0.0, "exceedances": 0,
            "symmetric": {"count": 0, "max_defect": 0.0, "exceedances": 0},
            "asymmetric": {"count": 0, "max_defect": 0.0, "exceedances": 0},
        }

    def test_exceedances_are_rechecked(self):
        rep = conjecture_trial(0, 10)
        for rec in rep["results"]:
            if rec["exceeds"]:
                assert rec["defect_recheck_4x"] is not None
                assert rec["defect_recheck_4x"] > 1e-6


def test_great_circle_endpoints():
    a = Chart(NORTH).from_polar(0.8, 0.3)
    b = Chart(NORTH).from_polar(1.1, 2.0)
    pts = great_circle_points(a, b, np.array([0.0, 1.0]))
    assert np.max(np.abs(pts[0] - a)) < 1e-15
    assert np.max(np.abs(pts[-1] - b)) < 1e-15


def test_region_closure_validation():
    # a valid polygon, so that the open loop is what is refused
    tri = north_polygon(0.9, [0.2, 2.2, 4.4])
    with pytest.raises(ValueError, match="not closed"):
        SphericalRegion(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]), tri, 24, 1.0, 1.0)


def test_region_row_count_validation():
    # a loop of 24 rows per edge, named as 20 per edge, is refused: the defect
    # would take every 20th row as a vertex
    tri = north_polygon(0.9, [0.2, 2.2, 4.4])
    region = one_region(tri, 0.5, 1.0, per_edge=24)
    assert region.boundary.shape == (73, 3)
    with pytest.raises(ValueError, match=r"has 73 rows, not samples_per_edge x vertices .* = 61"):
        SphericalRegion(region.boundary, tri, 20, 0.5, 1.0)
    rebuilt = SphericalRegion(region.boundary, tri, 24, 0.5, 1.0)
    assert s_convexity_defect(rebuilt) == s_convexity_defect(region)


def great_circle_points_per_pair(a, b, ts):
    """Reference: the one-pair-at-a-time form of great_circle_points, its angle floored at
    1e-200."""
    omega = max(angular_distance(a, b), 1e-200)
    so = math.sin(omega)
    pts = (np.sin((1.0 - ts) * omega) / so)[:, None] * a + (np.sin(ts * omega) / so)[:, None] * b
    return pts / np.linalg.norm(pts, axis=-1)[:, None]


class TestBatchedGreatCirclePoints:
    TS = np.concatenate([[0.0, 1.0], np.random.default_rng(0).uniform(size=14)])

    def assert_matches_per_pair(self, a, b):
        pts = great_circle_points(a, b, self.TS)
        assert pts.shape == a.shape[:-1] + (len(self.TS), 3)
        b = np.broadcast_to(b, a.shape)
        for idx in np.ndindex(a.shape[:-1]):
            assert np.array_equal(pts[idx], great_circle_points_per_pair(a[idx], b[idx], self.TS))
        # stored component-major: each coordinate is one contiguous array, and the flat (P, 3)
        # form a view of it
        assert all(pts[..., k].flags.c_contiguous for k in range(3))
        assert np.shares_memory(pts.reshape(-1, 3), pts)

    def test_random_pairs(self):
        rng = np.random.default_rng(43)
        a, b = rng.normal(size=(2, 300, 3))
        self.assert_matches_per_pair(a / np.linalg.norm(a, axis=-1)[:, None],
                                     b / np.linalg.norm(b, axis=-1)[:, None])

    def test_short_identical_and_ordinary_pairs_in_one_batch(self):
        rng = np.random.default_rng(44)
        a = rng.normal(size=(6, 5, 3))
        a /= np.linalg.norm(a, axis=-1)[..., None]
        b = rng.normal(size=a.shape)
        near = rng.uniform(size=a.shape[:-1]) < 0.5
        b = np.where(near[..., None], a + 1e-14 * b, b)
        b /= np.linalg.norm(b, axis=-1)[..., None]
        b[0] = a[0]
        near[0] = False
        ordinary = ~near
        ordinary[0] = False
        omega = angular_distance(a, b)
        assert np.all(omega[near] > 0.0) and np.all(omega[near] < 1e-12)
        # ordinary arcs never reach the 1e-200 floor, so they keep the sin-weighted bits
        assert np.all(omega[ordinary] >= 1e-12)
        self.assert_matches_per_pair(a, b)
        # identical ends give the end row, normalized as every sample is, to within 1 ulp of 1,
        # and ends 1e-14 apart their normalized linear interpolation to within 2 (the most over
        # 50,000 random rows: 1 and 1)
        pts = great_circle_points(a, b, self.TS)
        ulp = np.spacing(1.0)
        end = a[0] / np.linalg.norm(a[0], axis=-1)[:, None]
        assert np.all(np.abs(pts[0] - end[:, None, :]) <= ulp)
        lin = (1.0 - self.TS)[:, None] * a[..., None, :] + self.TS[:, None] * b[..., None, :]
        lin /= np.linalg.norm(lin, axis=-1)[..., None]
        assert np.all(np.abs(pts - lin)[near] <= 2.0 * ulp)

    def test_scalar_call_keeps_its_shape(self):
        a = Chart(NORTH).from_polar(0.8, 0.3)
        b = Chart(NORTH).from_polar(1.1, 2.0)
        assert great_circle_points(a, b, self.TS).shape == (len(self.TS), 3)

    def test_a_stack_of_pairs_with_one_end_and_a_single_pair(self):
        a, b = unit_rows(np.random.default_rng(45).normal(size=(2, 300, 3)))
        self.assert_matches_per_pair(a.reshape(20, 15, 3), b[7])
        self.assert_matches_per_pair(a[2], b[3])


# --- reference copies of the per-call polygon layer, for bitwise comparison ---

def cross_angular_distance(a, b):
    """angular_distance through np.cross and np.linalg.norm."""
    out = np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.sum(a * b, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def cross_tangent_frame(n):
    """tangent_frame through np.cross."""
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ n) * n
    e1 /= np.sqrt(dot3(e1, e1))
    return e1, np.cross(n, e1)


def broadcast_contains(uv_verts, probes, tol=1e-12):
    """Half-plane membership through one (P, V, 2) broadcast."""
    e = np.roll(uv_verts, -1, axis=0) - uv_verts
    d = probes[:, None, :] - uv_verts[None, :, :]
    return np.all(e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0] >= -tol, axis=1)


def rebuilt_membership(region, pts):
    """Exact membership with the polygon rebuilt from its vertices and every map rebuilt per call."""
    c = region.polygon.chart.n
    poly = SphericalPolygon(region.polygon.xyz, Chart(c))
    uv_verts = Chart(c).gnomonic(poly.xyz)
    rho, theta = Chart(c).to_polar(pts)
    rho2, theta2 = dilate_origin_polar(1.0 / region.k1, 1.0 / region.k2, rho, theta)
    ok = rho2 < math.pi / 2 - sphere.HEMISPHERE_MARGIN
    out = np.zeros(len(pts), dtype=bool)
    uv = Chart(c).gnomonic(Chart(c).from_polar(rho2[ok], theta2[ok]))
    out[ok] = broadcast_contains(uv_verts, uv)
    return out


def exact_margin(region, p):
    """mp_margin of the exact gnomonic preimage of the probe p (3,) in the region's polygon."""
    poly = region.polygon
    chart = poly.chart
    with mp.workdps(50):
        def dot(a, b):
            return sum(mp.mpf(float(ai)) * bi for ai, bi in zip(a, b))

        p = [mp.mpf(float(c)) for c in p]
        x, y, z = dot(chart.e1, p), dot(chart.e2, p), dot(chart.n, p)
        u, v = mp_dilate_chart(1 / mp.mpf(region.k1), 1 / mp.mpf(region.k2),
                               x, y, mp.atan2(mp.hypot(x, y), z), mp.tan)
        return mp_margin(poly.uv, u, v)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1)[..., None]


class TestBatchedPolygonLayer:
    def test_angular_distance_matches_np_cross(self):
        rng = np.random.default_rng(70)
        a = unit_rows(rng.normal(size=(2000, 3)))
        b = unit_rows(rng.normal(size=(2000, 3)))
        nudge = rng.normal(size=(2000, 3)) * rng.choice([1e-15, 1e-9, 1e-5], (2000, 1))
        for x, y in [(a, b), (a, unit_rows(a + nudge)), (a, unit_rows(-a + nudge)),
                     (a, a), (a, -a), (a[:, None, :], b[None, :50, :])]:
            assert np.array_equal(angular_distance(x, y), cross_angular_distance(x, y))
        for i in range(300):  # single vectors, nearly parallel and antiparallel among them
            y = (b[i], unit_rows(a[i] + nudge[i]), unit_rows(-a[i] + nudge[i]))[i % 3]
            d = angular_distance(a[i], y)
            assert isinstance(d, float) and d == cross_angular_distance(a[i], y)
        assert angular_distance(NORTH, b[0]) == cross_angular_distance(NORTH, b[0])

    def test_tangent_frame_matches_np_cross(self):
        rng = np.random.default_rng(71)
        vecs = np.concatenate([rng.normal(size=(300, 3)),
                               [[1.0, 0.0, 0.0], [-1.0, 1e-9, 0.0], [0.9, 0.1, 0.0]]])
        for v in vecs:
            c = unit(v)
            e1, e2 = tangent_frame(c)
            r1, r2 = cross_tangent_frame(c)
            assert np.array_equal(e1, r1) and np.array_equal(e2, r2)

    def test_is_convex_matches_the_broadcast_form(self):
        rng = np.random.default_rng(72)
        convex = 0
        for _ in range(200):
            poly = one_polygon(rng)
            uv = poly.uv.copy()
            uv[rng.integers(len(uv))] *= rng.choice([1.0, 0.6, 0.9])  # pull a vertex in
            i = int(rng.integers(len(uv)))  # or move one onto, or 1e-12 off, its chord
            if rng.uniform() < 0.3:
                uv[i] = 0.5 * (uv[i - 1] + uv[(i + 1) % len(uv)]) + rng.choice([-1e-12, 0, 1e-12])
            try:
                bent = SphericalPolygon(gnomonic_inverse(poly.chart, uv), poly.chart)
            except ValueError:
                continue
            k = bent.uv
            expected = bool(np.all(broadcast_contains(k, k)))
            assert bent.convex == expected
            convex += expected
        assert 0 < convex < 200

    def test_exact_membership_matches_the_rebuilt_broadcast_form(self):
        rng = np.random.default_rng(73)
        flips = 0
        for trial in range(40):
            poly = one_polygon(rng)
            k1, k2 = rng.uniform(0.05, 1.0, 2)
            if trial % 3 == 1:  # one factor above 1 as well, so one preimage factor is below 1
                k1 += 1.0
            region = one_region(poly, *((1.0, 1.0) if trial % 5 == 0 else (k1, k2)))
            # probes in the preimage's chart, so that vertices and edges map onto the polygon's
            pre = gnomonic_inverse(poly.chart, edge_probes(rng, poly.uv))
            probes = (pre if trial % 5 == 0 else
                      poly.chart.contract(region.k1, region.k2, pre))
            inside = sphere._exact_membership(region, probes)
            assert inside.dtype == bool and inside.shape == (len(probes),)
            assert np.array_equal(inside, stacked_membership_s2(region, probes))
            old = rebuilt_membership(region, probes)
            # the two arithmetics differ by rounding: they agree on all but a few
            # of the 1e-12-off-edge probes, and where they differ the package
            # decides as the 50-digit margin does, or that margin is within
            # 1e-15 of the tolerance
            for k in np.nonzero(inside != old)[0]:
                margin = exact_margin(region, probes[k]) + SIDEDNESS_TOL
                assert inside[k] == (margin >= 0) or abs(margin) < 1e-15
            flips += np.count_nonzero(inside != old)
            assert 0 < np.count_nonzero(inside) < len(probes)
        assert flips <= 1  # of 29,506 probes (1 flip measured, the package right)

    def test_a_region_without_a_convex_polygon_is_refused(self):
        poly = one_polygon(np.random.default_rng(74))
        contracted = one_region(poly, 0.3, 0.8)
        assert contracted.polygon is poly
        inside = sphere._exact_membership(contracted, contracted.boundary)
        assert inside.dtype == bool and inside.shape == (len(contracted.boundary),)
        with pytest.raises(ValueError, match="convex polygon"):
            dataclasses.replace(contracted, polygon=None)
        with pytest.raises(ValueError, match="convex polygon"):
            SphericalRegion(contracted.boundary, None, 24, 0.3, 0.8)
        # the map and the sampling are fields without defaults
        with pytest.raises(TypeError):
            SphericalRegion(contracted.boundary, {"samples_per_edge": 24}, poly)
        with pytest.raises(TypeError):
            SphericalRegion(contracted.boundary, polygon=poly)

    def test_copy_free_probes_match_the_stacked_formula(self):
        # the chord probes a defect measures, against the (P, 2) stack
        outside = 0
        # trials of the default sphere-conjecture run: symmetric ones, and asymmetric
        # ones with chord samples outside the image
        for trial in (0, 5, 7, 10, 77, 116):
            rng = np.random.default_rng([0, trial])
            poly = one_polygon(rng)
            k1 = float(rng.uniform(0.01, 1.0))
            k2 = k1 if trial % sphere.SYMMETRIC_EVERY == 0 else float(rng.uniform(0.01, 1.0))
            region = one_region(poly, k1, k2)
            ends, i, j, ts = sphere._chord_plan(region, 64, 16)
            ends = region.boundary[ends]
            probes = great_circle_points(ends[i], ends[j], ts).reshape(-1, 3)
            inside = sphere._exact_membership(region, probes)
            assert np.array_equal(inside, stacked_membership_s2(region, probes))
            outside += np.count_nonzero(~inside)
        assert outside > 0

    def test_membership_does_not_warn_past_the_disk_saturation_radius(self):
        # the polar map is shared with the disk, whose Cartesian chart saturates
        # past r' = 50; no such chart is involved here
        poly = one_polygon(np.random.default_rng(76), NORTH)
        region = one_region(poly, 0.01, 0.01)
        thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        rho = np.full_like(thetas, 1.55)
        assert np.all(dilate_origin_polar(100.0, 100.0, rho, thetas)[0] > 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = sphere._exact_membership(region, Chart(NORTH).from_polar(rho, thetas))
        assert not np.any(inside)

    def test_preimages_past_the_hemisphere_are_outside(self):
        # tan has period pi: unmasked, a preimage at rho = pi + 0.05 would land by the center
        poly = one_polygon(np.random.default_rng(77), NORTH)
        region = one_region(poly, 0.3, 0.3)
        thetas = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        rho = np.full_like(thetas, 0.3 * (math.pi + 0.05))
        # the antipode lies on every direction's geodesic, at rho = pi
        probes = np.vstack([Chart(NORTH).from_polar(rho, thetas), -NORTH, NORTH])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = sphere._exact_membership(region, probes)
        assert not np.any(inside[:-1]) and inside[-1]  # the center itself is inside

    def test_gnomonic_vertices_are_stored_and_read_only(self):
        poly = one_polygon(np.random.default_rng(75))
        assert np.array_equal(poly.uv, poly.chart.gnomonic(poly.xyz))
        for a in (poly.uv, poly.xyz):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_one_chart_per_trial(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return tangent_frame(c)

        monkeypatch.setattr(sphere, "tangent_frame", counted)
        report = conjecture_trial(0, 10)
        assert any(r["defect_recheck_4x"] is not None for r in report["results"])
        assert len(calls) == 10  # the chart a polygon is drawn in is the one it holds


class TestSphereBlocks:
    """conjecture_trial builds a block of trials at once; references.per_trial_conjecture builds
    each trial alone."""

    @staticmethod
    def assert_same_polygon(poly, ref):
        assert np.array_equal(poly.xyz, ref.xyz)
        assert np.array_equal(poly.uv, ref.uv)
        assert poly.convex is ref.convex
        for name in ("n", "e1", "e2"):
            assert np.array_equal(getattr(poly.chart, name), getattr(ref.chart, name))

    @pytest.mark.parametrize("seed, trials", [
        (0, TRIAL_BLOCK - 1), (3, TRIAL_BLOCK), (7, TRIAL_BLOCK + 1), (11, 500),
    ])
    def test_blocks_build_the_per_trial_polygons_and_regions(self, seed, trials, monkeypatch):
        regions = []

        def spy(region, *sampling):
            regions.append(region)
            return s_convexity_defect(region, *sampling)

        monkeypatch.setattr(sphere, "s_convexity_defect", spy)
        report = conjecture_trial(seed, trials)
        monkeypatch.undo()
        for i in range(trials):
            poly, ref, ref4, result = per_trial_conjecture(seed, i)
            region = regions.pop(0)
            self.assert_same_polygon(region.polygon, poly)
            assert np.array_equal(region.boundary, ref.boundary)
            if ref4 is not None:
                region4 = regions.pop(0)
                assert region4.polygon is region.polygon
                assert np.array_equal(region4.boundary, ref4.boundary)
            assert report["results"][i] == result
        assert regions == []

    def test_given_centers_build_the_per_trial_polygons(self):
        centers = [unit(c) for c in np.random.default_rng(78).normal(size=(TRIAL_BLOCK, 3))]
        polys = spherical_polygons([np.random.default_rng([78, i]) for i in range(len(centers))],
                                   centers)
        for i, (poly, center) in enumerate(zip(polys, centers)):
            ref = per_trial_spherical_polygon(np.random.default_rng([78, i]), center)
            self.assert_same_polygon(poly, ref)
        one = one_polygon(np.random.default_rng([78, 0]), centers[0])
        self.assert_same_polygon(one, per_trial_spherical_polygon(np.random.default_rng([78, 0]),
                                                                  centers[0]))

    # hand-built polygons whose images under factors > 1 leave the hemisphere about their
    # centers, which the contraction does not check, and a dart, which a region refuses
    @staticmethod
    def hand_built():
        wide = north_polygon(1.4, [0.2, 2.2, 4.4])
        chart = Chart(unit([0.3, -0.2, 1.0]))
        tilted = SphericalPolygon(chart.from_polar(np.array([1.1, 1.3, 0.9, 1.2]),
                                                   np.array([0.1, 1.7, 3.0, 4.6])), chart)
        dart_uv = np.array([[0.05, 0.0], [0.0, -0.5], [0.5, 0.0], [0.0, 0.5]])
        dart = SphericalPolygon(gnomonic_inverse(Chart(NORTH), dart_uv), Chart(NORTH))
        return wide, tilted, dart

    def test_regions_past_the_hemisphere_are_built_as_one_at_a_time(self):
        wide, tilted, _ = self.hand_built()
        polys, k1, k2 = [wide, tilted, wide], [2.0, 3.0, 1.2], [2.0, 0.5, 1.0]
        for per_edge in (16, 24):
            regions = contract_polygon(polys, k1, k2, per_edge)
            for region, poly, a, b in zip(regions, polys, k1, k2):
                assert region.polygon is poly and (region.k1, region.k2) == (a, b)
                ref = per_trial_contraction(poly.xyz, poly.chart, a, b, per_edge)
                assert np.array_equal(region.boundary, ref)
            rho = [np.max(r.polygon.chart.to_polar(r.boundary)[0]) for r in regions]
            assert rho[0] > 2.5 and rho[1] > 3.0 and rho[2] > math.pi / 2

    @pytest.mark.parametrize("order", [(2,), (0, 2), (2, 0), (0, 1, 2, 2), (1, 0, 2)])
    def test_a_block_raises_what_building_one_region_at_a_time_raises(self, order, monkeypatch):
        built = self.hand_built()
        polys = [built[t] for t in order]
        k1 = [2.0 + t for t in order]

        def raised(build):
            with pytest.raises(ValueError) as error:
                build()
            return str(error.value)

        alone = raised(lambda: [one_region(p, k, 1.0) for p, k in zip(polys, k1)])
        # the block is built again one region at a time: the regions built before the failing
        # one are the ones the per-trial loop builds before it raises
        calls = []
        block = sphere._contract_block
        monkeypatch.setattr(sphere, "_contract_block", lambda *a: calls.append(a[0]) or block(*a))
        assert raised(lambda: contract_polygon(polys, k1, [1.0] * len(polys))) == alone
        assert [len(c) for c in calls[1:]] == [1] * (order.index(2) + 1)
        assert [c[0] for c in calls[1:]] == polys[:order.index(2) + 1]

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
    def test_factors_that_are_not_positive_are_refused(self, bad, monkeypatch):
        # k1 = 0 built a region whose defect divided by zero, k1 = -0.5 a mirrored one
        tri = north_polygon(1.0, [0.0, 2.1, 4.2])
        for k1, k2 in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="^dilation factors must be positive$"):
                one_region(tri, k1, k2)
        polys = random_convex_spherical_polygon(
            [np.random.default_rng([80, i]) for i in range(TRIAL_BLOCK)])
        dart = self.hand_built()[2]
        # a block of 20 raises what building its regions one at a time raises: the bad factor
        # of trial 7, or the dart of trial 5 (whose factors are good) before it
        for darts in ([], [5]):
            block = [dart if t in darts else p for t, p in enumerate(polys)]
            k1 = [bad if t == 7 else 0.5 for t in range(len(block))]
            alone = []
            with pytest.raises(ValueError) as error:
                for p, k in zip(block, k1):
                    alone.append(one_region(p, k, 0.9))
            assert len(alone) == (darts or [7])[0]
            calls = []
            build = sphere._contract_block
            monkeypatch.setattr(sphere, "_contract_block",
                                lambda *a: calls.append(len(a[0])) or build(*a))
            with pytest.raises(ValueError) as block_error:
                contract_polygon(block, k1, [0.9] * len(block))
            monkeypatch.undo()
            assert str(block_error.value) == str(error.value)
            assert calls == [len(block)] + [1] * (len(alone) + 1)


class TestElementwiseBlocks:
    """Every S² block value is elementwise: a row's bits depend neither on the memory order of
    the rows passed with it nor on the other polygons of its block."""

    def test_chart_maps_and_membership_do_not_depend_on_memory_order(self):
        # a matrix-vector product rounds C- and Fortran-ordered rows differently
        polys = random_convex_spherical_polygon(
            [np.random.default_rng([81, i]) for i in range(TRIAL_BLOCK)])
        rng = np.random.default_rng(81)
        k1, k2 = rng.uniform(0.05, 1.0, (2, TRIAL_BLOCK))
        for poly, a, b in zip(polys, k1, k2):
            region = one_region(poly, a, b)
            ends, i, j, ts = sphere._chord_plan(region, 64, 16)
            ends = region.boundary[ends]
            # chord probes, and probes on, near and 1e-12 off the image of an edge
            pre = gnomonic_inverse(poly.chart, edge_probes(rng, poly.uv))
            pts = np.vstack([great_circle_points(ends[i], ends[j], ts).reshape(-1, 3),
                             poly.chart.contract(a, b, pre)])
            c, f = np.ascontiguousarray(pts), np.asfortranarray(pts)
            assert c.flags.c_contiguous and not f.flags.c_contiguous
            chart = poly.chart
            assert np.array_equal(chart.gnomonic(c), chart.gnomonic(f))
            for x, y in zip(chart.to_polar(c), chart.to_polar(f)):
                assert np.array_equal(x, y)
            assert np.array_equal(chart.contract(a, b, c), chart.contract(a, b, f))
            inside = sphere._exact_membership(region, c)
            assert np.array_equal(inside, sphere._exact_membership(region, f))
            assert 0 < np.count_nonzero(inside) < len(pts)

    def test_a_block_of_5_to_10_vertex_polygons_contracts_as_each_alone(self):
        rng = np.random.default_rng(82)
        polys = []
        for v in rng.permutation(np.repeat(np.arange(5, 11), 2)):
            # one angle per sector at one radius: every vertex is on the hull, in its own chart
            chart = Chart(unit(rng.normal(size=3)))
            thetas = (np.arange(v) + rng.uniform(0.0, 1.0, v)) * (2.0 * math.pi / v) - math.pi
            polys.append(SphericalPolygon(chart.from_polar(rng.uniform(0.3, 1.2), thetas), chart))
        assert sorted(len(p.xyz) for p in polys) == sorted(list(range(5, 11)) * 2)
        k1, k2 = rng.uniform(0.05, 1.0, (2, len(polys)))
        for per_edge in (16, 24):
            block = contract_polygon(polys, k1, k2, per_edge)
            for region, poly, a, b in zip(block, polys, k1, k2):
                alone = one_region(poly, a, b, per_edge)
                assert region.polygon is poly and (region.k1, region.k2) == (a, b)
                assert np.array_equal(region.boundary, alone.boundary)
