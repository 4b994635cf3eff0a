import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import edge_probes, mp_dilate_chart, mp_margin
from hypexpand import cli, convexity
from hypexpand.cli import _directed_thin_polygon, run_search_counterexample
from hypexpand.convexity import (
    SIDEDNESS_TOL,
    GeodesicPolygon,
    SampledRegion,
    convexity_defect,
    dilate_region,
    from_klein,
    from_klein_point,
    hyperbolic_hull,
    is_hconvex,
    klein_polygon_contains,
    max_polyline_distance,
    polygon_from_json,
    polygon_region,
    polygon_to_json,
    polyline_distance,
    random_hconvex_polygon,
    region_contains,
    region_from_json,
    region_to_json,
    to_klein,
    winding_contains,
)
from hypexpand.dilation import DilationParams, dilate_origin_polar, dilate_xy, origin_params
from hypexpand.disk import (DiskPoint, ORIGIN, cart_to_polar, hyperboloid_lift, hyperboloid_polar,
                            mobius_translate, polar_to_cart, translate)


def rand_point(rng, r_max=3.0):
    return DiskPoint.from_polar(rng.uniform(0.1, r_max), rng.uniform(-math.pi, math.pi))


class TestKleinChart:
    def test_origin_fixed(self):
        assert np.allclose(to_klein(ORIGIN), [0.0, 0.0])
        assert np.allclose(from_klein(np.zeros(2)), [0.0, 0.0])

    def test_axis_value(self):
        q = to_klein(DiskPoint.from_cart(0.5, 0.0))
        assert q[0] == pytest.approx(0.8, abs=1e-15)
        assert q[1] == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(20)
        pts = np.array([rand_point(rng).xy for _ in range(1000)])
        back = from_klein(to_klein(pts))
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            to_klein(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            from_klein(np.array([0.0, 1.0]))


class TestHull:
    def test_triangle_is_its_own_hull(self):
        pts = [DiskPoint.from_polar(1.0, a) for a in (0.0, 2.0, 4.0)]
        hull = hyperbolic_hull(pts)
        assert len(hull.vertices) == 3

    def test_interior_point_dropped(self):
        pts = [DiskPoint.from_polar(1.5, a) for a in (0.3, 1.8, 3.3, 4.8)]
        pts.append(DiskPoint.from_polar(0.05, 0.0))
        hull = hyperbolic_hull(pts)
        assert len(hull.vertices) == 4
        assert all(v.r > 0.1 for v in hull.vertices)

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pts = [rand_point(rng) for _ in range(10)]
            hull = hyperbolic_hull(pts)
            again = hyperbolic_hull(list(hull.vertices))
            assert len(again.vertices) == len(hull.vertices)
            a = np.array([v.xy for v in hull.vertices])
            b = np.array([v.xy for v in again.vertices])
            # same cyclic order
            shift = int(np.argmin(np.sum((b - a[0]) ** 2, axis=1)))
            assert np.max(np.abs(np.roll(b, -shift, axis=0) - a)) < 1e-12

    def test_collinear_rejected(self):
        pts = [DiskPoint.from_polar(r, 0.7) for r in (0.5, 1.0, 1.5)]
        with pytest.raises(ValueError):
            hyperbolic_hull(pts)

    def test_contains_all_inputs(self):
        rng = np.random.default_rng(22)
        pts = [rand_point(rng) for _ in range(12)]
        hull = hyperbolic_hull(pts)
        region = polygon_region(hull, samples_per_edge=64)
        for p in pts:
            assert region_contains(region, p)


class TestConvexityPredicate:
    def test_triangle(self):
        poly = GeodesicPolygon.from_polar([(1.0, 0.0), (1.2, 2.0), (0.8, 4.0)])
        assert is_hconvex(poly)

    def test_reflex_quad(self):
        # push one hull vertex inward past the opposite diagonal; the result
        # is a simple dart with one reflex vertex
        k = 0.6
        dart = GeodesicPolygon.from_points([
            from_klein_point(np.array([0.05, 0.0])),
            from_klein_point(np.array([0.0, -k])),
            from_klein_point(np.array([k, 0.0])),
            from_klein_point(np.array([0.0, k])),
        ])
        assert not is_hconvex(dart)
        region = polygon_region(dart, samples_per_edge=64)
        assert convexity_defect(region, 64, 16) > 1e-3

    def test_translation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            poly = random_hconvex_polygon(rng)
            c = rand_point(rng, 1.0)
            moved = GeodesicPolygon.from_points([translate(c, v) for v in poly.vertices])
            assert is_hconvex(poly) == is_hconvex(moved) == True  # noqa: E712

    def test_translation_invariance_nonconvex(self):
        k = 0.6
        dart = GeodesicPolygon.from_points([
            from_klein_point(np.array([0.05, 0.0])),
            from_klein_point(np.array([0.0, -k])),
            from_klein_point(np.array([k, 0.0])),
            from_klein_point(np.array([0.0, k])),
        ])
        c = DiskPoint.from_cart(0.25, -0.15)
        moved = GeodesicPolygon.from_points([translate(c, v) for v in dart.vertices])
        assert is_hconvex(dart) == is_hconvex(moved) == False  # noqa: E712

    def test_klein_equivalence(self):
        # convex in the hyperbolic sense iff the straight-edge projective
        # polygon is convex
        rng = np.random.default_rng(24)
        for _ in range(30):
            poly = random_hconvex_polygon(rng)
            k = poly.klein()
            n = len(k)
            e = np.roll(k, -1, axis=0) - k
            cross = np.array([
                e[i, 0] * (k[(i + 2) % n, 1] - k[i, 1]) - e[i, 1] * (k[(i + 2) % n, 0] - k[i, 0])
                for i in range(n)])
            assert np.all(cross >= -1e-12) == is_hconvex(poly)

    def test_validation_rejects_clockwise(self):
        with pytest.raises(ValueError):
            GeodesicPolygon.from_polar([(1.0, 0.0), (0.8, 4.0), (1.2, 2.0)])

    def test_validation_rejects_self_intersection(self):
        with pytest.raises(ValueError):
            GeodesicPolygon.from_polar([(1.0, 0.0), (1.0, 2.8), (1.0, 1.2), (1.0, 4.2)])


# --- reference copies of the per-vertex polygon layer, for bitwise comparison ---

def broadcast_contains(kverts, probes, tol=convexity.SIDEDNESS_TOL):
    """Half-plane membership through one (P, V, 2) broadcast."""
    e = np.roll(kverts, -1, axis=0) - kverts
    d = probes[:, None, :] - kverts[None, :, :]
    return np.all(e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0] >= -tol, axis=1)


def pairwise_edges_cross(k):
    """Edge self-intersection test, one pair of edges at a time."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    n = len(k)
    for i in range(n):
        a, b = k[i], k[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = k[j], k[(j + 1) % n]
            if ((orient(c, d, a) > 0) != (orient(c, d, b) > 0)) and \
                    ((orient(a, b, c) > 0) != (orient(a, b, d) > 0)):
                return True
    return False


def per_point_hconvex_polygon(rng, center):
    """random_hconvex_polygon with one translate and one to_klein call per point."""
    m = int(rng.integers(5, 13))
    sector = 2.0 * math.pi / m
    thetas = (np.arange(m) + rng.uniform(0.0, 1.0, m)) * sector - math.pi
    radii = rng.uniform(0.2, 3.0, m)
    pts = [DiskPoint.from_polar(r, th) for r, th in zip(radii, thetas)]
    if center.r > 0.0:
        pts = [translate(center, p) for p in pts]
    hull = numpy_row_hull(np.array([to_klein(p) for p in pts]))
    return [from_klein_point(q) for q in hull]


def numpy_row_hull(pts):
    """Monotone chain over numpy rows, the reference for _convex_hull_2d."""
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 1e-15, axis=1)
    pts = pts[keep]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


class TestBatchedPolygonLayer:
    def test_hull_matches_the_numpy_row_chain(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            pts = rng.uniform(-0.7, 0.7, (int(rng.integers(3, 13)), 2))
            pts[-1] = pts[0] + rng.choice([0.0, 1e-16, 1e-13])  # near and exact repeats
            pts[1] = 0.5 * (pts[0] + pts[2])  # a point (nearly) on a segment
            expected = numpy_row_hull(pts)
            if len(expected) < 3:
                continue
            assert np.array_equal(convexity._convex_hull_2d(pts), expected)

    def test_membership_matches_the_broadcast_form(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            k = random_hconvex_polygon(rng, center=rand_point(rng, 1.5)).klein()
            e = np.roll(k, -1, axis=0) - k
            t = rng.uniform(0.0, 1.0, (64, 1))
            idx = rng.integers(0, len(k), 64)
            probes = np.concatenate([
                rng.uniform(-1.0, 1.0, (3000, 2)),
                k,                                 # vertices
                k + 0.5 * e,                       # edge midpoints
                k[idx] + t * e[idx],               # other points on edges
                k[idx] + t * e[idx] + rng.choice([-1e-12, 1e-12], (64, 2)),
            ])
            inside = klein_polygon_contains(k, probes)
            assert inside.dtype == bool and inside.shape == (len(probes),)
            assert np.array_equal(inside, broadcast_contains(k, probes))
            assert np.all(inside[3000:3000 + 2 * len(k)])

    def test_membership_at_the_tolerance(self):
        # the first edge lies on y = 0, so a probe's cross product against it is its y
        k = np.array([[-0.5, 0.0], [0.5, 0.0], [0.5, 0.5], [-0.5, 0.5]])
        tol = convexity.SIDEDNESS_TOL
        y = np.array([-tol, np.nextafter(-tol, -1.0), 0.0, np.nextafter(-tol, 0.0)])
        probes = np.stack([np.full(4, 0.1), y], axis=1)
        inside = klein_polygon_contains(k, probes)
        assert inside.tolist() == [True, False, True, True]
        assert np.array_equal(inside, broadcast_contains(k, probes))

    def test_edge_crossing_matches_the_pairwise_loop(self):
        rng = np.random.default_rng(52)
        crossed = 0
        for _ in range(200):
            k = rng.uniform(-0.7, 0.7, (int(rng.integers(3, 13)), 2))
            expected = pairwise_edges_cross(k)
            assert convexity._edges_cross(k) == expected
            crossed += expected
        assert 0 < crossed < 200

    def test_bowtie_still_raises(self):
        # counterclockwise by signed area (unequal lobes), but two edges cross
        k = [(-0.6, -0.1), (-0.6, 0.1), (0.6, -0.5), (0.6, 0.5)]
        with pytest.raises(ValueError, match="self-intersect"):
            GeodesicPolygon.from_points([from_klein_point(np.array(q)) for q in k])

    def test_klein_vertices_match_per_vertex_conversion(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            poly = random_hconvex_polygon(rng, center=rand_point(rng, 1.5))
            assert np.array_equal(poly.klein(), np.array([to_klein(v) for v in poly.vertices]))

    def test_klein_vertices_are_read_only(self):
        poly = GeodesicPolygon.from_polar([(1.0, 0.0), (1.2, 2.0), (0.8, 4.0)])
        with pytest.raises(ValueError):
            poly.klein()[0, 0] = 0.0
        assert poly == GeodesicPolygon.from_polar(poly.polar())

    def test_generator_matches_per_point_translation(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            center = rand_point(rng, 1.5) if seed % 4 else ORIGIN
            state = rng.bit_generator.state
            poly = random_hconvex_polygon(rng, center=center)
            rng.bit_generator.state = state
            expected = per_point_hconvex_polygon(rng, center)
            assert [v.cart for v in poly.vertices] == [v.cart for v in expected]

    def test_row_translation_matches_per_point_translation(self):
        rng = np.random.default_rng(54)
        for _ in range(200):
            c = rand_point(rng, 3.0)
            pts = [rand_point(rng, 3.0) for _ in range(int(rng.integers(3, 13)))]
            rows = convexity._translate_rows(c.xy, np.array([p.cart for p in pts]))
            assert rows.tolist() == [list(translate(c, p).cart) for p in pts]

class TestRegionMembership:
    def test_disk_center_inside_circle_region(self):
        thetas = np.linspace(-math.pi, math.pi, 129)
        xy = polar_to_cart(np.full_like(thetas, 1.2), thetas)
        region = SampledRegion(np.vstack([xy, xy[:1]]))
        assert region_contains(region, ORIGIN)

    def test_far_point_outside(self):
        thetas = np.linspace(-math.pi, math.pi, 129)
        xy = polar_to_cart(np.full_like(thetas, 1.2), thetas)
        region = SampledRegion(np.vstack([xy, xy[:1]]))
        assert not region_contains(region, DiskPoint.from_polar(2.5, 0.3))

    def test_agrees_with_half_plane_membership(self):
        rng = np.random.default_rng(25)
        poly = random_hconvex_polygon(rng)
        region = polygon_region(poly, samples_per_edge=128)
        checked = 0
        disagreements = 0
        while checked < 1000:
            p = rand_point(rng, 3.4)
            # the sampled loop resolves the true boundary to its sagitta;
            # probes inside that band are not decidable by either route
            if float(polyline_distance(region.boundary, p.xy[None, :])[0]) < 1e-3:
                continue
            checked += 1
            if region_contains(region, p) != poly.contains(p):
                disagreements += 1
        assert disagreements == 0


def broadcast_distance(loop, probes):
    """The P x N broadcast formula polyline_distance was written from."""
    a, b = loop[:-1], loop[1:]
    e = b - a
    ee = np.sum(e * e, axis=1)
    ee = np.where(ee < 1e-300, 1.0, ee)
    d = probes[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(d * e[None, :, :], axis=2) / ee[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * e[None, :, :]
    return np.min(np.hypot(probes[:, None, 0] - proj[:, :, 0],
                           probes[:, None, 1] - proj[:, :, 1]), axis=1)


def circle_loop(n, radius=0.5, gap=0.0):
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    xy = radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return np.vstack([xy, xy[:1] + [0.0, gap]])


def near_and_far_probes(loop, rng):
    """Probes on the vertices, jittered off them at several scales, and far out."""
    verts = loop[:-1]
    jitter = [verts + rng.normal(scale=s, size=verts.shape) for s in (1e-9, 1e-4, 1e-2, 0.1)]
    far = 40.0 * rng.normal(size=(32, 2))
    return np.vstack([verts] + jitter + [far])


class TestPolylineDistance:
    """max_polyline_distance returns exactly the all-pairs maximum, bit for bit."""

    @pytest.fixture
    def exact_rows(self, monkeypatch):
        """Probe rows max_polyline_distance checks against every segment."""
        rows = []

        def counting(loop, probes):
            rows.append(len(probes))
            return polyline_distance(loop, probes)

        monkeypatch.setattr(convexity, "polyline_distance", counting)
        return rows

    @staticmethod
    def assert_exact(loop, probes):
        probes = np.atleast_2d(probes)
        ref = broadcast_distance(loop, probes)
        assert np.array_equal(polyline_distance(loop, probes), ref)
        got = max_polyline_distance(loop, probes)
        assert type(got) is float and got == float(np.max(ref))

    def test_search_probes(self, monkeypatch, exact_rows):
        calls = []

        def recording(loop, probes):
            calls.append((loop, probes))
            return max_polyline_distance(loop, probes)

        monkeypatch.setattr(convexity, "max_polyline_distance", recording)
        for seed, k1 in [(0, 0.25), (3, 0.6)]:
            assert run_search_counterexample(seed=seed, k1=k1, trials=50)["found"]
        assert len(calls) >= 4
        # the bounds settle most probes without checking every segment
        assert sum(exact_rows) < sum(len(p) for _, p in calls)
        for loop, probes in calls:
            self.assert_exact(loop, probes)

    def test_dilated_regions(self):
        rng = np.random.default_rng(41)
        for i in range(4):
            center = rand_point(rng, 1.5)
            poly = random_hconvex_polygon(rng, center=center)
            params = DilationParams(center, rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
            region = dilate_region(poly, params)
            self.assert_exact(region.boundary, near_and_far_probes(region.boundary, rng))
            thin = dilate_region(_directed_thin_polygon(rng),
                                 origin_params(rng.uniform(0.25, 0.97), 1.0))
            self.assert_exact(thin.boundary, near_and_far_probes(thin.boundary, rng))

    def test_one_long_segment(self):
        # an arc of short segments closed by one long chord
        thetas = np.linspace(0.0, 1.5 * math.pi, 200)
        arc = 0.5 * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        loop = np.vstack([arc, arc[:1]])
        self.assert_exact(loop, near_and_far_probes(loop, np.random.default_rng(42)))

    def test_nearest_segment_touches_only_far_vertices_at_one_end(self):
        # a hairpin: a strand of 0.1-long segments on y = 0 and, 0.07 above it,
        # a strand of 0.001-long ones.  A probe on the sparse strand more than
        # 0.07 from its strand's bounding vertices (x = 0, 0.4, 0.8) is bounded
        # through the dense strand: its bound is about 0.07, its distance 0.
        sparse = np.stack([np.linspace(0.0, 1.0, 11), np.zeros(11)], axis=1)
        dense = np.stack([np.linspace(1.0, 0.0, 1001), np.full(1001, 0.07)], axis=1)
        loop = np.vstack([sparse, dense, sparse[:1]])
        xs = np.linspace(0.0, 1.0, 201)
        probes = np.stack([xs, np.zeros_like(xs)], axis=1)
        self.assert_exact(loop, probes)
        assert max_polyline_distance(loop, probes) < 1e-15

    def test_wide_closure_gap(self):
        # the probe is the loop's last point, 0.05 from the first vertex; only
        # the last segment, across the gap, passes through it
        strand = np.stack([0.0048 * (np.arange(8, -10, -1) + 0.5), np.full(18, 0.01)], axis=1)
        loop = np.vstack([[[0.05, 0.0], [0.05, 0.01]], strand,
                          [[-0.05, 0.01], [-0.05, 0.0], [0.0, 0.0]]])
        self.assert_exact(loop, loop[-1:])
        assert max_polyline_distance(loop, loop[-1:]) == 0.0

    def test_zero_length_segments(self):
        loop = circle_loop(120)
        loop = np.insert(loop, [5, 5, 40, 90], loop[[5, 5, 40, 90]], axis=0)
        self.assert_exact(loop, near_and_far_probes(loop, np.random.default_rng(43)))

    def test_closure_gap(self):
        loop = circle_loop(120, gap=1e-12)
        probes = np.vstack([near_and_far_probes(loop, np.random.default_rng(44)), loop[-1]])
        self.assert_exact(loop, probes)

    def test_short_loop(self):
        # fewer segments than BOUND_STRIDE: one bounding vertex
        loop = circle_loop(3)
        self.assert_exact(loop, near_and_far_probes(loop, np.random.default_rng(45)))

    def test_non_finite_probes_take_the_dense_path(self):
        loop = circle_loop(100)
        probes = np.array([[np.nan, 0.0], [0.1, 0.1]])
        assert math.isnan(max_polyline_distance(loop, probes))
        assert math.isnan(float(np.max(broadcast_distance(loop, probes))))

    def test_single_probe(self):
        loop = circle_loop(100)
        got = polyline_distance(loop, np.array([0.1, 0.2]))
        assert got.shape == (1,)
        self.assert_exact(loop, np.array([0.1, 0.2]))

    def test_search_and_replay_do_not_import_scipy(self, tmp_path):
        path = tmp_path / "witness.json"
        script = (
            "import json, sys\n"
            "from hypexpand.cli import run_replay, run_search_counterexample\n"
            "report = run_search_counterexample(seed=0, k1=0.25, trials=3)\n"
            f"open({str(path)!r}, 'w').write(json.dumps(report))\n"
            f"assert report['found'] and run_replay({str(path)!r})['passed']\n"
            "print('scipy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(convexity.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout == "False\n"


class TestDefect:
    def test_polygon_region_is_convex(self):
        rng = np.random.default_rng(26)
        poly = random_hconvex_polygon(rng)
        region = polygon_region(poly, samples_per_edge=64)
        assert convexity_defect(region) < 1e-9

    def test_crescent_defect(self):
        thetas = np.linspace(-math.pi, math.pi, 257)[:-1]
        r = np.full_like(thetas, 1.5)
        dent = np.abs(thetas) < 0.8
        r[dent] -= 0.5 * np.cos(thetas[dent] * math.pi / 1.6) ** 2
        xy = polar_to_cart(r, thetas)
        region = SampledRegion(np.vstack([xy, xy[:1]]), provenance={"kind": "boundary"})
        region.check_simple()
        assert convexity_defect(region, 256, 16) > 1e-3

    def test_winding_path_matches_the_near_boundary_rule(self, monkeypatch):
        # without exact membership a probe is inside when the loop winds
        # around it or it lies within ON_BOUNDARY_TOL of the loop.  The
        # crescent's defect is above that tolerance; the polygon's probes
        # that the loop does not wind around all lie within it.
        probes = []

        def recording(loop, xy):
            probes.append(xy)
            return winding_contains(loop, xy)

        monkeypatch.setattr(convexity, "winding_contains", recording)
        thetas = np.linspace(-math.pi, math.pi, 257)[:-1]
        r = np.full_like(thetas, 1.5)
        dent = np.abs(thetas) < 0.8
        r[dent] -= 0.5 * np.cos(thetas[dent] * math.pi / 1.6) ** 2
        xy = polar_to_cart(r, thetas)
        crescent = np.vstack([xy, xy[:1]])
        polygon = polygon_region(random_hconvex_polygon(np.random.default_rng(26))).boundary
        for loop in (crescent, polygon):
            probes.clear()
            got = convexity_defect(SampledRegion(loop, provenance={"kind": "boundary"}))
            (xy,) = probes
            dist = polyline_distance(loop, xy)
            inside = winding_contains(loop, xy) | (dist < convexity.ON_BOUNDARY_TOL)
            assert got == (0.0 if np.all(inside) else float(np.max(dist[~inside])))

    def test_expansion_image_is_convex(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            c = rand_point(rng, 1.2)
            poly = random_hconvex_polygon(rng, center=c)
            params = DilationParams(c, rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
            region = dilate_region(poly, params)
            assert convexity_defect(region) < 1e-6

    def test_monotone_under_refinement(self):
        thetas = np.linspace(-math.pi, math.pi, 257)[:-1]
        r = np.full_like(thetas, 1.5)
        dent = np.abs(thetas) < 0.8
        r[dent] -= 0.5 * np.cos(thetas[dent] * math.pi / 1.6) ** 2
        xy = polar_to_cart(r, thetas)
        region = SampledRegion(np.vstack([xy, xy[:1]]), provenance={"kind": "boundary"})
        d1 = convexity_defect(region, 32, 16)
        d2 = convexity_defect(region, 64, 16)
        d3 = convexity_defect(region, 64, 32)
        assert d2 >= d1
        assert d3 >= d2

    def test_chord_pairs_match_the_list_form(self):
        for per_edge, n_fallback, vertex_indices in [
            (32, 12, [0, 32, 64, 96, 128]),
            (None, 12, [0, 14, 28, 43, 57, 72, 86, 101, 115, 130, 144, 159]),
            (None, 10, [0, 17, 35, 53, 70, 88, 106, 123, 141, 159]),
        ]:
            ref = [(a, b) for k, a in enumerate(vertex_indices) for b in vertex_indices[k + 1:]]
            ref += [(int(a), int(b)) for a, b in
                    np.random.default_rng(1905).integers(0, 160, size=(64, 2)) if a != b]
            pairs = convexity._chord_pairs(160, 64, per_edge, n_fallback)
            assert pairs.dtype.kind == "i" and pairs.tolist() == [list(p) for p in ref]
            assert not pairs.flags.writeable
            assert np.array_equal(convexity._chord_pairs(160, 64, per_edge, n_fallback), pairs)

    def test_counts_validated(self):
        rng = np.random.default_rng(28)
        region = polygon_region(random_hconvex_polygon(rng))
        with pytest.raises(ValueError):
            convexity_defect(region, 8, 16)


def rebuilt_oracle(region):
    """Membership oracle rebuilt from provenance on every call, as measurement once did it."""
    prov = region.provenance
    if prov.get("kind") not in ("polygon", "dilated-polygon"):
        return None
    poly = GeodesicPolygon.from_polar(prov["vertices_polar"])
    if not is_hconvex(poly):
        return None
    if prov["kind"] == "polygon":
        inv_k1 = inv_k2 = 1.0
        center = np.zeros(2)
    else:
        inv_k1, inv_k2 = 1.0 / prov["k1"], 1.0 / prov["k2"]
        center = np.asarray(prov["center_cart"], dtype=float)
    centered_off = float(center @ center) > 0.0
    verts = poly.klein() if not centered_off else to_klein(
        convexity._translate_rows(-center, np.array([v.cart for v in poly.vertices])))

    def contains(r, th):
        if centered_off:
            xy = mobius_translate(-center, polar_to_cart(r, th))
            r, th = cart_to_polar(xy)
        r2, th2 = dilate_origin_polar(inv_k1, inv_k2, r, th)
        q = to_klein(polar_to_cart(r2, th2))
        return klein_polygon_contains(verts, q)

    return contains


class TestCarriedPolygon:
    def test_a_region_without_its_polygon_is_measured_by_winding_number(self, monkeypatch):
        calls = []

        def recording(loop, xy):
            calls.append(len(xy))
            return winding_contains(loop, xy)

        monkeypatch.setattr(convexity, "winding_contains", recording)
        dart = GeodesicPolygon.from_points([from_klein_point(np.array(q)) for q in
                                            ([0.05, 0.0], [0.0, -0.6], [0.6, 0.0], [0.0, 0.6])])
        region = polygon_region(dart)
        assert region.polygon is dart and not is_hconvex(dart)
        pts = hyperboloid_lift(*cart_to_polar(region.boundary))
        assert convexity._exact_membership(region, pts) is None  # the dart is not h-convex
        bare = dataclasses.replace(region, polygon=None)
        assert convexity._exact_membership(bare, pts) is None
        assert convexity_defect(bare) == convexity_defect(region) > 0.0
        assert len(calls) == 2
        center = DiskPoint.from_polar(0.7, 1.0)
        poly = random_hconvex_polygon(np.random.default_rng(36), center=center)
        dilated = dilate_region(poly, DilationParams(center, 0.4, 1.3))
        assert dilated.polygon is poly
        pts = hyperboloid_lift(*cart_to_polar(dilated.boundary))
        assert convexity._exact_membership(dilated, pts) is not None
        calls.clear()
        convexity_defect(dilated)
        assert calls == []
        bare = dataclasses.replace(dilated, polygon=None)
        assert convexity._exact_membership(bare, pts) is None
        convexity_defect(bare)
        assert len(calls) == 1

    @staticmethod
    def cli_defects(monkeypatch, run, rebuilt):
        """Every defect a CLI run measures, through the carried or the rebuilt polygon."""
        def rebuilt_membership(region, pts):
            oracle = rebuilt_oracle(region)
            return None if oracle is None else oracle(*hyperboloid_polar(pts))

        if rebuilt:
            monkeypatch.setattr(convexity, "_exact_membership", rebuilt_membership)
        defects = []

        def recording(*args):
            defects.append(convexity_defect(*args))
            return defects[-1]

        monkeypatch.setattr(cli, "convexity_defect", recording)
        run()
        monkeypatch.undo()
        return defects

    @pytest.mark.parametrize("run", [
        lambda: cli.run_verify_theorem(seed=0, trials=100),
        lambda: cli.run_verify_theorem(seed=1, trials=50, k1=1.0, k2=1.0),
        lambda: cli.run_search_counterexample(seed=0, k1=0.25),  # a witness and its 4x recheck
        # a threshold no defect reaches, so that every trial of the budget is measured
        lambda: cli.run_search_counterexample(seed=0, k1=0.25, trials=100, tol=10.0),
        lambda: cli.run_search_counterexample(seed=1, k1=0.6, trials=100, tol=10.0),
        lambda: cli.run_search_counterexample(seed=2, k1=0.97, trials=100, tol=10.0),
    ], ids=["theorem", "theorem-identity", "search-witness", "search-0.25", "search-0.6",
            "search-0.97"])
    def test_carried_and_rebuilt_polygons_measure_the_same_defects(self, monkeypatch, run):
        carried = self.cli_defects(monkeypatch, run, rebuilt=False)
        rebuilt = self.cli_defects(monkeypatch, run, rebuilt=True)
        assert len(carried) >= 2
        assert carried == rebuilt


def centered_klein_vertices(poly, center):
    """Klein vertices of the polygon translated by -center."""
    if center.r == 0.0:
        return poly.klein()
    return to_klein(convexity._translate_rows(-center.xy,
                                              np.array([v.cart for v in poly.vertices])))


def exact_margin(region, p):
    """mp_margin of the exact Klein preimage of the hyperboloid probe p (3,).

    The probe and the polygon's vertices are carried to the center by the disk
    translation in the Poincare chart, at 50 digits, not by the boost under test.
    """
    prov = region.provenance
    cx, cy = (-mp.mpf(c) for c in prov.get("center_cart", (0.0, 0.0)))
    cc = cx * cx + cy * cy

    def centered(x, y):
        dot, nx = cx * x + cy * y, x * x + y * y
        den = 1 + 2 * dot + cc * nx
        return (((1 + 2 * dot + nx) * cx + (1 - cc) * x) / den,
                ((1 + 2 * dot + nx) * cy + (1 - cc) * y) / den)

    with mp.workdps(50):
        x, y, z = (mp.mpf(float(a)) for a in p)
        x, y = centered(x / (1 + z), y / (1 + z))
        u, v = mp_dilate_chart(1 / mp.mpf(prov.get("k1", 1.0)), 1 / mp.mpf(prov.get("k2", 1.0)),
                               x, y, 2 * mp.atanh(mp.hypot(x, y)), mp.tanh)
        verts = [centered(mp.mpf(a), mp.mpf(b)) for a, b in (q.cart for q in region.polygon.vertices)]
        return mp_margin([(2 * a / (1 + a * a + b * b), 2 * b / (1 + a * a + b * b))
                          for a, b in verts], u, v)


class TestProjectiveMembership:
    """Exact membership from the probes' 3-vectors against the polar round trip it replaced."""

    def test_matches_the_polar_round_trip(self):
        rng = np.random.default_rng(37)
        flips = 0
        for trial in range(40):
            center = ORIGIN if trial % 4 == 0 else rand_point(rng, 1.5)
            poly = random_hconvex_polygon(rng, center=center)
            k1, k2 = rng.uniform(0.25, 4.0, 2)
            region = dilate_region(poly, DilationParams(center, k1, k2))
            # probes in the preimage's centered Klein chart, mapped forward
            pre = from_klein(edge_probes(rng, centered_klein_vertices(poly, center), spread=0.7))
            img = dilate_xy(origin_params(k1, k2), pre)
            if center.r > 0.0:
                img = mobius_translate(center.xy, img)
            pts = np.vstack([hyperboloid_lift(*cart_to_polar(img)),
                             hyperboloid_lift(center.r, center.theta)])  # the center itself
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                inside = convexity._exact_membership(region, pts)
            assert inside.dtype == bool and inside.shape == (len(pts),) and inside[-1]
            old = rebuilt_oracle(region)(*hyperboloid_polar(pts))
            # the two arithmetics differ by rounding: they agree on every probe
            # whose exact margin is more than 1e-15 from the tolerance, and on
            # all but a few of the 1e-12-off-edge probes inside that band
            for k in np.nonzero(inside != old)[0]:
                assert abs(exact_margin(region, pts[k]) + SIDEDNESS_TOL) < 1e-15
            flips += np.count_nonzero(inside != old)
            assert 0 < np.count_nonzero(inside) < len(pts)
        assert flips <= 5  # of 29,662 probes

    def test_convexity_is_computed_once_per_polygon(self, monkeypatch):
        calls = []

        def recording(poly, tol=SIDEDNESS_TOL):
            calls.append(tol)
            return is_hconvex(poly, tol)

        monkeypatch.setattr(convexity, "is_hconvex", recording)
        center = DiskPoint.from_polar(0.7, 1.0)
        poly = random_hconvex_polygon(np.random.default_rng(38), center=center)
        for k1 in (0.5, 2.0, 3.0):
            convexity_defect(dilate_region(poly, DilationParams(center, k1, 1.5)))
        assert calls == [SIDEDNESS_TOL] and poly.hconvex is True
        with pytest.raises(dataclasses.FrozenInstanceError):
            poly.hconvex = False


class TestDilateRegion:
    def test_identity_keeps_vertices(self):
        rng = np.random.default_rng(29)
        poly = random_hconvex_polygon(rng)
        region = dilate_region(poly, origin_params(1.0, 1.0), samples_per_edge=32)
        assert convexity_defect(region) < 1e-9
        for i, v in enumerate(poly.vertices):
            assert np.max(np.abs(region.boundary[i * 32] - v.xy)) < 1e-12

    def test_symmetric_expansion_convex(self):
        rng = np.random.default_rng(30)
        poly = random_hconvex_polygon(rng)
        region = dilate_region(poly, origin_params(2.0, 2.0))
        assert convexity_defect(region) < 1e-6

    def test_asymmetric_expansion_about_interior_center(self):
        rng = np.random.default_rng(31)
        c = DiskPoint.from_polar(0.9, 0.4)
        poly = random_hconvex_polygon(rng, center=c)
        region = dilate_region(poly, DilationParams(c, 2.0, 1.0))
        assert convexity_defect(region) < 1e-6
        region.check_simple()


class TestSampledRegionValidation:
    def test_requires_closure(self):
        thetas = np.linspace(-math.pi, math.pi, 129)
        xy = polar_to_cart(np.full_like(thetas, 1.0), thetas)
        with pytest.raises(ValueError):
            SampledRegion(xy[:-1])

    def test_requires_minimum_samples(self):
        thetas = np.linspace(-math.pi, math.pi, 33)
        xy = polar_to_cart(np.full_like(thetas, 1.0), thetas)
        with pytest.raises(ValueError):
            SampledRegion(np.vstack([xy, xy[:1]]))

    def test_simplicity_check_catches_crossing(self):
        t = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        # figure-eight: crosses itself at the origin
        xy = 0.4 * np.stack([np.sin(2.0 * t), np.sin(t)], axis=-1)
        loop = np.vstack([xy, xy[:1]])
        region = SampledRegion(loop)
        with pytest.raises(ValueError):
            region.check_simple()


class TestGenerator:
    def test_center_is_interior(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            c = rand_point(rng, 1.5)
            poly = random_hconvex_polygon(rng, center=c)
            assert poly.contains(c)
            assert is_hconvex(poly)
            assert 3 <= len(poly.vertices) <= 12


class TestSerialization:
    def test_region_roundtrip(self):
        rng = np.random.default_rng(33)
        poly = random_hconvex_polygon(rng)
        region = dilate_region(poly, origin_params(1.5, 1.0))
        doc = region_to_json(region)
        parsed = json.loads(doc)
        assert set(parsed.keys()) == {"boundary", "provenance"}
        back = region_from_json(doc)
        assert np.max(np.abs(back.boundary - region.boundary)) == 0.0
        assert back.provenance == region.provenance

    def test_loaded_region_carries_its_polygon(self, monkeypatch):
        poly = _directed_thin_polygon(np.random.default_rng(37))
        region = dilate_region(poly, origin_params(0.25, 1.0))
        back = region_from_json(region_to_json(region))
        assert back.polygon is not None
        rebuilt = GeodesicPolygon.from_polar(poly.polar())
        assert np.array_equal(back.polygon.klein(), rebuilt.klein())
        defect = convexity_defect(region)
        assert defect > 1e-3

        def refused(loop, xy):
            raise AssertionError("measured by winding number")

        monkeypatch.setattr(convexity, "winding_contains", refused)
        assert convexity_defect(back) == defect
        plain = SampledRegion(region.boundary, provenance={"kind": "boundary"})
        assert region_from_json(region_to_json(plain)).polygon is None

    def test_polygon_roundtrip(self):
        rng = np.random.default_rng(34)
        poly = random_hconvex_polygon(rng)
        back = polygon_from_json(polygon_to_json(poly))
        a = np.array([v.xy for v in poly.vertices])
        b = np.array([v.xy for v in back.vertices])
        assert np.max(np.abs(a - b)) < 1e-15
