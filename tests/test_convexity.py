import dataclasses
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import (check_simple, edge_probes, hconvex_polygon, mp_dilate_chart, mp_margin,
                      region_contains, stacked_membership_h2)
from hypexpand import cli, convexity, dilation, disk, sphere
from hypexpand.cli import _directed_thin_polygon, run_search_counterexample
from hypexpand.convexity import (
    SIDEDNESS_TOL,
    GeodesicPolygon,
    SampledRegion,
    convexity_defect,
    dilate_region,
    hyperbolic_hull,
    klein_polygon_contains,
    max_polyline_distance,
    polyline_distance,
    random_hconvex_polygon,
)
from hypexpand.dilation import DilationParams, dilate_origin_polar, dilate_xy
from hypexpand.disk import (ChartSaturation, geodesic_chord_points, hyperboloid_cart,
                            hyperboloid_lift, hyperboloid_polar, mobius_translate, polar_to_cart)
from references import (ZERO, cart_mobius_translate, cart_point, cart_to_polar, from_klein,
                        klein_sheet, per_trial_dilate_region, per_trial_hconvex_polygon,
                        polar_point, to_klein)

# the dilation whose region is the polygon's own sampled boundary
IDENTITY = DilationParams(ZERO.xy, 1.0, 1.0)


def sheets(points):
    """Hyperboloid rows (m, 3) of points, the input of hyperbolic_hull."""
    return np.array([p.sheet for p in points])


def rand_point(rng, r_max=3.0):
    return polar_point(rng.uniform(0.1, r_max), rng.uniform(-math.pi, math.pi))


def klein_polygon(kverts):
    """The polygon with Klein vertex rows kverts (V, 2)."""
    return GeodesicPolygon(klein_sheet(kverts))


def translated(c, sheet):
    """Hyperboloid rows (V, 3) moved, one at a time, by the boost carrying the apex to c."""
    return np.array([mobius_translate(c.xy, v) for v in sheet])


def poincare_translated(c, sheet):
    """Cartesian rows of hyperboloid rows (V, 3), moved one at a time by the Cartesian formula of
    the disk translation carrying 0 to c."""
    return np.array([cart_mobius_translate(c, p) for p in hyperboloid_cart(sheet)])


def contains(poly, p):
    """Half-plane membership of the point p in the h-convex polygon."""
    return bool(klein_polygon_contains(poly.klein, to_klein(p.xy))[0])


class TestKleinChart:
    def test_origin_fixed(self):
        assert np.allclose(to_klein(ZERO.xy), [0.0, 0.0])
        assert np.allclose(from_klein(np.zeros(2)), [0.0, 0.0])

    def test_axis_value(self):
        q = to_klein(cart_point(0.5, 0.0).xy)
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
        pts = [polar_point(1.0, a) for a in (0.0, 2.0, 4.0)]
        hull = hyperbolic_hull(sheets(pts))
        assert len(hull.sheet) == 3

    def test_interior_point_dropped(self):
        pts = [polar_point(1.5, a) for a in (0.3, 1.8, 3.3, 4.8)]
        pts.append(polar_point(0.05, 0.0))
        hull = hyperbolic_hull(sheets(pts))
        assert len(hull.sheet) == 4
        assert np.all(hull.sheet[:, 2] > math.cosh(0.1))

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pts = [rand_point(rng) for _ in range(10)]
            hull = hyperbolic_hull(sheets(pts))
            again = hyperbolic_hull(hull.sheet)
            assert len(again.sheet) == len(hull.sheet)
            a, b = hull.sheet, again.sheet
            # the same rows in the same cyclic order
            shift = int(np.argmin(np.sum((b - a[0]) ** 2, axis=1)))
            assert np.array_equal(np.roll(b, -shift, axis=0), a)

    def test_collinear_rejected(self):
        pts = [polar_point(r, 0.7) for r in (0.5, 1.0, 1.5)]
        with pytest.raises(ValueError):
            hyperbolic_hull(sheets(pts))

    def test_vertices_are_rows_of_the_input(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            pts = sheets([rand_point(rng) for _ in range(int(rng.integers(3, 13)))])
            try:
                hull = hyperbolic_hull(pts)
            except ValueError:
                continue
            rows = pts.tolist()
            assert all(v in rows for v in hull.sheet.tolist())
        poly = hconvex_polygon(rng, rand_point(rng, 1.5).xy)
        assert np.array_equal(hyperbolic_hull(poly.sheet).sheet, poly.sheet)

    def test_klein_rows_are_the_sheet_rows_divided(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            poly = hconvex_polygon(rng, rand_point(rng, 1.5).xy)
            assert np.array_equal(poly.klein, poly.sheet[:, :2] / poly.sheet[:, 2:])
            # the Klein row of the vertex's Poincare row, to rounding
            assert np.allclose(poly.klein, to_klein(hyperboloid_cart(poly.sheet)),
                               rtol=0.0, atol=1e-15)

    def test_contains_all_inputs(self):
        rng = np.random.default_rng(22)
        pts = [rand_point(rng) for _ in range(12)]
        hull = hyperbolic_hull(sheets(pts))
        loop = hyperboloid_cart(dilate_region(hull, IDENTITY, samples_per_edge=64).boundary)
        for p in pts:
            assert region_contains(loop, p)


class TestConvexityPredicate:
    def test_triangle(self):
        poly = GeodesicPolygon.from_polar([(1.0, 0.0), (1.2, 2.0), (0.8, 4.0)])
        assert poly.hconvex

    def test_reflex_quad(self):
        # push one hull vertex inward past the opposite diagonal; the result
        # is a simple dart with one reflex vertex
        k = 0.6
        dart = klein_polygon([[0.05, 0.0], [0.0, -k], [k, 0.0], [0.0, k]])
        assert not dart.hconvex
        # no region is built from it, so none is measured without exact membership
        with pytest.raises(ValueError, match="h-convex polygon"):
            dilate_region(dart, IDENTITY, samples_per_edge=64)
        with pytest.raises(ValueError, match="h-convex polygon"):
            dilate_region(dart, DilationParams(ZERO.xy, 0.25, 1.0))

    def test_translation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            poly = random_hconvex_polygon(rng)
            c = rand_point(rng, 1.0)
            moved = GeodesicPolygon(translated(c, poly.sheet))
            assert poly.hconvex == moved.hconvex == True  # noqa: E712

    def test_translation_invariance_nonconvex(self):
        k = 0.6
        dart = klein_polygon([[0.05, 0.0], [0.0, -k], [k, 0.0], [0.0, k]])
        c = cart_point(0.25, -0.15)
        moved = GeodesicPolygon(translated(c, dart.sheet))
        assert dart.hconvex == moved.hconvex == False  # noqa: E712

    def test_klein_equivalence(self):
        # convex in the hyperbolic sense iff the straight-edge projective
        # polygon is convex
        rng = np.random.default_rng(24)
        for _ in range(30):
            poly = random_hconvex_polygon(rng)
            k = poly.klein
            n = len(k)
            e = np.roll(k, -1, axis=0) - k
            cross = np.array([
                e[i, 0] * (k[(i + 2) % n, 1] - k[i, 1]) - e[i, 1] * (k[(i + 2) % n, 0] - k[i, 0])
                for i in range(n)])
            assert np.all(cross >= -1e-12) == poly.hconvex

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
    """Sheet rows of random_hconvex_polygon, with one lift, boost and Klein row per point."""
    m = int(rng.integers(5, 13))
    sector = 2.0 * math.pi / m
    thetas = (np.arange(m) + rng.uniform(0.0, 1.0, m)) * sector - math.pi
    radii = rng.uniform(0.2, 3.0, m)
    pts = np.array([hyperboloid_lift(r, th) for r, th in zip(radii, thetas)])
    if center.r > 0.0:
        pts = translated(center, pts)
    return pts[numpy_row_hull(np.array([v[:2] / v[2] for v in pts]))]


def numpy_row_hull(pts):
    """Monotone chain over numpy rows, the reference for _convex_hull_2d: the row indices of
    the hull's vertices."""
    pts = np.column_stack([pts, np.arange(len(pts))])  # each row carries its index
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts[:, :2], axis=0)) > 1e-15, axis=1)
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
    return np.array([int(p[2]) for p in lower[:-1] + upper[:-1]])


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
            k = hconvex_polygon(rng, rand_point(rng, 1.5).xy).klein
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

    @staticmethod
    def crossing_pool(rng, n):
        """Counterclockwise chart polygons (V, 2) of n vertices: strictly convex ones of both
        generators and on circles, one with a collinear vertex, random ones (some crossing),
        and at n = 6 a doubly traversed triangle, at n = 4 a bow-tie."""
        pool = [hconvex_polygon(rng, rand_point(rng, 1.5).xy).klein for _ in range(60)]
        pool += [p.uv for p in sphere.random_convex_spherical_polygon(
            [np.random.default_rng([52, i]) for i in range(60)])]
        pool = [k for k in pool if len(k) == n]
        for _ in range(10):
            th = np.sort(rng.uniform(-math.pi, math.pi, n))
            pool.append(0.5 * np.column_stack([np.cos(th), np.sin(th)]))
        th = np.sort(rng.uniform(-0.25 * math.pi, 1.25 * math.pi, n - 3))  # an exact bottom edge
        arc = math.sqrt(0.5) * np.column_stack([np.cos(th), np.sin(th)])
        pool.append(np.concatenate([[(-0.5, -0.5), (0.0, -0.5), (0.5, -0.5)], arc]))
        pool += [rng.uniform(-0.7, 0.7, (n, 2)) for _ in range(40)]
        tri = [(-0.3, -0.3), (0.0, -0.3), (-0.3, 0.0)]
        pool += {4: [np.array([(-0.6, -0.1), (-0.6, 0.1), (0.6, -0.5), (0.6, 0.5)])],
                 6: [np.array(tri + tri)]}.get(n, [])
        return [k for k in pool if convexity._klein_signed_area(k) > 0.0]

    def test_a_stack_raises_iff_some_polygon_has_crossing_edges(self, monkeypatch):
        # one crossing test covers a whole stack (..., V, 2), against the pairwise loop
        rng = np.random.default_rng(52)
        crossed = stacks = 0
        for n in range(4, 13):
            pool = self.crossing_pool(rng, n)
            cross = [pairwise_edges_cross(k) for k in pool]
            strict = [np.count_nonzero(convexity._vertex_margins(k) > 0) == n * (n - 2)
                      for k in pool]
            assert any(cross) and not all(cross) and any(strict)
            assert not any(c and s for c, s in zip(cross, strict))
            # stacks that mix a strictly convex polygon, the one with a collinear vertex (weakly
            # convex, no crossing), and the pool's last (at n = 4 the bow-tie, at 6 the doubly
            # traversed triangle) with a crossing one
            weak = [t for t, (c, s) in enumerate(zip(cross, strict)) if not (c or s)]
            picks = [[strict.index(True), weak[0], strict.index(True)],
                     [strict.index(True), weak[0], len(pool) - 1, cross.index(True)]]
            picks += [rng.choice(len(pool), size) for size in (1, 2, 3, 4, 6) for _ in range(30)]
            for pick in picks:
                stack = np.stack([pool[t] for t in pick])
                if len(pick) % 2 == 0:
                    stack = stack.reshape(2, len(pick) // 2, n, 2)
                if any(cross[t] for t in pick):
                    with pytest.raises(ValueError, match="self-intersect"):
                        convexity._check_polygon_chart(stack)
                    crossed += 1
                else:
                    flags = convexity._check_polygon_chart(stack)
                    assert flags.shape == stack.shape[:-2]
                    assert flags.ravel().tolist() == [
                        bool(convexity._check_polygon_chart(pool[t])) for t in pick]
                stacks += 1
        assert 0 < crossed < stacks
        # every hull is strictly convex and skips the crossing test, the only swapaxes call
        calls = []
        swapaxes = np.swapaxes
        monkeypatch.setattr(np, "swapaxes", lambda *a: calls.append(a) or swapaxes(*a))
        for _ in range(50):
            poly = hconvex_polygon(rng, rand_point(rng, 1.5).xy)
            assert poly.hconvex and GeodesicPolygon(poly.sheet).hconvex
            assert hyperbolic_hull(poly.sheet).hconvex
        for s in sphere.random_convex_spherical_polygon(
                [np.random.default_rng([79, i]) for i in range(50)]):
            moved = sphere.Chart((s.chart.n + 0.01) / np.linalg.norm(s.chart.n + 0.01))
            assert s.convex and sphere.SphericalPolygon(s.xyz, moved).convex
        assert calls == []
        # a doubly traversed triangle, weakly left of every edge, takes it on both surfaces
        tri = [(-0.3, -0.3), (0.0, -0.3), (-0.3, 0.0)]
        assert np.all(convexity._vertex_margins(np.array(tri + tri)) >= 0.0)
        with pytest.raises(ValueError, match="self-intersect"):
            klein_polygon(tri + tri)
        with pytest.raises(ValueError, match="self-intersect"):
            chart = sphere.Chart([0.0, 0.0, 1.0])
            sphere.SphericalPolygon(chart.from_polar(0.8, np.array([0.0, 2.1, 4.2] * 2)), chart)
        assert len(calls) == 2

    def test_bowtie_still_raises(self):
        # counterclockwise by signed area (unequal lobes), but two edges cross
        k = [(-0.6, -0.1), (-0.6, 0.1), (0.6, -0.5), (0.6, 0.5)]
        with pytest.raises(ValueError, match="self-intersect"):
            klein_polygon(k)
        # a polygon from outside, such as a witness, keeps the crossing test
        with pytest.raises(ValueError, match="self-intersect"):
            GeodesicPolygon.from_polar(np.column_stack(cart_to_polar(from_klein(np.array(k)))))

    def test_klein_vertices_match_per_vertex_conversion(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            poly = hconvex_polygon(rng, rand_point(rng, 1.5).xy)
            assert np.array_equal(poly.klein, np.array([v[:2] / v[2] for v in poly.sheet]))

    def test_klein_vertices_are_read_only(self):
        poly = GeodesicPolygon.from_polar([(1.0, 0.0), (1.2, 2.0), (0.8, 4.0)])
        for a in (poly.sheet, poly.klein):
            with pytest.raises(ValueError):
                a[0] = 0.0
        again = GeodesicPolygon(poly.sheet)
        for name in ("sheet", "klein"):
            assert np.array_equal(getattr(again, name), getattr(poly, name))
        # a witness stores the polar forms of the rows, which rebuild them to rounding
        replayed = GeodesicPolygon.from_polar(np.column_stack(hyperboloid_polar(poly.sheet)))
        assert np.allclose(replayed.sheet, poly.sheet, rtol=1e-14, atol=1e-15)

    def test_generator_matches_per_point_translation(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            center = rand_point(rng, 1.5) if seed % 4 else ZERO
            state = rng.bit_generator.state
            poly = hconvex_polygon(rng, center.xy) if seed % 4 else random_hconvex_polygon(rng)
            rng.bit_generator.state = state
            assert poly.sheet.tolist() == per_point_hconvex_polygon(rng, center).tolist()

    def test_row_translation_matches_per_point_translation(self):
        # the boost of a stack of sheet rows, against one call per row
        rng = np.random.default_rng(54)
        for _ in range(200):
            c = rand_point(rng, 3.0)
            pts = sheets([rand_point(rng, 3.0) for _ in range(int(rng.integers(3, 13)))])
            rows = mobius_translate(c.xy, pts)
            assert rows.tolist() == translated(c, pts).tolist()

class TestRegionMembership:
    """The winding-number oracle of the tests, on bare loops and against exact membership."""

    def test_disk_center_inside_circle_region(self):
        thetas = np.linspace(-math.pi, math.pi, 129)
        xy = polar_to_cart(np.full_like(thetas, 1.2), thetas)
        assert region_contains(np.vstack([xy, xy[:1]]), ZERO)

    def test_far_point_outside(self):
        thetas = np.linspace(-math.pi, math.pi, 129)
        xy = polar_to_cart(np.full_like(thetas, 1.2), thetas)
        assert not region_contains(np.vstack([xy, xy[:1]]), polar_point(2.5, 0.3))

    def test_agrees_with_half_plane_membership(self):
        rng = np.random.default_rng(25)
        poly = random_hconvex_polygon(rng)
        loop = hyperboloid_cart(dilate_region(poly, IDENTITY, samples_per_edge=128).boundary)
        checked = 0
        disagreements = 0
        while checked < 1000:
            p = rand_point(rng, 3.4)
            # the sampled loop resolves the true boundary to its sagitta;
            # probes inside that band are not decidable by either route
            if float(polyline_distance(loop, p.xy[None, :])[0]) < 1e-3:
                continue
            checked += 1
            if region_contains(loop, p) != contains(poly, p):
                disagreements += 1
        assert disagreements == 0


def broadcast_offsets(loop, probes):
    """The P x N offsets (dx, dy) from each probe to its nearest point on each segment, by the
    broadcast formula polyline_distance was written from."""
    a, b = loop[:-1], loop[1:]
    e = b - a
    ee = np.sum(e * e, axis=1)
    ee = np.where(ee < 1e-300, 1.0, ee)
    d = probes[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(d * e[None, :, :], axis=2) / ee[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * e[None, :, :]
    return probes[:, None, 0] - proj[:, :, 0], probes[:, None, 1] - proj[:, :, 1]


def broadcast_distance(loop, probes):
    """The P x N broadcast formula polyline_distance was written from, its minimum per probe."""
    dx, dy = broadcast_offsets(loop, probes)
    return np.min(np.sqrt(dx * dx + dy * dy), axis=1)


def mp_polyline_distance(loop, probe):
    """The 50-digit distance from the probe (2,) to the closed polyline, from its float inputs."""
    with mp.workdps(50):
        px, py = (mp.mpf(v) for v in probe.tolist())
        best = mp.inf
        for (ax, ay), (bx, by) in zip(loop[:-1].tolist(), loop[1:].tolist()):
            ex, ey = mp.mpf(bx) - ax, mp.mpf(by) - ay
            ee = ex * ex + ey * ey
            t = min(max(((px - ax) * ex + (py - ay) * ey) / ee, 0), 1) if ee else 0
            best = min(best, mp.hypot(px - ax - t * ex, py - ay - t * ey))
        return best


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


def opposite_ray_probes(loop):
    """Probes at the mean of the loop's starts, and on the ray opposite the x-axis from it, at
    y equal to the mean's (angle pi) and one ulp below it (angle -pi)."""
    mx, my = np.mean(loop[:-1, 0]), np.mean(loop[:-1, 1])
    x = mx - np.array([1e-3, 0.3, 0.5, 2.0])
    return np.vstack([[mx, my], np.stack([x, np.full_like(x, my)], axis=1),
                      np.stack([x, np.full_like(x, np.nextafter(my, -1.0))], axis=1)])


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

    def test_segment_distances_in_buffers_keep_the_bits(self):
        # _segment_distances forms its result in two preallocated arrays; the expression it
        # was written from allocates one per step and gives the same bits, for a P x N grid
        # (the exact chunks) and for P probes against one segment each (the bounds)
        def expression(px, py, ax, ay, ex, ey, ee):
            t = np.clip(((px - ax) * ex + (py - ay) * ey) / ee, 0.0, 1.0)
            dx, dy = px - (ax + t * ex), py - (ay + t * ey)
            return np.sqrt(dx * dx + dy * dy)

        rng = np.random.default_rng(314)
        loop = circle_loop(512, gap=1e-3)
        loop[::7] = loop[1::7][:len(loop[::7])]  # zero-length segments, whose ee is 1
        probes = near_and_far_probes(loop, rng)
        segments = convexity._loop_segments(loop)
        grid = (probes[:, 0, None], probes[:, 1, None], *segments)
        assert np.array_equal(convexity._segment_distances(*grid), expression(*grid))
        k = rng.integers(0, len(segments[0]), len(probes))
        pairs = (probes[:, 0], probes[:, 1], *(c.take(k) for c in segments))
        assert np.array_equal(convexity._segment_distances(*pairs), expression(*pairs))

    def test_search_probes(self, monkeypatch, exact_rows):
        calls = []

        def recording(loop, probes):
            calls.append((loop, probes))
            return max_polyline_distance(loop, probes)

        monkeypatch.setattr(convexity, "max_polyline_distance", recording)
        for seed, k1 in [(0, 0.25), (3, 0.6)]:
            assert run_search_counterexample(seed=seed, k1=k1, trials=50)["found"]
        assert len(calls) >= 4
        # the bounds settle all but a few probes without checking every segment
        assert sum(exact_rows) < 0.05 * sum(len(p) for _, p in calls)
        for loop, probes in calls:
            self.assert_exact(loop, probes)

    def test_accuracy_against_50_digits(self):
        # The distance is the norm sqrt(dx * dx + dy * dy) of the float offset (dx, dy) to the
        # nearest point of a segment, within 2 ulps of its 50-digit value.  The offset itself
        # rounds at the scale of the coordinates (the nearest point a + t e), so against the
        # 50-digit distance from the same float inputs the error is within 2 ulps of the
        # largest magnitude among the coordinates and the distance: relative to the distance
        # only where it is not far below the coordinates.  Squares underflow below about
        # 1.5e-154, where the norm loses its 2 ulps, far below any gate.
        rng = np.random.default_rng(49)
        region = dilate_region(random_hconvex_polygon(rng), IDENTITY, samples_per_edge=16)
        loop = hyperboloid_cart(region.boundary)
        verts = loop[:-1]
        for probes in (rng.uniform(-1.0, 1.0, size=(60, 2)),
                       verts[:60] + rng.normal(scale=1e-9, size=verts[:60].shape),
                       40.0 * rng.normal(size=(30, 2))):
            got = polyline_distance(loop, probes)
            dx, dy = broadcast_offsets(loop, probes)
            with mp.workdps(50):
                norm = [min(mp.hypot(x, y) for x, y in zip(rx, ry))
                        for rx, ry in zip(dx.tolist(), dy.tolist())]
            for g, n in zip(got.tolist(), norm):
                assert abs(g - n) <= 2 * math.ulp(g)
            top = float(np.max(np.abs(loop)))
            for p, g in zip(probes, got.tolist()):
                scale = max(top, float(np.max(np.abs(p))), g)
                assert abs(g - mp_polyline_distance(loop, p)) <= 2 * math.ulp(scale)

    def test_dilated_regions(self):
        rng = np.random.default_rng(41)
        for i in range(4):
            center = rand_point(rng, 1.5)
            poly = hconvex_polygon(rng, center.xy)
            params = DilationParams(center.xy, rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
            loop = hyperboloid_cart(dilate_region(poly, params).boundary)
            self.assert_exact(loop, near_and_far_probes(loop, rng))
            thin = dilate_region(_directed_thin_polygon(rng),
                                 DilationParams(ZERO.xy, rng.uniform(0.25, 0.97), 1.0))
            loop = hyperboloid_cart(thin.boundary)
            self.assert_exact(loop, near_and_far_probes(loop, rng))

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
        self.assert_exact(loop, opposite_ray_probes(loop))

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
        self.assert_exact(loop, opposite_ray_probes(loop))

    def test_many_probes(self):
        loop = circle_loop(700)
        probes = near_and_far_probes(loop, np.random.default_rng(47))
        assert len(probes) > 3072
        self.assert_exact(loop, probes)

    def test_short_loop(self):
        # three segments: every probe's two bounding segments share a vertex
        loop = circle_loop(3)
        self.assert_exact(loop, near_and_far_probes(loop, np.random.default_rng(45)))

    def test_loops_not_star_shaped_about_their_mean(self):
        # a C, whose mean lies in its hollow, and a spiral strip, whose mean lies
        # outside it: a probe's angle can bracket segments far from it, which
        # only loosens its bound
        t = np.linspace(0.3, 2.0 * math.pi - 0.3, 300)
        c = np.vstack([np.stack([np.cos(t), np.sin(t)], axis=1),
                       0.8 * np.stack([np.cos(t[::-1]), np.sin(t[::-1])], axis=1)])
        s = np.linspace(0.0, 3.0 * math.pi, 400)
        spiral = (0.1 + 0.05 * s)[:, None] * np.stack([np.cos(s), np.sin(s)], axis=1) + [0.3, 0.0]
        spiral = np.vstack([spiral, spiral[::-1] * 1.02])
        rng = np.random.default_rng(48)
        for loop in (np.vstack([c, c[:1]]), np.vstack([spiral, spiral[:1]])):
            self.assert_exact(loop, near_and_far_probes(loop, rng))
            self.assert_exact(loop, rng.uniform(-1.5, 1.5, size=(500, 2)))

    def test_farthest_probe_behind_looser_bounds(self):
        # a thin crescent, whose mean lies outside it: most probes 0.1 beyond
        # the outer arc are bounded through segments away from them, up to 2x
        # their distance.  The farthest probe, 0.1001 beyond the arc on the
        # bisector, is bounded tightly, below those; a bound that undershot a
        # probe's distance by 1% would drop it after the first chunk
        t = np.linspace(0.0, 0.5 * math.pi, 200)
        arc = np.stack([np.cos(t), np.sin(t)], axis=1)
        loop = np.vstack([arc, 0.995 * arc[::-1], arc[:1]])
        s = np.linspace(0.1, 0.5 * math.pi - 0.1, 3000)
        probes = np.vstack([1.1 * np.stack([np.cos(s), np.sin(s)], axis=1),
                            1.1001 * np.array([[math.cos(math.pi / 4), math.sin(math.pi / 4)]])])
        self.assert_exact(loop, probes)
        assert max_polyline_distance(loop, probes) == polyline_distance(loop, probes[-1:])[0]

    def test_probes_at_the_mean_and_opposite_it(self):
        # arctan2 gives 0 at the mean, and pi and (one ulp below the mean) -pi on
        # the ray opposite the x-axis, where the angle order wraps and an angle of
        # pi is past the last bin of the angle table
        loop = circle_loop(64) + [0.2, -0.1]
        probes = opposite_ray_probes(loop)
        mx, my = np.mean(loop[:-1, 0]), np.mean(loop[:-1, 1])
        angles = np.arctan2(probes[:, 1] - my, probes[:, 0] - mx)
        assert {0.0, math.pi, -math.pi} <= set(angles.tolist())
        self.assert_exact(loop, probes)
        self.assert_exact(np.vstack([loop[:-1][::-1], loop[:1]]), probes)  # clockwise

    def test_probes_opposite_a_mean_of_zero(self):
        # dyadic starts whose y's sum to exactly 0, two of them on the ray
        # opposite the x-axis (y = +0.0 at angle pi, y = -0.0 at -pi): probes
        # there with y = +0.0 and y = -0.0 are at angles pi and -pi
        verts = np.array([[1.0, 0.0], [0.75, 0.5], [0.0, 1.0], [-0.75, 0.5], [-1.0, 0.0],
                          [-1.0, -0.0], [-0.75, -0.5], [0.0, -1.0], [0.75, -0.5]])
        mx, my = np.mean(verts[:, 0]), np.mean(verts[:, 1])
        assert my == 0.0 and math.copysign(1.0, my) == 1.0
        x = np.array([-0.5, -1.0, -1.5, -3.0])
        probes = np.vstack([np.stack([x, np.full_like(x, y)], axis=1) for y in (0.0, -0.0)])
        angles = np.arctan2(probes[:, 1] - my, probes[:, 0] - mx)
        assert set(angles.tolist()) == {math.pi, -math.pi}
        for loop in (np.vstack([verts, verts[:1]]), np.vstack([verts[::-1], verts[-1:]])):
            self.assert_exact(loop, probes)
            self.assert_exact(loop, near_and_far_probes(loop, np.random.default_rng(50)))

    def test_starts_crowded_into_one_or_two_bins(self):
        # 500 starts within 1e-6 rad of one another on the unit circle and three
        # far ones: the mean lies about 0.006 from the crowd, whose angles about it
        # fall in one or two of the 8 * 503 bins, so most bins hold the same start
        rng = np.random.default_rng(51)
        t = np.concatenate([0.7 + np.linspace(0.0, 1e-6, 500), 0.7 + np.array([2.0, 3.5, 5.0])])
        loop = np.stack([np.cos(t), np.sin(t)], axis=1)
        loop = np.vstack([loop, loop[:1]])
        mx, my = np.mean(loop[:-1, 0]), np.mean(loop[:-1, 1])
        at = np.floor((np.arctan2(loop[:500, 1] - my, loop[:500, 0] - mx) + math.pi)
                      * (8 * 503 / (2.0 * math.pi)))
        assert len(set(at.tolist())) <= 2
        for probes in (near_and_far_probes(loop, rng), rng.uniform(-1.5, 1.5, size=(500, 2)),
                       opposite_ray_probes(loop)):
            self.assert_exact(loop, probes)

    def test_non_finite_probes_take_the_dense_path(self):
        loop = circle_loop(100)
        probes = np.array([[np.nan, 0.0], [0.1, 0.1]])
        assert math.isnan(max_polyline_distance(loop, probes))
        assert math.isnan(float(np.max(broadcast_distance(loop, probes))))

    def test_no_probes_raise_as_the_all_pairs_maximum_does(self):
        loop = circle_loop(100)
        for route in (lambda p: float(np.max(polyline_distance(loop, p))),
                      lambda p: max_polyline_distance(loop, p)):
            with pytest.raises(ValueError):
                route(np.empty((0, 2)))

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
        region = dilate_region(poly, IDENTITY, samples_per_edge=64)
        assert convexity_defect(region) < 1e-9

    def test_expansion_image_is_convex(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            c = rand_point(rng, 1.2)
            poly = hconvex_polygon(rng, c.xy)
            params = DilationParams(c.xy, rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
            region = dilate_region(poly, params)
            assert convexity_defect(region) < 1e-6

    def test_monotone_under_refinement(self):
        # a contraction image, which is not convex: more pairs and more samples
        # per chord extend the probe set, so the defect cannot fall
        region = dilate_region(_directed_thin_polygon(np.random.default_rng(37)),
                               DilationParams(ZERO.xy, 0.25, 1.0))
        d1 = convexity_defect(region, 32, 16)
        d2 = convexity_defect(region, 64, 16)
        d3 = convexity_defect(region, 64, 32)
        assert d1 > 1e-3
        assert d2 >= d1
        assert d3 >= d2

    def test_chord_ends_are_rows_of_the_boundary(self, monkeypatch):
        # the defect samples its chords between the stored sheet rows, bit for bit, and lifts
        # nothing: no polar round trip between the boundary and the chord sampler
        calls, lifts = [], []
        chords, lift = convexity.geodesic_chord_points, disk.hyperboloid_lift

        def recording(a, b, ts):
            calls.append((a, b))
            return chords(a, b, ts)

        def counting(r, theta):
            lifts.append(np.size(r))
            return lift(r, theta)

        rng = np.random.default_rng(34)
        for center, k1 in ((ZERO, 0.4), (rand_point(rng, 1.5), 2.5)):
            poly = hconvex_polygon(rng, center.xy)
            region = dilate_region(poly, DilationParams(center.xy, k1, 1.3))
            monkeypatch.setattr(convexity, "geodesic_chord_points", recording)
            for module in (convexity, disk, dilation):
                monkeypatch.setattr(module, "hyperboloid_lift", counting)
            convexity_defect(region)
            monkeypatch.undo()
            (a, b), = calls
            ends, i, j, _ = convexity._chord_plan(region, convexity.PAIR_SAMPLES,
                                                  convexity.SEGMENT_SAMPLES)
            assert np.array_equal(a, region.boundary[ends[i]])
            assert np.array_equal(b, region.boundary[ends[j]])
            assert lifts == []
            calls.clear()

    def test_chord_pairs_match_the_list_form(self):
        for per_edge, vertex_indices in [
            (32, [0, 32, 64, 96, 128]),
            (16, list(range(0, 160, 16))),
        ]:
            ref = [(a, b) for k, a in enumerate(vertex_indices) for b in vertex_indices[k + 1:]]
            ref += [(int(a), int(b)) for a, b in
                    np.random.default_rng(1905).integers(0, 160, size=(64, 2)) if a != b]
            ends, at = convexity._chord_pairs(160, 64, per_edge)
            # the pairs, as positions in the sorted distinct endpoints
            assert at.dtype.kind == "i" and ends[at].tolist() == [list(p) for p in ref]
            assert ends.tolist() == sorted({k for p in ref for k in p})
            assert not ends.flags.writeable and not at.flags.writeable
            again = convexity._chord_pairs(160, 64, per_edge)
            assert again[0] is ends and again[1] is at

    def test_chord_parameters_are_cached_and_read_only(self):
        ts = convexity.van_der_corput(16)
        assert ts is convexity.van_der_corput(16) and not ts.flags.writeable
        assert ts[:7].tolist() == [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]

    def test_counts_validated(self):
        rng = np.random.default_rng(28)
        poly = random_hconvex_polygon(rng)
        region = dilate_region(poly, IDENTITY)
        for counts in [(8, 16), (16, 0), (0, 16)]:
            with pytest.raises(ValueError, match="at least 16"):
                convexity_defect(region, *counts)
        for per_edge in (0, 1, 15):
            with pytest.raises(ValueError, match="samples_per_edge must be at least 16"):
                dilate_region(poly, DilationParams(ZERO.xy, 0.5, 1.0), samples_per_edge=per_edge)


def rebuilt_oracle(region):
    """Membership oracle rebuilt from the region's map on every call, as measurement once did it."""
    poly = GeodesicPolygon(region.polygon.sheet)
    inv_k1, inv_k2 = 1.0 / region.k1, 1.0 / region.k2
    center = region.center
    centered_off = float(center @ center) > 0.0
    verts = poly.klein if not centered_off else to_klein(poincare_translated(-center, poly.sheet))

    def contains(r, th):
        if centered_off:
            xy = cart_mobius_translate(-center, polar_to_cart(r, th))
            r, th = cart_to_polar(xy)
        r2, th2 = dilate_origin_polar(inv_k1, inv_k2, r, th)
        q = to_klein(polar_to_cart(r2, th2))
        return klein_polygon_contains(verts, q)

    return contains


class TestCarriedPolygon:
    def test_a_region_without_an_hconvex_polygon_is_refused(self):
        center = polar_point(0.7, 1.0)
        poly = hconvex_polygon(np.random.default_rng(36), center.xy)
        dilated = dilate_region(poly, DilationParams(center.xy, 0.4, 1.3))
        assert dilated.polygon is poly
        pts = dilated.boundary
        inside = convexity._exact_membership(dilated, pts)
        assert inside.dtype == bool and inside.shape == (len(pts),)
        with pytest.raises(ValueError, match="h-convex polygon"):
            dataclasses.replace(dilated, polygon=None)
        # a boundary alone, here a crescent, names no polygon
        thetas = np.linspace(-math.pi, math.pi, 257)[:-1]
        r = np.full_like(thetas, 1.5)
        dent = np.abs(thetas) < 0.8
        r[dent] -= 0.5 * np.cos(thetas[dent] * math.pi / 1.6) ** 2
        rows = hyperboloid_lift(r, thetas)
        with pytest.raises(ValueError, match="h-convex polygon"):
            SampledRegion(np.vstack([rows, rows[:1]]), None, 32, 1.0, 1.0, ZERO.xy)

    def test_a_region_without_its_map_is_refused_at_construction(self):
        # the map and the sampling are fields without defaults: a region that
        # names neither is not built, rather than measured as the bare polygon
        poly = _directed_thin_polygon(np.random.default_rng(37))
        img = dilate_region(poly, DilationParams(ZERO.xy, 0.25, 1.0))
        assert convexity_defect(img) > 1e-3
        with pytest.raises(TypeError):
            SampledRegion(img.boundary, {"samples_per_edge": 32}, poly)
        with pytest.raises(TypeError):
            SampledRegion(img.boundary, polygon=poly)

    @staticmethod
    def cli_defects(monkeypatch, run, rebuilt):
        """Every defect a CLI run measures, through the carried or the rebuilt polygon."""
        def rebuilt_membership(region, pts):
            return rebuilt_oracle(region)(*hyperboloid_polar(pts))

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
        return poly.klein
    return to_klein(poincare_translated(-center.xy, poly.sheet))


def exact_margin(region, p):
    """mp_margin of the exact Klein preimage of the hyperboloid probe p (3,).

    The probe and the polygon's vertices are carried to the center by the disk
    translation in the Poincare chart, at 50 digits, not by the boost under test.
    """
    cx, cy = (-mp.mpf(c) for c in region.center.tolist())
    cc = cx * cx + cy * cy

    def centered(x, y):
        dot, nx = cx * x + cy * y, x * x + y * y
        den = 1 + 2 * dot + cc * nx
        return (((1 + 2 * dot + nx) * cx + (1 - cc) * x) / den,
                ((1 + 2 * dot + nx) * cy + (1 - cc) * y) / den)

    with mp.workdps(50):
        x, y, z = (mp.mpf(float(a)) for a in p)
        x, y = centered(x / (1 + z), y / (1 + z))
        u, v = mp_dilate_chart(1 / mp.mpf(region.k1), 1 / mp.mpf(region.k2),
                               x, y, 2 * mp.atanh(mp.hypot(x, y)), mp.tanh)
        verts = [centered(mp.mpf(a) / (1 + mp.mpf(c)), mp.mpf(b) / (1 + mp.mpf(c)))
                 for a, b, c in region.polygon.sheet.tolist()]
        return mp_margin([(2 * a / (1 + a * a + b * b), 2 * b / (1 + a * a + b * b))
                          for a, b in verts], u, v)


class TestProjectiveMembership:
    """Exact membership from the probes' 3-vectors against the polar round trip it replaced."""

    def test_matches_the_polar_round_trip(self):
        rng = np.random.default_rng(37)
        flips = 0
        for trial in range(40):
            center = ZERO if trial % 4 == 0 else rand_point(rng, 1.5)
            poly = hconvex_polygon(rng, center.xy)
            k1, k2 = rng.uniform(0.25, 4.0, 2)
            region = dilate_region(poly, DilationParams(center.xy, k1, k2))
            # probes in the preimage's centered Klein chart, mapped forward
            pre = klein_sheet(edge_probes(rng, centered_klein_vertices(poly, center), spread=0.7))
            img = dilate_xy(DilationParams(ZERO.xy, k1, k2), pre)
            if center.r > 0.0:
                img = mobius_translate(center.xy, img)
            pts = np.vstack([img, hyperboloid_lift(center.r, center.theta)])  # the center itself
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                inside = convexity._exact_membership(region, pts)
            assert inside.dtype == bool and inside.shape == (len(pts),) and inside[-1]
            assert np.array_equal(inside, stacked_membership_h2(region, pts))
            old = rebuilt_oracle(region)(*hyperboloid_polar(pts))
            # the two arithmetics differ by rounding: they agree on every probe
            # whose exact margin is more than 1e-15 from the tolerance, and on
            # all but a few of the 1e-12-off-edge probes inside that band
            for k in np.nonzero(inside != old)[0]:
                assert abs(exact_margin(region, pts[k]) + SIDEDNESS_TOL) < 1e-15
            flips += np.count_nonzero(inside != old)
            assert 0 < np.count_nonzero(inside) < len(pts)
        assert flips <= 5  # of 29,662 probes

    def test_copy_free_probes_match_the_stacked_formula(self):
        # the component-major probes a defect measures, against the (P, 3) and (P, 2) stacks
        rng = np.random.default_rng(39)
        outside = 0
        for trial in range(24):
            center = ZERO if trial % 3 == 0 else rand_point(rng, 1.5)
            poly = (_directed_thin_polygon(rng) if trial % 3 == 0
                    else hconvex_polygon(rng, center.xy))
            k1, k2 = rng.uniform(0.25, 4.0, 2)
            region = dilate_region(poly, DilationParams(center.xy, k1, k2))
            ends, i, j, ts = convexity._chord_plan(region, 128, 16)
            ends = region.boundary[ends]
            probes = geodesic_chord_points(ends[i], ends[j], ts).reshape(-1, 3)
            inside = convexity._exact_membership(region, probes)
            assert np.array_equal(inside, stacked_membership_h2(region, probes))
            outside += np.count_nonzero(~inside)
        assert outside > 0

    def test_convexity_is_computed_once_per_polygon(self, monkeypatch):
        calls = []

        def recording(kverts):
            calls.append(kverts)
            return margins(kverts)

        margins = convexity._vertex_margins
        monkeypatch.setattr(convexity, "_vertex_margins", recording)
        center = polar_point(0.7, 1.0)
        poly = hconvex_polygon(np.random.default_rng(38), center.xy)
        for k1 in (0.5, 2.0, 3.0):
            convexity_defect(dilate_region(poly, DilationParams(center.xy, k1, 1.5)))
        # once, when the generator validated the polygon's group, on the rows it keeps
        assert len(calls) == 1 and np.shares_memory(calls[0], poly.klein) and poly.hconvex is True
        assert poly.hconvex == bool(np.all(margins(poly.klein) >= -SIDEDNESS_TOL))
        with pytest.raises(dataclasses.FrozenInstanceError):
            poly.hconvex = False


class TestDilateRegion:
    def test_identity_keeps_vertices(self):
        rng = np.random.default_rng(29)
        poly = random_hconvex_polygon(rng)
        region = dilate_region(poly, DilationParams(ZERO.xy, 1.0, 1.0), samples_per_edge=32)
        assert convexity_defect(region) < 1e-9
        loop = hyperboloid_cart(region.boundary)
        for i, xy in enumerate(hyperboloid_cart(poly.sheet)):
            assert np.max(np.abs(loop[i * 32] - xy)) < 1e-12

    def test_symmetric_expansion_convex(self):
        rng = np.random.default_rng(30)
        poly = random_hconvex_polygon(rng)
        region = dilate_region(poly, DilationParams(ZERO.xy, 2.0, 2.0))
        assert convexity_defect(region) < 1e-6

    def test_asymmetric_expansion_about_interior_center(self):
        rng = np.random.default_rng(31)
        c = polar_point(0.9, 0.4)
        poly = hconvex_polygon(rng, c.xy)
        region = dilate_region(poly, DilationParams(c.xy, 2.0, 1.0))
        assert convexity_defect(region) < 1e-6
        check_simple(hyperboloid_cart(region.boundary))

    def test_each_vertex_is_lifted_once(self, monkeypatch):
        # where the generator draws it: sampling takes the polygon's sheet rows
        rows, ends = [], []
        lift, chords = convexity.hyperboloid_lift, convexity.geodesic_chord_points

        def counting(r, theta):
            rows.append(np.size(r))
            return lift(r, theta)

        def recording(a, b, ts):
            ends.append(a)
            return chords(a, b, ts)

        # its home module too, so that a lift inside the chord sampler is counted
        for module in (convexity, disk):
            monkeypatch.setattr(module, "hyperboloid_lift", counting)
        monkeypatch.setattr(convexity, "geodesic_chord_points", recording)
        rng = np.random.default_rng(33)
        for center in (ZERO, polar_point(0.8, -1.1)):
            rows.clear()
            poly = hconvex_polygon(rng, center.xy)
            assert len(rows) == 1 and rows[0] >= len(poly.sheet)
            rows.clear()
            ends.clear()
            dilate_region(poly, DilationParams(center.xy, 2.0, 0.5))
            assert rows == [] and np.array_equal(ends[0], poly.sheet)


class TestRegionBlocks:
    """dilate_regions against building each region alone (references.per_trial_dilate_region)."""

    # regions that fail one check each: their factors (r' ~ 100 about a center near the
    # origin), their own boundary (vertices at r = 40), and the boundary and the factors both
    FINE = (GeodesicPolygon.from_polar([(1.0, 0.0), (1.2, 2.0), (0.8, 4.0)]),
            DilationParams((0.2, -0.1), 2.0, 1.5))
    FACTORS = (GeodesicPolygon.from_polar([(2.5, 0.0), (2.5, 2.1), (2.5, -2.1)]),
               DilationParams((0.1, 0.2), 40.0, 1.0))
    BOUNDARY = (GeodesicPolygon(hyperboloid_lift([40.0] * 3, [0.0, 2.1, -2.1])),
                DilationParams((0.0, 0.0), 1.5, 1.0))
    BOTH = (BOUNDARY[0], DilationParams((0.0, 0.0), 40.0, 1.0))
    # the identity about a center 2.9 out of a triangle 36 out: its boundary lies inside the
    # chart, though its Cartesian rows, translated to the center, land on the unit circle
    TRANSLATION = (GeodesicPolygon.from_polar([(36.0, 0.0), (36.0, 2.1), (36.0, -2.1)]),
                   DilationParams((0.9, 0.0), 1.0, 1.0))
    # the same triangle stretched by 1.1 about that center: its image reaches 39.8 from the
    # origin
    CENTER = (TRANSLATION[0], DilationParams((0.9, 0.0), 1.1, 1.0))
    # r' = 37 about a center 1.5 out, whose vertex facing away reaches 38.5 from the origin
    FINAL = (GeodesicPolygon.from_polar(np.column_stack(hyperboloid_polar(mobius_translate(
        polar_to_cart(1.5, 0.3), hyperboloid_lift(np.full(3, 3.7), [0.3, 2.4, -1.8]))))),
        DilationParams(polar_to_cart(1.5, 0.3), 10.0, 10.0))

    @pytest.mark.parametrize("names, cause", [
        (("FACTORS",), "factors k1=40.0, k2=1.0 about the center [0.1, 0.2] carry"),
        (("BOUNDARY",), "the polygon's vertices carry"),
        (("CENTER",), "factors k1=1.1, k2=1.0 about the center [0.9, 0.0] carry"),
        (("BOTH",), "the polygon's vertices carry"),
        # an earlier region fails a later check, a later region an earlier one
        (("FINE", "FACTORS", "BOUNDARY"), "factors k1=40.0, k2=1.0 about the center"),
        (("FINE", "CENTER", "BOUNDARY"), "factors k1=1.1, k2=1.0 about the center [0.9, 0.0]"),
        (("TRANSLATION", "CENTER", "BOUNDARY"), "factors k1=1.1, k2=1.0 about the center"),
        (("FACTORS", "TRANSLATION", "FINE"), "factors k1=40.0, k2=1.0 about the center"),
        (("FINE", "FINE", "BOTH", "FACTORS"), "the polygon's vertices carry"),
        (("FINAL",), "factors k1=10.0, k2=10.0 about the center"),
        (("FINE", "FINAL", "FACTORS"), "factors k1=10.0, k2=10.0 about the center"),
    ])
    def test_a_block_raises_what_building_one_region_at_a_time_raises(self, names, cause):
        polys, params = zip(*(getattr(self, name) for name in names))
        with pytest.raises(ChartSaturation) as alone:
            for poly, p in zip(polys, params):
                per_trial_dilate_region(poly, p)
        with pytest.raises(ChartSaturation) as block:
            convexity.dilate_regions(polys, params)
        assert str(block.value) == str(alone.value)
        assert str(block.value).startswith(cause)

    def test_a_boundary_inside_the_chart_about_a_far_center_builds(self):
        # the identity maps the triangle to itself: its vertices stay 36 from the origin, and
        # the chords between its boundary rows stay inside it
        for block in ([self.TRANSLATION], [self.FINE, self.TRANSLATION]):
            region = convexity.dilate_regions(*zip(*block))[-1]
            far = float(np.max(np.arccosh(region.boundary[:, 2])))
            assert abs(far - 36.0) < 1e-9 and math.tanh(far / 2.0) < 1.0
            assert np.array_equal(region.boundary,
                                  per_trial_dilate_region(*self.TRANSLATION).boundary)
            assert convexity.convexity_defect(region) == 0.0

    def test_a_block_of_fine_regions_is_built_bit_for_bit(self):
        rng = np.random.default_rng(62)
        polys, params = [], []
        for i in range(25):
            c = rand_point(rng, 1.5) if i % 4 else ZERO
            polys.append(hconvex_polygon(rng, c.xy))
            params.append(DilationParams(c.xy, rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)))
        for per_edge in (16, 32):
            regions = convexity.dilate_regions(polys, params, per_edge)
            for region, poly, p in zip(regions, polys, params):
                ref = per_trial_dilate_region(poly, p, per_edge)
                assert region.polygon is poly and region.center is p.center
                assert (region.k1, region.k2) == (p.k1, p.k2)
                assert np.array_equal(region.boundary, ref.boundary)

    def test_one_region_is_the_per_trial_region(self):
        # one region takes the block's path, its center and factors repeated per row;
        # contraction, replay and render build one region about the origin at a time
        rng = np.random.default_rng(34)
        for k1, k2, per_edge in [(0.25, 1.0, 32), (1.0, 1.0, 64), (0.5, 0.9, 16), (2.0, 1.3, 32)]:
            for c in (ZERO, rand_point(rng, 1.5)):
                poly = hconvex_polygon(rng, c.xy)
                params = DilationParams(c.xy, k1, k2)
                ref = per_trial_dilate_region(poly, params, per_edge)
                assert np.array_equal(dilate_region(poly, params, per_edge).boundary, ref.boundary)
        thin = _directed_thin_polygon(np.random.default_rng(37))
        params = DilationParams(ZERO.xy, 0.25, 1.0)
        assert np.array_equal(dilate_region(thin, params).boundary,
                              per_trial_dilate_region(thin, params).boundary)

    def test_star_hulls_are_the_per_trial_polygons(self):
        for seed in range(60):
            rngs = [np.random.default_rng([seed, i]) for i in range(3)]
            centers = [rand_point(rng, 1.5).xy if (seed + i) % 5 else ZERO.xy
                       for i, rng in enumerate(rngs)]
            states = [rng.bit_generator.state for rng in rngs]
            stars = [convexity._star_polar(rng) for rng in rngs]
            block = convexity.star_hulls(stars, centers)
            for rng, state, center, poly in zip(rngs, states, centers, block):
                rng.bit_generator.state = state
                ref = per_trial_hconvex_polygon(rng, center)
                assert np.array_equal(poly.sheet, ref.sheet) and poly.hconvex == ref.hconvex
                assert np.array_equal(poly.klein, ref.klein)
                assert not (poly.sheet.flags.writeable or poly.klein.flags.writeable)
            alone = random_hconvex_polygon(np.random.default_rng(seed))
            ref = per_trial_hconvex_polygon(np.random.default_rng(seed))
            assert np.array_equal(alone.sheet, ref.sheet)

    def test_star_hulls_about_the_origin_are_the_unboosted_hulls_bitwise(self):
        # star_hulls boosts about the origin too: the boost by the zero center keeps the bits
        for seed in range(60):
            rng = np.random.default_rng(seed)
            stars = [convexity._star_polar(rng) for _ in range(seed % 3 + 1)]
            lift = hyperboloid_lift(*(np.concatenate(a) for a in zip(*stars)))
            block = convexity.star_hulls(stars, [ZERO.xy] * len(stars))
            unboosted = convexity._klein_hulls(lift, [len(radii) for radii, _ in stars])
            for poly, ref in zip(block, unboosted, strict=True):
                for a, b in ((poly.sheet, ref.sheet), (poly.klein, ref.klein)):
                    assert np.array_equal(np.ascontiguousarray(a).view(np.int64),
                                          np.ascontiguousarray(b).view(np.int64))


class TestSampledRegionValidation:
    # a valid polygon, so that each check below is what refuses the loop
    TRIANGLE = GeodesicPolygon.from_polar([(1.0, 0.0), (1.2, 2.0), (0.8, 4.0)])

    def test_both_surfaces_carry_3_vector_rows(self):
        # sheet rows on H^2 (z^2 - x^2 - y^2 = 1), unit vectors on S^2
        h2 = dilate_region(self.TRIANGLE, DilationParams(polar_point(0.3, 1.0).xy, 2.0, 0.5))
        s2 = sphere.contract_polygon(
            [sphere.random_convex_spherical_polygon([np.random.default_rng(35)])[0]],
            [0.5], [0.8])[0]
        for region, poly in ((h2, h2.polygon.sheet), (s2, s2.polygon.xyz)):
            assert region.boundary.shape == (region.samples_per_edge * len(poly) + 1, 3)
        x, y, z = h2.boundary.T
        assert np.allclose(z * z - x * x - y * y, 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(s2.boundary, axis=1), 1.0, rtol=0.0, atol=1e-15)

    def test_requires_finite_rows_of_the_sheet(self):
        img = dilate_region(self.TRIANGLE, DilationParams(ZERO.xy, 0.5, 1.0))
        for k, bad in ((0, np.nan), (1, np.inf), (2, 0.5), (2, -np.inf)):  # z < 1: below it
            rows = img.boundary.copy()
            rows[5, k] = bad
            with pytest.raises(ValueError, match="boundary rows must be finite points of the "
                                                 "hyperboloid sheet"):
                SampledRegion(rows, self.TRIANGLE, 32, 0.5, 1.0, ZERO.xy)
        with pytest.raises(ValueError, match=r"shape \(N, 3\)"):
            SampledRegion(hyperboloid_cart(img.boundary), self.TRIANGLE, 32, 0.5, 1.0, ZERO.xy)

    def test_refuses_a_boundary_past_the_chart_by_its_exact_distance(self):
        # arccosh z of every row is its distance from the origin, exact where the Poincare
        # row x / (1 + z), with tanh(r/2) rounded to 1, can keep a norm below 1
        thetas = np.linspace(-math.pi, math.pi, 97)[:-1]

        def circle(r):
            rows = hyperboloid_lift(np.full_like(thetas, r), thetas)
            return np.vstack([rows, rows[:1]])

        SampledRegion(circle(36.0), self.TRIANGLE, 32, 3.0, 1.0, ZERO.xy)
        for r in (38.5, 100.0):
            assert np.any(np.hypot(*hyperboloid_cart(circle(r)).T) < 1.0)
            with pytest.raises(ChartSaturation, match=r"^factors k1=3\.0, k2=1\.0 carry"):
                SampledRegion(circle(r), self.TRIANGLE, 32, 3.0, 1.0, ZERO.xy)

    def test_requires_closure(self):
        thetas = np.linspace(-math.pi, math.pi, 129)
        rows = hyperboloid_lift(np.full_like(thetas, 1.0), thetas)
        with pytest.raises(ValueError, match="not closed"):
            SampledRegion(rows[:-1], self.TRIANGLE, 32, 1.0, 1.0, ZERO.xy)

    def test_requires_minimum_samples(self):
        # the one rule is MIN_SAMPLES per edge: a triangle at 16 per edge is a region of
        # 48 + 1 rows that is measured, and 15 per edge is refused where it is sampled
        # and, for a loop built directly, where it is measured
        region = dilate_region(self.TRIANGLE, DilationParams(ZERO.xy, 0.5, 1.0),
                               samples_per_edge=convexity.MIN_SAMPLES)
        assert region.boundary.shape == (49, 3)
        assert convexity_defect(region, 16, 16) >= 0.0
        with pytest.raises(ValueError, match="samples_per_edge must be at least 16"):
            dilate_region(self.TRIANGLE, IDENTITY, samples_per_edge=15)
        thetas = np.linspace(-math.pi, math.pi, 46)
        rows = hyperboloid_lift(np.full_like(thetas, 1.0), thetas)
        coarse = SampledRegion(rows, self.TRIANGLE, 15, 1.0, 1.0, ZERO.xy)
        with pytest.raises(ValueError, match="samples_per_edge must be at least 16"):
            convexity_defect(coarse, 16, 16)

    def test_requires_samples_per_edge_rows_per_edge(self):
        # the 97-row (3 x 32 + 1) image of the triangle, named as 20 per edge, is
        # refused: the defect would take every 20th row as a vertex
        img = dilate_region(self.TRIANGLE, DilationParams(ZERO.xy, 0.5, 1.0))
        assert img.boundary.shape == (97, 3)
        with pytest.raises(ValueError, match=r"has 97 rows, not samples_per_edge x vertices .* = 61"):
            SampledRegion(img.boundary, self.TRIANGLE, 20, 0.5, 1.0, ZERO.xy)
        rebuilt = SampledRegion(img.boundary, self.TRIANGLE, 32, 0.5, 1.0, ZERO.xy)
        assert convexity_defect(rebuilt) == convexity_defect(img) > 0.0

    def test_simplicity_check_catches_crossing(self):
        t = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        # figure-eight: crosses itself at the origin
        xy = 0.4 * np.stack([np.sin(2.0 * t), np.sin(t)], axis=-1)
        with pytest.raises(ValueError, match="self-intersects"):
            check_simple(np.vstack([xy, xy[:1]]))
        check_simple(hyperboloid_cart(dilate_region(self.TRIANGLE, IDENTITY).boundary))


class TestGenerator:
    def test_center_is_interior(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            c = rand_point(rng, 1.5)
            poly = hconvex_polygon(rng, c.xy)
            assert contains(poly, c)
            assert poly.hconvex
            assert 3 <= len(poly.sheet) <= 12
