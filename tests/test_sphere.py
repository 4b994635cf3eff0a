import dataclasses
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import edge_probes, mp_dilate_chart, mp_margin
from hypexpand import sphere
from hypexpand.convexity import SIDEDNESS_TOL
from hypexpand.dilation import dilate_origin_polar
from hypexpand.sphere import (
    Chart,
    SpherePoint,
    SphericalPolygon,
    SphericalRegion,
    angular_distance,
    conjecture_trial,
    contract_polygon,
    great_circle_points,
    random_convex_spherical_polygon,
    s_contract,
    s_convexity_defect,
    sample_polygon_boundary,
    tangent_frame,
)

NORTH = SpherePoint((0.0, 0.0, 1.0))


def rotate_about(axis, angle, pts):
    axis = axis / np.linalg.norm(axis)
    pts = np.atleast_2d(pts)
    c, s = math.cos(angle), math.sin(angle)
    return (c * pts + s * np.cross(axis, pts)
            + (1 - c) * (pts @ axis)[:, None] * axis)


class TestSpherePoint:
    def test_unit_validation(self):
        with pytest.raises(ValueError):
            SpherePoint((1.0, 1.0, 0.0))
        p = SpherePoint.from_vec([3.0, 4.0, 0.0])
        assert np.linalg.norm(p.xyz) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("vec", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                     (0.0, -math.inf, math.nan)])
    def test_non_finite_vectors_are_rejected(self, vec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
            with pytest.raises(ValueError):
                SpherePoint(vec)
            with pytest.raises(ValueError):
                SpherePoint.from_vec(vec)

    def test_polygon_rejects_a_non_finite_vertex(self):
        near = [SpherePoint.from_vec(Chart(NORTH).from_polar(0.5, a)) for a in (0.0, 2.1, 4.2)]
        with pytest.raises(ValueError):
            SphericalPolygon((near[0], near[1], SpherePoint.from_vec([math.nan, 0.0, 1.0])),
                             NORTH)
        # a vertex that got past SpherePoint's check is refused by the polygon's own
        bad = object.__new__(SpherePoint)
        object.__setattr__(bad, "vec", (math.nan, 0.0, 1.0))
        with pytest.raises(ValueError):
            SphericalPolygon((near[0], near[1], bad), NORTH)

    def test_angular_distance(self):
        a = SpherePoint((1.0, 0.0, 0.0))
        b = SpherePoint((0.0, 1.0, 0.0))
        assert angular_distance(a, b) == pytest.approx(math.pi / 2, abs=1e-15)


class TestContraction:
    def test_identity_factors(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            p = SpherePoint.from_vec(Chart(NORTH).from_polar(rng.uniform(0.1, 1.4),
                                                rng.uniform(-math.pi, math.pi)))
            q = s_contract(NORTH, 1.0, 1.0, p)
            assert np.max(np.abs(q.xyz - p.xyz)) < 1e-14

    def test_center_fixed(self):
        assert np.max(np.abs(s_contract(NORTH, 0.5, 0.8, NORTH).xyz - NORTH.xyz)) < 1e-15

    def test_symmetric_case_scales_colatitude(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            rho = rng.uniform(0.1, 1.4)
            th = rng.uniform(-math.pi, math.pi)
            k = rng.uniform(0.2, 1.0)
            p = SpherePoint.from_vec(Chart(NORTH).from_polar(rho, th))
            q = s_contract(NORTH, k, k, p)
            rho2, th2 = Chart(NORTH).to_polar(q.xyz)
            assert float(rho2) == pytest.approx(k * rho, rel=1e-12)
            assert float(th2) == pytest.approx(th, abs=1e-12)

    def test_rejects_outside_hemisphere(self):
        p = SpherePoint.from_vec(Chart(NORTH).from_polar(1.7, 0.0))
        with pytest.raises(ValueError):
            s_contract(NORTH, 0.5, 1.0, p)

    def test_rejects_expansion_factors(self):
        p = SpherePoint.from_vec(Chart(NORTH).from_polar(0.5, 0.0))
        with pytest.raises(ValueError):
            s_contract(NORTH, 1.5, 1.0, p)

    def test_never_increases_colatitude(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            rho = rng.uniform(0.01, 1.5)
            p = Chart(NORTH).from_polar(rho, rng.uniform(-math.pi, math.pi))
            k1, k2 = rng.uniform(0.1, 1.0, 2)
            q = Chart(NORTH).contract(k1, k2, p[None, :])[0]
            rho2, _ = Chart(NORTH).to_polar(q)
            assert float(rho2) <= rho + 1e-14

    def test_frame_rotation_equivariance(self):
        # contracting in a rotated frame equals rotate, contract, unrotate
        rng = np.random.default_rng(63)
        c = SpherePoint.from_vec(rng.normal(size=3))
        pts = Chart(c).from_polar(rng.uniform(0.1, 1.3, 40), rng.uniform(-math.pi, math.pi, 40))
        alpha = 0.77
        k1, k2 = 0.4, 0.9
        direct = Chart(c, alpha).contract(k1, k2, pts)
        unrot = rotate_about(c.xyz, -alpha, pts)
        via = rotate_about(c.xyz, alpha, Chart(c).contract(k1, k2, unrot))
        assert np.max(np.abs(direct - via)) < 1e-12

    def test_defect_frame_invariance(self):
        rng = np.random.default_rng(64)
        poly = random_convex_spherical_polygon(rng)
        base = s_convexity_defect(contract_polygon(poly, 0.3, 0.95))
        rot_verts = rotate_about(poly.center.xyz, -0.77,
                                 np.array([v.xyz for v in poly.vertices]))
        rot_poly = SphericalPolygon(tuple(SpherePoint.from_vec(v) for v in rot_verts),
                                    poly.center)
        rotated = s_convexity_defect(
            contract_polygon(rot_poly, 0.3, 0.95, frame_angle=-0.77))
        assert rotated == pytest.approx(base, abs=1e-10)


class TestGnomonic:
    def test_roundtrip(self):
        rng = np.random.default_rng(65)
        c = SpherePoint.from_vec(rng.normal(size=3))
        pts = Chart(c).from_polar(rng.uniform(0.01, 1.5, 200), rng.uniform(-math.pi, math.pi, 200))
        uv = Chart(c).gnomonic(pts)
        back = Chart(c).gnomonic_inverse(uv)
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_rejects_equator(self):
        p = Chart(NORTH).from_polar(math.pi / 2, 0.3)
        with pytest.raises(ValueError):
            Chart(NORTH).gnomonic(p[None, :])

    def test_convexity_equivalence(self):
        # a polygon is spherically convex within the hemisphere iff its
        # gnomonic image is a convex planar polygon
        tri = SphericalPolygon(
            tuple(SpherePoint.from_vec(Chart(NORTH).from_polar(0.8, a))
                  for a in (0.0, 2.1, 4.2)), NORTH)
        assert tri.is_convex()
        dart_uv = np.array([[0.05, 0.0], [0.0, -0.5], [0.5, 0.0], [0.0, 0.5]])
        dart = SphericalPolygon(
            tuple(SpherePoint.from_vec(v) for v in Chart(NORTH).gnomonic_inverse(dart_uv)), NORTH)
        assert not dart.is_convex()

    def test_hemisphere_validation(self):
        far = SpherePoint.from_vec(Chart(NORTH).from_polar(1.8, 0.0))
        near = [SpherePoint.from_vec(Chart(NORTH).from_polar(0.5, a)) for a in (0.0, 2.1)]
        with pytest.raises(ValueError):
            SphericalPolygon((near[0], near[1], far), NORTH)


class TestSphericalDefect:
    def test_triangle_convex(self):
        tri = SphericalPolygon(
            tuple(SpherePoint.from_vec(Chart(NORTH).from_polar(0.9, a))
                  for a in (0.2, 2.2, 4.4)), NORTH)
        assert s_convexity_defect(tri) < 1e-9

    def test_reflex_quad_defect(self):
        dart_uv = np.array([[0.05, 0.0], [0.0, -0.5], [0.5, 0.0], [0.0, 0.5]])
        dart = SphericalPolygon(
            tuple(SpherePoint.from_vec(v) for v in Chart(NORTH).gnomonic_inverse(dart_uv)), NORTH)
        region = sample_polygon_boundary(dart, per_edge=32)
        assert s_convexity_defect(region, 128, 16) > 1e-3

    def test_symmetric_contraction_stays_convex(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            poly = random_convex_spherical_polygon(rng)
            k = float(rng.uniform(0.1, 1.0))
            region = contract_polygon(poly, k, k)
            assert s_convexity_defect(region) < 1e-6

    def test_asymmetric_contraction_can_break_convexity(self):
        # measured behavior of the adopted polar-analog map: an edge
        # straddling the strongly contracted axis bends toward the center,
        # so chords across it leave the image
        rng = np.random.default_rng([0, 7])
        poly = random_convex_spherical_polygon(rng)
        k1 = float(rng.uniform(0.01, 1.0))
        k2 = float(rng.uniform(0.01, 1.0))
        region = contract_polygon(poly, k1, k2, per_edge=96)
        assert s_convexity_defect(region, 256, 64) > 1e-4

    def test_asymmetric_violation_confirmed_from_scratch(self):
        # pin the violation above with raw vector algebra sharing no code
        # with the library: rebuild the contraction from its definition and
        # test membership by spherical sidedness determinants
        rng = np.random.default_rng([0, 7])
        poly = random_convex_spherical_polygon(rng)
        k1 = float(rng.uniform(0.01, 1.0))
        k2 = float(rng.uniform(0.01, 1.0))
        n = poly.center.xyz
        seed_vec = np.array([1.0, 0, 0]) if abs(n[0]) < 0.9 else np.array([0, 1.0, 0])
        e1 = seed_vec - (seed_vec @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        verts = np.array([v.xyz for v in poly.vertices])

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
            poly = random_convex_spherical_polygon(rng)
            assert poly.is_convex()
            assert 3 <= len(poly.vertices) <= 10
            for v in poly.vertices:
                assert angular_distance(v, poly.center) < math.pi / 2


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
    with pytest.raises(ValueError):
        SphericalRegion(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]), NORTH)


def great_circle_points_per_pair(a, b, ts):
    """Reference: the one-pair-at-a-time form of great_circle_points."""
    omega = angular_distance(a, b)
    if omega < 1e-12:
        pts = (1.0 - ts)[:, None] * a + ts[:, None] * b
    else:
        so = math.sin(omega)
        pts = (np.sin((1.0 - ts) * omega) / so)[:, None] * a \
            + (np.sin(ts * omega) / so)[:, None] * b
    return pts / np.linalg.norm(pts, axis=-1)[:, None]


class TestBatchedGreatCirclePoints:
    TS = np.concatenate([[0.0, 1.0], np.random.default_rng(0).uniform(size=14)])

    def assert_matches_per_pair(self, a, b):
        pts = great_circle_points(a, b, self.TS)
        assert pts.shape == a.shape[:-1] + (len(self.TS), 3)
        for idx in np.ndindex(a.shape[:-1]):
            assert np.array_equal(pts[idx], great_circle_points_per_pair(a[idx], b[idx], self.TS))

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
        assert np.any(angular_distance(a, b)[near] > 0.0)
        self.assert_matches_per_pair(a, b)

    def test_scalar_call_keeps_its_shape(self):
        a = Chart(NORTH).from_polar(0.8, 0.3)
        b = Chart(NORTH).from_polar(1.1, 2.0)
        assert great_circle_points(a, b, self.TS).shape == (len(self.TS), 3)


# --- reference copies of the per-call polygon layer, for bitwise comparison ---

def cross_angular_distance(a, b):
    """angular_distance through np.cross and np.linalg.norm."""
    out = np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.sum(a * b, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def cross_tangent_frame(c, angle=0.0):
    """tangent_frame through np.cross."""
    n = c.xyz
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    if angle:
        ca, sa = math.cos(angle), math.sin(angle)
        e1, e2 = ca * e1 + sa * e2, -sa * e1 + ca * e2
    return e1, e2


def broadcast_contains(uv_verts, probes, tol=1e-12):
    """Half-plane membership through one (P, V, 2) broadcast."""
    e = np.roll(uv_verts, -1, axis=0) - uv_verts
    d = probes[:, None, :] - uv_verts[None, :, :]
    return np.all(e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0] >= -tol, axis=1)


def rebuilt_membership(region, pts):
    """Exact membership with the polygon rebuilt from provenance and every map rebuilt per call."""
    prov, c = region.provenance, region.center
    poly = SphericalPolygon(tuple(SpherePoint(tuple(v)) for v in prov["vertices"]), c)
    uv_verts = Chart(c).gnomonic(np.array([v.xyz for v in poly.vertices]))
    if not np.all(broadcast_contains(uv_verts, uv_verts)):
        return None
    frame_angle = prov.get("frame_angle", 0.0)
    rho, theta = Chart(c, frame_angle).to_polar(pts)
    rho2, theta2 = dilate_origin_polar(1.0 / prov.get("k1", 1.0), 1.0 / prov.get("k2", 1.0),
                                       rho, theta)
    ok = rho2 < math.pi / 2 - sphere.HEMISPHERE_MARGIN
    out = np.zeros(len(pts), dtype=bool)
    uv = Chart(c).gnomonic(Chart(c, frame_angle).from_polar(rho2[ok], theta2[ok]))
    out[ok] = broadcast_contains(uv_verts, uv)
    return out


def exact_margin(region, p):
    """mp_margin of the exact gnomonic preimage of the probe p (3,) in the region's polygon."""
    poly, prov = region.polygon, region.provenance
    frame, chart = Chart(poly.center, prov.get("frame_angle", 0.0)), Chart(poly.center)
    with mp.workdps(50):
        def dot(a, b):
            return sum(mp.mpf(float(ai)) * bi for ai, bi in zip(a, b))

        p = [mp.mpf(float(c)) for c in p]
        x, y, z = dot(frame.e1, p), dot(frame.e2, p), dot(frame.n, p)
        u, v = mp_dilate_chart(1 / mp.mpf(prov.get("k1", 1.0)), 1 / mp.mpf(prov.get("k2", 1.0)),
                               x, y, mp.atan2(mp.hypot(x, y), z), mp.tan)
        pre = [n + u * a + v * b for n, a, b in zip(frame.n, frame.e1, frame.e2)]
        w = dot(chart.n, pre)
        return mp_margin(poly.gnomonic_vertices(), dot(chart.e1, pre) / w, dot(chart.e2, pre) / w)


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
        assert angular_distance(NORTH, b[0]) == cross_angular_distance(NORTH.xyz, b[0])

    def test_tangent_frame_matches_np_cross(self):
        rng = np.random.default_rng(71)
        vecs = np.concatenate([rng.normal(size=(300, 3)),
                               [[1.0, 0.0, 0.0], [-1.0, 1e-9, 0.0], [0.9, 0.1, 0.0]]])
        for v in vecs:
            c = SpherePoint.from_vec(v)
            for angle in (0.0, 0.77, float(rng.uniform(-math.pi, math.pi))):
                e1, e2 = tangent_frame(c, angle)
                r1, r2 = cross_tangent_frame(c, angle)
                assert np.array_equal(e1, r1) and np.array_equal(e2, r2)

    def test_is_convex_matches_the_broadcast_form(self):
        rng = np.random.default_rng(72)
        convex = 0
        for _ in range(200):
            poly = random_convex_spherical_polygon(rng)
            uv = poly.gnomonic_vertices().copy()
            uv[rng.integers(len(uv))] *= rng.choice([1.0, 0.6, 0.9])  # pull a vertex in
            i = int(rng.integers(len(uv)))  # or move one onto, or 1e-12 off, its chord
            if rng.uniform() < 0.3:
                uv[i] = 0.5 * (uv[i - 1] + uv[(i + 1) % len(uv)]) + rng.choice([-1e-12, 0, 1e-12])
            try:
                back = Chart(poly.center).gnomonic_inverse(uv)
                bent = SphericalPolygon(tuple(SpherePoint.from_vec(v) for v in back), poly.center)
            except ValueError:
                continue
            k = bent.gnomonic_vertices()
            expected = bool(np.all(broadcast_contains(k, k)))
            assert bent.is_convex() == expected
            convex += expected
        assert 0 < convex < 200

    def test_exact_membership_matches_the_rebuilt_broadcast_form(self):
        rng = np.random.default_rng(73)
        flips = 0
        for trial in range(40):
            poly = random_convex_spherical_polygon(rng)
            k1, k2 = rng.uniform(0.05, 1.0, 2)
            if trial % 3 == 1:  # one factor above 1 as well, so one preimage factor is below 1
                k1 += 1.0
            frame_angle = 0.0 if trial % 2 else float(rng.uniform(-math.pi, math.pi))
            region = (sample_polygon_boundary(poly) if trial % 5 == 0
                      else contract_polygon(poly, k1, k2, frame_angle=frame_angle))
            # probes in the preimage's chart, so that vertices and edges map onto the polygon's
            pre = Chart(poly.center).gnomonic_inverse(edge_probes(rng, poly.gnomonic_vertices()))
            prov = region.provenance
            probes = (pre if prov["kind"] == "polygon" else
                      Chart(poly.center, frame_angle).contract(prov["k1"], prov["k2"], pre))
            inside = sphere._exact_membership(region, probes)
            assert inside.dtype == bool and inside.shape == (len(probes),)
            old = rebuilt_membership(region, probes)
            # the two arithmetics differ by rounding: they agree on every probe
            # whose exact margin is more than 1e-15 from the tolerance, and on
            # all but a few of the 1e-12-off-edge probes inside that band
            for k in np.nonzero(inside != old)[0]:
                assert abs(exact_margin(region, probes[k]) + SIDEDNESS_TOL) < 1e-15
            flips += np.count_nonzero(inside != old)
            assert 0 < np.count_nonzero(inside) < len(probes)
        assert flips <= 1  # of 29,530 probes

    def test_a_region_without_its_polygon_is_measured_by_winding_number(self):
        dart_uv = np.array([[0.05, 0.0], [0.0, -0.5], [0.5, 0.0], [0.0, 0.5]])
        dart = SphericalPolygon(
            tuple(SpherePoint.from_vec(v) for v in Chart(NORTH).gnomonic_inverse(dart_uv)), NORTH)
        region = sample_polygon_boundary(dart, per_edge=32)
        assert region.polygon is dart
        bare = dataclasses.replace(region, polygon=None)
        assert sphere._exact_membership(region, region.boundary) is None  # the dart is not convex
        assert sphere._exact_membership(bare, region.boundary) is None
        assert s_convexity_defect(bare) == s_convexity_defect(region) > 0.0
        poly = random_convex_spherical_polygon(np.random.default_rng(74))
        contracted = contract_polygon(poly, 0.3, 0.8)
        assert contracted.polygon is poly
        assert sphere._exact_membership(contracted, contracted.boundary) is not None
        assert sphere._exact_membership(
            dataclasses.replace(contracted, polygon=None), contracted.boundary) is None

    def test_membership_does_not_warn_past_the_disk_saturation_radius(self):
        # the polar map is shared with the disk, whose Cartesian chart saturates
        # past r' = 50; no such chart is involved here
        poly = random_convex_spherical_polygon(np.random.default_rng(76), center=NORTH)
        region = contract_polygon(poly, 0.01, 0.01)
        thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        rho = np.full_like(thetas, 1.55)
        assert np.all(dilate_origin_polar(100.0, 100.0, rho, thetas)[0] > 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = sphere._exact_membership(region, Chart(NORTH).from_polar(rho, thetas))
        assert not np.any(inside)

    def test_preimages_past_the_hemisphere_are_outside(self):
        # tan has period pi: unmasked, a preimage at rho = pi + 0.05 would land by the center
        poly = random_convex_spherical_polygon(np.random.default_rng(77), center=NORTH)
        region = contract_polygon(poly, 0.3, 0.3)
        thetas = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        rho = np.full_like(thetas, 0.3 * (math.pi + 0.05))
        # the antipode lies on every direction's geodesic, at rho = pi
        probes = np.vstack([Chart(NORTH).from_polar(rho, thetas), -NORTH.xyz, NORTH.xyz])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = sphere._exact_membership(region, probes)
        assert not np.any(inside[:-1]) and inside[-1]  # the center itself is inside

    def test_gnomonic_vertices_are_stored_and_read_only(self):
        poly = random_convex_spherical_polygon(np.random.default_rng(75))
        uv = poly.gnomonic_vertices()
        assert uv is poly.gnomonic_vertices()
        assert np.array_equal(
            uv, Chart(poly.center).gnomonic(np.array([v.xyz for v in poly.vertices])))
        with pytest.raises(ValueError):
            uv[0, 0] = 0.0

    def test_at_most_two_tangent_frames_per_trial(self, monkeypatch):
        calls = []

        def counted(c, angle=0.0):
            calls.append(angle)
            return tangent_frame(c, angle)

        monkeypatch.setattr(sphere, "tangent_frame", counted)
        report = conjecture_trial(0, 10)
        assert any(r["defect_recheck_4x"] is not None for r in report["results"])
        assert len(calls) <= 20  # the polygon's chart and the one it was drawn in

    def test_replace_rebuilds_the_chart_from_the_new_center(self):
        poly = SphericalPolygon(tuple(SpherePoint.from_vec(Chart(NORTH).from_polar(0.3, t))
                                      for t in (0.0, 2.0, 4.0)), NORTH)
        other = SpherePoint.from_vec([0.2, -0.1, 1.0])
        moved = dataclasses.replace(poly, center=other)
        fresh = SphericalPolygon(poly.vertices, other)
        assert np.array_equal(moved.gnomonic_vertices(), fresh.gnomonic_vertices())
        assert not np.array_equal(moved.gnomonic_vertices(), poly.gnomonic_vertices())
        with pytest.raises(TypeError):
            SphericalPolygon(poly.vertices, NORTH, Chart(other))
