"""Experimental harness for anisotropic spherical contraction.

The contraction acts in geodesic polar coordinates (rho, theta) about a
center c on the unit sphere, with theta measured against a fixed tangent
frame at c:

    rho   -> rho * sqrt(k1^2 cos^2 theta + k2^2 sin^2 theta)
    theta -> atan2(k2 sin theta, k1 cos theta)

for factors k1, k2 in (0, 1].  This is the hyperbolic axis dilation's polar
map, dilation.dilate_origin_polar, applied with factors <= 1 to the sphere's
polar chart, and reduces to the symmetric contraction rho -> k*rho when
k1 == k2.  Convexity within the open hemisphere about c is assessed through
the gnomonic projection, which maps great circles to straight lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convexity import (SIDEDNESS_TOL, _chord_pairs, _convex_hull_2d, _klein_signed_area,
                        klein_polygon_contains, van_der_corput, winding_contains)
from .dilation import dilate_origin_chart, dilate_origin_polar

CONTRACTION_DEFINITION = (
    "geodesic-polar contraction about the center: rho scales by "
    "sqrt(k1^2 cos^2 theta + k2^2 sin^2 theta) and theta maps through "
    "atan2(k2 sin theta, k1 cos theta) in a fixed tangent frame; reduces to "
    "the symmetric contraction when k1 == k2"
)

HEMISPHERE_MARGIN = 1e-12
DEFECT_EXCEEDANCE = 1e-6


@dataclass(frozen=True)
class SpherePoint:
    """A unit 3-vector."""

    vec: tuple

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if not abs(float(v @ v) - 1.0) <= 2e-12:  # nan and inf fail too
            raise ValueError("sphere point must be a finite unit vector")

    @classmethod
    def from_vec(cls, v):
        v = np.asarray(v, dtype=float)
        n = float(np.linalg.norm(v))
        if not math.isfinite(n):
            raise ValueError("vector and its norm must be finite")
        if n == 0.0:
            raise ValueError("zero vector")
        return cls(tuple(v / n))

    @property
    def xyz(self):
        return np.array(self.vec)


def _cross(a, b):
    """Components of a x b over the last axis, the products np.cross forms."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def angular_distance(a, b):
    """Angle between unit vectors, robust near 0 and pi."""
    a = a.xyz if isinstance(a, SpherePoint) else np.asarray(a, dtype=float)
    b = b.xyz if isinstance(b, SpherePoint) else np.asarray(b, dtype=float)
    cx, cy, cz = _cross(a, b)
    # the sum order of np.linalg.norm over the last axis
    out = np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), np.sum(a * b, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def tangent_frame(c: SpherePoint, angle=0.0):
    """Deterministic orthonormal tangent frame (e1, e2) at c, rotated by angle."""
    n = c.xyz
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.array(_cross(n, e1))
    if angle:
        ca, sa = math.cos(angle), math.sin(angle)
        e1, e2 = ca * e1 + sa * e2, -sa * e1 + ca * e2
    return e1, e2


class Chart:
    """Polar and gnomonic maps about a center: one tangent_frame call, built once, passed down."""

    def __init__(self, c: SpherePoint, frame_angle=0.0):
        self.n = c.xyz
        self.e1, self.e2 = tangent_frame(c, frame_angle)

    def to_polar(self, v):
        """Geodesic polar coordinates (rho, theta) of unit vectors v (..., 3) about the center."""
        x = v @ self.e1
        y = v @ self.e2
        z = v @ self.n
        return np.arctan2(np.hypot(x, y), z), np.arctan2(y, x)

    def from_polar(self, rho, theta):
        """Inverse of to_polar; returns unit vectors of shape (..., 3)."""
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        sr = np.sin(rho)
        return (np.cos(rho)[..., None] * self.n
                + (sr * np.cos(theta))[..., None] * self.e1
                + (sr * np.sin(theta))[..., None] * self.e2)

    def contract(self, k1, k2, pts):
        rho, theta = self.to_polar(pts)
        if not np.all(rho < math.pi / 2):
            raise ValueError("points outside the open hemisphere about the center")
        return self.from_polar(*dilate_origin_polar(k1, k2, rho, theta))

    def gnomonic(self, pts):
        """Central projection to the tangent plane at c; great circles map to straight lines."""
        v = np.atleast_2d(np.asarray(pts, dtype=float))
        z = v @ self.n
        if not np.all(z > HEMISPHERE_MARGIN):
            raise ValueError("gnomonic projection requires the open hemisphere")
        return np.stack([v @ self.e1 / z, v @ self.e2 / z], axis=-1)

    def gnomonic_inverse(self, uv):
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        v = self.n + uv[:, 0][:, None] * self.e1 + uv[:, 1][:, None] * self.e2
        return v / np.linalg.norm(v, axis=-1)[:, None]


def s_contract(c: SpherePoint, k1, k2, p: SpherePoint, frame_angle=0.0) -> SpherePoint:
    """Contract p toward c; p must lie in the open hemisphere about c."""
    if not (0.0 < k1 <= 1.0 and 0.0 < k2 <= 1.0):
        raise ValueError("contraction factors must lie in (0, 1]")
    return SpherePoint.from_vec(Chart(c, frame_angle).contract(k1, k2, p.xyz))


@dataclass(frozen=True)
class SphericalPolygon:
    """Convex candidate region: ccw vertices within the open hemisphere about center."""

    vertices: tuple
    center: SpherePoint
    _chart: Chart = field(init=False, repr=False, compare=False)
    _xyz: np.ndarray = field(init=False, repr=False, compare=False)
    _uv: np.ndarray = field(init=False, repr=False, compare=False)
    convex: bool = field(init=False, repr=False, compare=False)  # at the default tolerance

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        verts = np.array([v.vec for v in self.vertices], dtype=float)
        if not np.all(angular_distance(verts, self.center) < math.pi / 2 - HEMISPHERE_MARGIN):
            raise ValueError("vertex outside the open hemisphere about the center")
        object.__setattr__(self, "_chart", Chart(self.center))
        uv = self._chart.gnomonic(verts)
        for name, a in (("_xyz", verts), ("_uv", uv)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not _klein_signed_area(uv) > 0.0:
            raise ValueError("polygon must be counterclockwise as seen from the center")
        object.__setattr__(self, "convex", self.is_convex())

    def gnomonic_vertices(self):
        """Gnomonic vertices about the center, shape (V, 2); read-only."""
        return self._uv

    def _frame_chart(self, frame_angle):
        return self._chart if frame_angle == 0.0 else Chart(self.center, frame_angle)

    def is_convex(self, tol=SIDEDNESS_TOL):
        return bool(np.all(klein_polygon_contains(self._uv, self._uv, tol)))


def great_circle_points(a, b, ts):
    """Samples of the minor great-circle arcs between unit vectors a and b.

    a and b have shape (..., 3); returns shape (..., T, 3).  Endpoints closer
    than 1e-12 are interpolated linearly.
    """
    a = np.asarray(a, dtype=float)[..., None, :]
    b = np.asarray(b, dtype=float)[..., None, :]
    omega = angular_distance(a, b)
    short = omega < 1e-12
    so = np.sin(np.where(short, 1.0, omega))
    ts = np.asarray(ts, dtype=float)
    pts = (np.sin((1.0 - ts) * omega) / so)[..., None] * a \
        + (np.sin(ts * omega) / so)[..., None] * b
    if np.any(short):
        pts = np.where(short[..., None], (1.0 - ts)[:, None] * a + ts[:, None] * b, pts)
    return pts / np.linalg.norm(pts, axis=-1)[..., None]


# --- sampled spherical regions ----------------------------------------------

@dataclass
class SphericalRegion:
    """Closed boundary loop (N, 3) of a region within a hemisphere, with provenance."""

    boundary: np.ndarray
    center: SpherePoint
    provenance: dict = field(default_factory=dict)
    polygon: SphericalPolygon | None = None  # the validated polygon the provenance names

    def __post_init__(self):
        self.boundary = np.asarray(self.boundary, dtype=float)
        if np.max(np.abs(self.boundary[0] - self.boundary[-1])) > 1e-12:
            raise ValueError("boundary loop is not closed")


def sample_polygon_boundary(poly: SphericalPolygon, per_edge=24) -> SphericalRegion:
    verts = poly._xyz
    ts = np.arange(per_edge, dtype=float) / per_edge
    loop = great_circle_points(verts, np.roll(verts, -1, axis=0), ts).reshape(-1, 3)
    loop = np.vstack([loop, loop[:1]])
    return SphericalRegion(loop, poly.center, provenance={
        "kind": "polygon",
        "vertices": [list(v.vec) for v in poly.vertices],
        "per_edge": per_edge,
    }, polygon=poly)


def contract_polygon(poly: SphericalPolygon, k1, k2, per_edge=24,
                     frame_angle=0.0) -> SphericalRegion:
    """Sampled image of the polygon boundary under the contraction."""
    base = sample_polygon_boundary(poly, per_edge)
    img = poly._frame_chart(frame_angle).contract(k1, k2, base.boundary)
    return SphericalRegion(img, poly.center, provenance={
        "kind": "contracted-polygon",
        "vertices": [list(v.vec) for v in poly.vertices],
        "k1": float(k1), "k2": float(k2),
        "per_edge": per_edge, "frame_angle": float(frame_angle),
    }, polygon=poly)


def _gnomonic_radius(rho):
    """tan rho in the open hemisphere; nan beyond, which fails every half-plane test."""
    return np.where(rho < math.pi / 2 - HEMISPHERE_MARGIN, np.tan(rho), np.nan)


def _exact_membership(region: SphericalRegion, pts):
    """Membership of pts in the region through its carried polygon, or None without one.

    Preimages are taken from the frame's (x, y, z) straight to its gnomonic chart.
    """
    poly = region.polygon
    if poly is None or not poly.convex:
        return None
    prov = region.provenance
    frame = poly._frame_chart(prov.get("frame_angle", 0.0))
    x, y = pts @ frame.e1, pts @ frame.e2
    uv = dilate_origin_chart(1.0 / prov.get("k1", 1.0), 1.0 / prov.get("k2", 1.0),
                             np.arctan2(np.hypot(x, y), pts @ frame.n), x, y, _gnomonic_radius)
    verts = poly._uv if frame is poly._chart else frame.gnomonic(poly._xyz)
    return klein_polygon_contains(verts, uv)


def s_convexity_defect(region, pair_samples=64, segment_samples=16) -> float:
    """Largest angular outside excursion of sampled great-circle chords.

    Membership is evaluated in the gnomonic chart about the region center
    (exactly, through the polygon it carries, when the region is a sampled or
    contracted convex polygon); outside samples contribute their angular
    distance to the boundary loop.
    """
    if isinstance(region, SphericalPolygon):
        region = sample_polygon_boundary(region)
    loop = region.boundary
    i, j = _chord_pairs(loop.shape[0] - 1, pair_samples, region.provenance.get("per_edge"), 10).T
    probes = great_circle_points(loop[i], loop[j], van_der_corput(segment_samples)).reshape(-1, 3)

    inside = _exact_membership(region, probes)
    if inside is None:
        chart = Chart(region.center)
        inside = winding_contains(chart.gnomonic(loop), chart.gnomonic(probes))
    if np.all(inside):
        return 0.0
    out_pts = probes[~inside]
    # angular distance to the (densely sampled) boundary
    dist = np.arccos(np.clip(np.max(out_pts @ loop[:-1].T, axis=1), -1.0, 1.0))
    return float(np.max(dist))


def random_convex_spherical_polygon(rng, center=None, rho_max=1.2, n_max=10):
    """Random convex polygon in the open hemisphere about a (random) center."""
    if center is None:
        v = rng.normal(size=3)
        center = SpherePoint.from_vec(v)
    m = int(rng.integers(5, n_max + 1))
    sector = 2.0 * math.pi / m
    thetas = (np.arange(m) + rng.uniform(0.0, 1.0, m)) * sector - math.pi
    rhos = rng.uniform(0.1, rho_max, m)
    chart = Chart(center)
    pts = chart.from_polar(rhos, thetas)
    uv = chart.gnomonic(pts)
    hull_uv = _convex_hull_2d(uv)
    verts = chart.gnomonic_inverse(hull_uv)
    return SphericalPolygon(tuple(SpherePoint.from_vec(v) for v in verts), center)


def conjecture_trial(seed, trials, per_edge=24, pair_samples=64,
                     segment_samples=16, symmetric_every=5):
    """Randomized contraction trials; reports measured defects, presumes nothing.

    Every symmetric_every-th trial forces k1 == k2 (the regime covered by the
    symmetric contraction theorem).  A defect above 1e-6 is re-measured at 4x
    sampling density before being reported as an exceedance, to exclude
    discretization artifacts.  Deterministic: per-trial generators are seeded
    by (seed, trial index).
    """
    results = []
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        poly = random_convex_spherical_polygon(rng)
        k1 = float(rng.uniform(0.01, 1.0))
        symmetric = (i % symmetric_every == 0)
        k2 = k1 if symmetric else float(rng.uniform(0.01, 1.0))
        region = contract_polygon(poly, k1, k2, per_edge=per_edge)
        defect = s_convexity_defect(region, pair_samples, segment_samples)
        rechecked = None
        if defect > DEFECT_EXCEEDANCE:
            region4 = contract_polygon(poly, k1, k2, per_edge=4 * per_edge)
            rechecked = s_convexity_defect(region4, 4 * pair_samples, 4 * segment_samples)
        results.append({
            "trial": i, "seed": seed, "k1": k1, "k2": k2,
            "symmetric": symmetric, "n_vertices": len(poly.vertices),
            "defect": defect,
            "defect_recheck_4x": rechecked,
            "exceeds": bool((rechecked if rechecked is not None else defect)
                            > DEFECT_EXCEEDANCE),
        })

    def summary(rs):
        return {"max_defect": max((r["defect"] for r in rs), default=0.0),
                "exceedances": sum(r["exceeds"] for r in rs)}

    sym = [r for r in results if r["symmetric"]]
    asym = [r for r in results if not r["symmetric"]]
    return {
        "contraction_definition": CONTRACTION_DEFINITION,
        "seed": seed,
        "trials": trials,
        "exceedance_threshold": DEFECT_EXCEEDANCE,
        "results": results,
        "summary": {**summary(results),
                    "symmetric": {"count": len(sym), **summary(sym)},
                    "asymmetric": {"count": len(asym), **summary(asym)}},
    }
