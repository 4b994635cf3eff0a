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

from .convexity import (_check_loop, _check_polygon_chart, _chord_plan, _convex_hull_2d,
                        _edge_ts, _next_rows, _star_polar, klein_polygon_contains)
from .dilation import dilate_origin_chart, dilate_origin_polar
from .disk import _read_only

CONTRACTION_DEFINITION = (
    "geodesic-polar contraction about the center: rho scales by "
    "sqrt(k1^2 cos^2 theta + k2^2 sin^2 theta) and theta maps through "
    "atan2(k2 sin theta, k1 cos theta) in a fixed tangent frame; reduces to "
    "the symmetric contraction when k1 == k2"
)

HEMISPHERE_MARGIN = 1e-12
DEFECT_EXCEEDANCE = 1e-6
# random_convex_spherical_polygon draws 5 to MAX_VERTICES vertices at rho < MAX_RHO
MAX_VERTICES, MAX_RHO = 10, 1.2
# sampling of conjecture_trial (4x on a recheck); every SYMMETRIC_EVERY-th trial has k1 == k2
PER_EDGE, PAIR_SAMPLES, SEGMENT_SAMPLES = 24, 64, 16
SYMMETRIC_EVERY = 5


def _unit_rows(v):
    """A read-only float copy of v (..., 3), each of whose rows is checked to be a unit vector."""
    v = _read_only(v)
    if not np.all(np.abs(np.sum(v * v, axis=-1) - 1.0) <= 2e-12):  # nan and inf fail too
        raise ValueError("sphere point must be a finite unit vector")
    return v


def _cross(a, b):
    """Components of a x b over the last axis, the products np.cross forms."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def angular_distance(a, b):
    """Angle between unit vectors, robust near 0 and pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cx, cy, cz = _cross(a, b)
    # the sum order of np.linalg.norm over the last axis
    out = np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz), np.sum(a * b, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def tangent_frame(n):
    """Deterministic orthonormal tangent frame (e1, e2) at the unit vector n (3,)."""
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ n) * n
    e1 /= np.linalg.norm(e1)
    return e1, np.array(_cross(n, e1))


class Chart:
    """Polar and gnomonic maps about the unit center n (3,): one tangent_frame call, built once."""

    def __init__(self, n):
        self.n = _unit_rows(n)
        self.e1, self.e2 = tangent_frame(self.n)

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


@dataclass(frozen=True, eq=False)
class SphericalPolygon:
    """Convex candidate region: read-only ccw unit vertices xyz (V, 3) in the open hemisphere about
    chart.n, their gnomonic rows uv (V, 2), and whether it is convex at the default tolerance."""

    xyz: np.ndarray
    chart: Chart
    uv: np.ndarray = field(init=False, repr=False)
    convex: bool = field(init=False, repr=False)

    def __post_init__(self):
        xyz = _unit_rows(self.xyz).reshape(-1, 3)
        if not np.all(angular_distance(xyz, self.chart.n) < math.pi / 2 - HEMISPHERE_MARGIN):
            raise ValueError("vertex outside the open hemisphere about the center")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "uv", _read_only(self.chart.gnomonic(xyz)))
        object.__setattr__(self, "convex", bool(_check_polygon_chart(self.uv)))


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
    """Closed boundary loop (N, 3), samples_per_edge per edge, of a convex polygon's image
    under the contraction by (k1, k2) about its center (factors 1: the identity)."""

    boundary: np.ndarray
    polygon: SphericalPolygon
    samples_per_edge: int
    k1: float
    k2: float

    def __post_init__(self):
        self.boundary = np.asarray(self.boundary, dtype=float)
        if not (isinstance(self.polygon, SphericalPolygon) and self.polygon.convex):
            raise ValueError("a region must be the image of a convex polygon")
        _check_loop(self.boundary, self.samples_per_edge, len(self.polygon.xyz))


def contract_polygon(poly: SphericalPolygon, k1, k2, per_edge=PER_EDGE) -> SphericalRegion:
    """Image of the polygon under the contraction, as a sampled boundary loop.

    Factors 1, 1 give the polygon's own boundary, up to the rounding of the polar chart."""
    verts = poly.xyz
    loop = great_circle_points(verts, _next_rows(verts), _edge_ts(per_edge)).reshape(-1, 3)
    img = poly.chart.contract(k1, k2, np.vstack([loop, loop[:1]]))
    return SphericalRegion(img, poly, per_edge, float(k1), float(k2))


def _gnomonic_radius(rho):
    """tan rho in the open hemisphere; nan beyond, which fails every half-plane test."""
    return np.where(rho < math.pi / 2 - HEMISPHERE_MARGIN, np.tan(rho), np.nan)


def _exact_membership(region: SphericalRegion, pts):
    """Membership of pts in the region through its carried polygon.

    Preimages are taken from the chart's (x, y, z) straight to its gnomonic plane.
    """
    poly = region.polygon
    chart = poly.chart
    x, y = pts @ chart.e1, pts @ chart.e2
    n = np.hypot(x, y)
    uv = dilate_origin_chart(1.0 / region.k1, 1.0 / region.k2, np.arctan2(n, pts @ chart.n),
                             x, y, n, _gnomonic_radius)
    return klein_polygon_contains(poly.uv, uv)


def s_convexity_defect(region: SphericalRegion, pair_samples=PAIR_SAMPLES,
                       segment_samples=SEGMENT_SAMPLES) -> float:
    """Largest angular outside excursion of sampled great-circle chords.

    Membership is exact, through the polygon the region carries, in the
    gnomonic chart about the polygon's center; outside samples contribute
    their angular distance to the boundary loop.
    """
    loop = region.boundary
    ends, i, j, ts = _chord_plan(region, pair_samples, segment_samples)
    ends = loop[ends]
    probes = great_circle_points(ends[i], ends[j], ts).reshape(-1, 3)
    inside = _exact_membership(region, probes)
    if np.all(inside):
        return 0.0
    out_pts = probes[~inside]
    # angular distance to the (densely sampled) boundary
    dist = np.arccos(np.clip(np.max(out_pts @ loop[:-1].T, axis=1), -1.0, 1.0))
    return float(np.max(dist))


def random_convex_spherical_polygon(rng, center=None):
    """Random convex polygon in the open hemisphere about a (random) unit center (3,); its
    vertices are rows of the drawn points, hulled in the gnomonic chart."""
    if center is None:
        v = rng.normal(size=3)
        center = v / np.linalg.norm(v)
    chart = Chart(center)
    pts = chart.from_polar(*_star_polar(rng, MAX_VERTICES, (0.1, MAX_RHO)))
    return SphericalPolygon(pts[_convex_hull_2d(chart.gnomonic(pts))], chart)


def conjecture_trial(seed, trials):
    """Randomized contraction trials; reports measured defects, presumes nothing.

    Every SYMMETRIC_EVERY-th trial forces k1 == k2 (the regime covered by the
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
        symmetric = (i % SYMMETRIC_EVERY == 0)
        k2 = k1 if symmetric else float(rng.uniform(0.01, 1.0))
        defect = s_convexity_defect(contract_polygon(poly, k1, k2))
        rechecked = None
        if defect > DEFECT_EXCEEDANCE:
            region4 = contract_polygon(poly, k1, k2, per_edge=4 * PER_EDGE)
            rechecked = s_convexity_defect(region4, 4 * PAIR_SAMPLES, 4 * SEGMENT_SAMPLES)
        results.append({
            "trial": i, "seed": seed, "k1": k1, "k2": k2,
            "symmetric": symmetric, "n_vertices": len(poly.xyz),
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
