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

from .convexity import (TRIAL_BLOCK, _check_loop, _check_polygon_chart, _chord_plan,
                        _closed_runs, _edge_ts, _hulls, _in_trial_order, _next_rows, _star_polar,
                        klein_polygon_contains)
from .dilation import _check_factors, dilate_origin_chart, dilate_origin_polar
from .disk import _component_major, _read_only

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


def _dot(v, a):
    """The products v0*a0 + v1*a1 + v2*a2 of rows v (..., 3) with an axis a (3,), or one axis per
    row (..., 3): elementwise, so a value depends neither on the other rows nor on memory order."""
    return v[..., 0] * a[..., 0] + v[..., 1] * a[..., 1] + v[..., 2] * a[..., 2]


def angular_distance(a, b):
    """Angle between unit vectors, robust near 0 and pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cx, cy, cz = _cross(a, b)
    # the sum orders of np.linalg.norm and np.sum over the last axis
    out = np.arctan2(np.sqrt(cx * cx + cy * cy + cz * cz),
                     a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2])
    return float(out) if np.ndim(out) == 0 else out


def tangent_frame(n):
    """Deterministic orthonormal tangent frame (e1, e2) at the unit vector n (3,)."""
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - _dot(seed, n) * n
    e1 /= np.sqrt(_dot(e1, e1))
    return e1, np.array(_cross(n, e1))


class Chart:
    """Polar and gnomonic maps about the unit center n (3,): one tangent_frame call, built once."""

    def __init__(self, n):
        self.n = _unit_rows(n)
        self.e1, self.e2 = tangent_frame(self.n)

    @classmethod
    def _stack(cls, charts, at):
        """The charts as one whose frame vectors are charts[at] (..., 3), one chart per row: its
        maps take rows (..., 3) of the shape of at, and give each the bits its own chart gives."""
        chart = object.__new__(cls)
        for name in ("n", "e1", "e2"):
            setattr(chart, name, np.array([getattr(c, name) for c in charts])[at])
        return chart

    def to_polar(self, v):
        """Geodesic polar coordinates (rho, theta) of unit vectors v (..., 3) about the center."""
        x, y, z = (_dot(v, a) for a in (self.e1, self.e2, self.n))
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
        z = _dot(v, self.n)
        if not np.all(z > HEMISPHERE_MARGIN):
            raise ValueError("gnomonic projection requires the open hemisphere")
        return np.stack([_dot(v, self.e1) / z, _dot(v, self.e2) / z], axis=-1)


@dataclass(frozen=True, eq=False)
class SphericalPolygon:
    """Convex candidate region: read-only ccw unit vertices xyz (V, 3) in the open hemisphere about
    chart.n, their gnomonic rows uv (V, 2), and whether it is convex at the default tolerance."""

    xyz: np.ndarray
    chart: Chart
    uv: np.ndarray = field(init=False, repr=False)
    convex: bool = field(init=False, repr=False)

    def __post_init__(self):
        self._set(*_polygon_rows(np.reshape(self.xyz, (-1, 3)), self.chart))

    def _set(self, xyz, uv, convex):
        for name, value in (("xyz", xyz), ("uv", uv), ("convex", bool(convex))):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, chart, *fields):
        """The polygon in chart of validated fields (xyz, uv, convex), as _polygon_rows returns
        them."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "chart", chart)
        poly._set(*fields)
        return poly


def _polygon_rows(xyz, chart):
    """Read-only unit rows xyz (..., V, 3), their gnomonic rows (..., V, 2) and convexity flags
    (...) of polygons in chart, one chart or a stack of one per polygon; ValueError unless each
    is a simple ccw polygon in the open hemisphere about its center."""
    xyz = _unit_rows(xyz)
    if not np.all(angular_distance(xyz, chart.n) < math.pi / 2 - HEMISPHERE_MARGIN):
        raise ValueError("vertex outside the open hemisphere about the center")
    uv = chart.gnomonic(xyz)
    uv.setflags(write=False)
    return xyz, uv, _check_polygon_chart(uv)


def great_circle_points(a, b, ts):
    """Samples of the minor great-circle arcs between unit vectors a and b.

    a and b have shape (..., 3); returns unit vectors of shape (..., T, 3), stored
    component-major, as disk.geodesic_chord_points returns sheet points.  The samples are
    sin-weighted combinations of the ends, normalized.  Equal ends have the angle 0, taken as
    1e-200 as geodesic_chord_points takes d, so their weights are 1 - t and t to rounding.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    omega = np.maximum(angular_distance(a, b), 1e-200)[..., None]
    so = np.sin(omega)
    ts = np.asarray(ts, dtype=float)
    wa, wb = np.sin((1.0 - ts) * omega) / so, np.sin(ts * omega) / so
    buf, pts = _component_major(3, wa.shape)
    for k, out in enumerate(buf):
        np.add(wa * a[..., k, None], wb * b[..., k, None], out=out)
    # the sum order of np.linalg.norm over the last axis
    buf /= np.sqrt(buf[0] * buf[0] + buf[1] * buf[1] + buf[2] * buf[2])
    return pts


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


def _contract_block(polys, k1, k2, per_edge):
    """contract_polygon of a block without its error order: the first stage that fails raises."""
    _check_factors(k1, k2)
    ts = _edge_ts(per_edge)
    loop = great_circle_points(np.concatenate([poly.xyz for poly in polys]),
                               np.concatenate([_next_rows(poly.xyz) for poly in polys]), ts)
    rows = [per_edge * len(poly.xyz) for poly in polys]
    at = np.repeat(np.arange(len(polys)), rows)
    img = Chart._stack([poly.chart for poly in polys], at).contract(
        *(np.asarray(k, dtype=float)[at] for k in (k1, k2)), loop.reshape(-1, 3))
    return [SphericalRegion(boundary, poly, per_edge, float(a), float(b))
            for boundary, poly, a, b in zip(_closed_runs(img, rows), polys, k1, k2)]


def contract_polygon(polys, k1, k2, per_edge=PER_EDGE):
    """Images of the polygons of the sequence polys, each under the contraction by its own
    factors k1[t], k2[t], as sampled boundary loops.  Factors 1, 1 give a polygon's own
    boundary, up to the rounding of the polar chart.

    The regions are built together: one great_circle_points call samples every edge, and one
    contract call, with a chart and factors per row, maps every sample, so each region has the
    bits it has built alone.  An error is the one that building the regions one at a time raises;
    factors must be > 0, as DilationParams has them on H² (ValueError)."""
    return _in_trial_order(lambda *block: _contract_block(*block, per_edge), polys, k1, k2)


def _gnomonic_radius(rho):
    """tan rho in the open hemisphere; nan beyond, which fails every half-plane test."""
    return np.where(rho < math.pi / 2 - HEMISPHERE_MARGIN, np.tan(rho), np.nan)


def _exact_membership(region: SphericalRegion, pts):
    """Membership of pts in the region through its carried polygon.

    Preimages are taken from the chart's (x, y, z) straight to its gnomonic plane.
    """
    poly = region.polygon
    chart = poly.chart
    x, y = _dot(pts, chart.e1), _dot(pts, chart.e2)
    n = np.sqrt(x * x + y * y)
    uv = dilate_origin_chart(1.0 / region.k1, 1.0 / region.k2, np.arctan2(n, _dot(pts, chart.n)),
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


def _polygon_block(centers, stars):
    """random_convex_spherical_polygon of a block's draws without its error order."""
    charts = [Chart(center) for center in centers]
    counts = [len(radii) for radii, _ in stars]
    at = np.repeat(np.arange(len(charts)), counts)
    chart = Chart._stack(charts, at)
    pts = chart.from_polar(*(np.concatenate(a) for a in zip(*stars)))
    uv = chart.gnomonic(pts)

    def polygons(group, rows):
        fields = _polygon_rows(pts[rows], Chart._stack(charts, at[rows]))
        return map(SphericalPolygon._of, (charts[t] for t in group), *fields)
    return _hulls(uv, counts, polygons)


def random_convex_spherical_polygon(rngs):
    """Random convex polygons, one per generator of the sequence rngs, each in the open
    hemisphere about a unit center (3,) drawn from the generator.  A polygon's vertices are rows
    of its drawn points, hulled in its gnomonic chart.

    Each generator draws what it draws alone: its center, then its _star_polar points.  The
    points are mapped from polar and projected at once, each in its own chart, and hulled by the
    hull step the H² generator runs (convexity._hulls), so each polygon has the bits it has
    built alone.  An error is the one that building the polygons one at a time raises."""
    centers, stars = [], []
    for gen in rngs:
        v = gen.normal(size=3)
        centers.append(v / np.sqrt(_dot(v, v)))
        stars.append(_star_polar(gen, MAX_VERTICES, (0.1, MAX_RHO)))
    return _in_trial_order(_polygon_block, centers, stars)


def conjecture_trial(seed, trials):
    """Randomized contraction trials; reports measured defects, presumes nothing.

    Every SYMMETRIC_EVERY-th trial forces k1 == k2 (the regime covered by the
    symmetric contraction theorem).  A defect above 1e-6 is re-measured at 4x
    sampling density before being reported as an exceedance, to exclude
    discretization artifacts.  Deterministic: per-trial generators are seeded
    by (seed, trial index).
    """
    results = []
    for start in range(0, trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, trials))
        rngs = [np.random.default_rng([seed, i]) for i in block]
        polys = random_convex_spherical_polygon(rngs)
        k1 = [float(rng.uniform(0.01, 1.0)) for rng in rngs]
        k2 = [k if i % SYMMETRIC_EVERY == 0 else float(rng.uniform(0.01, 1.0))
              for i, k, rng in zip(block, k1, rngs)]
        for i, region in zip(block, contract_polygon(polys, k1, k2)):
            defect = s_convexity_defect(region)
            rechecked = None
            if defect > DEFECT_EXCEEDANCE:
                region4 = contract_polygon([region.polygon], [region.k1], [region.k2],
                                           per_edge=4 * PER_EDGE)[0]
                rechecked = s_convexity_defect(region4, 4 * PAIR_SAMPLES, 4 * SEGMENT_SAMPLES)
            results.append({
                "trial": i, "seed": seed, "k1": region.k1, "k2": region.k2,
                "symmetric": i % SYMMETRIC_EVERY == 0, "n_vertices": len(region.polygon.xyz),
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
