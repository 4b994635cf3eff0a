"""Hyperbolic convex regions: hulls, convexity tests, and defect measurement.

Sidedness and hulls are computed in the Klein model, where geodesics are
straight chords, so planar convexity machinery applies verbatim.  The
Poincare chart is used for metric quantities only.  Convexity of sampled
regions is quantified by a defect (largest outside excursion of sampled
geodesic chords between boundary points) rather than a boolean, because
curved boundaries are only known at samples.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dilation import DilationParams, dilate_origin_chart, dilate_xy
from .disk import (
    DiskPoint,
    ORIGIN,
    cart_to_polar,
    geodesic_chord_points,
    hyperboloid_chord_vectors,
    hyperboloid_lift,
    hyperboloid_polar,
    hyperboloid_translate,
    mobius_translate,
    polar_to_cart,
)

SIDEDNESS_TOL = 1e-12
ON_BOUNDARY_TOL = 1e-9
# boolean convexity threshold for measured defects, fixed by config
DEFECT_CONVEX_THRESHOLD = 1e-6
# max_polyline_distance bounds probes through every BOUND_STRIDE-th vertex and
# checks CHUNK_PROBES of them at a time.  On contraction-search probes, 4 and 64
# were fastest: stride 2 took ~10% longer, stride 8 ~70%, chunks of 32 or 128
# 1-10%.
BOUND_STRIDE = 4
CHUNK_PROBES = 64


# --- Klein model -------------------------------------------------------------

def to_klein(p):
    """Poincare Cartesian -> Klein: q = 2p / (1 + |p|^2).  Accepts DiskPoint or arrays."""
    if isinstance(p, DiskPoint):
        p = p.xy
    p = np.asarray(p, dtype=float)
    n2 = np.sum(p * p, axis=-1)
    if np.any(n2 >= 1.0):
        raise ValueError("point outside the open unit disk")
    return 2.0 * p / (1.0 + n2)[..., None]


def from_klein(q):
    """Klein -> Poincare Cartesian: p = q / (1 + sqrt(1 - |q|^2))."""
    q = np.asarray(q, dtype=float)
    n2 = np.sum(q * q, axis=-1)
    if np.any(n2 >= 1.0):
        raise ValueError("point outside the open unit disk")
    return q / (1.0 + np.sqrt(1.0 - n2))[..., None]


def from_klein_point(q) -> DiskPoint:
    p = from_klein(q)
    return DiskPoint.from_cart(p[0], p[1])


def _convex_hull_2d(pts):
    """Monotone-chain convex hull; returns counterclockwise vertices, no repeats."""
    pts = np.asarray(pts, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts, axis=0)) > 1e-15, axis=1)
    pts = pts[keep].tolist()  # the chain's scalar arithmetic is faster on floats
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct points for a hull")

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
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise ValueError("degenerate (collinear) input")
    return hull


def _klein_signed_area(kverts):
    x, y = kverts[:, 0], kverts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _edges_cross(kverts) -> bool:
    """True iff two non-adjacent edges of the closed polygon properly cross.

    side[j, i] is the orientation (b - a) x (k[i] - a) of vertex i against
    edge j = a -> b.  Edges i and j cross iff each has the endpoints of the
    other on opposite sides, strictly positive against not.
    """
    n = len(kverts)
    idx = np.arange(n)
    nxt = (idx + 1) % n
    e = kverts[nxt] - kverts
    d = kverts[None, :, :] - kverts[:, None, :]
    side = e[:, None, 0] * d[:, :, 1] - e[:, None, 1] * d[:, :, 0] > 0
    splits = side != side[:, nxt]  # splits[j, i]: edge j separates the ends of edge i
    gap = (idx[:, None] - idx) % n  # edges with gap 0, 1 or n - 1 share a vertex
    return bool(np.any(splits & splits.T & (gap > 1) & (gap < n - 1)))


# --- geodesic polygons -------------------------------------------------------

@dataclass(frozen=True)
class GeodesicPolygon:
    """Ordered counterclockwise vertices of a simple geodesic polygon."""

    vertices: tuple
    _klein: np.ndarray = field(init=False, repr=False, compare=False)
    hconvex: bool = field(init=False, repr=False, compare=False)  # at the default tolerance

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        k = to_klein(np.array([v.cart for v in self.vertices]))
        k.setflags(write=False)
        object.__setattr__(self, "_klein", k)
        if _klein_signed_area(k) <= 0.0:
            raise ValueError("polygon must be counterclockwise")
        if _edges_cross(k):
            raise ValueError("polygon edges self-intersect")
        object.__setattr__(self, "hconvex", is_hconvex(self))

    @classmethod
    def from_points(cls, points):
        return cls(tuple(points))

    @classmethod
    def from_polar(cls, pairs):
        return cls(tuple(DiskPoint.from_polar(r, th) for r, th in pairs))

    def klein(self):
        """Klein-model vertices, shape (V, 2); read-only."""
        return self._klein

    def polar(self):
        return [(v.r, v.theta) for v in self.vertices]

    def contains(self, p, tol=SIDEDNESS_TOL):
        """Half-plane membership; valid for h-convex polygons only."""
        return bool(klein_polygon_contains(self._klein, to_klein(p), tol)[0])


def klein_polygon_contains(kverts, probes, tol=SIDEDNESS_TOL):
    """Half-plane membership of probes (P, 2) in a convex ccw Klein polygon (V, 2).

    The test is planar, so the gnomonic vertices of a spherical polygon serve
    as well.  A probe is inside iff its cross product against every directed edge
    a -> b, (b - a) x (p - a), is at least -tol.  One pass over the edges,
    each on the whole probe array.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    px, py = probes[:, 0], probes[:, 1]
    inside = np.ones(len(probes), dtype=bool)
    verts = np.asarray(kverts, dtype=float).tolist()
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= -tol
    return inside


def _translate_rows(c, xy):
    """mobius_translate(c, p) for each row p of xy (m, 2), bitwise as one call per row.

    A stack of (1, 2) rows takes one dot product per point, as a single point
    does; a plain (m, 2) array takes a matrix-vector product, which can round
    differently.
    """
    return mobius_translate(c, xy[:, None, :])[:, 0]


def hyperbolic_hull(points) -> GeodesicPolygon:
    """Minimal h-convex polygon containing the points (hull in the Klein model)."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    hull = from_klein(_convex_hull_2d(to_klein(np.array([p.cart for p in points]))))
    return GeodesicPolygon(tuple(DiskPoint.from_cart(x, y) for x, y in hull.tolist()))


def is_hconvex(poly: GeodesicPolygon, tol=SIDEDNESS_TOL) -> bool:
    """True iff every vertex lies weakly left of every directed edge geodesic."""
    k = poly.klein()
    return bool(np.all(klein_polygon_contains(k, k, tol)))


# --- sampled regions ---------------------------------------------------------

@dataclass
class SampledRegion:
    """Closed boundary loop of a Jordan region, with provenance.

    boundary has shape (N, 2) in Cartesian coordinates, first and last rows
    coinciding to 1e-12.  provenance describes how the boundary was produced;
    when it is an invertible construction (a polygon, possibly dilated), the
    region carries the validated polygon, and defect measurement tests
    membership exactly through it instead of against the discretized loop.
    """

    boundary: np.ndarray
    provenance: dict = field(default_factory=dict)
    polygon: GeodesicPolygon | None = None  # the validated polygon the provenance names

    def __post_init__(self):
        self.boundary = np.asarray(self.boundary, dtype=float)
        if self.boundary.ndim != 2 or self.boundary.shape[1] != 2:
            raise ValueError("boundary must have shape (N, 2)")
        if self.boundary.shape[0] < 64:
            raise ValueError("boundary needs at least 64 samples")
        if np.max(np.abs(self.boundary[0] - self.boundary[-1])) > 1e-12:
            raise ValueError("boundary loop is not closed")
        if np.any(np.hypot(self.boundary[:, 0], self.boundary[:, 1]) >= 1.0):
            raise ValueError("boundary leaves the open unit disk")

    def check_simple(self):
        """Verify the loop has no self-intersections as a Euclidean polyline."""
        pts = self.boundary[:-1]
        n = len(pts)
        segs_a = pts
        segs_b = np.roll(pts, -1, axis=0)
        lengths = np.hypot(*(segs_b - segs_a).T)
        for i in range(n):
            if lengths[i] < 1e-14:
                continue
            j = np.arange(i + 2, n if i > 0 else n - 1)
            j = j[lengths[j] >= 1e-14]
            if len(j) == 0:
                continue
            a, b = segs_a[i], segs_b[i]
            c, d = segs_a[j], segs_b[j]

            def orient(p, q, r):
                return (q[0] - p[0]) * (r[..., 1] - p[1]) - (q[1] - p[1]) * (r[..., 0] - p[0])

            d1 = orient(a, b, c)
            d2 = orient(a, b, d)
            d3 = (d[:, 0] - c[:, 0]) * (a[1] - c[:, 1]) - (d[:, 1] - c[:, 1]) * (a[0] - c[:, 0])
            d4 = (d[:, 0] - c[:, 0]) * (b[1] - c[:, 1]) - (d[:, 1] - c[:, 1]) * (b[0] - c[:, 0])
            hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
            if np.any(hit):
                raise ValueError(f"boundary self-intersects near segment {i}")
        return True


def winding_contains(loop, probes):
    """Winding-number membership of probes (P, 2) against a closed loop (N, 2)."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    x0, y0 = loop[:-1, 0], loop[:-1, 1]
    x1, y1 = loop[1:, 0], loop[1:, 1]
    px = probes[:, 0][:, None]
    py = probes[:, 1][:, None]
    is_left = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
    up = (y0 <= py) & (y1 > py) & (is_left > 0)
    down = (y0 > py) & (y1 <= py) & (is_left < 0)
    wn = up.sum(axis=1).astype(int) - down.sum(axis=1).astype(int)
    return wn != 0


def _loop_segments(loop):
    """Start points, edge vectors and squared lengths (1 where zero) of a closed loop."""
    a = loop[:-1]
    e = loop[1:] - a
    ee = np.sum(e * e, axis=1)
    return a, e, np.where(ee < 1e-300, 1.0, ee)


def _segment_distances(px, py, ax, ay, ex, ey, ee):
    """Distances from probes (px, py) to segments (ax, ay) + t (ex, ey), t in [0, 1].

    Elementwise, so a value does not depend on which other probes and segments
    are passed with it.
    """
    t = np.clip(((px - ax) * ex + (py - ay) * ey) / ee, 0.0, 1.0)
    return np.hypot(px - (ax + t * ex), py - (ay + t * ey))


def polyline_distance(loop, probes):
    """Euclidean distance from each probe (P, 2) to the closed polyline, every segment checked."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    a, e, ee = _loop_segments(loop)
    return np.min(_segment_distances(probes[:, 0, None], probes[:, 1, None],
                                     a[:, 0], a[:, 1], e[:, 0], e[:, 1], ee), axis=1)


def max_polyline_distance(loop, probes) -> float:
    """Largest distance from the probes (P, 2) to the closed polyline.

    Bitwise equal to float(np.max(polyline_distance(loop, probes))), nan
    included.  Each probe is bounded from above by its distance to one
    segment: the one starting at its nearest of every BOUND_STRIDE-th vertex.
    That distance is computed as polyline_distance computes it, so it is one
    of the values polyline_distance takes the minimum of.  Probes are then
    checked against every segment in decreasing bound order, CHUNK_PROBES at
    a time, until no remaining bound exceeds the largest distance found.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if not (np.all(np.isfinite(loop)) and np.all(np.isfinite(probes))):
        return float(np.max(polyline_distance(loop, probes)))
    a, e, ee = _loop_segments(loop)
    # nearest vertex by |v|^2 - 2 p.v: its rounding can only pick a worse
    # vertex, which loosens the bound but leaves the result as it is
    v = a[::BOUND_STRIDE]
    near = BOUND_STRIDE * np.argmin(np.sum(v * v, axis=1) - 2.0 * (probes @ v.T), axis=1)
    bound = _segment_distances(*probes.T, *a[near].T, *e[near].T, ee[near])
    order = np.argsort(-bound, kind="stable")
    best = -math.inf
    for start in range(0, len(order), CHUNK_PROBES):
        if bound[order[start]] <= best:
            break
        chunk = probes[order[start:start + CHUNK_PROBES]]
        best = max(best, float(np.max(polyline_distance(loop, chunk))))
    return best


def region_contains(region: SampledRegion, p) -> bool:
    """Winding-number membership; points within 1e-9 of the boundary count inside."""
    if isinstance(p, DiskPoint):
        p = p.xy
    probes = np.atleast_2d(np.asarray(p, dtype=float))
    inside = winding_contains(region.boundary, probes)
    near = polyline_distance(region.boundary, probes) < ON_BOUNDARY_TOL
    out = inside | near
    return bool(out[0]) if out.shape[0] == 1 else out


# --- region construction -----------------------------------------------------

def _sample_polygon_boundary(poly: GeodesicPolygon, samples_per_edge: int):
    """Boundary samples of the polygon, samples_per_edge per edge, closed loop."""
    if samples_per_edge < 16:
        raise ValueError("samples_per_edge must be at least 16")
    ts = np.arange(samples_per_edge, dtype=float) / samples_per_edge
    r, th = np.array(poly.polar()).T
    r, th = geodesic_chord_points(r, th, np.roll(r, -1), np.roll(th, -1), ts)
    return r.ravel(), th.ravel()


def polygon_region(poly: GeodesicPolygon, samples_per_edge=32) -> SampledRegion:
    """Densely sampled boundary of a geodesic polygon."""
    r, th = _sample_polygon_boundary(poly, samples_per_edge)
    xy = polar_to_cart(r, th)
    boundary = np.vstack([xy, xy[:1]])
    return SampledRegion(boundary, provenance={
        "kind": "polygon",
        "vertices_polar": [[v.r, v.theta] for v in poly.vertices],
        "samples_per_edge": samples_per_edge,
    }, polygon=poly)


def dilate_region(poly: GeodesicPolygon, params: DilationParams,
                  samples_per_edge=32) -> SampledRegion:
    """Image of a geodesic polygon under a dilation, as a sampled boundary loop."""
    r, th = _sample_polygon_boundary(poly, samples_per_edge)
    xy = dilate_xy(params, polar_to_cart(r, th))
    boundary = np.vstack([xy, xy[:1]])
    return SampledRegion(boundary, provenance={
        "kind": "dilated-polygon",
        "vertices_polar": [[v.r, v.theta] for v in poly.vertices],
        "center_cart": list(params.center.cart),
        "k1": params.k1,
        "k2": params.k2,
        "samples_per_edge": samples_per_edge,
    }, polygon=poly)


# --- convexity defect --------------------------------------------------------

def van_der_corput(m):
    """First m terms of the base-2 van der Corput sequence; nested prefixes in (0, 1)."""
    out = np.empty(m)
    for i in range(m):
        n, denom, v = i + 1, 1.0, 0.0
        while n:
            denom *= 2.0
            v += (n & 1) / denom
            n >>= 1
        out[i] = v
    return out


def _exact_membership(region: SampledRegion, pts):
    """Membership of hyperboloid probes (P, 3) through the region's polygon, or None without one.

    For a polygon (possibly dilated) the true region is known exactly: a probe
    lies in the image iff its preimage under the dilation lies in the polygon.
    This sidesteps the discretization floor of the sampled loop, which is on
    the order of the boundary sagitta and far above the 1e-6 regime the
    harness must resolve.  Probes are boosted to the center, then mapped to the Klein chart.
    """
    poly = region.polygon
    if poly is None or not poly.hconvex:
        return None
    prov = region.provenance
    center = np.asarray(prov.get("center_cart", (0.0, 0.0)), dtype=float)
    verts = poly.klein()
    if float(center @ center) > 0.0:
        verts = hyperboloid_translate(-center, np.column_stack([verts, np.ones(len(verts))]))
        verts = verts[:, :2] / verts[:, 2:]  # the boost is linear, so Klein rows need no lift
        pts = hyperboloid_translate(-center, pts)
    x, y = pts[:, 0], pts[:, 1]
    q = dilate_origin_chart(1.0 / prov.get("k1", 1.0), 1.0 / prov.get("k2", 1.0),
                            np.arcsinh(np.hypot(x, y)), x, y, np.tanh)
    return klein_polygon_contains(verts, q)


@functools.lru_cache(maxsize=64)
def _chord_pairs(n_boundary, pair_samples, per_edge, n_fallback):
    """Deterministic chord endpoint pairs (M, 2): all vertex pairs plus a stratified stream.

    The vertices are every per_edge-th boundary sample when per_edge is
    given, else n_fallback evenly spaced samples.  The random stream is a
    fixed-seed prefix so that a larger pair_samples extends (never
    reshuffles) a smaller one, keeping the measured defect monotone under
    refinement.  Cached per size; the array is read-only.
    """
    if per_edge:
        vertex_indices = np.arange(0, n_boundary, per_edge)
    else:
        vertex_indices = np.linspace(0, n_boundary - 1, n_fallback, dtype=int)
    i, j = np.triu_indices(len(vertex_indices), k=1)
    rng = np.random.default_rng(1905)
    extra = rng.integers(0, n_boundary, size=(pair_samples, 2))
    pairs = np.concatenate([np.stack([vertex_indices[i], vertex_indices[j]], axis=1),
                            extra[extra[:, 0] != extra[:, 1]]])
    pairs.setflags(write=False)
    return pairs


def convexity_defect(region: SampledRegion, pair_samples=128, segment_samples=16) -> float:
    """Largest outside excursion of sampled geodesic chords between boundary points.

    Chords are sampled at segment_samples interior points (nested van der
    Corput parameters along the hyperboloid chord).  A sample inside the
    region contributes 0; an outside sample contributes its Euclidean distance
    to the boundary loop.  Zero, up to discretization, for h-convex regions.
    """
    if pair_samples < 16 or segment_samples < 16:
        raise ValueError("pair_samples and segment_samples must be at least 16")
    loop = region.boundary
    n = loop.shape[0] - 1
    lifted = hyperboloid_lift(*cart_to_polar(loop[:-1]))
    prov = region.provenance
    per_edge = prov.get("samples_per_edge") if prov.get("vertices_polar") else None
    i, j = _chord_pairs(n, pair_samples, per_edge, 12).T
    ts = van_der_corput(segment_samples)
    probes = hyperboloid_chord_vectors(lifted[i], lifted[j], ts).reshape(-1, 3)

    inside = _exact_membership(region, probes)
    exact = inside is not None
    if not exact:
        inside = winding_contains(loop, polar_to_cart(*hyperboloid_polar(probes)))
    outside = ~inside
    if not np.any(outside):
        return 0.0
    defect = max_polyline_distance(loop, polar_to_cart(*hyperboloid_polar(probes[outside])))
    # without exact membership, probes within ON_BOUNDARY_TOL of the loop count inside
    return 0.0 if not exact and defect < ON_BOUNDARY_TOL else defect


# --- random generation -------------------------------------------------------

def random_hconvex_polygon(rng, center: DiskPoint = ORIGIN,
                           r_range=(0.2, 3.0), max_vertices=12) -> GeodesicPolygon:
    """Random h-convex polygon strictly containing the requested center.

    Points are drawn in polar coordinates of the frame translated to the
    center, with angles stratified over m >= 5 sectors so that consecutive
    angular gaps stay below pi and the center is interior to the hull.
    """
    m = int(rng.integers(5, max_vertices + 1))
    sector = 2.0 * math.pi / m
    thetas = (np.arange(m) + rng.uniform(0.0, 1.0, m)) * sector - math.pi
    radii = rng.uniform(r_range[0], r_range[1], m)
    pts = [DiskPoint.from_polar(r, th) for r, th in zip(radii, thetas)]
    if center.r > 0.0:
        xy = _translate_rows(center.xy, np.array([p.cart for p in pts]))
        pts = [DiskPoint.from_cart(x, y) for x, y in xy.tolist()]
    return hyperbolic_hull(pts)


# --- serialization -----------------------------------------------------------

def region_to_json(region: SampledRegion) -> str:
    doc = {"boundary": region.boundary.tolist(), "provenance": region.provenance}
    return json.dumps(doc, sort_keys=True)


def region_from_json(text: str) -> SampledRegion:
    """Region from region_to_json text; the polygon its provenance names is rebuilt once."""
    doc = json.loads(text)
    prov = doc.get("provenance", {})
    poly = (GeodesicPolygon.from_polar(prov["vertices_polar"])
            if prov.get("kind") in ("polygon", "dilated-polygon") else None)
    region = SampledRegion(np.asarray(doc["boundary"], dtype=float), prov, poly)
    region.check_simple()
    return region


def polygon_to_json(poly: GeodesicPolygon) -> str:
    return json.dumps({"vertices_polar": [[v.r, v.theta] for v in poly.vertices]},
                      sort_keys=True)


def polygon_from_json(text: str) -> GeodesicPolygon:
    return GeodesicPolygon.from_polar(json.loads(text)["vertices_polar"])
