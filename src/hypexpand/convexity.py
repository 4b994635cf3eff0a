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
import math
from dataclasses import dataclass, field

import numpy as np

from .dilation import DilationParams, dilate_origin_chart, dilate_xy
from .disk import (
    _check_radii,
    _read_only,
    geodesic_chord_points,
    hyperboloid_cart,
    hyperboloid_lift,
    mobius_translate,
)

SIDEDNESS_TOL = 1e-12
MIN_SAMPLES = 16  # the fewest samples per edge, chord pairs or samples per chord
CHUNK_PROBES = 32  # probes max_polyline_distance checks at once; 16, 24 and 64 were 0-6% slower
# random_hconvex_polygon draws 5 to MAX_VERTICES vertices at radii in STAR_RADII
MAX_VERTICES, STAR_RADII = 12, (0.2, 3.0)
# Sampling of a region and its defect, recorded in reports and witnesses:
# boundary samples per polygon edge, random chord pairs, samples per chord
SAMPLES_PER_EDGE, PAIR_SAMPLES, SEGMENT_SAMPLES = 32, 128, 16
# verify-theorem and sphere-conjecture trials whose polygons and regions are built at once:
# per-trial numpy calls on at most 12 vertices are overhead-bound, and a block bounds the
# memory they take
TRIAL_BLOCK = 20


# --- projective charts -------------------------------------------------------

def _convex_hull_2d(pts):
    """Monotone-chain convex hull of the rows pts (m, 2); returns the row indices of its
    counterclockwise vertices, no repeats."""
    pts = np.asarray(pts, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.abs(np.diff(pts[order], axis=0)) > 1e-15, axis=1)
    order = order[keep]
    # (x, y, row) tuples: the chain's scalar arithmetic is faster on floats
    pts = [(x, y, i) for (x, y), i in zip(pts[order].tolist(), order.tolist())]
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
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("degenerate (collinear) input")
    return np.array([p[2] for p in hull])


def _next_rows(verts):
    """The rows of verts (..., V, k) shifted by one, as np.roll(verts, -1, axis=-2) has them."""
    return np.concatenate((verts[..., 1:, :], verts[..., :1, :]), axis=-2)


def _klein_signed_area(kverts):
    """Signed areas (...) of the polygons with vertex rows kverts (..., V, 2)."""
    nxt = _next_rows(kverts)
    cross = kverts[..., 0] * nxt[..., 1]
    cross -= kverts[..., 1] * nxt[..., 0]
    return 0.5 * cross.sum(axis=-1)


def _vertex_margins(kverts):
    """klein_polygon_contains's margins (b - a) x (k[i] - a) (..., V, V): edges j = a -> b by
    vertices i, of the polygons kverts (..., V, 2)."""
    e = _next_rows(kverts) - kverts
    d = kverts[..., None, :, :] - kverts[..., :, None, :]
    return e[..., :, None, 0] * d[..., 1] - e[..., :, None, 1] * d[..., 0]


def _check_polygon_chart(verts):
    """Raise ValueError unless each set of chart vertices (..., V, 2) forms a simple ccw polygon;
    return their convexity flags (...).

    Two edges cross iff each splits the other's ends, strictly left (margins > 0) against not;
    one test covers the stack.  A vertex's margins against its own edges are exactly 0; if all
    others are > 0, no edges cross, and the test, +50% per hull, is skipped."""
    n = verts.shape[-2]
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if not (_klein_signed_area(verts) > 0.0).all():
        raise ValueError("polygon must be counterclockwise")
    margins = _vertex_margins(verts)
    side = margins > 0
    if np.count_nonzero(side) < side.size // n * (n - 2):  # some polygon is not strictly convex
        idx = np.arange(n)
        splits = side != side[..., (idx + 1) % n]  # splits[..., j, i]: edge j splits edge i's ends
        gap = (idx[:, None] - idx) % n  # edges with gap 0, 1 or n - 1 share a vertex
        if np.any(splits & np.swapaxes(splits, -1, -2) & (gap > 1) & (gap < n - 1)):
            raise ValueError("polygon edges self-intersect")
    return margins.min(axis=(-2, -1)) >= -SIDEDNESS_TOL


# --- geodesic polygons -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeodesicPolygon:
    """A simple geodesic polygon: read-only hyperboloid sheet rows (V, 3) of its counterclockwise
    vertices, their Klein rows (V, 2), and whether it is h-convex at the default tolerance."""

    sheet: np.ndarray
    klein: np.ndarray = field(init=False, repr=False)
    hconvex: bool = field(init=False, repr=False)

    def __post_init__(self):
        self._set(*_polygon_rows(_read_only(self.sheet).reshape(-1, 3)))

    def _set(self, sheet, klein, hconvex):
        for name, value in (("sheet", sheet), ("klein", klein), ("hconvex", bool(hconvex))):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, *fields):
        """The polygon of validated fields (sheet, klein, hconvex), as _polygon_rows returns them."""
        poly = object.__new__(cls)
        poly._set(*fields)
        return poly

    @classmethod
    def from_polar(cls, pairs):
        """The polygon with the vertices (r, theta) of pairs (V, 2), whose radii tanh(r/2) must
        lie in the chart: the vertices are the farthest points of its boundary from the origin,
        and are checked before their lift or the chords between them can overflow."""
        r, theta = np.array(pairs, dtype=float).reshape(-1, 2).T
        if (r < 0.0).any():
            raise ValueError("hyperbolic radius must be nonnegative")
        _check_radii(r, "the polygon's vertices carry")
        return cls(hyperboloid_lift(r, theta))


def _check_sheet(rows, what):
    """Raise ValueError, naming what, unless each row (..., 3) is a finite point of the sheet."""
    if not (np.all(np.isfinite(rows)) and np.all(rows[..., 2] >= 1.0)):
        raise ValueError(f"{what} must be finite points of the hyperboloid sheet")


def _polygon_rows(sheets):
    """Read-only sheet rows (..., V, 3), their Klein rows (..., V, 2) and convexity flags (...)
    of polygons; ValueError unless each is a simple ccw polygon of finite points of the sheet.

    The Klein rows are the sheet rows divided, x/z and y/z."""
    _check_sheet(sheets, "polygon vertices")
    klein = sheets[..., :2] / sheets[..., 2:]
    for a in (sheets, klein):
        a.setflags(write=False)
    return sheets, klein, _check_polygon_chart(klein)


def klein_polygon_contains(kverts, probes):
    """Half-plane membership of probes (P, 2) in a convex ccw Klein polygon (V, 2).

    The test is planar, so the gnomonic vertices of a spherical polygon serve
    as well.  A probe is inside iff its cross product against every directed edge
    a -> b, (b - a) x (p - a), is at least -SIDEDNESS_TOL.  One pass over the edges,
    each on the whole probe array.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    px, py = probes[:, 0], probes[:, 1]
    inside = np.ones(len(probes), dtype=bool)
    verts = np.asarray(kverts, dtype=float).tolist()
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= -SIDEDNESS_TOL
    return inside


def _hulls(chart, counts, polygons):
    """The polygons hulling runs of the 2-D chart rows chart (m, 2): the first counts[0] rows, the
    next counts[1], ...; the hull step of both surfaces' generators.

    Each run is hulled by _convex_hull_2d.  polygons(group, rows) validates and builds the
    polygons of one vertex count at once, from the positions of their runs and their hulls'
    row indices (G, V) into chart, and returns them in the order of group."""
    hulls, start = [], 0
    for m in counts:
        hulls.append(start + _convex_hull_2d(chart[start:start + m]))
        start += m
    groups = {}  # positions by vertex count, in order of first sight
    for t, hull in enumerate(hulls):
        groups.setdefault(len(hull), []).append(t)
    polys = [None] * len(hulls)
    for group in groups.values():
        for t, poly in zip(group, polygons(group, np.stack([hulls[t] for t in group]))):
            polys[t] = poly
    return polys


def _closed_runs(rows, counts):
    """Runs of rows (m, k), the first counts[0] rows, the next counts[1], ..., each closed: its
    first row again at its end; the boundary loops of both surfaces' block builders."""
    return [np.concatenate((run, run[:1])) for run in np.split(rows, np.cumsum(counts)[:-1])]


def _in_trial_order(build, *columns):
    """build(*columns), whose columns hold one entry per trial of a block; an error is the one
    that building the trials one at a time raises, the first failing trial's first failing check.

    A block that fails is built again one trial at a time, to find that error."""
    try:
        return build(*columns)
    except ValueError:
        for row in zip(*columns):
            build(*([x] for x in row))
        raise


def _klein_hulls(pts, counts):
    """Minimal h-convex polygons containing runs of the hyperboloid points pts (m, 3), as _hulls
    takes runs; each by a Klein hull, its vertices rows of pts.

    The division to the Klein chart is elementwise, so each group of one vertex count is
    validated with the bits of the Klein rows it was hulled by."""
    pts = np.asarray(pts, dtype=float)
    return _hulls(pts[:, :2] / pts[:, 2:], counts, lambda group, rows: map(
        GeodesicPolygon._of, *_polygon_rows(pts[rows])))


def hyperbolic_hull(pts) -> GeodesicPolygon:
    """Minimal h-convex polygon containing the hyperboloid points pts (m, 3), by a Klein hull;
    its vertices are rows of pts.  The one-polygon case of _klein_hulls."""
    return _klein_hulls(pts, [len(pts)])[0]


# --- sampled regions ---------------------------------------------------------

def _check_loop(boundary, samples_per_edge, n_vertices):
    """Raise ValueError unless boundary is a closed loop of samples_per_edge rows per edge."""
    if np.max(np.abs(boundary[0] - boundary[-1])) > 1e-12:
        raise ValueError("boundary loop is not closed")
    rows = samples_per_edge * n_vertices + 1
    if len(boundary) != rows:
        raise ValueError(f"boundary has {len(boundary)} rows, not samples_per_edge x vertices"
                         f" + 1 = {rows}")


@dataclass
class SampledRegion:
    """Sampled boundary loop of the image of an h-convex polygon under a dilation.

    boundary has shape (N, 3), rows of the hyperboloid sheet inside the Poincare chart (arccosh z
    exact), samples_per_edge (at least MIN_SAMPLES) per polygon edge, first and last rows
    coinciding to 1e-12.  The map is the dilation by (k1, k2) about the Cartesian center (the
    identity has factors 1); the region carries the validated polygon, and defect measurement
    tests membership exactly through it instead of against the discretized loop.
    """

    boundary: np.ndarray
    polygon: GeodesicPolygon
    samples_per_edge: int
    k1: float
    k2: float
    center: np.ndarray

    def __post_init__(self):
        self.boundary = np.asarray(self.boundary, dtype=float)
        if not (isinstance(self.polygon, GeodesicPolygon) and self.polygon.hconvex):
            raise ValueError("a region must be the image of an h-convex polygon")
        if self.boundary.ndim != 2 or self.boundary.shape[1] != 3:
            raise ValueError("boundary must have shape (N, 3)")
        _check_sheet(self.boundary, "boundary rows")
        _check_loop(self.boundary, self.samples_per_edge, len(self.polygon.sheet))
        _check_radii(np.arccosh(self.boundary[:, 2]),
                     f"factors k1={self.k1!r}, k2={self.k2!r} carry")


def _loop_segments(loop):
    """Start points (ax, ay), edge vectors (ex, ey) and squared lengths ee (1 where zero) of
    the segments of a closed loop, each one contiguous array."""
    x, y = loop[:, 0], loop[:, 1]
    ax, ay = x[:-1].copy(), y[:-1].copy()
    ex, ey = x[1:] - ax, y[1:] - ay
    ee = ex * ex + ey * ey
    return ax, ay, ex, ey, np.where(ee < 1e-300, 1.0, ee)


def _segment_distances(px, py, ax, ay, ex, ey, ee):
    """Distances from probes (px, py) to segments (ax, ay) + t (ex, ey), t in [0, 1].

    Elementwise, so a value does not depend on which other probes and segments
    are passed with it.  Formed from correctly rounded IEEE-754 operations alone
    (sqrt, not libm's hypot), so it is the same bits on every IEEE-754 platform.
    """
    t, w = px - ax, py - ay  # the two arrays of the broadcast shape that every step writes into
    t *= ex
    w *= ey
    t += w
    t /= ee
    np.clip(t, 0.0, 1.0, out=t)
    w = np.subtract(px, np.add(ax, np.multiply(t, ex, out=w), out=w), out=w)  # dx
    t = np.subtract(py, np.add(ay, np.multiply(t, ey, out=t), out=t), out=t)  # dy
    w *= w
    t *= t
    w += t
    return np.sqrt(w, out=w)


def polyline_distance(loop, probes):
    """Euclidean distance from each probe (P, 2) to the closed polyline, every segment checked."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    return np.min(_segment_distances(probes[:, 0, None], probes[:, 1, None],
                                     *_loop_segments(loop)), axis=1)


def max_polyline_distance(loop, probes) -> float:
    """Largest distance from the probes (P, 2) to the closed polyline.

    Bitwise equal to float(np.max(polyline_distance(loop, probes))), nan
    included, and like it raises ValueError when there are no probes.  Each
    probe is bounded from above by its distances to the two segments that meet
    at a segment start below it in angle about the mean of the starts: the
    last start at or below the left edge of the probe's bin, in a table of 8
    uniform bins per segment, an O(1) lookup.  The distances are computed as
    polyline_distance computes them, so each is one of the values it takes the
    minimum of, and any start gives a valid bound; a loop that is not
    star-shaped about its mean, or a start between the probe and its bin's
    left edge, only loosens it.
    Then the CHUNK_PROBES probes of largest bound are checked against every
    segment, the probes whose bound does not exceed the largest distance found
    are dropped, and so on until none is left.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if not (len(probes) and np.all(np.isfinite(loop)) and np.all(np.isfinite(probes))):
        return float(np.max(polyline_distance(loop, probes)))
    segments = _loop_segments(loop)
    ax, ay = segments[:2]
    mx, my = np.mean(ax), np.mean(ay)
    angle = np.arctan2(ay - my, ax - mx)
    by_angle = np.argsort(angle)
    bins = 8 * len(angle)
    # the start at or below each bin's left edge; the last one is below the first
    edges = np.linspace(-math.pi, math.pi, bins, endpoint=False)
    below = by_angle[np.searchsorted(angle[by_angle], edges, side="right") - 1]
    px, py = probes[:, 0], probes[:, 1]
    at = ((np.arctan2(py - my, px - mx) + math.pi) * (bins / (2.0 * math.pi))).astype(np.intp)
    j = below.take(np.minimum(at, bins - 1))  # an angle of pi is in the last bin
    bound = np.minimum(*(_segment_distances(px, py, *(c.take(k) for c in segments))
                         for k in (j, j - 1)))
    best = -math.inf
    while len(bound):
        top = np.argpartition(bound, -min(CHUNK_PROBES, len(bound)))[-CHUNK_PROBES:]
        best = max(best, float(np.max(polyline_distance(loop, probes[top]))))
        keep = bound > best
        keep[top] = False
        probes, bound = probes[keep], bound[keep]
    return best


# --- region construction -----------------------------------------------------

def _check_samples(**counts):
    """Raise ValueError unless every sample count is at least MIN_SAMPLES."""
    for name, n in counts.items():
        if n < MIN_SAMPLES:
            raise ValueError(f"{name} must be at least {MIN_SAMPLES}, got {n!r}")


def _edge_ts(per_edge):
    """Parameters in [0, 1) of per_edge samples along an edge, its start included."""
    _check_samples(samples_per_edge=per_edge)
    return np.arange(per_edge, dtype=float) / per_edge


def _dilate_block(polys, params, per_edge):
    """dilate_regions without its error order: the first stage that fails raises."""
    ts = _edge_ts(per_edge)
    verts = np.concatenate([poly.sheet for poly in polys])
    # distance from the origin is convex along geodesics: the vertices are the farthest samples
    _check_radii(np.arccosh(verts[:, 2]), "the polygon's vertices carry")
    nxt = np.concatenate([_next_rows(poly.sheet) for poly in polys])
    samples = geodesic_chord_points(verts, nxt, ts).reshape(-1, 3)
    rows = [per_edge * len(poly.sheet) for poly in polys]
    sheet = dilate_xy(DilationParams(np.repeat([p.center for p in params], rows, axis=0),
                                     np.repeat([p.k1 for p in params], rows),
                                     np.repeat([p.k2 for p in params], rows)), samples)
    return [SampledRegion(loop, poly, per_edge, p.k1, p.k2, p.center)
            for loop, poly, p in zip(_closed_runs(sheet, rows), polys, params)]


def dilate_regions(polys, params, samples_per_edge=SAMPLES_PER_EDGE) -> list[SampledRegion]:
    """Images of geodesic polygons, each under its own dilation, as sampled boundary loops.

    The regions are built together: one geodesic_chord_points call samples every edge
    between its ends' sheet rows, and one dilate_xy call, with a center and factors per
    row, maps every sample, so each region has the bits it has built alone.  An error is
    the one that building the regions one at a time raises: the first failing region's
    first failing check (its vertices, then its image).
    """
    return _in_trial_order(lambda *block: _dilate_block(*block, samples_per_edge), polys, params)


def dilate_region(poly: GeodesicPolygon, params: DilationParams,
                  samples_per_edge=SAMPLES_PER_EDGE) -> SampledRegion:
    """Image of a geodesic polygon under a dilation, as a sampled boundary loop: the one-region
    case of dilate_regions.  The identity, DilationParams((0, 0), 1, 1), samples the polygon's
    own boundary."""
    return dilate_regions([poly], [params], samples_per_edge)[0]


# --- convexity defect --------------------------------------------------------

@functools.lru_cache(maxsize=16)
def van_der_corput(m):
    """First m terms of the base-2 van der Corput sequence; nested prefixes in (0, 1).

    Cached per m; the array is read-only."""
    out = np.empty(m)
    for i in range(m):
        n, denom, v = i + 1, 1.0, 0.0
        while n:
            denom *= 2.0
            v += (n & 1) / denom
            n >>= 1
        out[i] = v
    out.setflags(write=False)
    return out


def _exact_membership(region: SampledRegion, pts):
    """Membership of hyperboloid probes (P, 3) in the region, through its polygon.

    The region is known exactly: a probe lies in the image iff its preimage
    under the dilation lies in the polygon.  This sidesteps the
    discretization floor of the sampled loop, which is on the order of the
    boundary sagitta and far above the 1e-6 regime the harness must resolve.
    Probes and vertices are boosted to the center, then mapped to the Klein chart.
    """
    center = region.center
    verts = region.polygon.klein
    # no boost about the origin; with dilate_xy's fork: contraction +9% ops/s, -0.8 MB (measured
    # with star_hulls' fork gone too, which contraction never runs)
    if float(center @ center) > 0.0:
        verts = mobius_translate(-center, region.polygon.sheet)
        verts = verts[:, :2] / verts[:, 2:]
        pts = mobius_translate(-center, pts)
    x, y = pts[:, 0], pts[:, 1]
    n = np.sqrt(x * x + y * y)
    q = dilate_origin_chart(1.0 / region.k1, 1.0 / region.k2, np.arcsinh(n), x, y, n, np.tanh)
    return klein_polygon_contains(verts, q)


@functools.lru_cache(maxsize=64)
def _chord_pairs(n_boundary, pair_samples, per_edge):
    """Deterministic chord endpoint pairs: all vertex pairs plus a stratified stream.

    The vertices are every per_edge-th boundary sample.  The random stream is
    a fixed-seed prefix so that a larger pair_samples extends (never
    reshuffles) a smaller one, keeping the measured defect monotone under
    refinement.  Returns the sorted distinct endpoints and the pairs (M, 2) as
    positions in them.  Cached per size; the arrays are read-only.
    """
    vertex_indices = np.arange(0, n_boundary, per_edge)
    i, j = np.triu_indices(len(vertex_indices), k=1)
    rng = np.random.default_rng(1905)
    extra = rng.integers(0, n_boundary, size=(pair_samples, 2))
    pairs = np.concatenate([np.stack([vertex_indices[i], vertex_indices[j]], axis=1),
                            extra[extra[:, 0] != extra[:, 1]]])
    ends, at = np.unique(pairs, return_inverse=True)
    at = at.reshape(pairs.shape)
    for a in (ends, at):
        a.setflags(write=False)
    return ends, at


def _chord_plan(region, pair_samples, segment_samples):
    """A defect's chord endpoint indices, its pairs i, j as positions in them, and parameters."""
    _check_samples(samples_per_edge=region.samples_per_edge, pair_samples=pair_samples,
                   segment_samples=segment_samples)
    ends, at = _chord_pairs(len(region.boundary) - 1, pair_samples, region.samples_per_edge)
    return ends, at[:, 0], at[:, 1], van_der_corput(segment_samples)


def convexity_defect(region: SampledRegion, pair_samples=PAIR_SAMPLES,
                     segment_samples=SEGMENT_SAMPLES) -> float:
    """Largest outside excursion of sampled geodesic chords between boundary points.

    Chords are sampled between boundary rows (geodesic_chord_points) at segment_samples
    interior points, nested van der Corput parameters.  A sample inside the region
    contributes 0; an outside sample contributes its Euclidean distance to the boundary
    loop, both in the Poincare chart.  Zero, up to discretization, for h-convex regions.
    """
    loop = region.boundary
    ends, i, j, ts = _chord_plan(region, pair_samples, segment_samples)
    ends = loop[ends]
    # (M, T, 3) component-major, so the (P, 3) form is a view
    probes = geodesic_chord_points(ends[i], ends[j], ts).reshape(-1, 3)
    outside = ~_exact_membership(region, probes)
    if not np.any(outside):
        return 0.0
    return max_polyline_distance(hyperboloid_cart(loop), hyperboloid_cart(probes[outside]))


# --- random generation -------------------------------------------------------

def _star_polar(rng, max_vertices=MAX_VERTICES, r_range=STAR_RADII):
    """Polar (radii, angles) of 5 to max_vertices points drawn about the origin of a chart.

    One angle falls in each of m equal sectors, so consecutive angular gaps stay below pi
    and the origin is interior to the hull; the radii are uniform in r_range."""
    m = int(rng.integers(5, max_vertices + 1))
    sector = 2.0 * math.pi / m
    thetas = (np.arange(m) + rng.uniform(0.0, 1.0, m)) * sector - math.pi
    return rng.uniform(r_range[0], r_range[1], m), thetas


def star_hulls(stars, centers) -> list[GeodesicPolygon]:
    """The h-convex polygons of star draws, each strictly containing its Cartesian center.

    stars holds one _star_polar draw (radii, angles) per polygon and centers (T, 2) one
    center each.  Every point is lifted to the sheet in one call and boosted to its
    polygon's center in another, so the center is interior to each hull; then each
    polygon's points are hulled (_klein_hulls).  A boost by the zero center keeps every
    nonzero coordinate's bits.
    """
    counts = [len(radii) for radii, _ in stars]
    pts = hyperboloid_lift(*(np.concatenate(a) for a in zip(*stars)))
    pts = mobius_translate(np.repeat(np.asarray(centers, dtype=float), counts, axis=0), pts)
    return _klein_hulls(pts, counts)


def random_hconvex_polygon(rng, r_range=STAR_RADII) -> GeodesicPolygon:
    """Random h-convex polygon strictly containing the origin: the one-polygon case of
    star_hulls, of a _star_polar draw."""
    return star_hulls([_star_polar(rng, r_range=r_range)], [(0.0, 0.0)])[0]
