"""Independent references the tests compare the package against.

None of these is on a command's path.  Curves are closures t -> (r, theta)
with their derivatives, whose geodesic curvature is checked against the
package's jets; finite-difference curve derivatives check the analytic jets,
the polar chord equation and the diameter branch give geodesics as curves,
hyperbolic distance goes through the disk translation's Cartesian formula
(the reference of the package's boost on sheet rows) and the radial formula, the lemma margins have Taylor-sum, direct and slope forms, and the
auxiliary functions phi and psi have the forms that evaluate both branches.
Points are given in polar, Cartesian and hyperboloid form.  The Klein chart
maps, the gnomonic inverse and the angle wrap serve the tests only: a
polygon keeps the surface rows its generator drew.  The generator, region
builder and trial of verify-theorem (H²) and of sphere-conjecture (S²) are kept
as they ran one trial at a time, the bitwise references of the builders that
take a block of trials, and curvature-sweep's side ordering as it ran one chord
at a time, the bitwise reference of the stack of chords.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from conftest import dot3
from hypexpand import curvature, sphere
from hypexpand.convexity import (SAMPLES_PER_EDGE, SampledRegion, _check_polygon_chart,
                                 _convex_hull_2d, _star_polar, convexity_defect, hyperbolic_hull)
from hypexpand.curvature import (SERIES_CUTOFF, ChordSpec, chord_radius,
                                  gamma_curvature_closed_form, phi, preimage_state, psi)
from hypexpand.dilation import DilationParams, dilate_origin_polar, dilate_xy
from hypexpand.disk import (_check_radii, chord_jet, curvature_from_derivatives,
                            geodesic_chord_points, hyperboloid_lift, mobius_translate,
                            polar_chord_radius, polar_to_cart)
from hypexpand.lemmas import SERIES_MAX_TERMS, SERIES_REL_STOP
from hypexpand.sphere import Chart, SphericalPolygon, SphericalRegion, great_circle_points

# first-derivative finite-difference step on t; stencils are central and
# Richardson-extrapolated once.  Second-derivative steps are chosen per
# evaluation point: the 4*eps/h^2 rounding noise of a second difference and
# the h^4 truncation error pull in opposite directions, and the balance point
# tracks the local feature width r(t)/v(t) of the curve (short slow curves
# want large steps, radial dips near the origin want small ones).
FD_STEP_D1 = 1e-5
FD_SCALE_D2 = 0.008

# below these, curvature evaluation is treated as degenerate
SPEED_EPS = 1e-12
RADIUS_EPS = 1e-12
RHO_MAX = float(np.nextafter(1.0, 0.0))  # the largest Cartesian radius inside the disk


def wrap_angle(theta):
    """Reduce an angle (scalar or array) to [-pi, pi)."""
    return (np.asarray(theta) + math.pi) % (2.0 * math.pi) - math.pi


def to_klein(p):
    """Poincare Cartesian (..., 2) -> Klein: q = 2p / (1 + |p|^2)."""
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


def klein_sheet(q):
    """Hyperboloid rows (..., 3) of Klein rows q (..., 2): (q, 1) / sqrt(1 - |q|^2)."""
    q = np.asarray(q, dtype=float)
    w = 1.0 / np.sqrt(1.0 - np.sum(q * q, axis=-1))[..., None]
    return np.concatenate([q * w, w], axis=-1)


def cart_to_polar(xy):
    """Map Cartesian points strictly inside the disk to (r, theta) arrays."""
    xy = np.asarray(xy, dtype=float)
    rho = np.hypot(xy[..., 0], xy[..., 1])
    if np.any(rho >= 1.0):
        raise ValueError("point outside the open unit disk")
    r = 2.0 * np.arctanh(rho)
    theta = np.where(rho > 0.0, np.arctan2(xy[..., 1], xy[..., 0]), 0.0)
    return r, theta


def cart_mobius_translate(c, x):
    """Disk translation carrying 0 to c, applied to Cartesian points x (shape (..., 2)).

    tau_c(x) = ((1 + 2 c.x + |x|^2) c + (1 - |c|^2) x) / (1 + 2 c.x + |c|^2 |x|^2)

    This is an orientation-preserving hyperbolic isometry with tau_c(0) = c,
    and its inverse is tau_{-c}: disk.mobius_translate on the Poincare rows of
    sheet points.  c (..., 2) broadcasts against x.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    cx, cy = c[..., 0], c[..., 1]
    cc = cx * cx + cy * cy
    dot = x[..., 0] * cx + x[..., 1] * cy
    nx = np.sum(x * x, axis=-1)
    num = (1.0 + 2.0 * dot + nx)[..., None] * c + (1.0 - cc)[..., None] * x
    den = 1.0 + 2.0 * dot + cc * nx
    return num / den[..., None]


def gnomonic_inverse(chart, uv):
    """Unit vectors (m, 3) of the gnomonic rows uv (m, 2) of a sphere.Chart."""
    uv = np.atleast_2d(np.asarray(uv, dtype=float))
    v = chart.n + uv[:, 0][:, None] * chart.e1 + uv[:, 1][:, None] * chart.e2
    return v / np.linalg.norm(v, axis=-1)[:, None]


class Point(NamedTuple):
    """A point of the disk: polar r and theta, and Cartesian xy (2,)."""

    r: float
    theta: float
    xy: np.ndarray

    @property
    def sheet(self):
        """The point's hyperboloid row (3,), hyperboloid_lift(r, theta)."""
        return hyperboloid_lift(self.r, self.theta)


def polar_point(r, theta) -> Point:
    """The point (r, theta), theta wrapped and 0 at the origin, with its polar_to_cart row."""
    theta = 0.0 if r == 0.0 else float(wrap_angle(theta))
    return Point(float(r), theta, polar_to_cart(r, theta))


def cart_point(x, y) -> Point:
    """The point (x, y), with its cart_to_polar coordinates."""
    xy = np.array([x, y], dtype=float)
    r, theta = cart_to_polar(xy)
    return Point(float(r), float(theta), xy)


ZERO = polar_point(0.0, 0.0)


@dataclass
class ParamCurve:
    """A twice-differentiable curve t in [0,1] -> (r(t), theta(t)).

    eval returns a pair of arrays; theta is kept continuous (unwrapped) along
    the curve so that derivatives are meaningful.  d1 and d2 return the first
    and second derivative pairs.
    """

    eval: Callable
    d1: Callable
    d2: Callable
    start: Point
    end: Point


def geodesic_curvature(curve: ParamCurve, t):
    """Geodesic curvature of a curve at parameter t (scalar or array).

    Raises ValueError on degenerate evaluation (speed or radius below 1e-12,
    where the polar chart or the normalization breaks down).
    """
    r, _ = curve.eval(t)
    dr, dth = curve.d1(t)
    d2r, d2th = curve.d2(t)
    r = np.asarray(r, dtype=float)
    v = np.sqrt(np.asarray(dr) ** 2 + np.sinh(r) ** 2 * np.asarray(dth) ** 2)
    if np.any(v < SPEED_EPS) or np.any(r < RADIUS_EPS):
        raise ValueError("degenerate curvature evaluation: speed or radius below 1e-12")
    out = curvature_from_derivatives(r, dr, d2r, dth, d2th)
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class RecordedCurve(ParamCurve):
    """A ParamCurve that records how its derivatives are taken and which branch built it."""

    derivative_kind: str = "analytic"
    meta: dict = field(default_factory=dict)


def hyperbolic_distance(u: Point, v: Point) -> float:
    """Distance via translation of u to the origin followed by the radial formula."""
    w = cart_mobius_translate(-u.xy, v.xy)
    rho = min(math.hypot(w[0], w[1]), RHO_MAX)
    return 2.0 * math.atanh(rho)


# --- finite-difference derivatives --------------------------------------------

def _fd_d1(f, t, h):
    def diff(hh):
        rp, tp = f(t + hh)
        rm, tm = f(t - hh)
        return (rp - rm) / (2.0 * hh), (tp - tm) / (2.0 * hh)

    a = diff(h)
    b = diff(h / 2.0)
    return (4.0 * b[0] - a[0]) / 3.0, (4.0 * b[1] - a[1]) / 3.0


def _fd_d2(f, t, h):
    r0, t0 = f(t)

    def diff(hh):
        rp, tp = f(t + hh)
        rm, tm = f(t - hh)
        return (rp - 2.0 * r0 + rm) / hh ** 2, (tp - 2.0 * t0 + tm) / hh ** 2

    a = diff(h)
    b = diff(h / 2.0)
    return (4.0 * b[0] - a[0]) / 3.0, (4.0 * b[1] - a[1]) / 3.0


def from_polar_function(f, h1=FD_STEP_D1, h2=None) -> RecordedCurve:
    """Wrap a plain t -> (r, theta) function with finite-difference derivatives.

    Derivatives are central differences, Richardson-extrapolated once, and
    require t and the stencil to stay inside [0, 1].  The radial coordinate
    is differenced as tanh(r/2), which is bounded, and the jet converted
    back; differencing r directly loses accuracy at large radii where its
    derivatives grow like sinh(2r).  The second-derivative step follows
    the local feature width r(t)/v(t) unless h2 is given explicitly.
    """

    def bounded(t):
        r, theta = f(t)
        return np.tanh(np.asarray(r) / 2.0), theta

    def d2_step(t):
        if h2 is not None:
            return np.broadcast_to(h2, np.shape(t)) if np.ndim(t) else h2
        r, _ = f(t)
        drho, dtheta = _fd_d1(bounded, t, h1)
        rho = np.tanh(np.asarray(r) / 2.0)
        dr = 2.0 * drho / (1.0 - rho ** 2)
        v = np.sqrt(np.asarray(dr) ** 2 + np.sinh(r) ** 2 * np.asarray(dtheta) ** 2)
        # two feature scales: the radial dip width r/v of curves passing
        # near the origin, and 1/|r'| where derivatives grow like e^r
        width = np.minimum(np.asarray(r) / np.maximum(v, 1e-30),
                           1.0 / (1.0 + np.abs(dr)))
        scale = np.clip(FD_SCALE_D2 * width, 1e-8, 0.02)
        return np.minimum(scale, 0.45 * np.minimum(t, 1.0 - t))

    def d1(t):
        t = np.asarray(t, dtype=float)
        rho, _ = bounded(t)
        drho, dtheta = _fd_d1(bounded, t, h1)
        return 2.0 * drho / (1.0 - rho ** 2), dtheta

    def d2(t):
        t = np.asarray(t, dtype=float)
        rho, _ = bounded(t)
        drho, _ = _fd_d1(bounded, t, h1)
        d2rho, d2theta = _fd_d2(bounded, t, d2_step(t))
        one = 1.0 - rho ** 2
        return 2.0 * d2rho / one + 4.0 * rho * drho ** 2 / one ** 2, d2theta

    r0, t0 = f(0.0)
    r1, t1 = f(1.0)
    return RecordedCurve(
        eval=f,
        d1=d1,
        d2=d2,
        start=polar_point(float(r0), float(t0)),
        end=polar_point(float(r1), float(t1)),
        derivative_kind="finite-difference",
    )


# --- geodesics ---------------------------------------------------------------

def geodesic_between(u: Point, v: Point, angle_eps=1e-14) -> RecordedCurve:
    """The geodesic segment from u to v as a curve with analytic derivatives.

    For endpoints subtending an angle in (0, pi) at the origin, the curve uses
    the polar chord equation

        coth r(t) = (coth r1 sin((1-t) dth) + coth r2 sin(t dth)) / sin(dth)

    with theta(t) = theta1 + t*dth.  Configurations collinear with the origin
    (dth in {0, pi} or an endpoint at 0) are parametrized by a signed
    hyperbolic radius along the common diameter, where the chord equation
    degenerates.  meta records the branch and the traversal orientation.
    """
    if np.array_equal(u.xy, v.xy):
        raise ValueError("geodesic endpoints must be distinct")

    through_origin = u.r < RADIUS_EPS or v.r < RADIUS_EPS
    dth = float(wrap_angle(v.theta - u.theta))
    antipodal = (math.pi - abs(dth)) < angle_eps
    if not through_origin and not antipodal and abs(dth) >= angle_eps:
        return _polar_chord_curve(u, v, dth)
    return _diameter_curve(u, v)


def _polar_chord_curve(u, v, dth):
    def ev(t):
        t = np.asarray(t, dtype=float)
        return polar_chord_radius(u.r, v.r, dth, t), u.theta + t * dth

    def d1(t):
        t = np.asarray(t, dtype=float)
        return chord_jet(u.r, v.r, dth, t)[1], np.full_like(t, dth)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return chord_jet(u.r, v.r, dth, t)[2], np.zeros_like(t)

    meta = {"branch": "polar-chord", "delta_theta": dth,
            "orientation": "ccw" if dth > 0 else "cw", "swapped": dth < 0}
    return RecordedCurve(eval=ev, d1=d1, d2=d2, start=u, end=v, meta=meta)


def _diameter_curve(u, v):
    # signed hyperbolic radius along the direction of the endpoint farther
    # from the origin; the polar angle flips by pi at the crossing
    if u.r >= v.r:
        direction = u.theta
    else:
        direction = v.theta

    def signed(p):
        if p.r < RADIUS_EPS:
            return 0.0
        return p.r if abs(float(wrap_angle(p.theta - direction))) < math.pi / 2 else -p.r

    s1, s2 = signed(u), signed(v)
    ds = s2 - s1
    opposite = float(wrap_angle(direction + math.pi))

    def ev(t):
        t = np.asarray(t, dtype=float)
        sig = (1.0 - t) * s1 + t * s2
        return np.abs(sig), np.where(sig >= 0.0, direction, opposite)

    def d1(t):
        t = np.asarray(t, dtype=float)
        sig = (1.0 - t) * s1 + t * s2
        return np.where(sig >= 0.0, ds, -ds), np.zeros_like(t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t), np.zeros_like(t)

    meta = {"branch": "diameter", "delta_theta": float(wrap_angle(v.theta - u.theta)),
            "orientation": "none", "swapped": False}
    return RecordedCurve(eval=ev, d1=d1, d2=d2, start=u, end=v, meta=meta)


# --- lemma margins: Taylor-sum, direct and slope forms ----------------------

def sinh_scaling_series(x, y, max_terms=SERIES_MAX_TERMS):
    """The sinh-scaling margin as its positive-term Taylor sum.

    y^3 sum_k x^(2k+1) (1 - y^(2k-2)) / (2k+1)!, truncated adaptively: the
    sum stops once a term falls below 1e-16 of the partial sum.  The k = 1
    term vanishes identically.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(x, y).shape)
    for k in range(2, max_terms + 1):
        term = x ** (2 * k + 1) * (1.0 - y ** (2 * k - 2)) / math.factorial(2 * k + 1)
        total = total + term
        if np.all(term <= SERIES_REL_STOP * np.abs(total)):
            break
    out = y ** 3 * total
    return float(out) if np.ndim(out) == 0 else out


def coth_ratio_path(x, y):
    """The auxiliary function whose decrease in y proves the coth ratio bound.

    f(x, y) = (psi(x) - psi(xy)) / (x psi(xy) psi(x)) + 4 (1 - y^-2) / phi(2x);
    tends to 0 as y -> 1 and is positive and decreasing on y in (0, 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = (psi(x) - psi(x * y)) / (x * psi(x * y) * psi(x)) \
        + 4.0 * (1.0 - y ** -2) / phi(2.0 * x)
    return float(out) if np.ndim(out) == 0 else out


def coth_poly_I_direct(x):
    """I(x) = x^3 (sinh(2x)/2 - x) - 6 (x cosh x - sinh x)^2, evaluated directly.

    Cancellation-limited below x ~ 0.5 (the true value is O(x^10) while the
    operands are O(x^6)); use the series there.
    """
    x = np.asarray(x, dtype=float)
    out = x ** 3 * (np.sinh(2.0 * x) / 2.0 - x) - 6.0 * (x * np.cosh(x) - np.sinh(x)) ** 2
    return float(out) if np.ndim(out) == 0 else out


def sin_scaling_slope(x, y):
    """d/dx of the sin-scaling margin: y (cos(xy) - cos(x)); positive on (0,pi)x(0,1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = y * (np.cos(x * y) - np.cos(x))
    return float(out) if np.ndim(out) == 0 else out


def coth_ratio_two_calls(x, y):
    """The coth-ratio margin with psi(x) and psi(xy) each evaluated twice, as they once were."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = psi(x) - psi(x * y)
    lhs = x * psi(x * y) * psi(x) / denom
    rhs = y ** 2 * phi(2.0 * x) / (4.0 * (1.0 - y) * (1.0 + y))
    out = rhs - lhs
    return float(out) if np.ndim(out) == 0 else out


# --- phi and psi with both branches evaluated everywhere ------------------------

def phi_both_branches(a):
    """phi as np.where of its series and direct forms, each evaluated on the whole array."""
    a = np.asarray(a, dtype=float)
    a2 = a * a
    series = a * a2 / 6.0 * (1.0 + a2 / 20.0 * (1.0 + a2 / 42.0 * (1.0 + a2 / 72.0)))
    with np.errstate(over="ignore"):
        direct = np.sinh(a) - a
    out = np.where(a < SERIES_CUTOFF, series, direct)
    return float(out) if np.ndim(out) == 0 else out


def psi_both_branches(a):
    """psi as np.where of its series and direct forms, each evaluated on the whole array."""
    a = np.asarray(a, dtype=float)
    a2 = a * a
    series = (a2 / 3.0 - a2 ** 2 / 45.0 + 2.0 * a2 ** 3 / 945.0 - a2 ** 4 / 4725.0
              + 2.0 * a2 ** 5 / 93555.0 - 1382.0 * a2 ** 6 / 638512875.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = a / np.tanh(a) - 1.0
    out = np.where(a < SERIES_CUTOFF, series, direct)
    return float(out) if np.ndim(out) == 0 else out


# --- the H² pipeline one trial at a time ----------------------------------------

def per_trial_hconvex_polygon(rng, center=(0.0, 0.0), r_range=(0.2, 3.0)):
    """random_hconvex_polygon as one polygon's own calls: the star's lift, its boost to the
    center and its hull."""
    pts = hyperboloid_lift(*_star_polar(rng, r_range=r_range))
    if np.any(center):
        pts = mobius_translate(center, pts)
    return hyperbolic_hull(pts)


def per_trial_dilate_region(poly, params, samples_per_edge=SAMPLES_PER_EDGE):
    """dilate_region as one region's own calls, in the order of its checks: the vertices, then
    dilate_xy of the edge samples, then the region's own."""
    v = poly.sheet
    _check_radii(np.arccosh(v[:, 2]), "the polygon's vertices carry")
    ts = np.arange(samples_per_edge, dtype=float) / samples_per_edge
    rows = dilate_xy(params, geodesic_chord_points(v, np.roll(v, -1, axis=0), ts).reshape(-1, 3))
    return SampledRegion(np.vstack([rows, rows[:1]]), poly, samples_per_edge, params.k1,
                         params.k2, params.center)


def per_trial_theorem(seed, i, k_range=(1.0, 4.0), forced_k1=None, forced_k2=None):
    """verify-theorem's trial i alone: its polygon, its region and its result."""
    rng = np.random.default_rng([seed, i])
    r, theta = rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi)
    center = polar_to_cart(r, theta)
    poly = per_trial_hconvex_polygon(rng, center=center)
    k1 = float(rng.uniform(*k_range)) if forced_k1 is None else forced_k1
    k2 = float(rng.uniform(*k_range)) if forced_k2 is None else forced_k2
    region = per_trial_dilate_region(poly, DilationParams(center, k1, k2))
    return poly, region, {"trial": i, "k1": k1, "k2": k2, "n_vertices": len(poly.sheet),
                          "center_polar": [float(r), float(theta)],
                          "defect": convexity_defect(region)}


# --- the S² pipeline one trial at a time ----------------------------------------

def _s2_from_polar(chart, rho, theta):
    """Chart.from_polar of one chart: unit rows (m, 3) of the polar rows (rho, theta)."""
    sr = np.sin(rho)
    return (np.cos(rho)[:, None] * chart.n + (sr * np.cos(theta))[:, None] * chart.e1
            + (sr * np.sin(theta))[:, None] * chart.e2)


def _s2_gnomonic(chart, v):
    """Chart.gnomonic of one chart, by one component sum per frame vector."""
    z = dot3(v, chart.n)
    assert np.all(z > sphere.HEMISPHERE_MARGIN)
    return np.stack([dot3(v, chart.e1) / z, dot3(v, chart.e2) / z], axis=-1)


class S2Polygon(NamedTuple):
    """A spherical polygon as random_convex_spherical_polygon built it alone."""

    xyz: np.ndarray
    uv: np.ndarray
    convex: bool
    chart: Chart


def per_trial_spherical_polygon(rng, center=None):
    """random_convex_spherical_polygon as one polygon's own calls: its center and chart, its
    star's points, their gnomonic rows, their hull, and the hull's gnomonic rows."""
    if center is None:
        v = rng.normal(size=3)
        center = v / np.sqrt(dot3(v, v))
    chart = Chart(center)
    pts = _s2_from_polar(chart, *_star_polar(rng, sphere.MAX_VERTICES, (0.1, sphere.MAX_RHO)))
    xyz = pts[_convex_hull_2d(_s2_gnomonic(chart, pts))]
    uv = _s2_gnomonic(chart, xyz)
    return S2Polygon(xyz, uv, bool(_check_polygon_chart(uv)), chart)


def per_trial_contraction(xyz, chart, k1, k2, per_edge=sphere.PER_EDGE):
    """contract_polygon's boundary (N + 1, 3) as one region's own calls: its edge samples, closed,
    their polar rows by one component sum per frame vector, and the polar map."""
    ts = np.arange(per_edge, dtype=float) / per_edge
    loop = great_circle_points(xyz, np.roll(xyz, -1, axis=0), ts).reshape(-1, 3)
    v = np.vstack([loop, loop[:1]])
    x, y, z = dot3(v, chart.e1), dot3(v, chart.e2), dot3(v, chart.n)
    rho = np.arctan2(np.hypot(x, y), z)
    if not np.all(rho < math.pi / 2):
        raise ValueError("points outside the open hemisphere about the center")
    return _s2_from_polar(chart, *dilate_origin_polar(k1, k2, rho, np.arctan2(y, x)))


def per_trial_conjecture(seed, i):
    """sphere-conjecture's trial i alone: its polygon, its region, its 4x region (None unless
    the defect is rechecked) and its result."""
    rng = np.random.default_rng([seed, i])
    poly = per_trial_spherical_polygon(rng)
    k1 = float(rng.uniform(0.01, 1.0))
    symmetric = (i % sphere.SYMMETRIC_EVERY == 0)
    k2 = k1 if symmetric else float(rng.uniform(0.01, 1.0))
    polygon = SphericalPolygon(poly.xyz, poly.chart)

    def region(per_edge):
        boundary = per_trial_contraction(poly.xyz, poly.chart, k1, k2, per_edge)
        return SphericalRegion(boundary, polygon, per_edge, k1, k2)

    region1, region4 = region(sphere.PER_EDGE), None
    defect = sphere.s_convexity_defect(region1)
    rechecked = None
    if defect > sphere.DEFECT_EXCEEDANCE:
        region4 = region(4 * sphere.PER_EDGE)
        rechecked = sphere.s_convexity_defect(region4, 4 * sphere.PAIR_SAMPLES,
                                              4 * sphere.SEGMENT_SAMPLES)
    return poly, region1, region4, {
        "trial": i, "seed": seed, "k1": k1, "k2": k2,
        "symmetric": symmetric, "n_vertices": len(poly.xyz),
        "defect": defect,
        "defect_recheck_4x": rechecked,
        "exceeds": bool((rechecked if rechecked is not None else defect)
                        > sphere.DEFECT_EXCEEDANCE),
    }


# --- curvature-sweep's side ordering one chord at a time --------------------------

def per_spec_side_ordering(spec, s, samples):
    """side_ordering's report entry of one ChordSpec, as it was computed one chord at a time:
    the chord, and the inner chord between its preimage's ends, each a stack of one, whose
    arrays are (1, samples) rows and whose ends are (1, 1) columns."""
    ts = np.linspace(0.0, 1.0, samples)
    state = preimage_state([spec], [s], ts)
    r, theta = state["r"], state["theta"]

    kg_pre = curvature_from_derivatives(r, state["rp"], state["rpp"], state["thp"], state["thpp"])

    r1, th1, r2, th2 = r[:, :1], theta[:, :1], r[:, -1:], theta[:, -1:]
    u = (theta - th1) / (th2 - th1)
    r_chord = chord_radius([ChordSpec(r[0, 0], r[0, -1], theta[0, 0], theta[0, -1])], u)
    r_gamma = (1.0 - u) * r1 + u * r2
    kg_gamma = gamma_curvature_closed_form(r1, r2, th1, th2, u)

    chord_gap = r_chord - r
    gamma_gap = r_gamma - r_chord
    slack = curvature.ORDERING_SLACK
    bad = (kg_pre >= slack) | (kg_gamma <= -slack) | (chord_gap < -slack) | (gamma_gap < -slack)
    return {
        "spec": [spec.r1, spec.r2, spec.theta1, spec.theta2], "s": float(s),
        "min_chord_gap": float(np.min(chord_gap)), "min_gamma_gap": float(np.min(gamma_gap)),
        "max_kg_preimage": float(np.max(kg_pre)), "min_kg_gamma": float(np.min(kg_gamma)),
        "violations": [{
            "t": float(ts[idx]),
            "r_preimage": float(r[0, idx]),
            "r_chord": float(r_chord[0, idx]),
            "r_gamma": float(r_gamma[0, idx]),
            "kg_preimage": float(kg_pre[0, idx]),
            "kg_gamma": float(kg_gamma[0, idx]),
        } for idx in np.nonzero(bad[0])[0]],
    }
