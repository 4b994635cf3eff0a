"""Poincare disk primitives.

Points live in the open unit disk and are carried both in geodesic polar
coordinates (r, theta), where r is the hyperbolic distance from the origin,
and in Cartesian coordinates with norm tanh(r/2).  The metric in polar form
is ds^2 = dr^2 + sinh^2(r) dtheta^2.

The module provides the disk translation (the Mobius-style isometry carrying
0 to c), hyperbolic distance, geodesic segments as parametric curves, and the
signed geodesic curvature of a polar curve.  Counterclockwise circles about
the origin have positive curvature (interior to the left).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# below these, curvature evaluation is treated as degenerate
SPEED_EPS = 1e-12
RADIUS_EPS = 1e-12

# first-derivative finite-difference step on t; stencils are central and
# Richardson-extrapolated once.  Second-derivative steps are chosen per
# evaluation point: the 4*eps/h^2 rounding noise of a second difference and
# the h^4 truncation error pull in opposite directions, and the balance point
# tracks the local feature width r(t)/v(t) of the curve (short slow curves
# want large steps, radial dips near the origin want small ones).
FD_STEP_D1 = 1e-5
FD_SCALE_D2 = 0.008


def wrap_angle(theta):
    """Reduce an angle (scalar or array) to [-pi, pi)."""
    return (np.asarray(theta) + math.pi) % TWO_PI - math.pi


def polar_to_cart(r, theta):
    """Map polar (r, theta) to Cartesian points of norm tanh(r/2); shape (..., 2)."""
    rho = np.tanh(np.asarray(r, dtype=float) / 2.0)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)


def cart_to_polar(xy):
    """Map Cartesian points strictly inside the disk to (r, theta) arrays."""
    xy = np.asarray(xy, dtype=float)
    rho = np.hypot(xy[..., 0], xy[..., 1])
    if np.any(rho >= 1.0):
        raise ValueError("point outside the open unit disk")
    r = 2.0 * np.arctanh(rho)
    theta = np.where(rho > 0.0, np.arctan2(xy[..., 1], xy[..., 0]), 0.0)
    return r, theta


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk in both polar and Cartesian form.

    theta is canonical in [-pi, pi) and is 0 at the origin, where the polar
    chart is singular.
    """

    r: float
    theta: float
    cart: tuple[float, float]

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("hyperbolic radius must be nonnegative")
        rho = math.hypot(*self.cart)
        if rho >= 1.0:
            raise ValueError("point outside the open unit disk")
        if abs(rho - math.tanh(self.r / 2.0)) > 1e-12:
            raise ValueError("inconsistent polar/Cartesian representations")

    @classmethod
    def from_polar(cls, r, theta):
        r = float(r)
        theta = 0.0 if r == 0.0 else float(wrap_angle(theta))
        # tanh(r/2) rounds to 1.0 beyond r ~ 37; keep the Cartesian image
        # strictly interior (the polar radius stays exact)
        rho = min(math.tanh(r / 2.0), np.nextafter(1.0, 0.0))
        return cls(r, theta, (rho * math.cos(theta), rho * math.sin(theta)))

    @classmethod
    def from_cart(cls, x, y):
        x, y = float(x), float(y)
        rho = math.hypot(x, y)
        if rho >= 1.0:
            raise ValueError("point outside the open unit disk")
        if rho == 0.0:
            return cls(0.0, 0.0, (0.0, 0.0))
        return cls(2.0 * math.atanh(rho), math.atan2(y, x), (x, y))

    @property
    def xy(self):
        return np.array(self.cart)

    def neg(self):
        """Antipodal parameter -p, used to invert translations."""
        return DiskPoint.from_cart(-self.cart[0], -self.cart[1])

    def isclose(self, other, tol=1e-12):
        return (abs(self.cart[0] - other.cart[0]) <= tol
                and abs(self.cart[1] - other.cart[1]) <= tol)


ORIGIN = DiskPoint.from_polar(0.0, 0.0)


def polar_cartesian_roundtrip(p: DiskPoint) -> DiskPoint:
    """Rebuild p from its Cartesian representation alone."""
    return DiskPoint.from_cart(*p.cart)


def mobius_translate(c, x):
    """Disk translation carrying 0 to c, applied to x (shape (..., 2)).

    tau_c(x) = ((1 + 2 c.x + |x|^2) c + (1 - |c|^2) x) / (1 + 2 c.x + |c|^2 |x|^2)

    This is an orientation-preserving hyperbolic isometry with tau_c(0) = c,
    and its inverse is tau_{-c}.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    cc = float(c @ c)
    dot = x @ c
    nx = np.sum(x * x, axis=-1)
    num = (1.0 + 2.0 * dot + nx)[..., None] * c + (1.0 - cc) * x
    den = 1.0 + 2.0 * dot + cc * nx
    return num / den[..., None]


def translate(c: DiskPoint, x: DiskPoint) -> DiskPoint:
    """Apply the translation carrying 0 to c.  translate(c, ORIGIN) == c."""
    out = mobius_translate(c.xy, x.xy)
    return DiskPoint.from_cart(out[0], out[1])


def hyperbolic_distance(u: DiskPoint, v: DiskPoint) -> float:
    """Distance via translation of u to the origin followed by the radial formula."""
    w = mobius_translate(-u.xy, v.xy)
    rho = min(math.hypot(w[0], w[1]), np.nextafter(1.0, 0.0))
    return 2.0 * math.atanh(rho)


# --- first fundamental form -------------------------------------------------

@dataclass(frozen=True)
class FirstFundamentalForm:
    """Metric coefficients of the disk in geodesic polar coordinates."""

    E: float = 1.0
    F: float = 0.0

    @staticmethod
    def G(r):
        return np.sinh(r) ** 2

    @staticmethod
    def G_r(r):
        return np.sinh(2.0 * np.asarray(r, dtype=float))


METRIC = FirstFundamentalForm()


# --- parametric curves ------------------------------------------------------

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


@dataclass
class ParamCurve:
    """A twice-differentiable curve t in [0,1] -> (r(t), theta(t)).

    eval returns a pair of arrays; theta is kept continuous (unwrapped) along
    the curve so that derivatives are meaningful.  d1 and d2 return the first
    and second derivative pairs; derivative_kind records whether they are
    analytic or finite-difference.
    """

    eval: Callable
    d1: Callable
    d2: Callable
    start: DiskPoint
    end: DiskPoint
    derivative_kind: str = "analytic"
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_polar_function(cls, f, h1=FD_STEP_D1, h2=None, meta=None):
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
        return cls(
            eval=f,
            d1=d1,
            d2=d2,
            start=DiskPoint.from_polar(float(r0), float(t0)),
            end=DiskPoint.from_polar(float(r1), float(t1)),
            derivative_kind="finite-difference",
            meta=meta or {},
        )

    def point(self, t) -> DiskPoint:
        r, theta = self.eval(t)
        return DiskPoint.from_polar(float(r), float(theta))

    def speed(self, t):
        r, _ = self.eval(t)
        dr, dth = self.d1(t)
        return np.sqrt(np.asarray(dr) ** 2 + np.sinh(r) ** 2 * np.asarray(dth) ** 2)

    def curvature(self, t):
        return geodesic_curvature(self, t)

    def check_regular(self, n=64):
        """Smallest speed over n interior samples; must be positive for a regular curve."""
        return float(np.min(self.speed(np.linspace(0.01, 0.99, n))))


def curvature_from_derivatives(r, dr, d2r, dtheta, d2theta):
    """Signed geodesic curvature from a polar 2-jet.

    k_g = sqrt(EG)/v^3 * ( (G_r/G) r'^2 th' + (G_r/2E) th'^3 + r' th'' - r'' th' )
    with E = 1, G = sinh^2 r, G_r = sinh 2r.  Positive for counterclockwise
    circles about the origin.  Keeps the jet's dtype (float64 for Python floats).
    """
    r = np.asarray(r)
    G = np.sinh(r) ** 2
    G_r = np.sinh(2.0 * r)
    v = np.sqrt(np.asarray(dr) ** 2 + G * np.asarray(dtheta) ** 2)
    bracket = ((G_r / G) * dr ** 2 * dtheta + 0.5 * G_r * np.asarray(dtheta) ** 3
               + dr * d2theta - d2r * dtheta)
    return np.sqrt(G) * bracket / v ** 3


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


# --- geodesics ---------------------------------------------------------------

def geodesic_between(u: DiskPoint, v: DiskPoint, angle_eps=1e-14) -> ParamCurve:
    """The geodesic segment from u to v as a ParamCurve with analytic derivatives.

    For endpoints subtending an angle in (0, pi) at the origin, the curve uses
    the polar chord equation

        coth r(t) = (coth r1 sin((1-t) dth) + coth r2 sin(t dth)) / sin(dth)

    with theta(t) = theta1 + t*dth.  Configurations collinear with the origin
    (dth in {0, pi} or an endpoint at 0) are parametrized by a signed
    hyperbolic radius along the common diameter, where the chord equation
    degenerates.  meta records the branch and the traversal orientation.
    """
    if u.cart == v.cart:
        raise ValueError("geodesic endpoints must be distinct")

    through_origin = u.r < RADIUS_EPS or v.r < RADIUS_EPS
    dth = float(wrap_angle(v.theta - u.theta))
    antipodal = (math.pi - abs(dth)) < angle_eps
    if not through_origin and not antipodal and abs(dth) >= angle_eps:
        return _polar_chord_curve(u, v, dth)
    return _diameter_curve(u, v)


def chord_rpp(r, rp, dth):
    """Second radial derivative of a geodesic traversed at constant angular speed dth.

    The polar chord equation gives r'' = 2 r'^2 coth r + dth^2 sinh(2r) / 2.
    Evaluated in the dtype of its arguments.
    """
    return 2.0 * rp ** 2 / np.tanh(r) + dth ** 2 * np.sinh(2.0 * r) / 2.0


def polar_chord_radius(r1, r2, dth, t):
    """r(t) of the polar chord from (r1, 0) to (r2, dth), 0 < |dth| < pi.

    The radius solves coth r(t) = (coth r1 sin((1-t) dth) + coth r2 sin(t dth))
    / sin(dth), evaluated through delta = coth(r(t)) - 1 assembled from
    positive terms only: naive evaluation of arctanh(1/c) loses ~eps*e^(2r)
    absolute accuracy, which finite differencing of the curve then amplifies
    by 1/h^2.
    """
    t = np.asarray(t, dtype=float)
    a = abs(dth)
    q1 = 2.0 / math.expm1(2.0 * r1)
    q2 = 2.0 / math.expm1(2.0 * r2)
    ua, ta = (1.0 - t) * a, t * a
    bracket = 4.0 * math.sin(a / 2.0) * np.sin(ua / 2.0) * np.sin(ta / 2.0)
    delta = (q1 * np.sin(ua) + q2 * np.sin(ta) + bracket) / math.sin(a)
    w = np.sqrt(delta * (2.0 + delta)) - delta  # w = 1 - tanh(r/2)
    return np.log((2.0 - w) / w)


def chord_jet(r1, r2, dth, t):
    """(r, r', r'') at t of the chord of polar_chord_radius."""
    t = np.asarray(t, dtype=float)
    r = polar_chord_radius(r1, r2, dth, t)
    coth1, coth2 = 1.0 / math.tanh(r1), 1.0 / math.tanh(r2)
    rp = dth * np.sinh(r) ** 2 * (
        coth1 * np.cos((1.0 - t) * dth) - coth2 * np.cos(t * dth)) / math.sin(dth)
    return r, rp, chord_rpp(r, rp, dth)


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
    return ParamCurve(eval=ev, d1=d1, d2=d2, start=u, end=v, meta=meta)


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
    return ParamCurve(eval=ev, d1=d1, d2=d2, start=u, end=v, meta=meta)


def _libm(f, x):
    """Elementwise libm scalar function f over the array x.

    numpy's sinh/cosh/arccosh can differ from libm in the last ulp, and the
    endpoint lift fixes every sample of a chord.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


def hyperboloid_lift(r, theta):
    """Points (sinh r cos theta, sinh r sin theta, cosh r) of the hyperboloid sheet; shape (..., 3)."""
    s = _libm(math.sinh, r)
    return np.stack([s * _libm(math.cos, theta), s * _libm(math.sin, theta),
                     _libm(math.cosh, r)], axis=-1)


def hyperboloid_chord_vectors(a, b, ts):
    """Sample the geodesics between lifted endpoints a, b of shape (..., 3).

    On the hyperboloid sheet the geodesic is a plane section and interpolation
    is a sinh-weighted combination.  Returns hyperboloid points of shape
    (..., T, 3).  Endpoints closer than 1e-9 are interpolated linearly.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    cosh_d = a[..., 2] * b[..., 2] - a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
    d = _libm(math.acosh, np.maximum(cosh_d, 1.0))[..., None]
    short = d < 1e-9
    sinh_d = _libm(math.sinh, np.where(short, 1.0, d))
    ts = np.asarray(ts, dtype=float)
    a, b = a[..., None, :], b[..., None, :]
    pts = (np.sinh((1.0 - ts) * d) / sinh_d)[..., None] * a \
        + (np.sinh(ts * d) / sinh_d)[..., None] * b
    if np.any(short):
        lin = (1.0 - ts)[:, None] * a + ts[:, None] * b
        norm = np.sqrt(np.maximum(lin[..., 2] ** 2 - lin[..., 0] ** 2 - lin[..., 1] ** 2, 1e-300))
        pts = np.where(short[..., None], lin / norm[..., None], pts)
    return pts


def hyperboloid_polar(pts):
    """Geodesic polar (r, theta) arrays of hyperboloid points (..., 3); elementwise."""
    return np.arccosh(np.maximum(pts[..., 2], 1.0)), np.arctan2(pts[..., 1], pts[..., 0])


def hyperboloid_translate(c, pts):
    """mobius_translate(c, .) on hyperboloid points (..., 3): the Lorentz boost to the lift of c."""
    cx, cy = (float(v) for v in c)
    cc = cx * cx + cy * cy
    ux, uy = 2.0 * cx / (1.0 - cc), 2.0 * cy / (1.0 - cc)  # (u, (1 + cc) / (1 - cc)) lifts c
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    d = ux * x + uy * y
    return np.stack([x + d * cx + z * ux, y + d * cy + z * uy,
                     (1.0 + cc) / (1.0 - cc) * z + d], axis=-1)


def geodesic_chord_points(r1, th1, r2, th2, ts):
    """Sample the geodesics between polar endpoints of shape (...); robust at large radii.

    Samples on the hyperboloid (hyperboloid_chord_vectors) and returns (r, theta)
    arrays of shape (..., T), accurate where the Cartesian chart saturates (r up to ~300).
    """
    r1, th1, r2, th2 = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                             for x in (r1, th1, r2, th2)))
    return hyperboloid_polar(hyperboloid_chord_vectors(hyperboloid_lift(r1, th1),
                                                       hyperboloid_lift(r2, th2), ts))
