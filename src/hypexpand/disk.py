"""Poincare disk primitives.

Points live in the open unit disk and are carried in geodesic polar
coordinates (r, theta), where r is the hyperbolic distance from the origin,
and as rows of the hyperboloid sheet; Poincare Cartesian rows, of norm
tanh(r/2), are projections of sheet rows, which nothing carries back.  The
metric in polar form is ds^2 = dr^2 + sinh^2(r) dtheta^2.

The module provides the polar chord equation of geodesics, the hyperboloid
sheet (its points, geodesic samples, the disk translation carrying 0 to c as
a Lorentz boost, and the projection (x, y) / (1 + z) to the disk), and the
signed geodesic curvature of a polar 2-jet.  Counterclockwise circles about
the origin have positive curvature (interior to the left).
"""

from __future__ import annotations

import numpy as np

def polar_to_cart(r, theta):
    """Map polar (r, theta) to Cartesian points of norm tanh(r/2); shape (..., 2)."""
    rho = np.tanh(np.asarray(r, dtype=float) / 2.0)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)


class ChartSaturation(ValueError):
    """A region's boundary leaves the float64 Poincare chart.

    The Cartesian norm tanh(r/2) of a point rounds to 1.0 from r ~ 38 to 38.5, depending on its
    direction, so a vertex or a dilation that carries the boundary that far puts it on the unit
    circle.  The message names which.
    """


def _check_radii(r, cause):
    """Raise ChartSaturation, naming what carried the boundary past the chart, if a distance of
    r (...) from the origin has tanh(r/2) rounded to 1 or is nan.

    Such a point's row along the x-axis is on the unit circle; along other directions cos and
    sin can round its norm to 1 - 1.1e-16, where a check of Cartesian norms would pass it."""
    if not np.all(np.tanh(np.asarray(r, dtype=float) / 2.0) < 1.0):
        raise ChartSaturation(f"{cause} the boundary past the float64 Poincare chart "
                              "(its norm tanh(r/2) rounds to 1 from r ~ 38 to 38.5)")


def _read_only(a):
    """A read-only float copy of the array a."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# --- curvature ---------------------------------------------------------------

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


# --- geodesics ---------------------------------------------------------------

def chord_rpp(r, rp, dth_sq):
    """Second radial derivative of a geodesic traversed at constant angular speed dth,
    given dth_sq = dth^2.

    The polar chord equation gives r'' = 2 r'^2 coth r + dth^2 sinh(2r) / 2.
    Evaluated in the dtype of its arguments.
    """
    return 2.0 * rp ** 2 / np.tanh(r) + dth_sq * np.sinh(2.0 * r) / 2.0


def polar_chord_radius(r1, r2, dth, t):
    """r(t) of the polar chord from (r1, 0) to (r2, dth), 0 < |dth| < pi.

    The radius solves coth r(t) = (coth r1 sin((1-t) dth) + coth r2 sin(t dth))
    / sin(dth), evaluated through delta = coth(r(t)) - 1 assembled from
    positive terms only: naive evaluation of arctanh(1/c) loses ~eps*e^(2r)
    absolute accuracy, which finite differencing of the curve then amplifies
    by 1/h^2.  r1, r2 and dth may be (S, 1) columns of S chords, each row with
    the bits its chord has alone.
    """
    t = np.asarray(t, dtype=float)
    a = np.abs(dth)
    q1, q2 = 2.0 / np.expm1(2.0 * r1), 2.0 / np.expm1(2.0 * r2)
    ua, ta = (1.0 - t) * a, t * a
    bracket = 4.0 * np.sin(a / 2.0) * np.sin(ua / 2.0) * np.sin(ta / 2.0)
    delta = (q1 * np.sin(ua) + q2 * np.sin(ta) + bracket) / np.sin(a)
    w = np.sqrt(delta * (2.0 + delta)) - delta  # w = 1 - tanh(r/2)
    return np.log((2.0 - w) / w)


def chord_jet(r1, r2, dth, t):
    """(r, r', r'') at t of the chord of polar_chord_radius, which may be columns too."""
    t = np.asarray(t, dtype=float)
    r = polar_chord_radius(r1, r2, dth, t)
    coth1, coth2 = 1.0 / np.tanh(r1), 1.0 / np.tanh(r2)
    rp = dth * np.sinh(r) ** 2 * (
        coth1 * np.cos((1.0 - t) * dth) - coth2 * np.cos(t * dth)) / np.sin(dth)
    return r, rp, chord_rpp(r, rp, dth ** 2)


def hyperboloid_lift(r, theta):
    """Points (sinh r cos theta, sinh r sin theta, cosh r) of the hyperboloid sheet; shape (..., 3)."""
    r = np.asarray(r, dtype=float)
    s = np.sinh(r)
    return np.stack([s * np.cos(theta), s * np.sin(theta), np.cosh(r)], axis=-1)


def _component_major(k, shape):
    """An empty (k, ...) buffer, and its (..., k) view whose [..., i] are contiguous."""
    buf = np.empty((k,) + shape)
    return buf, buf.transpose(*range(1, buf.ndim), 0)


def geodesic_chord_points(a, b, ts):
    """Samples of the geodesics between points a, b of the hyperboloid sheet (hyperboloid_lift).

    a and b have shape (..., 3); returns sheet points of shape (..., T, 3), stored
    component-major, as sphere.great_circle_points returns unit vectors.  A geodesic
    is a plane section of the sheet and its samples are sinh-weighted combinations of
    its ends, accurate where the Cartesian chart saturates (r up to ~300).

    The length d of a chord is formed from positive terms,

        sinh^2(d/2) = sinh^2((r_a - r_b)/2) + |A| |B| |A/|A| - B/|B||^2 / 4,

    with A, B the rows' (x, y) parts, r = arcsinh |A| and
    sinh((r_a - r_b)/2) = (|A| - |B|) / sqrt(2 (1 + a_z b_z + |A| |B|)): cosh d =
    a_z b_z - A.B cancels to about eps a_z b_z far from the origin.  Equal ends have
    d = 0, taken as 1e-200, so their weights are 1 - t and t.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    na, nb = np.hypot(ax, ay), np.hypot(bx, by)
    nn = na * nb
    # a row at the origin has A = 0, and its term nn |...|^2 is 0 for any finite direction
    sa, sb = np.maximum(na, 1e-300), np.maximum(nb, 1e-300)
    ux, uy = ax / sa - bx / sb, ay / sa - by / sb
    q = na - nb
    half = q * q / (2.0 * (1.0 + a[..., 2] * b[..., 2] + nn)) + 0.25 * nn * (ux * ux + uy * uy)
    d = np.maximum(2.0 * np.arcsinh(np.sqrt(half)), 1e-200)[..., None]
    sinh_d = np.sinh(d)
    ts = np.asarray(ts, dtype=float)
    wa, wb = np.sinh((1.0 - ts) * d) / sinh_d, np.sinh(ts * d) / sinh_d
    buf, pts = _component_major(3, wa.shape)
    for k, out in enumerate(buf):
        np.add(wa * a[..., k, None], wb * b[..., k, None], out=out)
    return pts


def hyperboloid_polar(pts):
    """Geodesic polar (r, theta) arrays of hyperboloid points (..., 3); elementwise.

    r is arcsinh |(x, y)|, accurate at every radius, where arccosh z loses digits near 0."""
    x, y = pts[..., 0], pts[..., 1]
    return np.arcsinh(np.hypot(x, y)), np.arctan2(y, x)


def hyperboloid_cart(pts):
    """Poincare Cartesian rows (..., 2), of norm tanh(r/2), of hyperboloid points (..., 3)."""
    return pts[..., :2] / (1.0 + pts[..., 2:])


def mobius_translate(c, pts):
    """The disk translation carrying 0 to the Cartesian center c, on points (..., 3) of the
    sheet: a Lorentz boost, stored component-major.  Its inverse is mobius_translate(-c, .).

    c (..., 2) broadcasts against the rows of pts: one center for every row, or one per row.
    Each row's image is formed elementwise, from its own point and center alone."""
    c = np.asarray(c, dtype=float)
    cx, cy = c[..., 0], c[..., 1]
    cc = cx * cx + cy * cy
    ux, uy = 2.0 * cx / (1.0 - cc), 2.0 * cy / (1.0 - cc)  # (u, (1 + cc) / (1 - cc)) lifts c
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    d = ux * x + uy * y
    buf, out = _component_major(3, d.shape)
    buf[0] = x + d * cx + z * ux
    buf[1] = y + d * cy + z * uy
    buf[2] = (1.0 + cc) / (1.0 - cc) * z + d
    return out
