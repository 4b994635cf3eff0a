"""Shared test oracles.

The conformal-chart curvature here is an independent route to geodesic
curvature: it never touches the polar metric formula, going instead through
Euclidean curvature plus the normal derivative of the conformal factor
2/(1 - |z|^2), with the leftward normal convention.  The winding number and
the polyline simplicity test check sampled loops without the polygon they
were sampled from.  The stacked membership formulas are exact membership as
it was computed with (P, 3) and (P, 2) probe stacks, before the probes were
stored component-major: the references the copy-free forms must match bit
for bit.  S² products with a frame vector are sums of components (dot3),
as the package forms them.
"""

import numpy as np

from hypexpand import sphere
from hypexpand.convexity import klein_polygon_contains, polyline_distance


def conformal_curvature(x, y, dx, dy, d2x, d2y):
    """Geodesic curvature from a Cartesian 2-jet inside the unit disk."""
    speed = np.hypot(dx, dy)
    k_euclid = (dx * d2y - dy * d2x) / speed ** 3
    rho2 = x * x + y * y
    normal_term = (2.0 * x * (-dy) + 2.0 * y * dx) / ((1.0 - rho2) * speed)
    return (k_euclid - normal_term) * (1.0 - rho2) / 2.0


def polar_jet_to_cart(r, dr, d2r, th, dth, d2th):
    """Exact conversion of a polar 2-jet to the Cartesian 2-jet."""
    rho = np.tanh(np.asarray(r) / 2.0)
    drho = dr * (1.0 - rho ** 2) / 2.0
    d2rho = d2r * (1.0 - rho ** 2) / 2.0 - dr * rho * drho
    c, s = np.cos(th), np.sin(th)
    x = rho * c
    y = rho * s
    dx = drho * c - rho * s * dth
    dy = drho * s + rho * c * dth
    d2x = d2rho * c - 2.0 * drho * s * dth - rho * c * dth ** 2 - rho * s * d2th
    d2y = d2rho * s + 2.0 * drho * c * dth - rho * s * dth ** 2 + rho * c * d2th
    return x, y, dx, dy, d2x, d2y


def curvature_via_conformal(curve, t):
    """Curvature of a polar ParamCurve evaluated through the Cartesian route."""
    r, th = curve.eval(t)
    dr, dth = curve.d1(t)
    d2r, d2th = curve.d2(t)
    return conformal_curvature(*polar_jet_to_cart(r, dr, d2r, th, dth, d2th))


def mp_dilate_chart(inv_k1, inv_k2, x, y, r, f):
    """dilation.dilate_origin_chart(inv_k1, inv_k2, r, x, y, |(x, y)|, f) on mpmath numbers.

    f is mp.tanh or mp.tan; evaluate under mp.workdps.
    """
    import mpmath as mp

    kx, ky = mp.mpf(inv_k1) * x, mp.mpf(inv_k2) * y
    kn = mp.hypot(kx, ky)
    s = f(r * kn / mp.hypot(x, y)) / kn if kn else mp.mpf(0)
    return s * kx, s * ky


def mp_margin(verts, u, v):
    """Smallest half-plane margin (b - a) x (q - a) of q = (u, v) against vertices (V, 2).

    The probe is inside iff the margin is at least -SIDEDNESS_TOL.
    """
    import mpmath as mp

    verts = [(mp.mpf(a), mp.mpf(b)) for a, b in np.asarray(verts).tolist()]
    return min((bx - ax) * (v - ay) - (by - ay) * (u - ax)
               for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]))


def edge_probes(rng, verts, n=64, spread=1.5):
    """Random, vertex, on-edge and 1e-12-off-edge probes of a planar polygon (V, 2)."""
    e = np.roll(verts, -1, axis=0) - verts
    t = rng.uniform(0.0, 1.0, (n, 1))
    idx = rng.integers(0, len(verts), n)
    return np.concatenate([
        rng.uniform(-spread, spread, (600, 2)),
        verts,
        verts + 0.5 * e,
        verts[idx] + t * e[idx],
        verts[idx] + t * e[idx] + rng.choice([-1e-12, 1e-12], (n, 2)),
    ])


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
    return up.sum(axis=1) - down.sum(axis=1) != 0


def region_contains(loop, p) -> bool:
    """Winding-number membership of a point in a closed loop; within 1e-9 counts inside."""
    probes = p.xy[None, :]
    inside = winding_contains(loop, probes) | (polyline_distance(loop, probes) < 1e-9)
    return bool(inside[0])


def check_simple(loop):
    """Raise ValueError if the closed loop (N, 2) crosses itself as a Euclidean polyline."""
    a = loop[:-1]
    b = np.roll(a, -1, axis=0)
    n = len(a)
    long_enough = np.hypot(*(b - a).T) >= 1e-14

    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) \
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])

    for i in np.nonzero(long_enough)[0]:
        j = np.arange(i + 2, n if i > 0 else n - 1)
        j = j[long_enough[j]]
        c, d = a[j], b[j]
        hit = ((orient(a[i], b[i], c) > 0) != (orient(a[i], b[i], d) > 0)) \
            & ((orient(c, d, a[i]) > 0) != (orient(c, d, b[i]) > 0))
        if np.any(hit):
            raise ValueError(f"loop self-intersects near segment {i}")


# --- stacked membership: the references for the component-major probe path ---

def broadcast_chord_vectors(a, b, ts):
    """disk.geodesic_chord_points as one broadcast expression over (..., T, 3)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    na, nb = np.hypot(a[..., 0], a[..., 1]), np.hypot(b[..., 0], b[..., 1])
    sa, sb = np.maximum(na, 1e-300)[..., None], np.maximum(nb, 1e-300)[..., None]
    u = a[..., :2] / sa - b[..., :2] / sb
    half = (na - nb) ** 2 / (2.0 * (1.0 + a[..., 2] * b[..., 2] + na * nb)) \
        + 0.25 * (na * nb) * (u[..., 0] ** 2 + u[..., 1] ** 2)
    d = np.maximum(2.0 * np.arcsinh(np.sqrt(half)), 1e-200)[..., None]
    ts = np.asarray(ts, dtype=float)
    a, b = a[..., None, :], b[..., None, :]
    return (np.sinh((1.0 - ts) * d) / np.sinh(d))[..., None] * a \
        + (np.sinh(ts * d) / np.sinh(d))[..., None] * b


def stacked_translate(c, pts):
    """disk.mobius_translate with its result stacked row-major."""
    cx, cy = (float(v) for v in c)
    cc = cx * cx + cy * cy
    ux, uy = 2.0 * cx / (1.0 - cc), 2.0 * cy / (1.0 - cc)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    d = ux * x + uy * y
    return np.stack([x + d * cx + z * ux, y + d * cy + z * uy,
                     (1.0 + cc) / (1.0 - cc) * z + d], axis=-1)


def dot3(v, a):
    """The products v0*a0 + v1*a1 + v2*a2 of rows v (..., 3) with a vector a (3,)."""
    return v[..., 0] * a[0] + v[..., 1] * a[1] + v[..., 2] * a[2]


def stacked_chart(k1, k2, r, x, y, f):
    """dilate_origin_chart with both norms formed by np.hypot and its result stacked row-major.

    The package forms them from squares, so a comparison with this route also checks that the
    squares decide every probe as np.hypot does."""
    kx, ky = k1 * x, k2 * y
    kn = np.hypot(kx, ky)
    off = kn > 0.0
    kn = np.where(off, kn, 1.0)
    s = f(r * kn / np.where(off, np.hypot(x, y), 1.0)) / kn
    return np.stack([s * kx, s * ky], axis=-1)


def stacked_membership_h2(region, pts):
    """convexity._exact_membership of hyperboloid probes (P, 3) through row-major stacks and
    np.hypot norms."""
    pts = np.ascontiguousarray(pts)
    center = region.center
    verts = region.polygon.klein
    if float(center @ center) > 0.0:
        verts = stacked_translate(-center, region.polygon.sheet)
        verts = verts[:, :2] / verts[:, 2:]
        pts = stacked_translate(-center, pts)
    x, y = pts[:, 0], pts[:, 1]
    q = stacked_chart(1.0 / region.k1, 1.0 / region.k2, np.arcsinh(np.hypot(x, y)), x, y,
                      np.tanh)
    return klein_polygon_contains(verts, q)


def stacked_membership_s2(region, pts):
    """sphere._exact_membership of unit vectors (P, 3) through a row-major stack and np.hypot
    norms."""
    chart = region.polygon.chart
    x, y = dot3(pts, chart.e1), dot3(pts, chart.e2)
    uv = stacked_chart(1.0 / region.k1, 1.0 / region.k2,
                       np.arctan2(np.hypot(x, y), dot3(pts, chart.n)), x, y,
                       sphere._gnomonic_radius)
    return klein_polygon_contains(region.polygon.uv, uv)
