"""Shared test oracles.

The conformal-chart curvature here is an independent route to geodesic
curvature: it never touches the polar metric formula, going instead through
Euclidean curvature plus the normal derivative of the conformal factor
2/(1 - |z|^2), with the leftward normal convention.
"""

import numpy as np


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
    """dilation.dilate_origin_chart(inv_k1, inv_k2, r, x, y, f) on mpmath numbers.

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
