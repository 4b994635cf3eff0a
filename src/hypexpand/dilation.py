"""Anisotropic hyperbolic dilations about the origin and arbitrary centers.

About the origin the map acts on geodesic polar coordinates as

    r  -> r * sqrt(k1^2 cos^2 theta + k2^2 sin^2 theta)
    th -> atan2(k2 sin theta, k1 cos theta)

and extends continuously to the full angle range through the atan2 form.
About a center c it is the conjugation of the origin map by the disk
translation carrying 0 to c.  Factors are positive but not restricted to the
expansion regime k1, k2 >= 1; the contraction regime is needed for
counterexample searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disk import (_check_radii, _component_major, _read_only, hyperboloid_lift,
                   hyperboloid_polar, mobius_translate)


@dataclass(frozen=True, eq=False)
class DilationParams:
    """Center, Cartesian (2,) and read-only, and per-axis factors of an anisotropic dilation.

    The fields may also hold one center (..., 2) and factors (...) per row of the points
    dilate_xy maps, as a block of regions each with its own dilation has them."""

    center: np.ndarray
    k1: float
    k2: float

    def __post_init__(self):
        _check_factors(self.k1, self.k2)
        object.__setattr__(self, "center", _read_only(self.center))


def _check_factors(k1, k2):
    """Raise ValueError unless every factor of k1 and k2 (scalars or arrays) is > 0, not nan."""
    if not (np.all(np.asarray(k1) > 0.0) and np.all(np.asarray(k2) > 0.0)):
        raise ValueError("dilation factors must be positive")


def dilate_origin_polar(k1, k2, r, theta):
    """Origin-centered dilation on (r, theta) arrays; returns (r', theta').

    The map is the same on any geodesic polar chart: with factors <= 1 on
    the sphere's it is the spherical contraction.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    kc = k1 * np.cos(theta)
    ks = k2 * np.sin(theta)
    with np.errstate(over="ignore"):  # an infinite radius fails the callers' chart checks
        return r * np.hypot(kc, ks), np.arctan2(ks, kc)


def dilate_origin_chart(k1, k2, r, x, y, n, f):
    """dilate_origin_polar of the point at distance r along (x, y), in the chart f; shape (..., 2).

    n is |(x, y)|, which callers have formed as np.sqrt(x * x + y * y).  The chart maps
    (r', theta') to f(r') (cos theta', sin theta'): np.tanh for Klein, np.tan for gnomonic.
    Computed without angles; (x, y) = 0 maps to 0 * f(r): 0 at the center, nan where f(r) is
    nan (the sphere's antipode).  So does a probe either of whose norms, |(x, y)| or
    |(k1 x, k2 y)|, is 0 because its squares underflow (below ~1.5e-162).  Stored
    component-major.

    The norms are formed from squares, which overflow past 1.34e154: on the hyperboloid
    sheet, where |(x, y)| = sinh r, past r ~ 355.6, or ln k less for a factor k > 1 (354.9 at
    k = 2).  The Poincare chart the regions are drawn in stops at r ~ 38 (dilate_xy).
    """
    kx, ky = k1 * x, k2 * y
    kn = np.sqrt(kx * kx + ky * ky)
    # a square underflows to 0 below ~1.5e-162 while k * x may not: either norm 0 is the center
    off = (kn > 0.0) & (n > 0.0)
    kn = np.where(off, kn, 1.0)
    s = f(r * kn / np.where(off, n, 1.0)) / kn
    buf, out = _component_major(2, s.shape)
    np.multiply(s, kx, out=buf[0])
    np.multiply(s, ky, out=buf[1])
    return out


def dilate_xy(params: DilationParams, rows):
    """Dilation about an arbitrary center on rows (..., 3) of the hyperboloid sheet
    (hyperboloid_lift); returns their images as rows of the sheet.

    Off the origin, the rows are boosted to the center (mobius_translate(-c, .)), dilated in
    polar form about the origin (hyperboloid_polar, dilate_origin_polar, hyperboloid_lift) and
    boosted back.  The polar map is chart-free, but the Poincare chart is not: from r ~ 38
    tanh(r/2) rounds to 1.0, and the image would land on the unit circle.  One exact check of
    the output, its distance arccosh z from the origin, refuses such images, and non-finite
    ones, with ChartSaturation naming the factors and, off the origin, the center of the first
    row: every row's, where the rows share one dilation.  The arithmetic is elementwise, so a
    row's image depends on its own point, center and factors alone, except that a row about
    the origin passed with off-origin rows is boosted by 0 with them, which turns a
    coordinate -0.0 into 0.0.
    """
    rows = np.asarray(rows, dtype=float)
    c, k1, k2 = params.center, params.k1, params.k2
    off = c.any()
    cause = f"factors k1={float(np.ravel(k1)[0])!r}, k2={float(np.ravel(k2)[0])!r}"
    # a radius past ~710 lifts to inf, which the boost turns into nan; both fail the check
    with np.errstate(over="ignore", invalid="ignore"):
        if off:
            rows = mobius_translate(-c, rows)
        out = hyperboloid_lift(*dilate_origin_polar(k1, k2, *hyperboloid_polar(rows)))
        if off:
            out = mobius_translate(c, out)
            cause += f" about the center {c.reshape(-1, 2)[0].tolist()}"
    _check_radii(np.arccosh(np.maximum(out[..., 2], 1.0)), cause + " carry")
    return out
