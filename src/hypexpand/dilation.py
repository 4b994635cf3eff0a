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

import warnings
from dataclasses import dataclass

import numpy as np

from .disk import DiskPoint, ORIGIN, cart_to_polar, mobius_translate, polar_to_cart

# beyond this output radius tanh(r/2) saturates to 1 ulp below 1.0
RADIUS_SATURATION = 50.0


@dataclass(frozen=True)
class DilationParams:
    """Center and per-axis factors of an anisotropic dilation."""

    center: DiskPoint
    k1: float
    k2: float

    def __post_init__(self):
        if not (self.k1 > 0.0 and self.k2 > 0.0):
            raise ValueError("dilation factors must be positive")

    @property
    def is_expansion(self) -> bool:
        return self.k1 >= 1.0 and self.k2 >= 1.0

    @property
    def s(self):
        """Reciprocal 1/k1 when the second factor is 1, else None."""
        return 1.0 / self.k1 if self.k2 == 1.0 else None

    def inverse(self) -> "DilationParams":
        return DilationParams(self.center, 1.0 / self.k1, 1.0 / self.k2)


def dilate_origin_polar(k1, k2, r, theta):
    """Origin-centered dilation on (r, theta) arrays; returns (r', theta').

    The map is the same on any geodesic polar chart: with factors <= 1 on
    the sphere's it is the spherical contraction.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    kc = k1 * np.cos(theta)
    ks = k2 * np.sin(theta)
    return r * np.hypot(kc, ks), np.arctan2(ks, kc)


def dilate_origin_chart(k1, k2, r, x, y, f):
    """dilate_origin_polar of the point at distance r along (x, y), in the chart f; shape (..., 2).

    The chart maps (r', theta') to f(r') (cos theta', sin theta'): np.tanh for Klein, np.tan
    for gnomonic.  Computed without angles; (x, y) = 0 maps to 0 * f(r): 0 at the center, nan
    where f(r) is nan (the sphere's antipode).
    """
    kx, ky = k1 * x, k2 * y
    kn = np.hypot(kx, ky)
    off = kn > 0.0
    kn = np.where(off, kn, 1.0)
    s = f(r * kn / np.where(off, np.hypot(x, y), 1.0)) / kn
    return np.stack([s * kx, s * ky], axis=-1)


def _warn_if_saturated(r):
    """Warn when a dilated radius is past where the Poincare chart's Cartesian form saturates."""
    if np.any(r > RADIUS_SATURATION):
        warnings.warn("dilated radius exceeds 50; Cartesian coordinates saturate",
                      RuntimeWarning, stacklevel=3)


def dilate_origin(params: DilationParams, p: DiskPoint) -> DiskPoint:
    """Dilation about the origin; params.center must be the origin."""
    if params.center.r != 0.0:
        raise ValueError("dilate_origin requires params centered at the origin")
    r, theta = dilate_origin_polar(params.k1, params.k2, p.r, p.theta)
    _warn_if_saturated(r)
    return DiskPoint.from_polar(float(r), float(theta))


def dilate_xy(params: DilationParams, xy):
    """Dilation about an arbitrary center on Cartesian points of shape (..., 2)."""
    xy = np.asarray(xy, dtype=float)
    c = params.center.xy
    centered = xy if params.center.r == 0.0 else mobius_translate(-c, xy)
    r, theta = cart_to_polar(centered)
    r2, theta2 = dilate_origin_polar(params.k1, params.k2, r, theta)
    _warn_if_saturated(r2)
    out = polar_to_cart(r2, theta2)
    return out if params.center.r == 0.0 else mobius_translate(c, out)


def dilate(params: DilationParams, p: DiskPoint) -> DiskPoint:
    """Dilation about params.center: conjugation of the origin map by translation."""
    out = dilate_xy(params, p.xy)
    return DiskPoint.from_cart(out[0], out[1])


def dilate_inverse(params: DilationParams, p: DiskPoint) -> DiskPoint:
    """Inverse dilation; equals dilation with factors (1/k1, 1/k2) about the center."""
    return dilate(params.inverse(), p)


def origin_params(k1, k2) -> DilationParams:
    return DilationParams(ORIGIN, float(k1), float(k2))
