"""Curvature analysis of anisotropically mapped geodesic chords.

Given a geodesic chord between two points with angles inside (-pi/2, pi/2)
and a contraction factor s in (0, 1) applied along the x-axis direction, the
preimage curve of the chord under the axis dilation has geodesic curvature

    k_g = P0 * (P1 rp^2 + P2 rp dth + P3 dth^2)

where rp is the chord radius derivative and dth the (constant) angular speed.
P0 is positive, P1 negative, and the discriminant P2^2 - 4 P1 P3 negative, so
k_g is strictly negative: the preimage bends toward the origin everywhere.
This module exposes every ingredient of that decomposition as a computable
object, together with the comparison curve (linear in polar coordinates) that
bends away from the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disk import (DiskPoint, ParamCurve, chord_jet, chord_rpp, curvature_from_derivatives,
                   polar_chord_radius)

# series branch for the auxiliary functions below this argument; the direct
# forms lose ~eps/a^2 relative accuracy to cancellation as a -> 0
SERIES_CUTOFF = 0.1


def phi(a):
    """sinh(a) - a, evaluated by series for small a; positive for a > 0."""
    a = np.asarray(a, dtype=float)
    a2 = a * a
    series = a * a2 / 6.0 * (1.0 + a2 / 20.0 * (1.0 + a2 / 42.0 * (1.0 + a2 / 72.0)))
    with np.errstate(over="ignore"):
        direct = np.sinh(a) - a
    out = np.where(a < SERIES_CUTOFF, series, direct)
    return float(out) if np.ndim(out) == 0 else out


def psi(a):
    """a*coth(a) - 1 with psi(0) = 0; increasing and positive for a > 0."""
    a = np.asarray(a, dtype=float)
    a2 = a * a
    series = (a2 / 3.0 - a2 ** 2 / 45.0 + 2.0 * a2 ** 3 / 945.0 - a2 ** 4 / 4725.0
              + 2.0 * a2 ** 5 / 93555.0 - 1382.0 * a2 ** 6 / 638512875.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = a / np.tanh(a) - 1.0
    out = np.where(a < SERIES_CUTOFF, series, direct)
    return float(out) if np.ndim(out) == 0 else out


def beta(theta_hat, s):
    """Direction-dependent radial compression: s^2 cos^2 + sin^2, in [s^2, 1]."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    theta_hat = np.asarray(theta_hat, dtype=float)
    out = (s * np.cos(theta_hat)) ** 2 + np.sin(theta_hat) ** 2
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ChordSpec:
    """Endpoints of a geodesic chord in the half-angle window.

    Radii are strictly positive and -pi/2 <= theta1 < theta2 < pi/2, so the
    subtended angle lies in (0, pi).
    """

    r1: float
    r2: float
    theta1: float
    theta2: float

    def __post_init__(self):
        if not (self.r1 > 0.0 and self.r2 > 0.0):
            raise ValueError("chord radii must be positive")
        if not (-math.pi / 2 <= self.theta1 < self.theta2 < math.pi / 2):
            raise ValueError("need -pi/2 <= theta1 < theta2 < pi/2")

    @property
    def delta_theta(self):
        return self.theta2 - self.theta1

    def theta(self, t):
        return self.theta1 + np.asarray(t, dtype=float) * self.delta_theta


def chord_radius(spec: ChordSpec, t):
    """Radius of the chord at parameter t, from the cancellation-free disk.polar_chord_radius."""
    out = polar_chord_radius(spec.r1, spec.r2, spec.delta_theta, t)
    return float(out) if np.ndim(out) == 0 else out


def _preimage_jet(r_hat, rp_hat, rpp_hat, theta_hat, s, dth):
    """Preimage 2-jet of a chord 2-jet under the axis dilation, in the inputs' dtype.

    The chord sits at angle theta_hat and turns at the constant rate dth.
    Returns beta and its derivatives (bp, bpp), the preimage jet (r, rp, rpp,
    thp, thpp) and the pieces the decomposition reuses (ct, st, sb = sqrt(beta),
    one_m_s2 = 1 - s^2).  beta - s^2 and 1 - beta are formed from their product
    identities, not by subtraction, to avoid cancellation near the window
    boundaries.
    """
    ct, st = np.cos(theta_hat), np.sin(theta_hat)
    one_m_s2 = (1.0 - s) * (1.0 + s)
    b = (s * ct) ** 2 + st ** 2
    sb = np.sqrt(b)
    bp = one_m_s2 * dth * 2.0 * st * ct
    bpp = 2.0 * one_m_s2 * dth ** 2 * (ct * ct - st * st)
    thp = s * dth / b
    return {
        "ct": ct, "st": st, "one_m_s2": one_m_s2, "sb": sb,
        "beta": b, "beta_minus_s2": one_m_s2 * st * st, "one_minus_beta": one_m_s2 * ct * ct,
        "bp": bp, "bpp": bpp,
        "r": r_hat * sb,
        "rp": rp_hat * sb + r_hat * bp / (2.0 * sb),
        "rpp": rpp_hat * sb + rp_hat * bp / sb + (r_hat / 2.0) * (
            (bpp * sb - bp * bp / (2.0 * sb)) / b),
        "thp": thp, "thpp": -thp * bp / b,
    }


def preimage_state(spec: ChordSpec, s, t):
    """Full derivative chain of the preimage curve at t.

    Returns a dict with the chord jet (r_hat, rp_hat, rpp_hat), theta_hat, the
    preimage angle theta, and everything _preimage_jet returns.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    dth = spec.delta_theta
    t = np.asarray(t, dtype=float)
    th_hat = spec.theta(t)
    r_hat, rp_hat, rpp_hat = chord_jet(spec.r1, spec.r2, dth, t)
    jet = _preimage_jet(r_hat, rp_hat, rpp_hat, th_hat, s, dth)
    return {**jet, "t": t, "theta_hat": th_hat,
            "r_hat": r_hat, "rp_hat": rp_hat, "rpp_hat": rpp_hat,
            "theta": np.arctan2(jet["st"], s * jet["ct"])}


def preimage_curve(spec: ChordSpec, s) -> ParamCurve:
    """Preimage of the chord under the axis dilation, with analytic derivatives."""

    def ev(t):
        st = preimage_state(spec, s, t)
        return st["r"], st["theta"]

    def d1(t):
        st = preimage_state(spec, s, t)
        return st["rp"], st["thp"]

    def d2(t):
        st = preimage_state(spec, s, t)
        return st["rpp"], st["thpp"]

    s0 = preimage_state(spec, s, 0.0)
    s1 = preimage_state(spec, s, 1.0)
    return ParamCurve(
        eval=ev, d1=d1, d2=d2,
        start=DiskPoint.from_polar(float(s0["r"]), float(s0["theta"])),
        end=DiskPoint.from_polar(float(s1["r"]), float(s1["theta"])),
        meta={"kind": "preimage", "s": s},
    )


@dataclass(frozen=True)
class PCoefficients:
    """Coefficients of the quadratic-in-(rp, dth) curvature decomposition.

    p2 carries the sign inherited from beta' (proportional to sin 2*theta_hat);
    p2_sq is the squared value in its independent product form and must agree
    with p2**2.
    """

    p0: float
    p1: float
    p2: float
    p2_sq: float
    p3: float
    r_hat: float
    theta_hat: float
    s: float
    rp_hat: float
    delta_theta_hat: float
    beta: float
    v: float

    def curvature(self):
        """k_g reconstructed from the decomposition."""
        return self.p0 * (self.p1 * self.rp_hat ** 2
                          + self.p2 * self.rp_hat * self.delta_theta_hat
                          + self.p3 * self.delta_theta_hat ** 2)

    def discriminant(self):
        return self.p2_sq - 4.0 * self.p1 * self.p3


def p_coefficients(r_hat, theta_hat, s, rp_hat, delta_theta_hat) -> PCoefficients:
    """Curvature decomposition at one chord state: a scalar view of p_coefficients_grid.

    The chord second derivative is determined by the chord equation, so the
    state (r_hat, theta_hat, s, rp_hat, dth) fixes the full preimage 2-jet.
    """
    if r_hat <= 0.0:
        raise ValueError("r_hat must be positive")
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    if not 0.0 < delta_theta_hat < math.pi:
        raise ValueError("delta_theta_hat must lie in (0, pi)")
    g = p_coefficients_grid(r_hat, theta_hat, s, rp_hat, delta_theta_hat)
    return PCoefficients(*(float(g[k]) for k in ("p0", "p1", "p2", "p2_sq", "p3")),
                         float(r_hat), float(theta_hat), float(s), float(rp_hat),
                         float(delta_theta_hat), float(g["beta"]), float(g["v"]))


def p_coefficients_grid(r_hat, theta_hat, s, rp_hat, delta_theta_hat):
    """Vectorized decomposition over broadcastable arrays.

    Returns a dict of arrays: p0, p1, p2, p2_sq, p3, kg_closed, kg_generic,
    discriminant.  kg_generic evaluates the raw polar curvature formula on the
    chained preimage jet and is the independent route the closed form is
    checked against.  The raw formula suffers cancellation where the curve is
    nearly geodesic (its terms are large while k_g is tiny), so the reference
    is evaluated on the same jet chain in extended precision; the grouped
    closed form needs no such help.
    """
    r_hat, theta_hat, s, rp_hat, dth = (np.asarray(x, dtype=float) for x in (
        r_hat, theta_hat, s, rp_hat, delta_theta_hat))
    j = _preimage_jet(r_hat, rp_hat, chord_rpp(r_hat, rp_hat, dth), theta_hat, s, dth)
    b, sb, one_m_s2 = j["beta"], j["sb"], j["one_m_s2"]
    b_m_s2, one_m_b = j["beta_minus_s2"], j["one_minus_beta"]
    v = np.sqrt(j["rp"] ** 2 + np.sinh(j["r"]) ** 2 * j["thp"] ** 2)

    psi_rb = psi(r_hat * sb)
    p0 = (1.0 / v ** 3) * j["thp"] * np.sinh(j["r"])
    p1 = 2.0 * sb * (psi_rb - psi(r_hat)) / r_hat
    p2 = 2.0 * one_m_s2 * (2.0 * j["st"] * j["ct"]) * psi_rb / sb
    p2_sq = 16.0 * b_m_s2 * one_m_b * psi_rb ** 2 / b
    p3 = (1.0 / (2.0 * b * sb)) * (
        (s * s / sb) * phi(2.0 * r_hat * sb) - b ** 2 * phi(2.0 * r_hat)
        + 4.0 * r_hat * b_m_s2 * one_m_b * psi_rb)
    kg_closed = p0 * (p1 * rp_hat ** 2 + p2 * rp_hat * dth + p3 * dth ** 2)

    kg_generic = _raw_curvature(*(np.asarray(x, dtype=np.longdouble)
                                  for x in (r_hat, theta_hat, s, rp_hat, dth)))
    return {
        "p0": p0, "p1": p1, "p2": p2, "p2_sq": p2_sq, "p3": p3,
        "discriminant": p2_sq - 4.0 * p1 * p3,
        "kg_closed": kg_closed, "kg_generic": kg_generic.astype(float), "v": v, "beta": b,
    }


def _raw_curvature(r_hat, theta_hat, s, rp_hat, dth):
    """Raw polar curvature of the chained preimage jet, in the inputs' dtype.

    Its own function so the extended-precision jet is freed on return (peak RSS).
    """
    e = _preimage_jet(r_hat, rp_hat, chord_rpp(r_hat, rp_hat, dth), theta_hat, s, dth)
    return curvature_from_derivatives(e["r"], e["rp"], e["rpp"], e["thp"], e["thpp"])


# --- comparison curve --------------------------------------------------------

def gamma_curve(x1: DiskPoint, x2: DiskPoint) -> ParamCurve:
    """Curve linear in polar coordinates from x1 to x2; bends away from the origin."""
    if x1.r <= 0.0 or x2.r <= 0.0:
        raise ValueError("endpoints must be off the origin")
    if x1.cart == x2.cart:
        raise ValueError("endpoints must be distinct")
    r1, r2 = x1.r, x2.r
    th1 = x1.theta
    dth = float(x2.theta - x1.theta)
    dr = r2 - r1

    def ev(t):
        t = np.asarray(t, dtype=float)
        return (1.0 - t) * r1 + t * r2, th1 + t * dth

    def d1(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, dr), np.full_like(t, dth)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t), np.zeros_like(t)

    return ParamCurve(eval=ev, d1=d1, d2=d2, start=x1, end=x2,
                      meta={"kind": "polar-linear"})


def gamma_curvature_closed_form(r1, r2, theta1, theta2, t):
    """Closed-form curvature of the polar-linear curve.

    (dth * sinh r / v^3) * (2 coth(r) dr^2 + (sinh 2r / 2) dth^2), with
    r = (1-t) r1 + t r2.  Positive whenever dth > 0.
    """
    t = np.asarray(t, dtype=float)
    dr = r2 - r1
    dth = theta2 - theta1
    r = (1.0 - t) * r1 + t * r2
    v = np.sqrt(dr ** 2 + np.sinh(r) ** 2 * dth ** 2)
    out = (dth * np.sinh(r) / v ** 3) * (
        2.0 * dr ** 2 / np.tanh(r) + np.sinh(2.0 * r) / 2.0 * dth ** 2)
    return float(out) if np.ndim(out) == 0 else out


# --- side ordering -----------------------------------------------------------

@dataclass
class SideOrderingReport:
    """Outcome of the three-curve ordering check for one chord spec.

    Verifies, at each sample, that the preimage curve has negative curvature,
    the polar-linear curve positive curvature, and that at matched angles the
    radii order as preimage <= chord <= polar-linear (preimage on the origin
    side, comparison curve opposite).
    """

    spec: ChordSpec
    s: float
    samples: int
    slack: float
    min_chord_gap: float = math.inf
    min_gamma_gap: float = math.inf
    max_kg_preimage: float = -math.inf
    min_kg_gamma: float = math.inf
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations


def side_ordering(spec: ChordSpec, s, samples=64, slack=1e-9) -> SideOrderingReport:
    """Check curvature signs and the radial ordering of the three curves.

    The chord and the polar-linear comparison curve share the linear angle
    parameter, while the preimage curve does not; radii are therefore compared
    at matched angles, interpolating the other two curves at the preimage's
    angle. Records every violating sample with its full context.
    """
    report = SideOrderingReport(spec=spec, s=float(s), samples=int(samples),
                                slack=float(slack))
    ts = np.linspace(0.0, 1.0, samples)
    state = preimage_state(spec, s, ts)

    kg_pre = curvature_from_derivatives(state["r"], state["rp"], state["rpp"],
                                        state["thp"], state["thpp"])

    # preimage endpoints define the inner chord and the comparison curve
    e0 = preimage_state(spec, s, 0.0)
    e1 = preimage_state(spec, s, 1.0)
    r1, th1 = float(e0["r"]), float(e0["theta"])
    r2, th2 = float(e1["r"]), float(e1["theta"])
    dth = th2 - th1

    u = (state["theta"] - th1) / dth
    chord = ChordSpec(r1, r2, th1, th2)
    r_chord = chord_radius(chord, u)
    r_gamma = (1.0 - u) * r1 + u * r2
    kg_gamma = gamma_curvature_closed_form(r1, r2, th1, th2, u)

    chord_gap = r_chord - state["r"]
    gamma_gap = r_gamma - r_chord
    report.min_chord_gap = float(np.min(chord_gap))
    report.min_gamma_gap = float(np.min(gamma_gap))
    report.max_kg_preimage = float(np.max(kg_pre))
    report.min_kg_gamma = float(np.min(kg_gamma))

    bad = (kg_pre >= slack) | (kg_gamma <= -slack) \
        | (chord_gap < -slack) | (gamma_gap < -slack)
    for idx in np.nonzero(bad)[0]:
        report.violations.append({
            "t": float(ts[idx]),
            "r_preimage": float(state["r"][idx]),
            "r_chord": float(r_chord[idx]),
            "r_gamma": float(r_gamma[idx]),
            "kg_preimage": float(kg_pre[idx]),
            "kg_gamma": float(kg_gamma[idx]),
        })
    return report
