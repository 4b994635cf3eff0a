"""Curvature analysis of anisotropically mapped geodesic chords.

Given a geodesic chord between two points with angles inside (-pi/2, pi/2)
and a contraction factor s in (0, 1) applied along the x-axis direction, the
preimage curve of the chord under the axis dilation has geodesic curvature

    k_g = P0 * (P1 rp^2 + P2 rp dth + P3 dth^2)

where rp is the chord radius derivative and dth the (constant) angular speed.
P0 is positive, P1 negative, and the discriminant P2^2 - 4 P1 P3 negative, so
k_g is strictly negative: the preimage bends toward the origin everywhere.
This module computes every ingredient of that decomposition on arrays, and
checks the preimage against the chord and the comparison curve (linear in
polar coordinates between the preimage's ends), which bends away from the
origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import chord_jet, chord_rpp, curvature_from_derivatives, polar_chord_radius

# series branch for the auxiliary functions below this argument; the direct
# forms lose ~eps/a^2 relative accuracy to cancellation as a -> 0
SERIES_CUTOFF = 0.1

# side_ordering's tolerance on the curvature signs and the radial gaps
ORDERING_SLACK = 1e-9


def phi(a):
    """sinh(a) - a, positive for a > 0.

    The series is evaluated only where a < SERIES_CUTOFF.  Pass axes, not a meshgrid."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        out = np.asarray(np.sinh(a) - a)
    small = a < SERIES_CUTOFF
    x = a[small]
    x2 = x * x
    out[small] = x * x2 / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0 * (1.0 + x2 / 72.0)))
    return float(out) if out.ndim == 0 else out


def psi(a):
    """a*coth(a) - 1 with psi(0) = 0; increasing and positive for a > 0.

    The series is evaluated only where a < SERIES_CUTOFF.  Pass axes, not a meshgrid."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(a / np.tanh(a) - 1.0)
    small = a < SERIES_CUTOFF
    x = a[small]
    x2 = x * x
    out[small] = (x2 / 3.0 - x2 ** 2 / 45.0 + 2.0 * x2 ** 3 / 945.0 - x2 ** 4 / 4725.0
                  + 2.0 * x2 ** 5 / 93555.0 - 1382.0 * x2 ** 6 / 638512875.0)
    return float(out) if out.ndim == 0 else out


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


def _ends(specs):
    """r1, r2, theta1, theta2 of a sequence of S ChordSpecs, as (S, 1) columns, each contiguous
    as a block of one's is, so that numpy runs one loop over a chord's factors however many
    chords come with it."""
    ends = np.array([[c.r1, c.r2, c.theta1, c.theta2] for c in specs], dtype=float).reshape(-1, 4)
    return tuple(np.ascontiguousarray(ends[:, j:j + 1]) for j in range(4))


def chord_radius(specs, t):
    """Radii (S, ...) of a sequence of S chords at parameter t, one row each (or t (S, T), a row
    of t per chord), from the cancellation-free disk.polar_chord_radius."""
    r1, r2, theta1, theta2 = _ends(specs)
    return polar_chord_radius(r1, r2, theta2 - theta1, t)


def _preimage_jet(r_hat, rp_hat, rpp_hat, theta_hat, s, dth, dth_sq):
    """Preimage 2-jet of a chord 2-jet under the axis dilation, in the inputs' dtype.

    The chord sits at angle theta_hat and turns at the constant rate dth (dth_sq = dth^2).
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
    bpp = 2.0 * one_m_s2 * dth_sq * (ct * ct - st * st)
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


def preimage_state(specs, s, t):
    """Full derivative chain of the preimage curves of a sequence of S chords at t.

    s holds one factor per chord.  Every array has a row per chord ((S, T) for t (T,), or
    (S, 1) for a chord's own values), with the bits the chord has in a block of one.  Returns a
    dict with the chord jet (r_hat, rp_hat, rpp_hat), theta_hat, the preimage angle theta, and
    everything _preimage_jet returns.
    """
    r1, r2, theta1, theta2 = _ends(specs)
    s = np.asarray(s, dtype=float).reshape(-1, 1)
    if not np.all((s > 0.0) & (s < 1.0)):
        raise ValueError("s must lie in (0, 1)")
    dth = theta2 - theta1
    t = np.asarray(t, dtype=float)
    th_hat = theta1 + t * dth
    r_hat, rp_hat, rpp_hat = chord_jet(r1, r2, dth, t)
    jet = _preimage_jet(r_hat, rp_hat, rpp_hat, th_hat, s, dth, dth ** 2)
    return {**jet, "t": t, "theta_hat": th_hat,
            "r_hat": r_hat, "rp_hat": rp_hat, "rpp_hat": rpp_hat,
            "theta": np.arctan2(jet["st"], s * jet["ct"])}


def p_coefficients_grid(r_hat, theta_hat, s, rp_hat, delta_theta_hat):
    """Curvature decomposition over broadcastable chord states.

    The chord second derivative is determined by the chord equation, so the
    state (r_hat, theta_hat, s, rp_hat, dth) fixes the full preimage 2-jet.
    Pass a grid as its axes (r_hat[:, None, None], theta_hat[None, :, None], s),
    not as a meshgrid, so that each factor of one or two axes (cos theta_hat,
    beta, psi(r_hat), ...) is computed once per axis value.  Returns a dict of
    arrays: p0, p1, p2, p2_sq (the square of p2 in its independent product
    form), p3, discriminant, kg_closed, kg_generic, the preimage speed v and
    beta = s^2 cos^2 + sin^2 (in the broadcast shape of theta_hat and s).
    kg_generic evaluates the raw polar curvature formula on the chained
    preimage jet and is the independent route the closed form is checked
    against.  The raw formula suffers cancellation where the curve is nearly
    geodesic (its terms are large while k_g is tiny), so the reference is
    evaluated on the same jet chain in extended precision; the grouped closed
    form needs no such help.
    """
    r_hat, theta_hat, s, rp_hat, dth = (np.asarray(x, dtype=float) for x in (
        r_hat, theta_hat, s, rp_hat, delta_theta_hat))
    dth_sq = dth ** 2
    j = _preimage_jet(r_hat, rp_hat, chord_rpp(r_hat, rp_hat, dth_sq), theta_hat, s, dth, dth_sq)
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
    dth_sq = dth ** 2
    e = _preimage_jet(r_hat, rp_hat, chord_rpp(r_hat, rp_hat, dth_sq), theta_hat, s, dth, dth_sq)
    return curvature_from_derivatives(e["r"], e["rp"], e["rpp"], e["thp"], e["thpp"])


# --- comparison curve --------------------------------------------------------

def gamma_curvature_closed_form(r1, r2, theta1, theta2, t):
    """Closed-form curvature of the polar-linear curve.

    (dth * sinh r / v^3) * (2 coth(r) dr^2 + (sinh 2r / 2) dth^2), with
    r = (1-t) r1 + t r2.  Positive whenever dth > 0.  The ends may be (S, 1)
    columns of S curves, as polar_chord_radius takes them.
    """
    t = np.asarray(t, dtype=float)
    dr = r2 - r1
    dth = theta2 - theta1
    r = (1.0 - t) * r1 + t * r2
    v = np.sqrt(dr ** 2 + np.sinh(r) ** 2 * dth ** 2)
    return (dth * np.sinh(r) / v ** 3) * (
        2.0 * dr ** 2 / np.tanh(r) + np.sinh(2.0 * r) / 2.0 * dth ** 2)


# --- side ordering -----------------------------------------------------------

def side_ordering(specs, s, samples):
    """Check curvature signs and the radial ordering of the three curves.

    At each of the samples, the preimage curve must have negative curvature,
    the polar-linear curve positive curvature, and at matched angles the radii
    must order as preimage <= chord <= polar-linear (preimage on the origin
    side, comparison curve opposite), each to ORDERING_SLACK.  The chord and
    the comparison curve join the preimage's end samples and share the linear
    angle parameter, while the preimage curve does not; radii are therefore
    compared at the preimage's angles.

    specs is a sequence of ChordSpecs and s one factor each, evaluated as one (chords, samples)
    stack; returns the report entry of each, with every violating sample and its full context,
    as the chord gives it in a block of one.
    """
    if samples < 2:
        raise ValueError("side_ordering needs at least 2 samples, the chord's two ends")
    specs, s = list(specs), list(s)  # each is read twice
    ts = np.linspace(0.0, 1.0, samples)
    state = preimage_state(specs, s, ts)
    r, theta = state["r"], state["theta"]

    kg_pre = curvature_from_derivatives(r, state["rp"], state["rpp"], state["thp"], state["thpp"])

    # the preimage's end samples (t = 0, 1) define the inner chord and the comparison curve
    inner = [ChordSpec(*ends) for ends in zip(r[:, 0].tolist(), r[:, -1].tolist(),
                                               theta[:, 0].tolist(), theta[:, -1].tolist())]
    r1, r2, th1, th2 = _ends(inner)
    u = (theta - th1) / (th2 - th1)
    r_chord = chord_radius(inner, u)
    r_gamma = (1.0 - u) * r1 + u * r2
    kg_gamma = gamma_curvature_closed_form(r1, r2, th1, th2, u)

    chord_gap = r_chord - r
    gamma_gap = r_gamma - r_chord
    bad = (kg_pre >= ORDERING_SLACK) | (kg_gamma <= -ORDERING_SLACK) \
        | (chord_gap < -ORDERING_SLACK) | (gamma_gap < -ORDERING_SLACK)
    entries = [{
        "spec": [c.r1, c.r2, c.theta1, c.theta2], "s": float(f),
        "min_chord_gap": chord_min, "min_gamma_gap": gamma_min,
        "max_kg_preimage": kg_pre_max, "min_kg_gamma": kg_gamma_min,
        "violations": [],
    } for c, f, chord_min, gamma_min, kg_pre_max, kg_gamma_min in zip(
        specs, s, *(np.min(chord_gap, axis=1).tolist(), np.min(gamma_gap, axis=1).tolist(),
                    np.max(kg_pre, axis=1).tolist(), np.min(kg_gamma, axis=1).tolist()))]
    for row, idx in zip(*np.nonzero(bad)):
        entries[row]["violations"].append({
            "t": float(ts[idx]),
            "r_preimage": float(r[row, idx]),
            "r_chord": float(r_chord[row, idx]),
            "r_gamma": float(r_gamma[row, idx]),
            "kg_preimage": float(kg_pre[row, idx]),
            "kg_gamma": float(kg_gamma[row, idx]),
        })
    return entries
