"""Command-line front end: experiment drivers, counterexample search, rendering.

Exit codes: 0 on pass, 1 on a property violation, 2 on usage or config
errors, a factor that carries a region past the float64 Poincare chart
included.  Every command but verify-lemmas and the render trace takes a
seed and is deterministic for it; per-trial random streams are derived from
(seed, trial index).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import convexity, curvature, lemmas, sphere
from .convexity import (MIN_SAMPLES, PAIR_SAMPLES, SAMPLES_PER_EDGE, SEGMENT_SAMPLES,
                        TRIAL_BLOCK, GeodesicPolygon, _star_polar, convexity_defect,
                        dilate_region, dilate_regions, random_hconvex_polygon, star_hulls)
from .dilation import DilationParams
from .disk import (ChartSaturation, curvature_from_derivatives, hyperboloid_cart,
                   hyperboloid_lift, hyperboloid_polar, polar_to_cart)
from .svg import SvgCanvas

PASS, VIOLATION, USAGE = 0, 1, 2

# Rows per block of the CSV kernel: its index arrays (25 per value) and its text hold one
# block of rows, not the whole table, which keeps peak memory down.
CSV_BLOCK_ROWS = 1024

REPLAY_TOL = 1e-9  # a replayed defect passes within this of the witness's stored defect

# curvature-sweep: s values of the decomposition grid, and samples per
# side-ordering chord
SWEEP_N_S, ORDERING_SAMPLES = 9, 64


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- %.17g of a block of doubles ---------------------------------------------
#
# '%.17g' % x writes 17 significant digits: N = x * 10^(16 - k) rounded half-even, with
# k = floor(log10 |x|).  Where 10^-6 <= |x| < 10^17, 10^(16 - k) is an exact double (10^p is for
# p <= 22), so Dekker's two-product gives x * 10^(16 - k) exactly as hi + lo.  hi, in
# [10^16, 10^17], is an even integer, so N = hi + rint(lo), rounded half-even, is exact in int64.
# Where 10^-22 <= |x| < 10^-6, 10^p (23 <= p <= 38) is the exact double-double float(10^p) +
# its remainder (5^38 < 2^106), so x * 10^p = hi + lo + hi2 + lo2 by two two-products.  With
# lo + hi2 = s + e (TwoSum) and r = rint(s), N = hi + r + step: the fraction (s - r) + fl(e + lo2)
# = c + d (TwoSum) steps N by the sign of c where |c| > 1/2 and, where |c| = 1/2, of d, d = 0 being
# a tie.  fl(e + lo2) is off by less than 2^-102 (|e + lo2| < 2^-49), which cannot carry a
# fraction of x * 10^p, a multiple of 2^-89, across or onto the half.
# The text is then taken byte by byte from N's digits and a few constants by a template per
# (exponent, sign, significant digits): that text with the digits written A..Q.  Zeros,
# non-finite values and other exponents are formatted by Python, and so is a value whose N
# rounds up to 10^17 (only the double just below a power of ten can, as 1e-14 does) or, below
# 10^-6, is 10^16 (one of the doubles nearest a power of ten).
_G17_K_MIN, _G17_K_MAX = -22, 16
_G17_SLOT = 25  # bytes per value: its text (at most 24, as -2.2250738585072014e-308), padding, ','
# a value's source row: its 17 digits, which a template writes A..Q, then these constants
_G17_SOURCE = "ABCDEFGHIJKLMNOPQ\0-.e+,0123456789"
_G17_CONST = np.frombuffer(_G17_SOURCE[17:].encode(), np.uint8)
_VELTKAMP = 2.0 ** 27 + 1.0  # splits a double into two 26-bit halves


def _split(a):
    """a_hi, a_lo with a_hi + a_lo = a, each of at most 26 significant bits (Veltkamp)."""
    c = _VELTKAMP * a
    a_hi = c - (c - a)
    return a_hi, a - a_hi


# 10^p as a double for 0 <= p <= 38 (exact to p = 22), and the exact remainder 10^p - that,
# each as rows of the double and its Veltkamp halves
_POW10, _POW10_REM = (np.stack([v, *_split(v)]) for v in np.array(
    [[float(10 ** p), float(10 ** p - int(float(10 ** p)))] for p in range(39)]).T)


def _digit_tables():
    """The four ASCII digits of each of 0..9999 as one uint32, and its trailing zeros (4 for
    0000)."""
    digits = np.indices((10,) * 4, dtype=np.uint8)  # most significant first
    ascii4 = np.stack(digits + ord("0"), axis=-1).reshape(10000, 4).view(np.uint32).ravel()
    zeros = np.cumprod(digits[::-1] == 0, axis=0, dtype=np.uint8).sum(axis=0, dtype=np.uint8)
    return ascii4, zeros.ravel()


_DIGITS4, _TRAILING_ZEROS4 = _digit_tables()


def _g17_template(exp, negative, n_digits):
    """The text of a value with this decimal exponent, sign and number of significant digits,
    its digits written A..Q."""
    digits = _G17_SOURCE[:n_digits]
    if exp < -4:  # '%.17g' takes its exponent form below 10^-4 (and from 10^17)
        text = digits[0] + ("." + digits[1:] if n_digits > 1 else "") + "e%+03d" % exp
    elif exp < 0:
        text = "0." + "0" * (-exp - 1) + digits
    elif n_digits <= exp + 1:
        text = digits + "0" * (exp + 1 - n_digits)
    else:
        text = digits[:exp + 1] + "." + digits[exp + 1:]
    return "-" + text if negative else text


def _g17_templates():
    """Source-row indices of every template, padded with NUL to its slot and ended by a comma;
    row ((exp - _G17_K_MIN) * 2 + negative) * 17 + n_digits - 1."""
    text = "".join(_g17_template(exp, negative, n_digits).ljust(_G17_SLOT - 1, "\0") + ","
                   for exp in range(_G17_K_MIN, _G17_K_MAX + 1) for negative in (0, 1)
                   for n_digits in range(1, 18))
    index = text.translate({ord(c): i for i, c in enumerate(_G17_SOURCE)})
    return np.frombuffer(index.encode("latin-1"), np.uint8).reshape(-1, _G17_SLOT)


_G17_TEMPLATES = _g17_templates()


def _times(a, table, p):
    """hi, lo with hi + lo = a * table[0, p] exactly, for a >= 10^-22 (Dekker)."""
    b, b_hi, b_lo = table[:, p]
    hi = a * b
    a_hi, a_lo = _split(a)
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    """s, e with s + e = a + b exactly, s = fl(a + b) (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _round_small(a, p, hi, lo):
    """N = a * 10^p rounded half-even, for 23 <= p <= 38, where hi + lo = a * float(10^p)."""
    hi2, lo2 = _times(a, _POW10_REM, p)
    s, e = _two_sum(lo, hi2)  # |s| < 16
    r = np.rint(s)
    c, d = _two_sum(s - r, e + lo2)  # d is 0 or at least ulp(e + lo2) where |c| = 1/2
    step = (np.abs(c) > 0.5) | (np.abs(c) == 0.5) & ((d * c > 0.0) | (d == 0.0) & (r % 2.0 != 0.0))
    return hi.astype(np.int64) + (r + step * np.sign(c)).astype(np.int64)


def _g17_slots(x):
    """The '%.17g' text of each double of x (n,), in a (n, _G17_SLOT) uint8 slot each: the text,
    NUL padding and a comma."""
    n = len(x)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
    exact = (k >= _G17_K_MIN) & (k <= _G17_K_MAX)  # false for 0, nan and inf
    k = np.where(exact, k, 0).astype(np.intp)
    a = np.where(exact, a, 1.0)
    hi, lo = _times(a, _POW10, 16 - k)
    # log10 can round across a power of ten: the exact product moves k by one
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    moved = np.flatnonzero(low | high)
    if len(moved):
        k[moved] += np.where(high[moved], 1, -1)
        inside = (k[moved] >= _G17_K_MIN) & (k[moved] <= _G17_K_MAX)
        exact[moved] = inside
        k[moved[~inside]], a[moved[~inside]] = 0, 1.0
        hi[moved], lo[moved] = _times(a[moved], _POW10, 16 - k[moved])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # in [10^16, 10^17]
    small = np.flatnonzero(k < -6)  # k is 0 for the values Python formats
    if len(small):
        digits[small] = _round_small(a[small], 16 - k[small], hi[small], lo[small])
        # float(10^p) decided k, so N = 10^16 may be x * 10^p just under it: Python writes it
        exact[small] &= digits[small] > 10 ** 16
    exact &= digits < 10 ** 17
    # the leading digit, then four groups of four digits: two halves of 8 digits in int32
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    halves = np.empty((n, 2), np.int32)
    halves[:, 0] = rest // 10 ** 8
    halves[:, 1] = rest - halves[:, 0].astype(np.int64) * 10 ** 8
    groups = np.empty((n, 2, 2), np.intp)
    groups[..., 0] = halves // 10 ** 4
    groups[..., 1] = halves - groups[..., 0] * 10 ** 4
    groups = groups.reshape(n, 4)
    zeros = _TRAILING_ZEROS4.take(groups)
    trailing = zeros[:, 0]
    for j in (1, 2, 3):
        trailing = zeros[:, j] + (zeros[:, j] == 4) * trailing
    src = np.empty((n, len(_G17_SOURCE)), np.uint8)
    src[:, 0] = lead + ord("0")
    src[:, 1:17] = _DIGITS4.take(groups).view(np.uint8)
    src[:, 17:] = _G17_CONST
    template = ((k - _G17_K_MIN) * 2 + np.signbit(x)) * 17 + (16 - trailing)
    index = np.take(_G17_TEMPLATES, template, axis=0).astype(np.intp)
    index += np.arange(0, n * len(_G17_SOURCE), len(_G17_SOURCE))[:, None]
    slots = src.ravel().take(index)
    other = np.flatnonzero(~exact)
    if len(other):
        text = np.array(["%.17g" % v for v in x[other].tolist()], dtype="S24")
        slots[other, :24] = text.view(np.uint8).reshape(len(other), 24)
    return slots


def _csv_text(header, values, prefix=None) -> str:
    """CSV of a header line and the rows of a 2-D float array.

    Each value is written as ``%.17g`` writes it, which round-trips to the same double.
    ``prefix``, if given, holds one preformatted ASCII text per row (strings, or a bytes
    array) that is written, followed by a comma, before the row's values.
    """
    n_rows, n_cols = values.shape
    parts = [header + "\n"]
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = values[start:start + CSV_BLOCK_ROWS]
        rows = _g17_slots(block.ravel()).reshape(len(block), n_cols * _G17_SLOT)
        rows[:, -1] = ord("\n")
        if prefix is not None:
            lead = np.asarray(prefix[start:start + CSV_BLOCK_ROWS], dtype=bytes)
            rows = np.concatenate([lead.view(np.uint8).reshape(len(block), lead.itemsize),
                                   np.full((len(block), 1), ord(","), np.uint8), rows], axis=1)
        parts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- verify-theorem ----------------------------------------------------------

def _theorem_draws(seed, i, k_range, forced_k1, forced_k2):
    """Trial i's draws from its stream, in order: its polar center, its _star_polar points and
    its factors; returned with the dilation about that center."""
    rng = np.random.default_rng([seed, i])
    r, theta = rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi)
    star = _star_polar(rng)
    k1 = float(rng.uniform(*k_range)) if forced_k1 is None else forced_k1
    k2 = float(rng.uniform(*k_range)) if forced_k2 is None else forced_k2
    return [float(r), float(theta)], star, DilationParams(polar_to_cart(r, theta), k1, k2)


def _theorem_regions(seed, trials, k_range, forced_k1, forced_k2):
    """The trials' polar centers and regions: drawn one trial at a time, built together."""
    polar, stars, params = zip(*(_theorem_draws(seed, i, k_range, forced_k1, forced_k2)
                                 for i in trials))
    polys = star_hulls(stars, [p.center for p in params])
    return polar, dilate_regions(polys, params)


def run_verify_theorem(seed=0, trials=200, k1=None, k2=None, tol=1e-6):
    below = [f"{name}={k!r}" for name, k in (("k1", k1), ("k2", k2)) if k is not None and k < 1.0]
    if below:
        raise UsageError("verify-theorem checks the theorem's hypothesis k1, k2 >= 1, got "
                         + ", ".join(below))
    k_range = (1.0, 4.0)
    results = []
    for start in range(0, trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, trials))
        for i, polar, region in zip(block, *_theorem_regions(seed, block, k_range, k1, k2)):
            results.append({"trial": i, "k1": region.k1, "k2": region.k2,
                            "n_vertices": len(region.polygon.sheet), "center_polar": polar,
                            "defect": convexity_defect(region)})
    max_defect = max(r["defect"] for r in results)
    failures = [r["trial"] for r in results if r["defect"] >= tol]
    return {
        "command": "verify-theorem", "seed": seed, "trials": trials,
        "k_range": list(k_range) if k1 is None or k2 is None else None,  # a factor is drawn
        "forced_k": [k1, k2] if (k1 is not None or k2 is not None) else None,
        "tolerance": tol, "samples_per_edge": SAMPLES_PER_EDGE,
        "pair_samples": PAIR_SAMPLES, "segment_samples": SEGMENT_SAMPLES,
        "results": results, "max_defect": max_defect,
        "failures": failures, "passed": not failures,
    }


# --- search-counterexample ---------------------------------------------------

def _directed_thin_polygon(rng):
    """Elongated polygon straddling the origin along the x-axis.

    Under contraction of the x-direction the far caps acquire boundary
    curvature of the nonconvex sign, which is where witnesses live.
    """
    reach = rng.uniform(1.5, 3.0)
    half_angle = rng.uniform(0.15, 0.7)
    back = rng.uniform(0.4, 1.2)
    thetas = [half_angle, -half_angle, math.pi - rng.uniform(0.1, 0.5),
              -math.pi + rng.uniform(0.1, 0.5)]
    return convexity.hyperbolic_hull(hyperboloid_lift([reach, reach, back, back], thetas))


def measure_witness(witness, scale=1):
    """Defect of a serialized witness at its own sampling, optionally denser."""
    poly = GeodesicPolygon.from_polar(witness["vertices_polar"])
    params = DilationParams(witness["center_cart"], witness["k1"], witness["k2"])
    region = dilate_region(poly, params,
                           samples_per_edge=witness["samples_per_edge"] * scale)
    return convexity_defect(region, witness["pair_samples"] * scale,
                            witness["segment_samples"] * scale)


def run_search_counterexample(seed=0, k1=0.25, k2=1.0, trials=2000, tol=1e-3):
    if k1 >= 1.0:
        raise UsageError("counterexample search requires k1 < 1")
    report = {"command": "search-counterexample", "seed": seed, "k1": k1, "k2": k2,
              "budget": trials, "threshold": tol, "found": False, "witness": None,
              "trials_used": 0}
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        if i % 2 == 0:
            poly = _directed_thin_polygon(rng)
        else:
            poly = random_hconvex_polygon(rng)
        defect = convexity_defect(dilate_region(poly, DilationParams((0.0, 0.0), k1, k2)))
        report["trials_used"] = i + 1
        if defect > tol:
            witness = {
                "vertices_polar": np.column_stack(hyperboloid_polar(poly.sheet)).tolist(),
                "center_cart": [0.0, 0.0], "k1": k1, "k2": k2,
                "samples_per_edge": SAMPLES_PER_EDGE,
                "pair_samples": PAIR_SAMPLES, "segment_samples": SEGMENT_SAMPLES,
                "seed": seed, "trial": i, "defect": defect,
            }
            recheck = measure_witness(witness, scale=4)
            if recheck > tol:
                witness["defect_recheck_4x"] = recheck
                report["found"] = True
                report["witness"] = witness
                break
    return report


WITNESS_KEYS = ("vertices_polar", "center_cart", "k1", "k2", "samples_per_edge",
                "pair_samples", "segment_samples", "defect")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_number, x))


def _check_witness(witness):
    """Raise UsageError unless every witness field has its type and range."""
    for key in ("k1", "k2"):
        if not (_is_number(witness[key]) and witness[key] > 0):
            raise UsageError(f"witness {key} must be a finite number > 0, got {witness[key]!r}")
    for key in ("samples_per_edge", "pair_samples", "segment_samples"):
        value = witness[key]
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= MIN_SAMPLES):
            raise UsageError(f"witness {key} must be an int >= {MIN_SAMPLES}, got {value!r}")
    if not _is_number(witness["defect"]):
        raise UsageError(f"witness defect must be a finite number, got {witness['defect']!r}")
    if not (isinstance(witness["vertices_polar"], list)
            and all(map(_is_pair, witness["vertices_polar"]))):
        raise UsageError("witness vertices_polar must be a list of [r, theta] number pairs")
    if not (_is_pair(witness["center_cart"]) and math.hypot(*witness["center_cart"]) < 1.0):
        raise UsageError("witness center_cart must be two numbers inside the unit disk")
    try:
        poly = GeodesicPolygon.from_polar(witness["vertices_polar"])
    except ValueError as exc:
        raise UsageError(f"invalid witness: {exc}") from None
    if not poly.hconvex:
        raise UsageError("witness vertices_polar must form an h-convex polygon")


def run_replay(witness_path):
    try:
        with open(witness_path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read a witness from {witness_path}: {exc}") from None
    witness = doc["witness"] if isinstance(doc, dict) and "witness" in doc else doc
    if not (isinstance(witness, dict) and set(WITNESS_KEYS) <= witness.keys()):
        raise UsageError(f"{witness_path} holds no witness with keys {', '.join(WITNESS_KEYS)}")
    _check_witness(witness)
    defect = measure_witness(witness)
    return {
        "command": "replay-witness", "path": witness_path,
        "stored_defect": witness["defect"], "replayed_defect": defect,
        "difference": abs(defect - witness["defect"]),
        "passed": abs(defect - witness["defect"]) <= REPLAY_TOL,
    }


# --- verify-lemmas -----------------------------------------------------------

def run_verify_lemmas(grid_n=500):
    reports = lemmas.verify_all(grid_n)
    return {
        "command": "verify-lemmas", "grid_n": grid_n, "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }


def lemma_table(report_doc) -> str:
    lines = [f"{'lemma':<18} {'points':>8} {'min margin':>14} {'at':>30} {'pass':>6}"]
    for rep in report_doc["reports"]:
        at = ", ".join(f"{k}={v:.4g}" for k, v in rep["min_at"].items())
        lines.append(f"{rep['lemma']:<18} {rep['n_points']:>8} "
                     f"{rep['min_margin']:>14.6e} {at:>30} "
                     f"{'ok' if rep['passed'] else 'FAIL':>6}")
    return "\n".join(lines) + "\n"


# --- curvature-sweep ---------------------------------------------------------

def _ordering_chords(seed, n):
    """The sweep's n side-ordering chords and one factor each, chord i drawn from its own
    stream default_rng([seed, i])."""
    chords, factors = [], []
    for i in range(n):
        srng = np.random.default_rng([seed, i])
        th1 = srng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
        th2 = srng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
        chords.append(curvature.ChordSpec(srng.uniform(0.2, 4.0), srng.uniform(0.2, 4.0),
                                          th1, th2))
        factors.append(srng.uniform(0.05, 0.95))
    return chords, factors


def _curvature_sweep(seed, grid_n, specs, rel_tol):
    """The curvature-sweep report, and its CSV table as the arguments of _csv_text."""
    r_hat = np.geomspace(0.05, 10.0, grid_n)
    theta_hat = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, grid_n)
    s_vals = np.linspace(0.1, 0.9, SWEEP_N_S)
    rng = np.random.default_rng(seed)
    rp_hat = rng.uniform(-2.0, 2.0, size=(grid_n, grid_n, SWEEP_N_S))
    out = curvature.p_coefficients_grid(r_hat[:, None, None], theta_hat[None, :, None], s_vals,
                                        rp_hat, 1.0)

    rel = np.abs(out["kg_closed"] - out["kg_generic"]) / np.abs(out["kg_generic"])
    sign_bad = int(np.sum((out["p0"] <= 0) | (out["p1"] >= 0)
                          | (out["discriminant"] >= 0) | (out["kg_generic"] >= 0)))
    # r_hat, theta_hat and s are the grid axes: format each distinct value
    # once and build the rows' leading fields in "ij" order
    r_txt, t_txt, s_txt = (np.array([f"{v:.17g}" for v in axis], dtype=bytes)
                           for axis in (r_hat, theta_hat, s_vals))
    prefix = np.char.add(np.char.add(np.char.add(r_txt[:, None, None], b","),
                                     np.char.add(t_txt[None, :, None], b",")), s_txt).ravel()
    values = np.stack([out[k].ravel() for k in ("p0", "p1", "p2", "p3", "discriminant",
                                                "kg_closed", "kg_generic")], axis=1)
    table = ("r_hat,theta_hat,s,p0,p1,p2,p3,discriminant,kg_closed,kg_generic", values, prefix)

    ordering = curvature.side_ordering(*_ordering_chords(seed, specs), ORDERING_SAMPLES)
    ordering_bad = sum(bool(o["violations"]) for o in ordering)
    return {
        "command": "curvature-sweep", "seed": seed,
        "grid": {"n_r": grid_n, "n_theta": grid_n, "n_s": SWEEP_N_S},
        "max_rel_mismatch": float(np.max(rel)),
        "sign_violations": sign_bad,
        "ordering_specs": specs, "ordering_violations": ordering_bad,
        "side_ordering": ordering,
        "passed": bool(np.max(rel) < rel_tol) and sign_bad == 0 and ordering_bad == 0,
    }, table


def run_curvature_sweep(seed=0, grid_n=50, specs=100, rel_tol=1e-8):
    """The curvature-sweep report and its CSV text."""
    report, table = _curvature_sweep(seed, grid_n, specs, rel_tol)
    return report, _csv_text(*table)


# --- sphere-conjecture -------------------------------------------------------

def run_sphere_conjecture(seed=0, trials=500):
    report = sphere.conjecture_trial(seed, trials)
    report["command"] = "sphere-conjecture"
    report["passed"] = report["summary"]["symmetric"]["exceedances"] == 0
    return report


# --- render ------------------------------------------------------------------

# the rendered geodesic chord
RENDER_CHORD = curvature.ChordSpec(1.8, 2.3, -0.6, 0.8)


def _render_preimage(k1, n):
    """The n samples t of the rendered chord and its preimage_state rows of r, theta and their
    derivatives.

    The preimage is under the x-axis contraction by 1/k1 for k1 > 1, by 1/2
    otherwise.
    """
    s = 1.0 / k1 if k1 > 1.0 else 0.5
    ts = np.linspace(0.0, 1.0, n)
    state = curvature.preimage_state([RENDER_CHORD], [s], ts)
    return {"t": ts, **{key: state[key][0] for key in ("r", "rp", "rpp", "theta", "thp", "thpp")}}


def run_render(seed=0, k1=2.0, k2=1.0):
    rng = np.random.default_rng(seed)
    poly = random_hconvex_polygon(rng, r_range=(0.4, 2.0))
    source = dilate_region(poly, DilationParams((0.0, 0.0), 1.0, 1.0), samples_per_edge=64)
    image = dilate_region(poly, DilationParams((0.0, 0.0), k1, k2), samples_per_edge=64)

    canvas = SvgCanvas()
    canvas.circle(0.0, 0.0, 1.0, stroke="#444444", width=0.003)
    canvas.polyline(hyperboloid_cart(source.boundary), stroke="#1f77b4")
    canvas.polyline(hyperboloid_cart(image.boundary), stroke="#d62728")

    # the chord, its contraction image, and the comparison curve: polar-linear
    # between the image's end samples, as side_ordering builds it
    pre = _render_preimage(k1, 128)
    ts, r, theta = pre["t"], pre["r"], pre["theta"]
    chord = polar_to_cart(curvature.chord_radius([RENDER_CHORD], ts)[0], RENDER_CHORD.theta(ts))
    gamma = polar_to_cart((1.0 - ts) * r[0] + ts * r[-1], theta[0] + ts * (theta[-1] - theta[0]))
    canvas.polyline(chord, stroke="#2ca02c", width=0.004)
    canvas.polyline(polar_to_cart(r, theta), stroke="#9467bd", width=0.004)
    canvas.polyline(gamma, stroke="#ff7f0e", width=0.004, dash="0.02,0.012")
    canvas.dot(0.0, 0.0, radius=0.008, fill="#444444")
    return canvas.render()


def run_render_trace(k1=2.0, n=128):
    """The rendered chord-image curve as a CSV trace: t, r, theta, x, y, kg."""
    pre = _render_preimage(k1, n)
    xy = polar_to_cart(pre["r"], pre["theta"])
    kg = curvature_from_derivatives(pre["r"], pre["rp"], pre["rpp"], pre["thp"], pre["thpp"])
    return _csv_text("t,r,theta,x,y,kg",
                     np.stack([pre["t"], pre["r"], pre["theta"], xy[:, 0], xy[:, 1], kg], axis=1))


# --- argument parsing --------------------------------------------------------

class UsageError(Exception):
    pass


# search-counterexample options, each named as its run_search_counterexample argument
SEARCH_OPTIONS = ("seed", "trials", "k1", "k2", "tol")
# render options the SVG takes and the CSV trace does not, named as run_render's arguments
RENDER_SVG_OPTIONS = ("seed", "k2")


def _positive_float(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypexpand",
        description="anisotropic dilations in the Poincare disk: verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials_default=None):
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        if trials_default is not None:
            p.add_argument("--trials", type=_int_at_least(1), default=trials_default)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify-theorem", help="randomized expansion trials")
    add_common(p, 200)
    p.add_argument("--k1", type=_positive_float, default=None)
    p.add_argument("--k2", type=_positive_float, default=None)
    p.add_argument("--tol", type=_positive_float, default=1e-6)

    p = sub.add_parser("search-counterexample", help="contraction defect search")
    add_common(p, 2000)
    p.add_argument("--k1", type=_positive_float)
    p.add_argument("--k2", type=_positive_float)
    p.add_argument("--tol", type=_positive_float)
    p.add_argument("--replay", type=str, default=None)
    # None marks an option not given: --replay takes none, the search its defaults
    p.set_defaults(**dict.fromkeys(SEARCH_OPTIONS))

    p = sub.add_parser("verify-lemmas", help="inequality grids")
    p.add_argument("--out", type=str, default=None)
    # the smallest n at which open_interval_grid gives about n points
    p.add_argument("--grid-n", type=_int_at_least(18), default=500)

    p = sub.add_parser("curvature-sweep", help="decomposition grid and side ordering")
    add_common(p, 100)
    p.add_argument("--format", type=str, default="json", choices=["json", "csv"])
    p.add_argument("--grid-n", type=_int_at_least(2), default=50)
    p.add_argument("--tol", type=_positive_float, default=1e-8)

    p = sub.add_parser("sphere-conjecture", help="spherical contraction trials")
    add_common(p, 500)

    p = sub.add_parser("render", help="SVG overlay of a region and its image")
    add_common(p)
    p.add_argument("--format", type=str, default="svg", choices=["svg", "csv"])
    p.add_argument("--k1", type=_positive_float, default=2.0)
    p.add_argument("--k2", type=_positive_float)
    # None marks an option not given: the trace takes none, the SVG its defaults
    p.set_defaults(**dict.fromkeys(RENDER_SVG_OPTIONS))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify-theorem":
            report = run_verify_theorem(seed=args.seed, trials=args.trials,
                                        k1=args.k1, k2=args.k2, tol=args.tol)
            _write(args.out, _dumps(report))
            return PASS if report["passed"] else VIOLATION

        if args.command == "search-counterexample":
            given = {k: getattr(args, k) for k in SEARCH_OPTIONS if getattr(args, k) is not None}
            if args.replay is not None:
                if given:
                    raise UsageError("--replay takes none of "
                                     + ", ".join(f"--{k}" for k in given))
                report = run_replay(args.replay)
                _write(args.out, _dumps(report))
                return PASS if report["passed"] else VIOLATION
            report = run_search_counterexample(**given)
            _write(args.out, _dumps(report))
            return PASS if report["found"] else VIOLATION

        if args.command == "verify-lemmas":
            report = run_verify_lemmas(grid_n=args.grid_n)
            _write(args.out, _dumps(report))
            # keep stdout pure JSON when the report goes there
            (sys.stdout if args.out else sys.stderr).write(lemma_table(report))
            return PASS if report["passed"] else VIOLATION

        if args.command == "curvature-sweep":
            sweep = (args.seed, args.grid_n, args.trials, args.tol)
            if args.format == "json" and not args.out:
                # the CSV is written nowhere, so it is not formatted
                report = _curvature_sweep(*sweep)[0]
                _write(None, _dumps(report))
            else:
                report, csv_text = run_curvature_sweep(*sweep)
                if args.format == "csv":
                    _write(args.out, csv_text)
                else:
                    base = args.out[:-5] if args.out.endswith(".json") else args.out
                    _write(base + ".csv", csv_text)
                    _write(args.out, _dumps(report))
            return PASS if report["passed"] else VIOLATION

        if args.command == "sphere-conjecture":
            report = run_sphere_conjecture(seed=args.seed, trials=args.trials)
            _write(args.out, _dumps(report))
            return PASS if report["passed"] else VIOLATION

        if args.command == "render":
            given = {k: getattr(args, k) for k in RENDER_SVG_OPTIONS
                     if getattr(args, k) is not None}
            if args.format == "csv":
                if given:
                    raise UsageError("render --format csv takes none of "
                                     + ", ".join(f"--{k}" for k in given))
                _write(args.out, run_render_trace(k1=args.k1))
            else:
                _write(args.out, run_render(k1=args.k1, **given))
            return PASS
    except (UsageError, ChartSaturation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE
    return USAGE


if __name__ == "__main__":
    sys.exit(main())
