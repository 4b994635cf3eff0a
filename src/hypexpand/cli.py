"""Command-line front end: experiment drivers, counterexample search, rendering.

Exit codes: 0 on pass, 1 on a property violation, 2 on usage or config
errors.  All commands are deterministic for a fixed seed; per-trial random
streams are derived from (seed, trial index).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import convexity, curvature, lemmas, sphere
from .convexity import (
    GeodesicPolygon,
    convexity_defect,
    dilate_region,
    polygon_region,
    random_hconvex_polygon,
)
from .dilation import DilationParams
from .disk import DiskPoint, ORIGIN, polar_to_cart
from .svg import SvgCanvas

PASS, VIOLATION, USAGE = 0, 1, 2

# Rows per `%` formatting call of a CSV: the temporary tuple of boxed values
# holds one block, not the whole table, which keeps peak memory down.
CSV_BLOCK_ROWS = 1024


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, values, prefix=None) -> str:
    """CSV of a header line and the rows of a 2-D float array.

    Each value is written as ``%.17g``, which round-trips to the same double.
    ``prefix``, if given, holds one preformatted string per row that is
    written, followed by a comma, before the row's values.
    """
    n_rows, n_cols = values.shape
    row = ",".join(["%.17g"] * n_cols) + "\n"
    if prefix is not None:
        row = "%s," + row
    parts = [header + "\n"]
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = values[start:start + CSV_BLOCK_ROWS]
        if prefix is not None:
            cells = np.empty((len(block), n_cols + 1), dtype=object)
            cells[:, 0] = prefix[start:start + CSV_BLOCK_ROWS]
            cells[:, 1:] = block
            block = cells
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- verify-theorem ----------------------------------------------------------

def _theorem_trial(seed, i, k_range, forced_k1, forced_k2, samples_per_edge,
                   pair_samples, segment_samples):
    rng = np.random.default_rng([seed, i])
    center = DiskPoint.from_polar(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
    poly = random_hconvex_polygon(rng, center=center)
    k1 = float(rng.uniform(*k_range)) if forced_k1 is None else forced_k1
    k2 = float(rng.uniform(*k_range)) if forced_k2 is None else forced_k2
    params = DilationParams(center, k1, k2)
    region = dilate_region(poly, params, samples_per_edge=samples_per_edge)
    defect = convexity_defect(region, pair_samples, segment_samples)
    return {"trial": i, "k1": k1, "k2": k2, "n_vertices": len(poly.vertices),
            "center_polar": [center.r, center.theta], "defect": defect}


def run_verify_theorem(seed=0, trials=200, k1=None, k2=None, tol=1e-6,
                       samples_per_edge=32, pair_samples=128, segment_samples=16):
    k_range = (1.0, 4.0)
    results = [_theorem_trial(seed, i, k_range, k1, k2, samples_per_edge,
                              pair_samples, segment_samples) for i in range(trials)]
    max_defect = max(r["defect"] for r in results)
    failures = [r["trial"] for r in results if r["defect"] >= tol]
    return {
        "command": "verify-theorem", "seed": seed, "trials": trials,
        "k_range": list(k_range) if k1 is None and k2 is None else None,
        "forced_k": [k1, k2] if (k1 is not None or k2 is not None) else None,
        "tolerance": tol, "samples_per_edge": samples_per_edge,
        "pair_samples": pair_samples, "segment_samples": segment_samples,
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
    pts = [
        DiskPoint.from_polar(reach, half_angle),
        DiskPoint.from_polar(reach, -half_angle),
        DiskPoint.from_polar(back, math.pi - rng.uniform(0.1, 0.5)),
        DiskPoint.from_polar(back, -math.pi + rng.uniform(0.1, 0.5)),
    ]
    return convexity.hyperbolic_hull(pts)


def measure_witness(witness, scale=1):
    """Defect of a serialized witness, optionally at a denser sampling."""
    poly = GeodesicPolygon.from_polar(witness["vertices_polar"])
    center = DiskPoint.from_cart(*witness["center_cart"])
    params = DilationParams(center, witness["k1"], witness["k2"])
    region = dilate_region(poly, params,
                           samples_per_edge=witness["samples_per_edge"] * scale)
    return convexity_defect(region, witness["pair_samples"] * scale,
                            witness["segment_samples"] * scale)


def run_search_counterexample(seed=0, k1=0.25, k2=1.0, trials=2000, tol=1e-3,
                              samples_per_edge=32, pair_samples=128,
                              segment_samples=16):
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
            poly = random_hconvex_polygon(rng, center=ORIGIN)
        params = DilationParams(ORIGIN, k1, k2)
        region = dilate_region(poly, params, samples_per_edge=samples_per_edge)
        defect = convexity_defect(region, pair_samples, segment_samples)
        report["trials_used"] = i + 1
        if defect > tol:
            witness = {
                "vertices_polar": [[v.r, v.theta] for v in poly.vertices],
                "center_cart": [0.0, 0.0], "k1": k1, "k2": k2,
                "samples_per_edge": samples_per_edge,
                "pair_samples": pair_samples, "segment_samples": segment_samples,
                "seed": seed, "trial": i, "defect": defect,
            }
            recheck = measure_witness(witness, scale=4)
            if recheck > tol:
                witness["defect_recheck_4x"] = recheck
                report["found"] = True
                report["witness"] = witness
                break
    return report


def run_replay(witness_path, tol=1e-9):
    with open(witness_path) as fh:
        doc = json.load(fh)
    witness = doc["witness"] if "witness" in doc else doc
    defect = measure_witness(witness)
    return {
        "command": "replay-witness", "path": witness_path,
        "stored_defect": witness["defect"], "replayed_defect": defect,
        "difference": abs(defect - witness["defect"]),
        "passed": abs(defect - witness["defect"]) <= tol,
    }


# --- verify-lemmas -----------------------------------------------------------

def run_verify_lemmas(grid_n=500):
    reports = lemmas.verify_all(grid_n)
    return {
        "command": "verify-lemmas", "grid_n": grid_n,
        "reports": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
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

def run_curvature_sweep(seed=0, n_r=50, n_theta=50, n_s=9, specs=100,
                        samples=64, rel_tol=1e-8):
    r_hat = np.geomspace(0.05, 10.0, n_r)
    theta_hat = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, n_theta)
    s_vals = np.linspace(0.1, 0.9, n_s)
    rng = np.random.default_rng(seed)
    R, T, S = np.meshgrid(r_hat, theta_hat, s_vals, indexing="ij")
    RP = rng.uniform(-2.0, 2.0, size=R.shape)
    out = curvature.p_coefficients_grid(R, T, S, RP, 1.0)

    rel = np.abs(out["kg_closed"] - out["kg_generic"]) / np.abs(out["kg_generic"])
    sign_bad = int(np.sum((out["p0"] <= 0) | (out["p1"] >= 0)
                          | (out["discriminant"] >= 0) | (out["kg_generic"] >= 0)))
    # r_hat, theta_hat and s are the grid axes: format each distinct value
    # once and build the rows' leading fields in meshgrid "ij" order
    r_txt, t_txt, s_txt = ([f"{v:.17g}" for v in axis] for axis in (r_hat, theta_hat, s_vals))
    prefix = [f"{a},{b},{c}" for a in r_txt for b in t_txt for c in s_txt]
    values = np.stack([out[k].ravel() for k in ("p0", "p1", "p2", "p3", "discriminant",
                                                "kg_closed", "kg_generic")], axis=1)
    csv_text = _csv_text("r_hat,theta_hat,s,p0,p1,p2,p3,discriminant,kg_closed,kg_generic",
                         values, prefix)

    ordering = []
    for i in range(specs):
        srng = np.random.default_rng([seed, i])
        th1 = srng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
        th2 = srng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
        spec = curvature.ChordSpec(srng.uniform(0.2, 4.0), srng.uniform(0.2, 4.0),
                                   th1, th2)
        rep = curvature.side_ordering(spec, srng.uniform(0.05, 0.95), samples=samples)
        ordering.append({
            "spec": [spec.r1, spec.r2, spec.theta1, spec.theta2], "s": rep.s,
            "min_chord_gap": rep.min_chord_gap, "min_gamma_gap": rep.min_gamma_gap,
            "max_kg_preimage": rep.max_kg_preimage, "min_kg_gamma": rep.min_kg_gamma,
            "violations": rep.violations,
        })
    ordering_bad = sum(bool(o["violations"]) for o in ordering)
    return {
        "command": "curvature-sweep", "seed": seed,
        "grid": {"n_r": n_r, "n_theta": n_theta, "n_s": n_s},
        "max_rel_mismatch": float(np.max(rel)),
        "sign_violations": sign_bad,
        "ordering_specs": specs, "ordering_violations": ordering_bad,
        "side_ordering": ordering,
        "passed": bool(np.max(rel) < rel_tol) and sign_bad == 0 and ordering_bad == 0,
    }, csv_text


# --- sphere-conjecture -------------------------------------------------------

def run_sphere_conjecture(seed=0, trials=500):
    report = sphere.conjecture_trial(seed, trials)
    report["command"] = "sphere-conjecture"
    report["passed"] = report["summary"]["symmetric"]["exceedances"] == 0
    return report


# --- render ------------------------------------------------------------------

def curve_trace_csv(curve, n=128) -> str:
    """Trace of a parametric curve with columns t, r, theta, x, y, kg."""
    ts = np.linspace(0.0, 1.0, n)
    r, theta = curve.eval(ts)
    xy = polar_to_cart(r, theta)
    kg = curve.curvature(ts)
    return _csv_text("t,r,theta,x,y,kg", np.stack([ts, r, theta, xy[:, 0], xy[:, 1], kg], axis=1))


def _render_scene(seed, k1, k2):
    rng = np.random.default_rng(seed)
    poly = random_hconvex_polygon(rng, center=ORIGIN, r_range=(0.4, 2.0))
    params = DilationParams(ORIGIN, k1, k2)
    s = 1.0 / k1 if k1 > 1.0 else 0.5
    spec = curvature.ChordSpec(1.8, 2.3, -0.6, 0.8)
    pre = curvature.preimage_curve(spec, s)
    gamma = curvature.gamma_curve(pre.start, pre.end)
    return poly, params, spec, pre, gamma


def run_render(seed=0, k1=2.0, k2=1.0):
    poly, params, spec, pre, gamma = _render_scene(seed, k1, k2)
    source = polygon_region(poly, samples_per_edge=64)
    image = dilate_region(poly, params, samples_per_edge=64)

    canvas = SvgCanvas()
    canvas.circle(0.0, 0.0, 1.0, stroke="#444444", width=0.003)
    canvas.polyline(source.boundary, stroke="#1f77b4", close=False)
    canvas.polyline(image.boundary, stroke="#d62728", close=False)

    # chord, its contraction image, and the comparison curve
    ts = np.linspace(0.0, 1.0, 128)
    chord = polar_to_cart(curvature.chord_radius(spec, ts), spec.theta(ts))
    pr, pth = pre.eval(ts)
    gr, gth = gamma.eval(ts)
    canvas.polyline(chord, stroke="#2ca02c", width=0.004)
    canvas.polyline(polar_to_cart(pr, pth), stroke="#9467bd", width=0.004)
    canvas.polyline(polar_to_cart(gr, gth), stroke="#ff7f0e", width=0.004, dash="0.02,0.012")
    canvas.dot(0.0, 0.0, radius=0.008, fill="#444444")
    return canvas.render()


def run_render_trace(seed=0, k1=2.0, k2=1.0, n=128):
    """The rendered chord-image curve as a CSV trace."""
    _, _, _, pre, _ = _render_scene(seed, k1, k2)
    return curve_trace_csv(pre, n)


# --- argument parsing --------------------------------------------------------

class UsageError(Exception):
    pass


def _positive_float(text):
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
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
        p.add_argument("--seed", type=int, default=0)
        if trials_default is not None:
            p.add_argument("--trials", type=_int_at_least(1), default=trials_default)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify-theorem", help="randomized expansion trials")
    add_common(p, 200)
    p.add_argument("--k1", type=_positive_float, default=None)
    p.add_argument("--k2", type=_positive_float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("search-counterexample", help="contraction defect search")
    add_common(p, 2000)
    p.add_argument("--k1", type=_positive_float, default=0.25)
    p.add_argument("--k2", type=_positive_float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--replay", type=str, default=None)

    p = sub.add_parser("verify-lemmas", help="inequality grids")
    add_common(p)
    # the smallest n at which open_interval_grid gives about n points
    p.add_argument("--grid-n", type=_int_at_least(18), default=500)

    p = sub.add_parser("curvature-sweep", help="decomposition grid and side ordering")
    add_common(p, 100)
    p.add_argument("--format", type=str, default="json", choices=["json", "csv"])
    p.add_argument("--grid-n", type=_int_at_least(2), default=50)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("sphere-conjecture", help="spherical contraction trials")
    add_common(p, 500)

    p = sub.add_parser("render", help="SVG overlay of a region and its image")
    add_common(p)
    p.add_argument("--format", type=str, default="svg", choices=["svg", "csv"])
    p.add_argument("--k1", type=_positive_float, default=2.0)
    p.add_argument("--k2", type=_positive_float, default=1.0)
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
            if args.replay:
                report = run_replay(args.replay)
                _write(args.out, _dumps(report))
                return PASS if report["passed"] else VIOLATION
            report = run_search_counterexample(seed=args.seed, k1=args.k1, k2=args.k2,
                                               trials=args.trials, tol=args.tol)
            _write(args.out, _dumps(report))
            return PASS if report["found"] else VIOLATION

        if args.command == "verify-lemmas":
            report = run_verify_lemmas(grid_n=args.grid_n)
            _write(args.out, _dumps(report))
            # keep stdout pure JSON when the report goes there
            (sys.stdout if args.out else sys.stderr).write(lemma_table(report))
            return PASS if report["passed"] else VIOLATION

        if args.command == "curvature-sweep":
            report, csv_text = run_curvature_sweep(seed=args.seed, n_r=args.grid_n,
                                                   n_theta=args.grid_n,
                                                   specs=args.trials,
                                                   rel_tol=args.tol)
            if args.format == "csv":
                _write(args.out, csv_text)
            else:
                if args.out:
                    base = args.out[:-5] if args.out.endswith(".json") else args.out
                    _write(base + ".csv", csv_text)
                _write(args.out, _dumps(report))
            return PASS if report["passed"] else VIOLATION

        if args.command == "sphere-conjecture":
            report = run_sphere_conjecture(seed=args.seed, trials=args.trials)
            _write(args.out, _dumps(report))
            return PASS if report["passed"] else VIOLATION

        if args.command == "render":
            if args.format == "csv":
                _write(args.out, run_render_trace(seed=args.seed, k1=args.k1, k2=args.k2))
            else:
                _write(args.out, run_render(seed=args.seed, k1=args.k1, k2=args.k2))
            return PASS
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE
    return USAGE


if __name__ == "__main__":
    sys.exit(main())
