"""Acceptance suite.

Each test prints one pass/fail line (visible under pytest -s or -rA) and
enforces its stated tolerance.  Everything is seeded and deterministic.
"""

import json
import math
import time

import numpy as np

from hypexpand.cli import (
    run_search_counterexample,
    run_sphere_conjecture,
    run_verify_theorem,
    measure_witness,
)
from hypexpand.curvature import ORDERING_SLACK, ChordSpec, p_coefficients_grid, side_ordering
from hypexpand.dilation import DilationParams, dilate_origin_polar, dilate_xy
from hypexpand.disk import hyperboloid_cart, mobius_translate, polar_to_cart
from hypexpand.lemmas import coth_poly_I_series, verify_all
from references import (cart_point, coth_poly_I_direct, from_polar_function, geodesic_between,
                        geodesic_curvature, hyperbolic_distance, polar_point,
                        sinh_scaling_series)


def _report(name, ok, detail):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _rand_point(rng, r_max=3.0, r_min=0.05):
    return polar_point(rng.uniform(r_min, r_max), rng.uniform(-math.pi, math.pi))


def test_criterion_1_expansion_preserves_convexity():
    t0 = time.time()
    report = run_verify_theorem(seed=2026, trials=200)
    elapsed = time.time() - t0
    ok = report["passed"] and report["max_defect"] < 1e-6 and elapsed < 60.0
    _report("1 expansion trials", ok,
            f"200 trials, max defect {report['max_defect']:.3e}, {elapsed:.1f}s")


def test_criterion_2_contraction_counterexample(tmp_path):
    report = run_search_counterexample(seed=2026, k1=0.25, k2=1.0, trials=2000)
    ok = report["found"] and report["witness"]["defect"] > 1e-3
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(report, sort_keys=True))
    replayed = measure_witness(json.loads(path.read_text())["witness"])
    ok = ok and abs(replayed - report["witness"]["defect"]) <= 1e-9
    _report("2 contraction counterexample", ok,
            f"witness defect {report['witness']['defect']:.3e} in "
            f"{report['trials_used']} trials, replay diff "
            f"{abs(replayed - report['witness']['defect']):.1e}")


def _decomposition_grid():
    r_hat = np.geomspace(0.05, 10.0, 50)
    theta_hat = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 50)
    s_vals = np.linspace(0.1, 0.9, 9)
    R, T, S = np.meshgrid(r_hat, theta_hat, s_vals, indexing="ij")
    rng = np.random.default_rng(2026)
    RP = rng.uniform(-2.0, 2.0, size=R.shape)
    return p_coefficients_grid(R, T, S, RP)


def test_criterion_3_decomposition_identity():
    t0 = time.time()
    out = _decomposition_grid()
    rel = np.abs(out["kg_closed"] - out["kg_generic"]) / np.abs(out["kg_generic"])
    elapsed = time.time() - t0
    ok = float(np.max(rel)) < 1e-8 and elapsed < 10.0
    _report("3 curvature decomposition", ok,
            f"50x50x9 grid, worst relative mismatch {float(np.max(rel)):.3e}, "
            f"{elapsed:.2f}s")


def test_criterion_4_sign_suite():
    out = _decomposition_grid()
    bad = int(np.sum(out["p0"] <= 0.0) + np.sum(out["p1"] >= 0.0)
              + np.sum(out["discriminant"] >= 0.0))
    ok = bad == 0
    _report("4 sign suite", ok,
            f"p0>0, p1<0, discriminant<0 at all 22500 grid points, "
            f"{bad} violations")


def test_criterion_5_side_ordering():
    rng = np.random.default_rng(2026)
    specs, factors = [], []
    for _ in range(100):
        th1 = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
        th2 = rng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
        specs.append(ChordSpec(rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0), th1, th2))
        factors.append(rng.uniform(0.05, 0.95))
    violations = sum(len(rep["violations"]) for rep in side_ordering(specs, factors))
    ok = violations == 0 and ORDERING_SLACK <= 1e-9  # the criterion's slack
    _report("5 side ordering", ok,
            f"100 specs x 64 samples, slack {ORDERING_SLACK:g}, {violations} violations")


def test_criterion_6_inequality_grids():
    t0 = time.time()
    reports = verify_all(500)
    grids_ok = all(r["passed"] for r in reports)

    rng = np.random.default_rng(2026)
    xs = rng.uniform(0.05, 5.0, 200)
    ys = rng.uniform(0.05, 0.95, 200)
    # the direct side is a cancellation of O(sinh x) terms down to O(x^5);
    # evaluate it in extended precision so the comparison tests the series,
    # not double rounding
    xl, yl = xs.astype(np.longdouble), ys.astype(np.longdouble)
    lhs = (np.sinh(xl * yl) - yl ** 3 * np.sinh(xl) - xl * yl + xl * yl ** 3).astype(float)
    sinh_rel = np.max(np.abs(lhs + sinh_scaling_series(xs, ys)) / np.abs(lhs))

    x_direct = np.linspace(0.5, 4.0, 200)
    poly_rel = np.max(np.abs(coth_poly_I_direct(x_direct) - coth_poly_I_series(x_direct))
                      / coth_poly_I_series(x_direct))
    elapsed = time.time() - t0
    ok = grids_ok and sinh_rel < 1e-9 and poly_rel < 1e-9 and elapsed < 30.0
    margins = ", ".join(f"{r['lemma']}={r['min_margin']:.1e}" for r in reports)
    _report("6 inequality grids", ok,
            f"min margins {margins}; series identities rel "
            f"{max(sinh_rel, poly_rel):.2e}; {elapsed:.1f}s")


def test_criterion_7_algebraic_identities():
    rng = np.random.default_rng(2026)
    worst_inv = worst_comp = worst_iso = 0.0
    for _ in range(1000):
        c = _rand_point(rng, 1.5)
        p = _rand_point(rng, 3.0)
        k1, k2 = rng.uniform(0.3, 4.0, 2)
        there = dilate_xy(DilationParams(c.xy, k1, k2), p.sheet)
        back = hyperboloid_cart(dilate_xy(DilationParams(c.xy, 1.0 / k1, 1.0 / k2), there))
        worst_inv = max(worst_inv, float(np.max(np.abs(back - p.xy))))

        q = _rand_point(rng, 3.0)
        one = polar_to_cart(*dilate_origin_polar(k1, k2, q.r, q.theta))
        mid = dilate_origin_polar(1.0, k2, q.r, q.theta)
        two = polar_to_cart(*dilate_origin_polar(k1, 1.0, *mid))
        worst_comp = max(worst_comp, float(np.max(np.abs(one - two))))

        u, v = _rand_point(rng), _rand_point(rng)
        cu, cv = (cart_point(*hyperboloid_cart(mobius_translate(c.xy, x.sheet))) for x in (u, v))
        worst_iso = max(worst_iso, abs(hyperbolic_distance(cu, cv) - hyperbolic_distance(u, v)))
    ok = worst_inv < 1e-10 and worst_comp < 1e-11 and worst_iso < 1e-11
    _report("7 algebraic identities", ok,
            f"inverse {worst_inv:.2e} (<1e-10), composition {worst_comp:.2e} "
            f"(<1e-11), isometry {worst_iso:.2e} (<1e-11), 1000 samples each")


def test_criterion_8_geodesic_oracle():
    # pairs whose geodesic stays clear of the chart singularity at the
    # origin (radial dip >= 0.05, about 97% of uniform draws); below that
    # the curvature bracket cancels at order 1/r^2 and finite differences
    # cannot certify 1e-6 regardless of step
    rng = np.random.default_rng(2026)
    ts = np.linspace(0.01, 0.99, 50)
    worst = 0.0
    accepted = 0
    rejected = 0
    while accepted < 100:
        u, v = _rand_point(rng), _rand_point(rng)
        if np.max(np.abs(u.xy - v.xy)) <= 1e-12:
            continue
        g = geodesic_between(u, v)
        if float(np.min(g.eval(ts)[0])) < 0.05:
            rejected += 1
            continue
        accepted += 1
        fd = from_polar_function(g.eval)
        worst = max(worst, float(np.max(np.abs(geodesic_curvature(fd, ts)))))
    ok = worst < 1e-6
    _report("8 geodesic oracle", ok,
            f"100 pairs x 50 samples, finite differences, worst |k_g| "
            f"{worst:.2e} (<1e-6), {rejected} near-singular pairs excluded")


def test_criterion_9_spherical_harness():
    report = run_sphere_conjecture(seed=2026, trials=500)
    again = run_sphere_conjecture(seed=2026, trials=500)
    deterministic = json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)
    summary = report["summary"]
    ok = (len(report["results"]) == 500 and deterministic
          and summary["symmetric"]["exceedances"] == 0)
    _report("9 spherical harness", ok,
            f"500 deterministic trials; symmetric subset "
            f"({summary['symmetric']['count']} trials) exceedances "
            f"{summary['symmetric']['exceedances']}; asymmetric outcome: "
            f"{summary['asymmetric']['exceedances']} exceedances, max defect "
            f"{summary['asymmetric']['max_defect']:.3e} (recorded, not presumed)")
