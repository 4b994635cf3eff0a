import math

import mpmath as mp
import numpy as np
import pytest

from hypexpand.curvature import (
    ChordSpec,
    beta,
    chord_radius,
    gamma_curvature_closed_form,
    gamma_curve,
    p_coefficients,
    p_coefficients_grid,
    phi,
    preimage_curve,
    preimage_state,
    psi,
    side_ordering,
)
from hypexpand.disk import (
    DiskPoint,
    ParamCurve,
    chord_jet,
    curvature_from_derivatives,
    geodesic_curvature,
)


# --- references: the hand-expanded chains the one jet chain replaced ----------

def reference_preimage_chain(r_hat, rp_hat, rpp_hat, th_hat, s, dth):
    """The preimage 2-jet as preimage_state wrote it out before the shared chain."""
    ct, st = np.cos(th_hat), np.sin(th_hat)
    one_m_s2 = (1.0 - s) * (1.0 + s)
    b = (s * ct) ** 2 + st ** 2
    b_m_s2 = one_m_s2 * st * st
    one_m_b = one_m_s2 * ct * ct
    sb = np.sqrt(b)
    bp = one_m_s2 * dth * 2.0 * st * ct
    bpp = 2.0 * one_m_s2 * dth ** 2 * (ct * ct - st * st)
    r = r_hat * sb
    rp = rp_hat * sb + r_hat * bp / (2.0 * sb)
    rpp = rpp_hat * sb + rp_hat * bp / sb + (r_hat / 2.0) * (
        (bpp * sb - bp * bp / (2.0 * sb)) / b)
    theta = np.arctan2(st, s * ct)
    thp = s * dth / b
    thpp = -thp * bp / b
    return {
        "beta": b, "beta_minus_s2": b_m_s2, "one_minus_beta": one_m_b,
        "bp": bp, "bpp": bpp,
        "r": r, "rp": rp, "rpp": rpp,
        "theta": theta, "thp": thp, "thpp": thpp,
    }


def reference_closed_form(r_hat, theta_hat, s, rp_hat, dth):
    """p0..p3, p2_sq, kg_closed, v and beta from the float64 hand-expanded chain."""
    r_hat, theta_hat, s, rp_hat, dth = (np.asarray(x, dtype=float)
                                        for x in (r_hat, theta_hat, s, rp_hat, dth))
    ct, st = np.cos(theta_hat), np.sin(theta_hat)
    one_m_s2 = (1.0 - s) * (1.0 + s)
    b = (s * ct) ** 2 + st ** 2
    b_m_s2 = one_m_s2 * st * st
    one_m_b = one_m_s2 * ct * ct
    sb = np.sqrt(b)
    bp = one_m_s2 * dth * 2.0 * st * ct
    r = r_hat * sb
    rp = rp_hat * sb + r_hat * bp / (2.0 * sb)
    thp = s * dth / b
    v = np.sqrt(rp ** 2 + np.sinh(r) ** 2 * thp ** 2)
    psi_rb = psi(r_hat * sb)
    p0 = (1.0 / v ** 3) * (s * dth / b) * np.sinh(r)
    p1 = 2.0 * sb * (psi_rb - psi(r_hat)) / r_hat
    p2 = 2.0 * one_m_s2 * (2.0 * st * ct) * psi_rb / sb
    p2_sq = 16.0 * b_m_s2 * one_m_b * psi_rb ** 2 / b
    p3 = (1.0 / (2.0 * b * sb)) * (
        (s * s / sb) * phi(2.0 * r_hat * sb) - b ** 2 * phi(2.0 * r_hat)
        + 4.0 * r_hat * b_m_s2 * one_m_b * psi_rb)
    kg_closed = p0 * (p1 * rp_hat ** 2 + p2 * rp_hat * dth + p3 * dth ** 2)
    return {"p0": p0, "p1": p1, "p2": p2, "p2_sq": p2_sq, "p3": p3,
            "discriminant": p2_sq - 4.0 * p1 * p3, "kg_closed": kg_closed,
            "v": v, "beta": b}


def reference_generic_curvature_extended(r_hat, theta_hat, s, rp_hat, dth):
    """Raw polar curvature of the chained preimage jet, in extended precision."""
    ld = np.longdouble
    r_hat = np.asarray(r_hat, dtype=ld)
    theta_hat = np.asarray(theta_hat, dtype=ld)
    s = np.asarray(s, dtype=ld)
    rp_hat = np.asarray(rp_hat, dtype=ld)
    dth = np.asarray(dth, dtype=ld)
    ct, st = np.cos(theta_hat), np.sin(theta_hat)
    one_m_s2 = (1.0 - s) * (1.0 + s)
    b = (s * ct) ** 2 + st ** 2
    sb = np.sqrt(b)
    rpp_hat = 2.0 * rp_hat ** 2 / np.tanh(r_hat) + dth ** 2 * np.sinh(2.0 * r_hat) / 2.0
    bp = one_m_s2 * dth * 2.0 * st * ct
    bpp = 2.0 * one_m_s2 * dth ** 2 * (ct * ct - st * st)
    r = r_hat * sb
    rp = rp_hat * sb + r_hat * bp / (2.0 * sb)
    rpp = rpp_hat * sb + rp_hat * bp / sb + (r_hat / 2.0) * (
        (bpp * sb - bp * bp / (2.0 * sb)) / b)
    thp = s * dth / b
    thpp = -thp * bp / b
    G = np.sinh(r) ** 2
    G_r = np.sinh(2.0 * r)
    v = np.sqrt(rp ** 2 + G * thp ** 2)
    out = np.sqrt(G) * ((G_r / G) * rp ** 2 * thp + 0.5 * G_r * thp ** 3
                        + rp * thpp - rpp * thp) / v ** 3
    return out.astype(float)


def sweep_grid():
    r_hat = np.geomspace(0.05, 10.0, 50)
    theta_hat = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 50)
    s_vals = np.linspace(0.1, 0.9, 9)
    R, T, S = np.meshgrid(r_hat, theta_hat, s_vals, indexing="ij")
    return R, T, S, np.random.default_rng(1).uniform(-2.0, 2.0, size=R.shape), 1.0


def random_states():
    # the state set of TestDecomposition.test_reconstruction_matches_raw_formula
    rng = np.random.default_rng(44)
    R = rng.uniform(0.05, 10.0, 4000)
    T = rng.uniform(-math.pi / 2 + 0.005, math.pi / 2 - 0.005, 4000)
    S = rng.uniform(0.05, 0.95, 4000)
    RP = rng.uniform(-3.0, 3.0, 4000)
    return R, T, S, RP, 1.0


class TestAuxiliaryFunctions:
    def test_zeros(self):
        assert phi(0.0) == 0.0
        assert psi(0.0) == 0.0

    def test_unit_values(self):
        assert phi(1.0) == pytest.approx(math.sinh(1.0) - 1.0, rel=1e-15)
        assert psi(1.0) == pytest.approx(1.0 / math.tanh(1.0) - 1.0, rel=1e-15)

    def test_series_matches_direct_at_crossover(self):
        # direct float64 evaluation at a = 1e-3 carries ~1e-9 cancellation
        # noise, so the reference direct values are taken in extended precision
        for a in (1e-4, 1e-3, 5e-3):
            a_ld = np.longdouble(a)
            phi_ref = float(np.sinh(a_ld) - a_ld)
            psi_ref = float(a_ld / np.tanh(a_ld) - 1.0)
            assert phi(a) == pytest.approx(phi_ref, rel=1e-10)
            assert psi(a) == pytest.approx(psi_ref, rel=1e-10)

    def test_branches_agree_near_cutoff(self):
        for a in (0.09, 0.11):
            assert phi(a) == pytest.approx(math.sinh(a) - a, rel=1e-9)
            assert psi(a) == pytest.approx(a / math.tanh(a) - 1.0, rel=1e-9)

    def test_monotone_positive(self):
        a = np.linspace(0.01, 5.0, 200)
        assert np.all(phi(a) > 0.0)
        assert np.all(np.diff(psi(a)) > 0.0)


class TestBeta:
    def test_axis_values(self):
        assert beta(0.0, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert beta(math.pi / 2, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_value(self):
        assert beta(math.pi / 4, 0.5) == pytest.approx(0.625, abs=1e-14)

    def test_range_and_identities(self):
        rng = np.random.default_rng(40)
        th = rng.uniform(-math.pi / 2, math.pi / 2, 500)
        s = 0.37
        b = beta(th, s)
        assert np.all(b >= s * s - 1e-15) and np.all(b <= 1.0 + 1e-15)
        assert np.max(np.abs((b - s * s) - (1 - s * s) * np.sin(th) ** 2)) < 1e-15
        assert np.max(np.abs((1.0 - b) - (1 - s * s) * np.cos(th) ** 2)) < 1e-15

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            beta(0.3, 1.0)


class TestChord:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChordSpec(0.0, 1.0, -0.5, 0.5)
        with pytest.raises(ValueError):
            ChordSpec(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            ChordSpec(1.0, 1.0, -0.5, math.pi / 2)

    def test_endpoints(self):
        spec = ChordSpec(1.3, 2.4, -0.7, 1.1)
        assert chord_radius(spec, 0.0) == pytest.approx(1.3, abs=1e-12)
        assert chord_radius(spec, 1.0) == pytest.approx(2.4, abs=1e-12)

    def test_symmetric_midpoint(self):
        spec = ChordSpec(1.0, 1.0, -0.5, 0.5)
        r_mid = chord_radius(spec, 0.5)
        assert 1.0 / math.tanh(r_mid) == pytest.approx(
            (1.0 / math.tanh(1.0)) / math.cos(0.5), rel=1e-13)

    def test_large_radii_match_mpmath(self):
        # acoth of the chord equation at 50 digits, on the exact float inputs;
        # the naive arctanh(1/c) misses this by ~5e-12 relative
        rng = np.random.default_rng(48)
        worst = 0.0
        with mp.workdps(50):
            for _ in range(500):
                th1 = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
                th2 = rng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
                spec = ChordSpec(rng.uniform(5.0, 30.0), rng.uniform(5.0, 30.0), th1, th2)
                ts = rng.uniform(0.0, 1.0, 8)
                dth = mp.mpf(spec.delta_theta)
                for t, got in zip(ts, chord_radius(spec, ts)):
                    c = (mp.coth(spec.r1) * mp.sin((1 - mp.mpf(t)) * dth)
                         + mp.coth(spec.r2) * mp.sin(mp.mpf(t) * dth)) / mp.sin(dth)
                    ref = mp.acoth(c)
                    worst = max(worst, abs(float((mp.mpf(got) - ref) / ref)))
        assert worst < 1e-13

    def test_radius_is_the_chord_jet_radius(self):
        rng = np.random.default_rng(49)
        for _ in range(200):
            th1 = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.02)
            spec = ChordSpec(rng.uniform(0.01, 30.0), rng.uniform(0.01, 30.0),
                             th1, rng.uniform(th1 + 0.01, math.pi / 2 - 0.001))
            ts = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 30)])
            jet_r = chord_jet(spec.r1, spec.r2, spec.delta_theta, ts)[0]
            assert np.array_equal(chord_radius(spec, ts), jet_r)
            assert chord_radius(spec, ts[5]) == chord_jet(spec.r1, spec.r2, spec.delta_theta,
                                                          ts[5])[0]

    def test_chord_is_a_geodesic(self):
        spec = ChordSpec(1.5, 2.2, -0.6, 0.9)

        def f(t):
            t = np.asarray(t, float)
            return chord_radius(spec, t), spec.theta(t)

        curve = ParamCurve.from_polar_function(f)
        ts = np.linspace(0.02, 0.98, 50)
        assert float(np.max(np.abs(geodesic_curvature(curve, ts)))) < 1e-7


class TestPreimageCurve:
    def test_endpoints_match_single_point_map(self):
        # endpoints must equal the inverse axis dilation applied to the
        # chord endpoints, computed here from scratch
        spec = ChordSpec(1.2, 2.6, -0.4, 1.0)
        s = 0.35
        pre = preimage_curve(spec, s)
        for t, (r_hat, th_hat) in ((0.0, (1.2, -0.4)), (1.0, (2.6, 1.0))):
            b = s * s * math.cos(th_hat) ** 2 + math.sin(th_hat) ** 2
            r_exp = r_hat * math.sqrt(b)
            th_exp = math.atan2(math.sin(th_hat), s * math.cos(th_hat))
            r, th = pre.eval(t)
            assert float(r) == pytest.approx(r_exp, rel=1e-14)
            assert float(th) == pytest.approx(th_exp, rel=1e-14)

    def test_near_identity_limit_collapses_to_chord(self):
        spec = ChordSpec(2.0, 2.5, -0.6, 0.8)
        s = 1.0 - 1e-6
        ts = np.linspace(0.0, 1.0, 33)
        state = preimage_state(spec, s, ts)
        # curve endpoints approach the chord endpoints
        assert abs(float(preimage_state(spec, s, 0.0)["r"]) - 2.0) < 1e-5
        # the mapped curve coincides with the chord between its own endpoints
        e0 = preimage_state(spec, s, 0.0)
        e1 = preimage_state(spec, s, 1.0)
        inner = ChordSpec(float(e0["r"]), float(e1["r"]),
                          float(e0["theta"]), float(e1["theta"]))
        u = (state["theta"] - inner.theta1) / inner.delta_theta
        assert np.max(np.abs(state["r"] - chord_radius(inner, u))) < 1e-6

    def test_analytic_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(41)
        ts = np.linspace(0.02, 0.98, 25)
        for _ in range(25):
            th1 = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
            th2 = rng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
            spec = ChordSpec(rng.uniform(0.3, 3.5), rng.uniform(0.3, 3.5), th1, th2)
            pre = preimage_curve(spec, rng.uniform(0.1, 0.9))
            fd = ParamCurve.from_polar_function(pre.eval)
            for a, b in zip(pre.d1(ts) + pre.d2(ts), fd.d1(ts) + fd.d2(ts)):
                scaled = np.abs(np.asarray(b) - np.asarray(a)) / (1.0 + np.abs(np.asarray(a)))
                assert float(np.max(scaled)) < 1e-6

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            preimage_curve(ChordSpec(1.0, 1.0, -0.5, 0.5), 1.5)


class TestDerivativeChain:
    def test_each_derivative_matches_differenced_parent(self):
        spec = ChordSpec(1.4, 2.1, -0.5, 0.9)
        s = 0.4
        ts = np.linspace(0.05, 0.95, 19)
        h = 1e-6

        def state_at(t):
            return preimage_state(spec, s, t)

        plus, minus, mid = state_at(ts + h), state_at(ts - h), state_at(ts)
        pairs = [
            ("r_hat", "rp_hat"), ("rp_hat", "rpp_hat"),
            ("beta", "bp"), ("bp", "bpp"),
            ("r", "rp"), ("rp", "rpp"),
            ("theta", "thp"), ("thp", "thpp"),
        ]
        for base, deriv in pairs:
            fd = (plus[base] - minus[base]) / (2.0 * h)
            scaled = np.abs(fd - mid[deriv]) / (1.0 + np.abs(mid[deriv]))
            assert float(np.max(scaled)) < 1e-6, (base, deriv)

    @pytest.mark.parametrize("t", [0.0, 0.37, np.linspace(0.0, 1.0, 33)])
    def test_jet_is_the_reference_chain_on_the_chord_jet(self, t):
        spec = ChordSpec(1.4, 2.1, -0.5, 0.9)
        s = 0.4
        state = preimage_state(spec, s, t)
        chord = chord_jet(spec.r1, spec.r2, spec.delta_theta, t)
        ref = reference_preimage_chain(*chord, spec.theta(t), s, spec.delta_theta)
        for key, value in zip(("r_hat", "rp_hat", "rpp_hat"), chord):
            assert np.array_equal(state[key], value), key
        for key, value in ref.items():
            assert np.array_equal(state[key], value), key

    def test_beta_prime_square_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            th1 = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.1)
            th2 = rng.uniform(th1 + 0.02, math.pi / 2 - 0.005)
            spec = ChordSpec(1.0, 1.0, th1, th2)
            s = rng.uniform(0.05, 0.95)
            st = preimage_state(spec, s, rng.uniform(0.0, 1.0))
            lhs = st["bp"] ** 2
            rhs = 4.0 * st["beta_minus_s2"] * st["one_minus_beta"] * spec.delta_theta ** 2
            assert float(lhs) == pytest.approx(float(rhs), rel=1e-12, abs=1e-300)


class TestDecomposition:
    def test_negative_first_coefficient(self):
        # beta = 0.5 at s = 0.5 when sin^2 = 1/3
        theta = math.asin(math.sqrt(1.0 / 3.0))
        pc = p_coefficients(1.0, theta, 0.5, 0.3, 1.0)
        assert pc.beta == pytest.approx(0.5, rel=1e-12)
        assert pc.p1 < 0.0
        assert pc.p0 > 0.0

    def test_square_consistency(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            pc = p_coefficients(rng.uniform(0.05, 10.0),
                                rng.uniform(-math.pi / 2 + 0.005, math.pi / 2 - 0.005),
                                rng.uniform(0.05, 0.95),
                                rng.uniform(-3.0, 3.0),
                                rng.uniform(0.05, 3.0))
            assert pc.p2_sq == pytest.approx(pc.p2 ** 2, rel=1e-10, abs=1e-300)

    def test_discriminant_negative_on_grid(self):
        r_hat = np.geomspace(0.1, 10.0, 24)
        theta = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 24)
        s = np.linspace(0.1, 0.9, 9)
        R, T, S = np.meshgrid(r_hat, theta, s, indexing="ij")
        out = p_coefficients_grid(R, T, S, 0.6, 1.0)
        assert np.all(out["p0"] > 0.0)
        assert np.all(out["p1"] < 0.0)
        assert np.all(out["discriminant"] < 0.0)

    def test_reconstruction_matches_raw_formula(self):
        # the central transcription guard: the grouped closed form against
        # the raw polar curvature of the chained jet
        rng = np.random.default_rng(44)
        R = rng.uniform(0.05, 10.0, 4000)
        T = rng.uniform(-math.pi / 2 + 0.005, math.pi / 2 - 0.005, 4000)
        S = rng.uniform(0.05, 0.95, 4000)
        RP = rng.uniform(-3.0, 3.0, 4000)
        out = p_coefficients_grid(R, T, S, RP, 1.0)
        rel = np.abs(out["kg_closed"] - out["kg_generic"]) / np.abs(out["kg_generic"])
        assert float(np.max(rel)) < 1e-8

    def test_scalar_object_matches_grid_path(self):
        pc = p_coefficients(1.7, 0.4, 0.45, -0.8, 1.2)
        grid = p_coefficients_grid(1.7, 0.4, 0.45, -0.8, 1.2)
        assert pc.curvature() == pytest.approx(float(grid["kg_closed"]), rel=1e-14)
        assert pc.discriminant() == pytest.approx(float(grid["discriminant"]), rel=1e-12)
        for key in ("p0", "p1", "p2", "p2_sq", "p3", "beta", "v"):
            assert getattr(pc, key) == float(grid[key]), key

    @pytest.mark.parametrize("states", [sweep_grid, random_states])
    def test_grid_is_the_reference_chains_bitwise(self, states):
        args = states()
        out = p_coefficients_grid(*args)
        for key, value in reference_closed_form(*args).items():
            assert np.array_equal(out[key], value), key
        assert out["kg_generic"].dtype == np.float64
        assert np.array_equal(out["kg_generic"], reference_generic_curvature_extended(*args))

    def test_validation(self):
        with pytest.raises(ValueError):
            p_coefficients(-1.0, 0.0, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            p_coefficients(1.0, 0.0, 0.5, 0.0, 4.0)


class TestComparisonCurve:
    def test_circular_arc_case(self):
        g = gamma_curve(DiskPoint.from_polar(1.5, -0.4), DiskPoint.from_polar(1.5, 0.7))
        for t in (0.0, 0.3, 0.9):
            assert geodesic_curvature(g, t) == pytest.approx(1.0 / math.tanh(1.5), rel=1e-12)

    def test_endpoints(self):
        x1 = DiskPoint.from_polar(1.0, -0.5)
        x2 = DiskPoint.from_polar(2.0, 0.8)
        g = gamma_curve(x1, x2)
        assert g.point(0.0).isclose(x1, tol=1e-12)
        assert g.point(1.0).isclose(x2, tol=1e-12)

    def test_closed_form_matches_raw_formula(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            r1, r2 = rng.uniform(0.3, 3.0, 2)
            th1 = rng.uniform(-1.0, 0.0)
            th2 = rng.uniform(0.1, 1.2)
            g = gamma_curve(DiskPoint.from_polar(r1, th1), DiskPoint.from_polar(r2, th2))
            ts = np.linspace(0.0, 1.0, 11)
            raw = geodesic_curvature(g, ts)
            closed = gamma_curvature_closed_form(r1, r2, th1, th2, ts)
            assert np.max(np.abs(raw - closed)) < 1e-9
            assert np.all(closed > 0.0)

    def test_stays_outside_the_chord(self):
        spec = ChordSpec(1.8, 2.3, -0.6, 0.8)
        s = 0.3
        e0 = preimage_state(spec, s, 0.0)
        e1 = preimage_state(spec, s, 1.0)
        inner = ChordSpec(float(e0["r"]), float(e1["r"]),
                          float(e0["theta"]), float(e1["theta"]))
        ts = np.linspace(0.0, 1.0, 65)
        r_gamma = (1.0 - ts) * inner.r1 + ts * inner.r2
        r_chord = chord_radius(inner, ts)
        assert np.all(r_gamma - r_chord > -1e-12)

    def test_rejects_origin_endpoint(self):
        with pytest.raises(ValueError):
            gamma_curve(DiskPoint.from_polar(0.0, 0.0), DiskPoint.from_polar(1.0, 0.0))


class TestSideOrdering:
    def test_golden_configuration(self):
        # frozen from the first run of this configuration
        rep = side_ordering(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, samples=64)
        assert rep.passed
        assert rep.max_kg_preimage == pytest.approx(-0.0560617474949, rel=1e-9)
        assert rep.min_kg_gamma == pytest.approx(1.29818019221, rel=1e-9)
        assert rep.min_chord_gap > -1e-9
        assert rep.min_gamma_gap > -1e-9
        # strict ordering away from the endpoints
        ts = np.linspace(0.1, 0.9, 17)
        state = preimage_state(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, ts)
        e0 = preimage_state(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, 0.0)
        e1 = preimage_state(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, 1.0)
        inner = ChordSpec(float(e0["r"]), float(e1["r"]),
                          float(e0["theta"]), float(e1["theta"]))
        u = (state["theta"] - inner.theta1) / inner.delta_theta
        r_chord = chord_radius(inner, u)
        assert np.min(r_chord - state["r"]) > 1e-3
        assert np.min((1 - u) * inner.r1 + u * inner.r2 - r_chord) > 1e-3

    def test_random_grid_clean(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            th1 = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
            th2 = rng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
            spec = ChordSpec(rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0), th1, th2)
            rep = side_ordering(spec, rng.uniform(0.05, 0.95), samples=64)
            assert rep.passed, rep.violations[:1]

    def test_near_identity_collapse(self):
        spec = ChordSpec(2.0, 2.5, -0.6, 0.8)
        rep = side_ordering(spec, 1.0 - 1e-6, samples=33)
        assert rep.passed
        # preimage and chord pinch together
        assert rep.min_chord_gap < 1e-6

    def test_violation_reporting_shape(self):
        rep = side_ordering(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, samples=16, slack=1e-9)
        assert rep.violations == []
        assert rep.samples == 16


class TestCurvatureDtype:
    def test_extended_jet_gives_extended_result(self):
        jet = [np.asarray(x, dtype=np.longdouble) for x in (1.3, 0.4, -0.2, 0.7, 0.1)]
        assert curvature_from_derivatives(*jet).dtype == np.longdouble
        # an extended radius alone is not rounded to float64
        assert curvature_from_derivatives(jet[0], 0.4, -0.2, 0.7, 0.1).dtype == np.longdouble

    def test_python_floats_give_float64(self):
        assert curvature_from_derivatives(1.3, 0.4, -0.2, 0.7, 0.1).dtype == np.float64


def test_raw_formula_agrees_with_conformal_oracle():
    # one more independent guard on sign conventions, through the
    # Euclidean-plus-conformal-factor route
    from conftest import conformal_curvature, polar_jet_to_cart
    rng = np.random.default_rng(47)
    for _ in range(50):
        r = rng.uniform(0.2, 3.0)
        dr = rng.uniform(-2.0, 2.0)
        d2r = rng.uniform(-2.0, 2.0)
        th = rng.uniform(-3.0, 3.0)
        dth = rng.uniform(0.05, 2.0)
        d2th = rng.uniform(-2.0, 2.0)
        a = curvature_from_derivatives(r, dr, d2r, dth, d2th)
        b = conformal_curvature(*polar_jet_to_cart(r, dr, d2r, th, dth, d2th))
        assert float(a) == pytest.approx(float(b), rel=1e-10)
