import json
import math

import mpmath as mp
import numpy as np
import pytest

from hypexpand import cli, curvature
from hypexpand.curvature import (
    ChordSpec,
    chord_radius,
    gamma_curvature_closed_form,
    p_coefficients_grid,
    phi,
    preimage_state,
    psi,
    side_ordering,
)
from hypexpand.disk import chord_jet, curvature_from_derivatives
from references import (from_polar_function, geodesic_curvature, per_spec_side_ordering,
                        phi_both_branches, psi_both_branches)


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


def chord_state(spec, s, t):
    """preimage_state of the one chord spec, as a block of one: each array's row, in the shape
    of t."""
    t = np.asarray(t, dtype=float)
    state = preimage_state([spec], [s], t.reshape(-1))
    return {key: np.broadcast_to(value, (1, t.size)).reshape(t.shape)
            for key, value in state.items()}


def radius(spec, t):
    """chord_radius of the one chord spec, in the shape of t."""
    t = np.asarray(t, dtype=float)
    return chord_radius([spec], t.reshape(-1))[0].reshape(t.shape)


def preimage_polar(spec, s):
    """t -> (r, theta) of the preimage curve, the function finite differences wrap."""
    def f(t):
        state = chord_state(spec, s, t)
        return state["r"], state["theta"]
    return f


def polar_linear_jet(r1, r2, th1, th2, t):
    """(r, r', r'', theta', theta'') of the curve linear in polar coordinates."""
    t = np.asarray(t, dtype=float)
    return (1.0 - t) * r1 + t * r2, r2 - r1, 0.0, th2 - th1, 0.0


def sweep_axes():
    # the axes curvature-sweep passes at its default grid
    r_hat = np.geomspace(0.05, 10.0, 50)
    theta_hat = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 50)
    s_vals = np.linspace(0.1, 0.9, 9)
    rp_hat = np.random.default_rng(1).uniform(-2.0, 2.0, size=(50, 50, 9))
    return r_hat[:, None, None], theta_hat[None, :, None], s_vals, rp_hat, 1.0


def sweep_grid():
    # the same states as a meshgrid, the form the axes must match
    r_hat, theta_hat, s_vals, rp_hat, dth = sweep_axes()
    R, T, S = np.meshgrid(r_hat.ravel(), theta_hat.ravel(), s_vals, indexing="ij")
    return R, T, S, rp_hat, dth


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

    @pytest.mark.parametrize("fn, reference", [(phi, phi_both_branches),
                                               (psi, psi_both_branches)])
    def test_series_only_where_taken_is_the_both_branch_form_bitwise(self, fn, reference):
        # each series is evaluated only below the cutoff and written back through
        # the mask; every value must be the bit pattern of the np.where form
        cutoff = curvature.SERIES_CUTOFF
        special = np.array([0.0, 1e-300, 1e-8, 0.05, np.nextafter(cutoff, 0.0), cutoff,
                            np.nextafter(cutoff, 1.0), 0.3, 1.0, 20.0, 711.0, 800.0, np.nan])
        a = np.concatenate([special, np.random.default_rng(46).uniform(0.0, 0.3, 500),
                            np.random.default_rng(47).uniform(0.0, 30.0, 500)])

        def bits(x):
            return np.asarray(x, dtype=float).view(np.int64)

        for x in (a, a[::3], a[:1000].reshape(2, -1).T, np.broadcast_to(a[:40, None], (40, 5))):
            out = fn(x)
            assert out.shape == x.shape
            assert np.array_equal(bits(out), bits(reference(x)))
        for x in [*special, np.float64(0.07), np.array(0.07), np.array(3.0)]:
            out = fn(x)
            assert type(out) is float
            assert bits(out) == bits(reference(x))


def beta(theta_hat, s):
    """beta = s^2 cos^2 + sin^2 of the decomposition at theta_hat."""
    b = p_coefficients_grid(1.0, theta_hat, s, 0.0, 1.0)["beta"]
    return float(b) if np.ndim(b) == 0 else b


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
        # the range of s is checked where a preimage is formed
        with pytest.raises(ValueError):
            preimage_state([ChordSpec(1.0, 1.0, -0.5, 0.5)], [1.0], 0.3)


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
        assert radius(spec, 0.0) == pytest.approx(1.3, abs=1e-12)
        assert radius(spec, 1.0) == pytest.approx(2.4, abs=1e-12)

    def test_symmetric_midpoint(self):
        spec = ChordSpec(1.0, 1.0, -0.5, 0.5)
        r_mid = radius(spec, 0.5)
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
                for t, got in zip(ts, radius(spec, ts)):
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
            r1, r2, th1, th2 = curvature._ends([spec])
            assert np.array_equal(chord_radius([spec], ts), chord_jet(r1, r2, th2 - th1, ts)[0])
            assert np.array_equal(chord_radius([spec], ts[5]),
                                  chord_jet(r1, r2, th2 - th1, ts[5])[0])

    def test_chord_is_a_geodesic(self):
        spec = ChordSpec(1.5, 2.2, -0.6, 0.9)

        def f(t):
            t = np.asarray(t, float)
            return radius(spec, t), spec.theta(t)

        curve = from_polar_function(f)
        ts = np.linspace(0.02, 0.98, 50)
        assert float(np.max(np.abs(geodesic_curvature(curve, ts)))) < 1e-7


class TestPreimageCurve:
    def test_endpoints_match_single_point_map(self):
        # endpoints must equal the inverse axis dilation applied to the
        # chord endpoints, computed here from scratch
        spec = ChordSpec(1.2, 2.6, -0.4, 1.0)
        s = 0.35
        for t, (r_hat, th_hat) in ((0.0, (1.2, -0.4)), (1.0, (2.6, 1.0))):
            b = s * s * math.cos(th_hat) ** 2 + math.sin(th_hat) ** 2
            r_exp = r_hat * math.sqrt(b)
            th_exp = math.atan2(math.sin(th_hat), s * math.cos(th_hat))
            r, th = preimage_polar(spec, s)(t)
            assert float(r) == pytest.approx(r_exp, rel=1e-14)
            assert float(th) == pytest.approx(th_exp, rel=1e-14)

    def test_near_identity_limit_collapses_to_chord(self):
        spec = ChordSpec(2.0, 2.5, -0.6, 0.8)
        s = 1.0 - 1e-6
        ts = np.linspace(0.0, 1.0, 33)
        state = chord_state(spec, s, ts)
        # curve endpoints approach the chord endpoints
        assert abs(float(chord_state(spec, s, 0.0)["r"]) - 2.0) < 1e-5
        # the mapped curve coincides with the chord between its own endpoints
        e0 = chord_state(spec, s, 0.0)
        e1 = chord_state(spec, s, 1.0)
        inner = ChordSpec(float(e0["r"]), float(e1["r"]),
                          float(e0["theta"]), float(e1["theta"]))
        u = (state["theta"] - inner.theta1) / inner.delta_theta
        assert np.max(np.abs(state["r"] - radius(inner, u))) < 1e-6

    def test_analytic_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(41)
        ts = np.linspace(0.02, 0.98, 25)
        for _ in range(25):
            th1 = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
            th2 = rng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
            spec = ChordSpec(rng.uniform(0.3, 3.5), rng.uniform(0.3, 3.5), th1, th2)
            s = rng.uniform(0.1, 0.9)
            state = chord_state(spec, s, ts)
            fd = from_polar_function(preimage_polar(spec, s))
            for a, b in zip([state[k] for k in ("rp", "thp", "rpp", "thpp")],
                            fd.d1(ts) + fd.d2(ts)):
                scaled = np.abs(np.asarray(b) - np.asarray(a)) / (1.0 + np.abs(np.asarray(a)))
                assert float(np.max(scaled)) < 1e-6

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            preimage_state([ChordSpec(1.0, 1.0, -0.5, 0.5)], [1.5], np.linspace(0.0, 1.0, 5))


class TestDerivativeChain:
    def test_each_derivative_matches_differenced_parent(self):
        spec = ChordSpec(1.4, 2.1, -0.5, 0.9)
        s = 0.4
        ts = np.linspace(0.05, 0.95, 19)
        h = 1e-6

        def state_at(t):
            return chord_state(spec, s, t)

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
        state = preimage_state([spec], [s], t)
        r1, r2, th1, th2 = curvature._ends([spec])
        chord = chord_jet(r1, r2, th2 - th1, t)
        ref = reference_preimage_chain(*chord, spec.theta(t), np.array([[s]]), th2 - th1)
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
            st = chord_state(spec, s, rng.uniform(0.0, 1.0))
            lhs = st["bp"] ** 2
            rhs = 4.0 * st["beta_minus_s2"] * st["one_minus_beta"] * spec.delta_theta ** 2
            assert float(lhs) == pytest.approx(float(rhs), rel=1e-12, abs=1e-300)


class TestDecomposition:
    def test_negative_first_coefficient(self):
        # beta = 0.5 at s = 0.5 when sin^2 = 1/3
        theta = math.asin(math.sqrt(1.0 / 3.0))
        pc = p_coefficients_grid(1.0, theta, 0.5, 0.3, 1.0)
        assert float(pc["beta"]) == pytest.approx(0.5, rel=1e-12)
        assert pc["p1"] < 0.0
        assert pc["p0"] > 0.0

    def test_square_consistency(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            pc = p_coefficients_grid(rng.uniform(0.05, 10.0),
                                     rng.uniform(-math.pi / 2 + 0.005, math.pi / 2 - 0.005),
                                     rng.uniform(0.05, 0.95),
                                     rng.uniform(-3.0, 3.0),
                                     rng.uniform(0.05, 3.0))
            p2, p2_sq = float(pc["p2"]), float(pc["p2_sq"])
            assert p2_sq == pytest.approx(p2 ** 2, rel=1e-10, abs=1e-300)

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

    @pytest.mark.parametrize("states", [sweep_grid, sweep_axes, random_states])
    def test_grid_is_the_reference_chains_bitwise(self, states):
        args = states()
        out = p_coefficients_grid(*args)
        for key, value in reference_closed_form(*args).items():
            assert np.array_equal(out[key], value), key
        assert out["kg_generic"].dtype == np.float64
        assert np.array_equal(out["kg_generic"], reference_generic_curvature_extended(*args))
        if states is sweep_axes:
            # the grid on its axes gives every output of the meshgrid call, bit for bit
            grid = p_coefficients_grid(*sweep_grid())
            assert out.keys() == grid.keys()
            for key, value in grid.items():
                assert np.array_equal(np.broadcast_to(out[key], value.shape).view(np.int64),
                                      value.view(np.int64)), key


class TestComparisonCurve:
    def test_circular_arc_case(self):
        for t in (0.0, 0.3, 0.9):
            kg = curvature_from_derivatives(*polar_linear_jet(1.5, 1.5, -0.4, 0.7, t))
            assert float(kg) == pytest.approx(1.0 / math.tanh(1.5), rel=1e-12)

    def test_closed_form_matches_raw_formula(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            r1, r2 = rng.uniform(0.3, 3.0, 2)
            th1 = rng.uniform(-1.0, 0.0)
            th2 = rng.uniform(0.1, 1.2)
            ts = np.linspace(0.0, 1.0, 11)
            raw = curvature_from_derivatives(*polar_linear_jet(r1, r2, th1, th2, ts))
            closed = gamma_curvature_closed_form(r1, r2, th1, th2, ts)
            assert np.max(np.abs(raw - closed)) < 1e-9
            assert np.all(closed > 0.0)

    def test_stays_outside_the_chord(self):
        spec = ChordSpec(1.8, 2.3, -0.6, 0.8)
        s = 0.3
        e0 = chord_state(spec, s, 0.0)
        e1 = chord_state(spec, s, 1.0)
        inner = ChordSpec(float(e0["r"]), float(e1["r"]),
                          float(e0["theta"]), float(e1["theta"]))
        ts = np.linspace(0.0, 1.0, 65)
        r_gamma = (1.0 - ts) * inner.r1 + ts * inner.r2
        r_chord = radius(inner, ts)
        assert np.all(r_gamma - r_chord > -1e-12)


class TestSideOrdering:
    def test_golden_configuration(self):
        # frozen from the first run of this configuration
        rep, = side_ordering([ChordSpec(2.0, 2.0, -0.5, 0.5)], [0.2], samples=64)
        assert rep["violations"] == []
        assert rep["max_kg_preimage"] == pytest.approx(-0.0560617474949, rel=1e-9)
        assert rep["min_kg_gamma"] == pytest.approx(1.29818019221, rel=1e-9)
        assert rep["min_chord_gap"] > -1e-9
        assert rep["min_gamma_gap"] > -1e-9
        # strict ordering away from the endpoints
        ts = np.linspace(0.1, 0.9, 17)
        state = chord_state(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, ts)
        e0 = chord_state(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, 0.0)
        e1 = chord_state(ChordSpec(2.0, 2.0, -0.5, 0.5), 0.2, 1.0)
        inner = ChordSpec(float(e0["r"]), float(e1["r"]),
                          float(e0["theta"]), float(e1["theta"]))
        u = (state["theta"] - inner.theta1) / inner.delta_theta
        r_chord = radius(inner, u)
        assert np.min(r_chord - state["r"]) > 1e-3
        assert np.min((1 - u) * inner.r1 + u * inner.r2 - r_chord) > 1e-3

    def test_random_grid_clean(self):
        rng = np.random.default_rng(46)
        specs, factors = [], []
        for _ in range(100):
            th1 = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.1)
            th2 = rng.uniform(th1 + 0.05, math.pi / 2 - 0.01)
            specs.append(ChordSpec(rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0), th1, th2))
            factors.append(rng.uniform(0.05, 0.95))
        for rep in side_ordering(specs, factors, samples=64):
            assert rep["violations"] == [], rep["violations"][:1]

    def test_near_identity_collapse(self):
        spec = ChordSpec(2.0, 2.5, -0.6, 0.8)
        rep, = side_ordering([spec], [1.0 - 1e-6], samples=33)
        assert rep["violations"] == []
        # preimage and chord pinch together
        assert rep["min_chord_gap"] < 1e-6

    def test_violation_reporting_shape(self, monkeypatch):
        rep, = side_ordering([ChordSpec(2.0, 2.0, -0.5, 0.5)], [0.2], samples=16)
        assert rep["violations"] == []
        assert rep["spec"] == [2.0, 2.0, -0.5, 0.5] and rep["s"] == 0.2
        # a slack below every margin makes each of the 16 samples a violation
        monkeypatch.setattr(curvature, "ORDERING_SLACK", -10.0)
        rep, = side_ordering([ChordSpec(2.0, 2.0, -0.5, 0.5)], [0.2], samples=16)
        assert len(rep["violations"]) == 16
        assert set(rep["violations"][0]) == {"t", "r_preimage", "r_chord", "r_gamma",
                                             "kg_preimage", "kg_gamma"}

    def test_ends_come_from_the_sample_array(self):
        # the chord's ends are the samples at t = 0 and 1, so one sample is refused
        spec = ChordSpec(2.0, 2.5, -0.6, 0.8)
        with pytest.raises(ValueError):
            side_ordering([spec], [0.4], samples=1)
        rep, = side_ordering([spec], [0.4], samples=2)
        # at the ends the three curves meet, up to the chord radius's rounding
        assert rep["violations"] == []
        assert max(abs(rep["min_chord_gap"]), abs(rep["min_gamma_gap"])) < 1e-15


class TestStackedSideOrdering:
    """side_ordering evaluates a sequence of chords as one (chords, samples) stack;
    references.per_spec_side_ordering evaluates each chord alone."""

    @pytest.mark.parametrize("seed", [0, 1, 5, 41, 104729])
    def test_the_sweep_chords_report_as_each_chord_alone(self, seed):
        chords, factors = cli._ordering_chords(seed, 100)
        for samples in (2, 16, 33, 64):
            alone = [per_spec_side_ordering(c, f, samples) for c, f in zip(chords, factors)]
            assert json.dumps(side_ordering(chords, factors, samples)) == json.dumps(alone)

    def test_chords_whose_angle_squares_differently_under_pow(self):
        # Python's pow(dth, 2) differs from dth * dth for about one double in a thousand on
        # some libms; a chord squares its angle alike in a block of one and in the stack
        rng = np.random.default_rng(90)
        th1, th2 = rng.uniform(-1.5, 0.0, 20000).tolist(), rng.uniform(0.05, 1.5, 20000).tolist()
        odd = [i for i, (a, b) in enumerate(zip(th1, th2)) if (b - a) ** 2 != (b - a) * (b - a)]
        odd = odd[:12] + [0, 1]
        chords = [ChordSpec(rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0), th1[i], th2[i])
                  for i in odd]
        factors = rng.uniform(0.05, 0.95, len(chords)).tolist()
        alone = [per_spec_side_ordering(c, f, 16) for c, f in zip(chords, factors)]
        assert json.dumps(side_ordering(chords, factors, 16)) == json.dumps(alone)

    def test_violations_are_reported_as_each_chord_alone(self, monkeypatch):
        chords, factors = cli._ordering_chords(3, 20)
        # a slack between the margins makes some samples, not all, violations
        monkeypatch.setattr(curvature, "ORDERING_SLACK", -0.05)
        alone = [per_spec_side_ordering(c, f, 33) for c, f in zip(chords, factors)]
        assert 0 < sum(len(a["violations"]) for a in alone) < 20 * 33
        assert json.dumps(side_ordering(chords, factors, 33)) == json.dumps(alone)

    def test_a_block_of_one_chord(self):
        spec = ChordSpec(2.0, 2.5, -0.6, 0.8)
        for samples in (2, 16, 33, 64):
            assert (json.dumps(side_ordering([spec], [0.4], samples))
                    == json.dumps([per_spec_side_ordering(spec, 0.4, samples)]))
        assert side_ordering([], [], 16) == []
        # the chords and factors are each read twice, so one-shot iterables are taken too
        assert side_ordering(iter([spec]), iter([0.4]), 16) == side_ordering([spec], [0.4], 16)
        with pytest.raises(ValueError, match="at least 2 samples"):
            side_ordering([spec], [0.4], samples=1)

    def test_stacked_preimage_rows_are_each_chord_alone(self):
        chords, factors = cli._ordering_chords(7, 12)
        ts = np.linspace(0.0, 1.0, 33)
        block = preimage_state(chords, factors, ts)
        for i, (chord, s) in enumerate(zip(chords, factors)):
            alone = preimage_state([chord], [s], ts)
            assert block.keys() == alone.keys()
            for key, value in alone.items():
                row = np.broadcast_to(block[key], (len(chords), len(ts)))[i]
                assert np.array_equal(row.view(np.int64),
                                      np.broadcast_to(value, (1, len(ts)))[0].view(np.int64)), key
        with pytest.raises(ValueError, match="s must lie in"):
            preimage_state(chords, factors[:-1] + [1.0], ts)


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
