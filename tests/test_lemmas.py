import json
import math
import warnings

import numpy as np
import pytest

from hypexpand.curvature import phi, psi
from hypexpand import lemmas
from hypexpand.lemmas import (
    LEMMA_BLOCK_ROWS,
    MAX_RECORDED,
    coth_poly_I_series,
    lemma_coth_poly,
    lemma_coth_ratio,
    lemma_sin_scaling,
    lemma_sinh_scaling,
    open_interval_grid,
    verify_all,
)
from references import (coth_poly_I_direct, coth_ratio_path, coth_ratio_two_calls,
                        sin_scaling_slope, sinh_scaling_series)


def lemma_report(lemma, n):
    """The report dict verify_all(n) gives the named lemma."""
    return next(rep for rep in verify_all(n) if rep["lemma"] == lemma)


@pytest.mark.parametrize("margin_fn, x_hi", [(lemma_sinh_scaling, 10.0),
                                             (lemma_coth_ratio, 10.0),
                                             (lemma_sin_scaling, math.pi)])
@pytest.mark.parametrize("n", [40, 500])
def test_row_blocks_give_the_whole_grids_margins(margin_fn, x_hi, n):
    # each 2-D margin is evaluated LEMMA_BLOCK_ROWS grid rows at a time; the blocks put
    # together are the whole grid's margins bit for bit, on verify_all's grids, whose row
    # counts are not multiples of the block
    xs = open_interval_grid(0.0, x_hi, n, open_hi=x_hi != 10.0)
    ys = open_interval_grid(0.0, 1.0, n)
    assert len(xs) % LEMMA_BLOCK_ROWS != 0
    blocks = []

    def recording(x, y):
        blocks.append(margin_fn(x, y))
        return blocks[-1]

    report = lemmas._sweep("lemma", recording, xs, ys, {})
    whole = margin_fn(xs[:, None], ys[None, :])
    assert len(blocks) == -(-len(xs) // LEMMA_BLOCK_ROWS)
    assert np.array_equal(np.concatenate(blocks), whole)
    assert report["n_points"] == whole.size and report["min_margin"] == float(np.min(whole))


class TestSinhScaling:
    def test_point_value(self):
        margin = lemma_sinh_scaling(2.0, 0.5)
        assert margin == pytest.approx(0.125 * (math.sinh(2.0) - 2.0)
                                       - (math.sinh(1.0) - 1.0), rel=1e-12)
        assert margin > 0.0

    def test_margin_vanishes_at_upper_edge(self):
        # equality holds at y = 1; the approach is linear with slope
        # x cosh(x) - x - 3 phi(x), about 1.7e-2 at x = 1
        m3 = lemma_sinh_scaling(1.0, 1.0 - 1e-3)
        m6 = lemma_sinh_scaling(1.0, 1.0 - 1e-6)
        assert 0.0 < m6 < 1e-6 < m3 < 5e-5
        assert m3 / m6 == pytest.approx(1e3, rel=1e-2)

    def test_series_identity(self):
        # the alternating-free Taylor sum equals the margin; equivalently
        # sinh(xy) - y^3 sinh(x) - xy + xy^3 equals minus the sum.  The direct
        # side cancels down to O(x^5), so it is evaluated in extended
        # precision to keep the comparison about the series
        rng = np.random.default_rng(50)
        for _ in range(100):
            x = np.longdouble(rng.uniform(0.05, 5.0))
            y = np.longdouble(rng.uniform(0.05, 0.95))
            lhs = float(np.sinh(x * y) - y ** 3 * np.sinh(x) - x * y + x * y ** 3)
            assert lhs == pytest.approx(-sinh_scaling_series(float(x), float(y),
                                                             max_terms=30), rel=1e-10)

    def test_series_equals_margin(self):
        x = np.linspace(0.1, 4.0, 40)
        y = np.linspace(0.1, 0.9, 17)
        m = lemma_sinh_scaling(x[:, None], y[None, :])
        s = sinh_scaling_series(x[:, None], y[None, :])
        assert float(np.max(np.abs(m - s) / np.abs(s))) < 1e-9

    def test_grid(self):
        rep = lemma_report("sinh-scaling", 120)
        assert rep["passed"]
        assert rep["min_margin"] > 0.0


class TestCothRatio:
    def test_point_value(self):
        margin = lemma_coth_ratio(1.0, 0.5)
        psi_half = 0.5 / math.tanh(0.5) - 1.0
        psi_one = 1.0 / math.tanh(1.0) - 1.0
        expected = 0.25 * (math.sinh(2.0) - 2.0) / 3.0 \
            - psi_half * psi_one / (psi_one - psi_half)
        assert margin == pytest.approx(expected, rel=1e-12)
        assert margin > 0.0

    def test_grid(self):
        rep = lemma_report("coth-ratio", 120)
        assert rep["passed"]

    def test_each_psi_once_is_the_two_call_form_bitwise(self):
        # on verify_all's default grid, psi(x) and psi(xy) evaluated once each
        # give the margins of the form that evaluates each of them twice
        xs = open_interval_grid(0.0, 10.0, 500, open_hi=False)[:, None]
        ys = open_interval_grid(0.0, 1.0, 500)[None, :]
        out = lemma_coth_ratio(xs, ys)
        assert out.shape == (len(xs), ys.shape[1])
        assert np.array_equal(out.view(np.int64), coth_ratio_two_calls(xs, ys).view(np.int64))

    def test_path_function_decreasing(self):
        # the auxiliary path tends to zero at y -> 1 and decreases in y
        h = 1e-6
        for a in (0.5, 1.0, 3.0):
            ys = np.linspace(0.05, 0.95, 40)
            slope = (coth_ratio_path(a, ys + h) - coth_ratio_path(a, ys - h)) / (2 * h)
            assert np.all(slope < 0.0)
            assert coth_ratio_path(a, 1.0 - 1e-7) == pytest.approx(0.0, abs=1e-4)
            assert np.all(coth_ratio_path(a, ys) > 0.0)

    def test_denominator_guard(self):
        # outside the stated domain the denominator flips sign and the
        # evaluation refuses rather than returning a meaningless margin
        with pytest.raises(ArithmeticError):
            lemma_coth_ratio(1.0, 1.5)

    def test_shares_code_with_curvature_module(self):
        # substituting (x, y) = (r, sqrt(b)) reproduces the product bound the
        # discriminant estimate uses, through the same phi/psi implementations
        rng = np.random.default_rng(51)
        for _ in range(50):
            r = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.05, 0.95)
            sb = math.sqrt(b)
            margin = lemma_coth_ratio(r, sb)
            direct = b * phi(2.0 * r) / (4.0 * (1.0 - b)) \
                - r * psi(r * sb) * psi(r) / (psi(r) - psi(r * sb))
            assert margin == pytest.approx(direct, rel=1e-9)
            assert margin > 0.0

    def test_sinh_scaling_substitution(self):
        # (x, y) = (2r, sqrt(b)) turns the sinh bound into the phi comparison
        rng = np.random.default_rng(52)
        for _ in range(50):
            r = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.05, 0.95)
            sb = math.sqrt(b)
            assert lemma_sinh_scaling(2.0 * r, sb) == pytest.approx(
                b * sb * phi(2.0 * r) - phi(2.0 * r * sb), rel=1e-9)


class TestCothPolynomial:
    def test_point_value(self):
        coth1 = 1.0 / math.tanh(1.0)
        expected = coth1 + (1.0 - coth1 ** 2) - 6.0 * (coth1 - 1.0) ** 2
        assert lemma_coth_poly(1.0) == pytest.approx(expected, rel=1e-9)
        assert lemma_coth_poly(1.0) > 0.0

    def test_small_argument_leading_term(self):
        # the x^10 coefficient of the cleared-denominator form is
        # 2^8 * 9 * 2 * 1 / 10!
        lead = 4608.0 / math.factorial(10)
        assert coth_poly_I_series(0.01) / 0.01 ** 10 == pytest.approx(lead, rel=1e-3)

    def test_series_matches_direct(self):
        # direct evaluation is trustworthy above x ~ 0.5 where the O(x^10)
        # result is no longer drowned by the O(x^6) operands
        x = np.linspace(0.5, 4.0, 60)
        direct = coth_poly_I_direct(x)
        series = coth_poly_I_series(x, max_terms=40)
        assert float(np.max(np.abs(direct - series) / series)) < 1e-9

    def test_margin_equals_cleared_form(self):
        x = np.linspace(0.6, 5.0, 40)
        rel = np.abs(lemma_coth_poly(x) * np.sinh(x) ** 2 - coth_poly_I_direct(x)) \
            / coth_poly_I_direct(x)
        assert float(np.max(rel)) < 1e-9

    def test_series_is_summed_only_below_the_cutoff(self):
        # the series at x = 50, which the direct form replaces, overflowed in its sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both = lemma_coth_poly(np.array([0.1, 50.0])).tolist()
            alone = [lemma_coth_poly(0.1), lemma_coth_poly(50.0)]
        # coth(50) rounds to 1: 50^3 - 6 * 49^2 exactly
        assert both == alone == [coth_poly_I_series(0.1) / np.sinh(0.1) ** 2, 110594.0]

    def test_grid(self):
        rep = lemma_report("coth-polynomial", 200)
        assert rep["passed"]
        assert rep["min_margin"] > 0.0


class TestSinScaling:
    def test_equality_endpoints(self):
        assert lemma_sin_scaling(1.3, 0.0) == 0.0
        assert lemma_sin_scaling(1.3, 1.0) == pytest.approx(0.0, abs=1e-16)

    def test_half_angle_value(self):
        assert lemma_sin_scaling(math.pi / 2, 0.5) == pytest.approx(
            math.sqrt(2.0) / 2.0 - 0.5, abs=1e-15)

    def test_slope_positive(self):
        x = np.linspace(0.01, math.pi - 0.01, 80)
        y = np.linspace(0.01, 0.99, 40)
        assert np.all(sin_scaling_slope(x[:, None], y[None, :]) > 0.0)

    def test_grid(self):
        rep = lemma_report("sin-scaling", 120)
        assert rep["passed"]


class TestGridMachinery:
    def test_open_interval_grid_respects_insets(self):
        g = open_interval_grid(0.0, 1.0, 50)
        assert g.min() >= 1e-3
        assert g.max() <= 1.0 - 1e-3
        assert np.all(np.diff(g) > 0.0)

    def test_reports_serialize(self):
        reps = verify_all(60)
        assert [rep["lemma"] for rep in reps] == ["sinh-scaling", "coth-ratio",
                                                  "coth-polynomial", "sin-scaling"]
        for doc in reps:
            assert json.loads(json.dumps(doc)) == doc
            assert doc["passed"] is True
            assert doc["violations"] == []
            assert doc["min_margin"] > 0.0
            assert doc["n_points"] > 0

    def test_violation_detection(self):
        # feed a deliberately false inequality through the sweep machinery
        from hypexpand.lemmas import _sweep
        xs = np.linspace(0.1, 1.0, 10)
        ys = np.linspace(0.1, 0.9, 10)
        rep = _sweep("bogus", lambda x, y: x - y - 0.5, xs, ys, {})
        assert rep["passed"] is False
        # the first MAX_RECORDED violations are listed, the rest counted
        n_bad = int(np.sum(xs[:, None] - ys[None, :] - 0.5 <= 0.0))
        assert len(rep["violations"]) == MAX_RECORDED + 1
        assert rep["violations"][-1] == {"suppressed": n_bad - MAX_RECORDED}
