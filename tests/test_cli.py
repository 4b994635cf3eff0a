import json
import math
import re

import numpy as np
import pytest

from hypexpand import curvature
from hypexpand.cli import (
    CSV_BLOCK_ROWS,
    _csv_text,
    _render_scene,
    build_parser,
    main,
    run_curvature_sweep,
    run_render,
    run_render_trace,
    run_replay,
    run_search_counterexample,
    run_sphere_conjecture,
    run_verify_lemmas,
    run_verify_theorem,
)
from hypexpand.disk import polar_to_cart


def reference_csv(header, rows):
    """The per-value CSV formatter that `_csv_text` replaced."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def csv_lines(text):
    """Lines with their ends: equal lists are equal texts, and a mismatch
    reports at once (pytest's diff of two long strings takes tens of seconds)."""
    return text.splitlines(keepends=True)


class TestVerifyTheorem:
    def test_small_run_passes(self):
        report = run_verify_theorem(seed=1, trials=10)
        assert report["passed"]
        assert report["max_defect"] < 1e-6
        assert len(report["results"]) == 10

    def test_forced_identity(self):
        report = run_verify_theorem(seed=1, trials=5, k1=1.0, k2=1.0)
        assert report["max_defect"] < 1e-9

    def test_forced_symmetric(self):
        report = run_verify_theorem(seed=1, trials=5, k1=3.0, k2=3.0)
        assert report["passed"]

    def test_deterministic(self):
        a = json.dumps(run_verify_theorem(seed=5, trials=6), sort_keys=True)
        b = json.dumps(run_verify_theorem(seed=5, trials=6), sort_keys=True)
        assert a == b


class TestSearch:
    def test_finds_witness(self):
        report = run_search_counterexample(seed=0, k1=0.25, k2=1.0, trials=50)
        assert report["found"]
        w = report["witness"]
        assert w["defect"] > 1e-3
        assert w["defect_recheck_4x"] > 1e-3

    def test_replay_matches(self, tmp_path):
        report = run_search_counterexample(seed=0, k1=0.25, k2=1.0, trials=50)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report))
        rep = run_replay(str(path))
        assert rep["passed"]
        assert rep["difference"] <= 1e-9

    def test_rejects_expansion_factor(self, capsys):
        code = main(["search-counterexample", "--k1", "1.0", "--trials", "3"])
        assert code == 2
        assert "k1 < 1" in capsys.readouterr().err


class TestLemmaCommand:
    def test_small_grids_pass(self):
        report = run_verify_lemmas(grid_n=80)
        assert report["passed"]
        assert len(report["reports"]) == 4

    def test_cli_prints_table(self, capsys, tmp_path):
        out = tmp_path / "lemmas.json"
        code = main(["verify-lemmas", "--grid-n", "60", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "min margin" in text
        assert text.count("ok") >= 4
        doc = json.loads(out.read_text())
        assert doc["passed"]

    def test_stdout_is_json_without_out(self, capsys):
        code = main(["verify-lemmas", "--grid-n", "60"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["passed"]
        assert "min margin" in captured.err


class TestCurvatureSweep:
    def test_small_sweep(self):
        report, csv_text = run_curvature_sweep(seed=0, n_r=12, n_theta=12, n_s=5,
                                               specs=10, samples=32)
        assert report["passed"]
        assert report["sign_violations"] == 0
        assert report["ordering_violations"] == 0
        header = csv_text.splitlines()[0]
        assert header == "r_hat,theta_hat,s,p0,p1,p2,p3,discriminant,kg_closed,kg_generic"
        assert len(csv_text.splitlines()) == 1 + 12 * 12 * 5

    def test_discriminant_column_negative(self):
        _, csv_text = run_curvature_sweep(seed=1, n_r=8, n_theta=8, n_s=3, specs=2)
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        disc = np.array([float(r[7]) for r in rows])
        assert np.all(disc < 0.0)

    @pytest.mark.parametrize("seed, n_r, n_theta, n_s", [(3, 11, 11, 9), (5, 7, 5, 3)])
    def test_csv_matches_per_value_formatting(self, seed, n_r, n_theta, n_s):
        # the sweep's grid, rebuilt as the per-row formatter saw it
        r_hat = np.geomspace(0.05, 10.0, n_r)
        theta_hat = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, n_theta)
        s_vals = np.linspace(0.1, 0.9, n_s)
        R, T, S = np.meshgrid(r_hat, theta_hat, s_vals, indexing="ij")
        RP = np.random.default_rng(seed).uniform(-2.0, 2.0, size=R.shape)
        out = curvature.p_coefficients_grid(R, T, S, RP, 1.0)
        columns = [R, T, S] + [out[k] for k in ("p0", "p1", "p2", "p3", "discriminant",
                                                "kg_closed", "kg_generic")]
        rows = np.stack([c.ravel() for c in columns], axis=1)
        assert len(rows) % CSV_BLOCK_ROWS != 0
        _, csv_text = run_curvature_sweep(seed=seed, n_r=n_r, n_theta=n_theta, n_s=n_s,
                                          specs=1, samples=8)
        header = "r_hat,theta_hat,s,p0,p1,p2,p3,discriminant,kg_closed,kg_generic"
        assert csv_lines(csv_text) == csv_lines(reference_csv(header, rows))


class TestSphereCommand:
    def test_small_run(self):
        report = run_sphere_conjecture(seed=2, trials=10)
        assert report["passed"]
        assert report["summary"]["symmetric"]["exceedances"] == 0


class TestRender:
    def test_svg_well_formed(self):
        svg = run_render(seed=0, k1=2.0, k2=1.0)
        assert svg.startswith("<?xml")
        assert 'viewBox="-1.05 -1.05 2.1 2.1"' in svg
        # every plotted coordinate stays inside the closed unit square of the
        # disk; the unit circle itself is the only radius-1 element
        pts = re.findall(r'points="([^"]+)"', svg)
        for block in pts:
            coords = np.array([[float(a) for a in pair.split(",")]
                               for pair in block.split()])
            assert np.all(np.hypot(coords[:, 0], coords[:, 1]) < 1.0)

    def test_deterministic(self):
        assert run_render(seed=3) == run_render(seed=3)

    def test_curve_trace_csv(self):
        from hypexpand.cli import run_render_trace
        text = run_render_trace(seed=0, k1=2.0, k2=1.0, n=64)
        lines = text.splitlines()
        assert lines[0] == "t,r,theta,x,y,kg"
        assert len(lines) == 65
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # columns consistent: cartesian matches polar, all inside the disk,
        # and the traced image of a geodesic chord bends toward the origin
        assert np.max(np.abs(rows[:, 3] - np.tanh(rows[:, 1] / 2) * np.cos(rows[:, 2]))) < 1e-12
        assert np.all(np.hypot(rows[:, 3], rows[:, 4]) < 1.0)
        assert np.all(rows[:, 5] < 0.0)

    @pytest.mark.parametrize("n", [1, 3, CSV_BLOCK_ROWS + 1])
    def test_curve_trace_matches_per_value_formatting(self, n):
        _, _, _, pre, _ = _render_scene(4, 2.5, 1.0)
        ts = np.linspace(0.0, 1.0, n)
        r, theta = pre.eval(ts)
        xy = polar_to_cart(r, theta)
        rows = zip(ts, r, theta, xy[:, 0], xy[:, 1], pre.curvature(ts))
        assert (csv_lines(run_render_trace(seed=4, k1=2.5, k2=1.0, n=n))
                == csv_lines(reference_csv("t,r,theta,x,y,kg", rows)))

    def test_format_selects_svg_or_trace(self, tmp_path):
        svg, trace = tmp_path / "a.svg", tmp_path / "a.csv"
        assert main(["render", "--out", str(svg)]) == 0
        assert main(["render", "--format", "csv", "--out", str(trace)]) == 0
        assert svg.read_text() == run_render()
        assert trace.read_text() == run_render_trace()

    def test_identity_factors_overlay(self):
        svg = run_render(seed=0, k1=1.0, k2=1.0)
        pts = re.findall(r'points="([^"]+)"', svg)
        a = np.array([[float(x) for x in pair.split(",")] for pair in pts[0].split()])
        b = np.array([[float(x) for x in pair.split(",")] for pair in pts[1].split()])
        assert np.max(np.abs(a - b)) < 1e-9


class TestCsvText:
    VALUES = np.array([[np.nan, np.inf, -np.inf],
                       [-0.0, 5e-324, np.finfo(float).max],
                       [0.1, -1.0 / 3.0, 1e22]])

    def test_special_values(self):
        text = _csv_text("a,b,c", self.VALUES)
        assert text == reference_csv("a,b,c", self.VALUES)
        assert text.splitlines()[1:3] == ["nan,inf,-inf",
                                          "-0,4.9406564584124654e-324,1.7976931348623157e+308"]
        # every value reads back as the same double, the sign of zero included
        back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
        assert np.array_equal(back, self.VALUES, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(self.VALUES))

    def test_special_values_with_prefix(self):
        prefix = ["x,1", "y,2", "z,3"]
        text = _csv_text("p,q,a,b,c", self.VALUES, prefix)
        expected = reference_csv("a,b,c", self.VALUES).splitlines()[1:]
        assert text.splitlines() == ["p,q,a,b,c"] + [f"{p},{e}" for p, e in zip(prefix, expected)]
        assert text.endswith("\n")

    @pytest.mark.parametrize("n_rows", [0, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 5])
    def test_block_edges(self, n_rows):
        values = np.random.default_rng(n_rows).standard_normal((n_rows, 2))
        prefix = [str(i) for i in range(n_rows)]
        assert csv_lines(_csv_text("a,b", values)) == csv_lines(reference_csv("a,b", values))
        assert (csv_lines(_csv_text("i,a,b", values, prefix))
                == csv_lines(reference_csv("i,a,b", [[i, *row] for i, row in enumerate(values)])))


class TestParsing:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["no-such-command"])
        assert err.value.code == 2

    def test_cli_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify-theorem", "--trials", "4", "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] and doc["trials"] == 4

    def test_output_determinism_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["sphere-conjecture", "--trials", "6", "--seed", "4", "--out", str(out1)])
        main(["sphere-conjecture", "--trials", "6", "--seed", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["verify-theorem", "--k1", "-1"],
        ["verify-theorem", "--trials", "0"],
        ["sphere-conjecture", "--trials", "0"],
        ["render", "--k1", "0"],
        ["search-counterexample", "--k1", "0"],
        ["verify-lemmas", "--grid-n", "-5"],
        ["verify-lemmas", "--grid-n", "17"],
        ["curvature-sweep", "--grid-n", "0"],
        ["curvature-sweep", "--grid-n", "1"],
    ])
    def test_invalid_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify-lemmas", "--trials", "7", "--format", "svg"],
        ["verify-lemmas", "--trials", "7"],
        ["verify-lemmas", "--format", "json"],
        ["render", "--trials", "2"],
        ["render", "--format", "json"],
        ["curvature-sweep", "--format", "svg"],
        ["verify-theorem", "--format", "json"],
        ["search-counterexample", "--format", "csv"],
        ["sphere-conjecture", "--format", "json"],
    ])
    def test_option_the_command_does_not_take_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
