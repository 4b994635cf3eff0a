import json
import math
import re
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypexpand import cli, curvature
from hypexpand.cli import (
    CSV_BLOCK_ROWS,
    _csv_text,
    build_parser,
    main,
    measure_witness,
    run_curvature_sweep,
    run_render,
    run_render_trace,
    run_replay,
    run_search_counterexample,
    run_sphere_conjecture,
    run_verify_lemmas,
    run_verify_theorem,
)
from hypexpand.convexity import TRIAL_BLOCK, GeodesicPolygon, convexity_defect, dilate_region
from hypexpand.dilation import DilationParams
from hypexpand.disk import ChartSaturation, curvature_from_derivatives, polar_to_cart
from references import per_trial_theorem


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

    def test_k_range_is_reported_whenever_a_factor_is_drawn(self):
        for forced in ({}, {"k1": 2.0}, {"k2": 2.0}):
            report = run_verify_theorem(seed=1, trials=2, **forced)
            assert report["k_range"] == [1.0, 4.0]
            drawn = [r[k] for r in report["results"] for k in ("k1", "k2") if k not in forced]
            assert drawn and all(1.0 <= k <= 4.0 for k in drawn)
        assert run_verify_theorem(seed=1, trials=2, k1=2.0, k2=3.0)["k_range"] is None

    @pytest.mark.parametrize("argv, named", [
        (["--k1", "2", "--k2", "0.99"], "k2=0.99"),
        (["--k1", "0.5"], "k1=0.5"),
        (["--k1", "0.999", "--k2", "0.5", "--trials", "1"], "k1=0.999, k2=0.5"),
    ])
    def test_a_forced_factor_below_1_is_outside_the_hypothesis(self, argv, named, capsys):
        # at (2, 0.99) a polygon on the worst line measures a defect of 1.2e-5, where the
        # random trials all measure 0: the command refuses the pair rather than pass it
        assert main(["verify-theorem"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "hypothesis k1, k2 >= 1" in captured.err and captured.err.endswith(named + "\n")

    def test_deterministic(self):
        a = json.dumps(run_verify_theorem(seed=5, trials=6), sort_keys=True)
        b = json.dumps(run_verify_theorem(seed=5, trials=6), sort_keys=True)
        assert a == b


class TestTheoremBlocks:
    """verify-theorem builds a block of trials at once; references.per_trial_theorem builds
    each trial alone."""

    @pytest.mark.parametrize("seed, trials, forced", [
        (0, TRIAL_BLOCK - 1, {}), (11, TRIAL_BLOCK, {}), (12, TRIAL_BLOCK + 1, {}),
        (13, TRIAL_BLOCK + 1, {"k1": 2.0}), (0, 200, {}),
    ])
    def test_blocks_build_the_per_trial_polygons_and_regions(self, seed, trials, forced,
                                                             monkeypatch):
        regions = []

        def spy(region):
            regions.append(region)
            return convexity_defect(region)

        monkeypatch.setattr(cli, "convexity_defect", spy)
        report = run_verify_theorem(seed=seed, trials=trials, **forced)
        assert len(regions) == trials
        for i, region in enumerate(regions):
            poly, ref, result = per_trial_theorem(
                seed, i, forced_k1=forced.get("k1"), forced_k2=forced.get("k2"))
            assert np.array_equal(region.polygon.sheet, poly.sheet)
            assert region.polygon.hconvex is poly.hconvex
            assert np.array_equal(region.boundary, ref.boundary)
            assert report["results"][i] == result

    @pytest.mark.parametrize("k1, trials", [(40.0, 3), (13.0, 200), (13.5, 2 * TRIAL_BLOCK)])
    def test_a_saturated_block_names_what_the_per_trial_loop_names(self, k1, trials):
        with pytest.raises(ChartSaturation) as block:
            run_verify_theorem(seed=0, trials=trials, k1=k1)
        with pytest.raises(ChartSaturation) as alone:
            for i in range(trials):
                per_trial_theorem(0, i, forced_k1=k1)
        assert str(block.value) == str(alone.value)
        # every trial's center is off the origin: its image is checked about it
        message = str(block.value)
        assert message.startswith(f"factors k1={k1!r}, k2=") and " about the center [" in message

    def test_a_huge_factor_is_a_usage_error(self, capsys):
        # r' = r * 1e308 overflows to inf, and the boost back to the center turns its lift into
        # nan rows, which the image's chart check refuses, without a RuntimeWarning (an error
        # under pytest's filter and CI's)
        assert main(["verify-theorem", "--k1", "1e308", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: factors k1=1e+308, k2=")
        assert " about the center [" in captured.err

    def test_trial_0_at_k1_40_is_named(self, capsys):
        # r' ~ 100, far past the radius where tanh(r'/2) rounds to 1 on any platform
        assert main(["verify-theorem", "--k1", "40", "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert re.match(r"error: factors k1=40\.0, k2=2\.624383660747275 about the center "
                        r"\[\S+, \S+\] carry", captured.err)


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

    def test_replay_measures_at_the_witness_sampling(self, tmp_path, monkeypatch):
        # a witness is input from outside: its own sampling is replayed, not the search's
        report = run_search_counterexample(seed=0, k1=0.25, k2=1.0, trials=50)
        w = report["witness"]
        assert (w["samples_per_edge"], w["pair_samples"], w["segment_samples"]) == (32, 128, 16)
        params = DilationParams(w["center_cart"], w["k1"], w["k2"])
        region = dilate_region(GeodesicPolygon.from_polar(w["vertices_polar"]), params,
                               samples_per_edge=48)
        defect = convexity_defect(region, 160, 24)
        assert defect != w["defect"]
        w.update(samples_per_edge=48, pair_samples=160, segment_samples=24, defect=defect)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report))
        seen = []

        def spy(region, pair_samples, segment_samples):
            seen.append((region.samples_per_edge, pair_samples, segment_samples))
            return convexity_defect(region, pair_samples, segment_samples)

        monkeypatch.setattr(cli, "convexity_defect", spy)
        rep = run_replay(str(path))
        assert rep["replayed_defect"] == defect and rep["passed"]
        measure_witness(w, scale=4)
        assert seen == [(48, 160, 24), (192, 640, 96)]

    def test_replay_of_a_triangle_at_the_fewest_samples(self, tmp_path, capsys):
        # 3 edges at 16 samples each: a 48-sample boundary, measured like any other
        witness = {"vertices_polar": [[1.0, 0.0], [1.2, 2.0], [0.8, 4.0]],
                   "center_cart": [0.0, 0.0], "k1": 0.5, "k2": 1.0, "samples_per_edge": 16,
                   "pair_samples": 16, "segment_samples": 16, "defect": 0.0}
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"witness": witness}))
        assert main(["search-counterexample", "--replay", str(path)]) in (0, 1)
        out, err = capsys.readouterr()
        assert err == ""  # neither a traceback nor a usage error
        report = json.loads(out)
        assert report["command"] == "replay-witness" and report["replayed_defect"] >= 0.0

    @pytest.mark.parametrize("content", [
        None,
        "not json",
        "{}",
        "[1, 2]",
        '{"found": false, "witness": null}',
        '{"witness": {"vertices_polar": [[1.0, 0.0]]}}',
    ])
    def test_unreadable_witness_is_a_usage_error(self, content, tmp_path, capsys):
        path = tmp_path / "witness.json"
        if content is not None:
            path.write_text(content)
        assert main(["search-counterexample", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("k1", "x"),
        ("k1", 0.0),
        ("k2", -1.0),
        ("k2", math.inf),
        ("k1", True),
        ("samples_per_edge", 32.5),
        ("samples_per_edge", "32"),
        ("pair_samples", 15),
        ("segment_samples", 16.0),
        ("defect", None),
        ("vertices_polar", "x"),
        ("vertices_polar", [[1.0, 0.0], [1.2, 2.0], [0.8]]),
        ("vertices_polar", [[1.0, 0.0], [1.2, "2"], [0.8, 4.0]]),
        ("vertices_polar", [[1.0, 0.0], [1.2, 2.0], [math.nan, 4.0]]),
        ("vertices_polar", [[1.0, 0.0], [0.8, 4.0], [1.2, 2.0]]),  # clockwise
        ("vertices_polar", [[1.0, 2 * math.pi * k * 2 / 5] for k in range(5)]),  # pentagram
        ("vertices_polar", [[1.0, 0.0], [1.2, 2.0]]),
        ("vertices_polar", [[-1.0, 0.0], [1.2, 2.0], [0.8, 4.0]]),
        ("center_cart", [0.0]),
        ("center_cart", ["0", 0.0]),
        ("center_cart", [1.5, 0.0]),
        # past the float64 chart, whose norm tanh(r/2) rounds to 1 from r ~ 38 to 38.5
        # depending on the direction and the arithmetic: at 40, numpy's and libm's tanh(r/2)
        # are both 1
        ("vertices_polar", [[40.0, 0.0], [40.0, 2.0], [40.0, 4.0]]),
        # a dart: simple and counterclockwise, but not h-convex
        ("vertices_polar", [[0.05, 0.0], [0.7, -math.pi / 2], [0.7, 0.0], [0.7, math.pi / 2]]),
        # vertices whose lift or chords overflow float64 are refused before either is formed
        ("vertices_polar", [[400.0, 0.0], [400.0, 2.0], [400.0, 4.0]]),
        ("vertices_polar", [[720.0, 0.0], [720.0, 2.0], [720.0, 4.0]]),
        ("vertices_polar", [[1e300, 0.0], [1e300, 2.0], [1e300, 4.0]]),
        # directions whose Cartesian row keeps a norm below 1 when tanh(r/2) is 1
        ("vertices_polar", [[1e300, -2.0030794759288524], [1e300, 0.08048760378497022],
                            [1e300, 2.2003714945742905]]),
    ])
    def test_bad_witness_value_is_a_usage_error(self, key, value, tmp_path, capsys):
        report = run_search_counterexample(seed=0, k1=0.25, k2=1.0, trials=3)
        report["witness"][key] = value
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report))
        assert main(["search-counterexample", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed, k1", [(0, 0.25), (1, 0.5), (2, 0.6), (5, 0.8)])
    def test_stored_vertices_replay_the_stored_defect(self, seed, k1):
        # the witness stores the polar forms of its polygon's sheet rows
        witness = run_search_counterexample(seed=seed, k1=k1)["witness"]
        poly = GeodesicPolygon.from_polar(witness["vertices_polar"])
        region = dilate_region(poly, DilationParams(witness["center_cart"], k1, witness["k2"]))
        defect = convexity_defect(region, witness["pair_samples"], witness["segment_samples"])
        assert abs(defect - witness["defect"]) <= cli.REPLAY_TOL

    @pytest.mark.parametrize("radius, x", [(36.5, 0.5), (37.0, 0.9), (37.0, -0.7)])
    def test_witness_translated_far_from_the_origin_replays(self, radius, x, tmp_path, capsys):
        # the boundary and its image lie inside the chart, though the boundary's Cartesian rows,
        # translated to the center, land on the unit circle.  The stored defect is the
        # unmodified witness's, so the replay differs from it (exit 1)
        report = run_search_counterexample(seed=0, k1=0.5, trials=3)
        witness = report["witness"]
        for v in witness["vertices_polar"]:
            v[0] = radius
        witness["center_cart"] = [x, 0.0]
        region = dilate_region(GeodesicPolygon.from_polar(witness["vertices_polar"]),
                               DilationParams(witness["center_cart"], 0.5, 1.0))
        assert math.tanh(float(np.max(np.arccosh(region.boundary[:, 2]))) / 2.0) < 1.0
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report))
        assert main(["search-counterexample", "--replay", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        replay = json.loads(captured.out)
        assert not replay["passed"] and replay["replayed_defect"] > 0.0

    @pytest.mark.parametrize("radius", [25.0, 30.0, 36.0, 37.5])
    def test_a_far_identity_witness_replays_without_a_warning(self, radius, tmp_path, capsys):
        # a convex polygon, every vertex far from the origin, under the identity: defect 0.
        # Its chords need lengths from positive terms: cosh d = a_z b_z - A.B cancels this far
        # out, and samples formed from it overflow membership's squares
        report = run_search_counterexample(seed=0, k1=0.5, trials=3)
        for v in report["witness"]["vertices_polar"]:
            v[0] = radius
        report["witness"].update(k1=1.0, k2=1.0, defect=0.0)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report))
        assert main(["search-counterexample", "--replay", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["replayed_defect"] == 0.0

    @pytest.mark.parametrize("option", [["--seed", "0"], ["--trials", "3"], ["--k1", "0.5"],
                                        ["--k2", "1"], ["--tol", "1e-3"]])
    def test_replay_takes_no_search_option(self, option, tmp_path, capsys):
        report = run_search_counterexample(seed=0, k1=0.25, k2=1.0, trials=3)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report))
        assert main(["search-counterexample", "--replay", str(path)]) == 0
        capsys.readouterr()
        assert main(["search-counterexample", "--replay", str(path)] + option) == 2
        assert capsys.readouterr().err == f"error: --replay takes none of {option[0]}\n"

    def test_search_options_reach_the_search(self, capsys):
        assert main(["search-counterexample", "--seed", "3", "--trials", "4", "--k1", "0.6",
                     "--k2", "0.9", "--tol", "2e-3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == run_search_counterexample(seed=3, trials=4, k1=0.6, k2=0.9, tol=2e-3)

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
        report, csv_text = run_curvature_sweep(seed=0, grid_n=12, specs=10)
        assert report["passed"]
        assert report["grid"] == {"n_r": 12, "n_theta": 12, "n_s": 9}
        assert report["sign_violations"] == 0
        assert report["ordering_violations"] == 0
        header = csv_text.splitlines()[0]
        assert header == "r_hat,theta_hat,s,p0,p1,p2,p3,discriminant,kg_closed,kg_generic"
        assert len(csv_text.splitlines()) == 1 + 12 * 12 * 9

    def test_discriminant_column_negative(self):
        _, csv_text = run_curvature_sweep(seed=1, grid_n=8, specs=2)
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        disc = np.array([float(r[7]) for r in rows])
        assert np.all(disc < 0.0)

    @pytest.mark.parametrize("seed, n_r, n_theta, n_s", [(3, 11, 11, 9), (5, 7, 7, 9)])
    def test_csv_matches_per_value_formatting(self, seed, n_r, n_theta, n_s):
        # the sweep's grid, rebuilt as the per-row formatter saw it: --grid-n
        # sets both the r and the theta axis, and there are 9 values of s
        r_hat = np.geomspace(0.05, 10.0, n_r)
        theta_hat = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, n_theta)
        s_vals = np.linspace(0.1, 0.9, n_s)
        R, T, S = np.meshgrid(r_hat, theta_hat, s_vals, indexing="ij")
        RP = np.random.default_rng(seed).uniform(-2.0, 2.0, size=R.shape)
        out = curvature.p_coefficients_grid(R, T, S, RP)
        columns = [R, T, S] + [out[k] for k in ("p0", "p1", "p2", "p3", "discriminant",
                                                "kg_closed", "kg_generic")]
        rows = np.stack([c.ravel() for c in columns], axis=1)
        assert len(rows) % CSV_BLOCK_ROWS != 0
        _, csv_text = run_curvature_sweep(seed=seed, grid_n=n_r, specs=1)
        header = "r_hat,theta_hat,s,p0,p1,p2,p3,discriminant,kg_closed,kg_generic"
        assert csv_lines(csv_text) == csv_lines(reference_csv(header, rows))

    def test_json_to_stdout_formats_no_csv(self, monkeypatch, capsys):
        # without --out the JSON report is the only output, so no CSV is formatted
        report, _ = run_curvature_sweep(seed=0, grid_n=8, specs=2)

        def refuse(*args, **kwargs):
            raise AssertionError("the CSV is written nowhere")

        monkeypatch.setattr(cli, "_csv_text", refuse)
        assert main(["curvature-sweep", "--grid-n", "8", "--trials", "2"]) in (0, 1)
        assert capsys.readouterr().out == cli._dumps(report)

    def test_written_csv_is_the_sweep_csv(self, tmp_path, capsys):
        report, csv_text = run_curvature_sweep(seed=0, grid_n=8, specs=2)
        args = ["curvature-sweep", "--grid-n", "8", "--trials", "2"]
        assert main(args + ["--out", str(tmp_path / "sweep.json")]) in (0, 1)
        assert (tmp_path / "sweep.json").read_text() == cli._dumps(report)
        assert (tmp_path / "sweep.csv").read_text() == csv_text
        assert main(args + ["--format", "csv", "--out", str(tmp_path / "grid.csv")]) in (0, 1)
        assert (tmp_path / "grid.csv").read_text() == csv_text
        assert main(args + ["--format", "csv"]) in (0, 1)
        assert capsys.readouterr().out == csv_text


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
        # the unit circle, the five curves and the origin's dot, in one flipped group
        root = ET.fromstring(svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        group, = root
        tags = [e.tag.rpartition("}")[2] for e in group]
        assert tags == ["circle"] + ["polyline"] * 5 + ["circle"]
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
        text = run_render_trace(k1=2.0)
        lines = text.splitlines()
        assert lines[0] == "t,r,theta,x,y,kg"
        assert len(lines) == 129
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # columns consistent: cartesian matches polar, all inside the disk,
        # and the traced image of a geodesic chord bends toward the origin
        assert np.max(np.abs(rows[:, 3] - np.tanh(rows[:, 1] / 2) * np.cos(rows[:, 2]))) < 1e-12
        assert np.all(np.hypot(rows[:, 3], rows[:, 4]) < 1.0)
        assert np.all(rows[:, 5] < 0.0)

    @pytest.mark.parametrize("n", [1, 3, 128, CSV_BLOCK_ROWS + 1])
    def test_curve_trace_matches_per_value_formatting(self, monkeypatch, n):
        # the rendered chord's preimage under the x-axis contraction by 1/2.5, at the trace's
        # 128 samples and, through RENDER_SAMPLES, at other sizes
        ts = np.linspace(0.0, 1.0, n)
        state = curvature.preimage_state([curvature.ChordSpec(1.8, 2.3, -0.6, 0.8)], [1.0 / 2.5],
                                         ts)
        r, theta = state["r"][0], state["theta"][0]
        xy = polar_to_cart(r, theta)
        kg = curvature_from_derivatives(r, *(state[k][0] for k in ("rp", "rpp", "thp", "thpp")))
        rows = zip(ts, r, theta, xy[:, 0], xy[:, 1], kg)
        monkeypatch.setattr(cli, "RENDER_SAMPLES", n)
        assert (csv_lines(run_render_trace(k1=2.5))
                == csv_lines(reference_csv("t,r,theta,x,y,kg", rows)))

    def test_format_selects_svg_or_trace(self, tmp_path):
        svg, trace = tmp_path / "a.svg", tmp_path / "a.csv"
        assert main(["render", "--out", str(svg)]) == 0
        assert main(["render", "--format", "csv", "--out", str(trace)]) == 0
        assert svg.read_text() == run_render()
        assert trace.read_text() == run_render_trace()

    @pytest.mark.parametrize("option", [["--seed", "7"], ["--k2", "3.5"], ["--seed", "0"],
                                        ["--seed", "3", "--k2", "1.0"]])
    def test_trace_takes_no_seed_or_k2(self, option, capsys):
        # the trace is the chord's preimage alone, which neither option changes
        assert main(["render", "--format", "csv", *option]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: render --format csv takes none of --") and err.count("\n") == 1

    def test_polyline_writes_each_coordinate_as_10g(self):
        # one '%.10g,%.10g' template per point writes what a per-value f"{v:.10g}" wrote
        rng = np.random.default_rng(10)
        points = np.vstack([[[-0.0, 1e-300], [1e300, np.nan], [np.inf, -np.inf], [0.0, -1e-5]],
                            rng.standard_normal((300, 2)) * 10.0 ** rng.integers(-8, 8, (300, 2))])
        for pts in (points, points[:1], points[:0]):
            coords = " ".join(f"{x:.10g},{y:.10g}" for x, y in pts)
            assert f'points="{coords}"' in cli._polyline(pts, "#000000")

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
        expected = csv_lines(reference_csv("i,a,b", [[i, *row] for i, row in enumerate(values)]))
        assert csv_lines(_csv_text("i,a,b", values, prefix)) == expected
        # the sweep passes its prefix as a bytes array
        assert csv_lines(_csv_text("i,a,b", values, np.array(prefix, dtype=bytes))) == expected

    @staticmethod
    def assert_formats(values, n_cols=3):
        """Both signs of values, as rows of n_cols, as Python's '%.17g' writes them."""
        values = np.concatenate([values, -np.asarray(values, dtype=float)])
        values = np.resize(values, (-(-len(values) // n_cols), n_cols))
        assert csv_lines(_csv_text("a,b,c", values)) == csv_lines(reference_csv("a,b,c", values))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))),
        st.floats(width=64), st.floats(1e-23, 1e18)), min_size=1, max_size=60))
    def test_every_bit_pattern(self, values):
        # any double: nan, infinities, zeros and subnormals go through Python's '%.17g', and
        # the kernel's range [1e-22, 1e17), the double-double powers below 1e-6 included, is
        # drawn densely on its own
        self.assert_formats(values)

    def test_every_decade_below_1e_minus_6(self):
        # 10^-22 <= |x| < 10^-6, where 10^(16 - k) is the double-double float(10^p) + remainder
        rng = np.random.default_rng(22)
        self.assert_formats((rng.uniform(1.0, 10.0, (16, 400))
                             * 10.0 ** np.arange(-22, -6)[:, None]).ravel().tolist())

    def test_powers_of_ten_and_their_neighbours(self):
        # log10 may round across a power of ten, and 1e-6 itself has exponent -7
        powers = [float(f"1e{k}") for k in range(-30, 31)]
        self.assert_formats([x for p in powers
                             for x in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))])

    def test_exact_ties_round_half_even(self):
        # x = m / 2^(p+1) for odd m has x * 10^p = m * 5^p / 2, half an odd integer: a tie at the
        # 18th significant digit, which '%.17g' rounds to even
        ties = [1234567890123456.25, 1234567890123456.75]
        rng = np.random.default_rng(24)
        for p in range(1, 23):
            low, high = 10 ** (16 - p) * 2 ** (p + 1), min(10 ** (17 - p) * 2 ** (p + 1), 2 ** 53)
            ties += [float(m) / 2.0 ** (p + 1) for m in rng.integers(low, high, 20) | 1]
        for x in ties:
            p = 16 - Decimal(x).adjusted()
            assert (Fraction(x) * 10 ** p).denominator == 2 and 1 <= p <= 22
        self.assert_formats(ties)

    def test_exact_ties_below_1e_minus_6(self):
        # the same ties x = m / 2^(p+1) where 10^p is a double-double, 23 <= p <= 38: m * 5^p / 2
        # is in [10^16, 10^17) only for m = 3..15 at p = 23 and m = 1, 3 at p = 24
        ties = [m / 2.0 ** (p + 1) for p in range(23, 39) for m in range(1, 41, 2)
                if 10 ** 16 <= Fraction(m * 5 ** p, 2) < 10 ** 17]
        assert len(ties) == 9 and 1.7881393432617188e-07 in ties
        for x in ties:
            p = 16 - Decimal(x).adjusted()
            assert (Fraction(x) * 10 ** p).denominator == 2 and 23 <= p <= 38
        self.assert_formats(ties)

    def test_near_ties_below_1e_minus_6(self):
        # one double for each 23 <= p <= 38 whose x * 10^p is within 2^-50 of a half-integer
        # but not on one (found by lattice reduction): a sum of the products' parts in floats
        # misrounds some of them, the exact tie test does not
        near = [1.0501678632788782e-07, 1.0076000255121024e-08, 4.974148370910348e-09,
                4.974148370910348e-10, 6.83280278535067e-11, 6.83280278535067e-12,
                1.1959468262253353e-13, 8.839990188244671e-14, 8.839990188244671e-15,
                1.5396250336741378e-16, 9.162887696157053e-17, 1.0985718958397732e-18,
                8.6130941296439e-19, 1.3055059111721069e-20, 1.3055059111721069e-21,
                1.3055059111721069e-22]
        for x, p in zip(near, range(23, 39)):
            assert 16 - Decimal(x).adjusted() == p
            scaled = Fraction(x) * 10 ** p
            assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 2 ** 50)
        self.assert_formats([v for x in near for v in (x, np.nextafter(x, 0.0),
                                                       np.nextafter(x, 1.0))])

    def test_integers_past_two_to_the_53(self):
        self.assert_formats(np.random.default_rng(53).integers(2 ** 53, 10 ** 17, 3000)
                            .astype(float).tolist() + [2.0 ** 53, 1e17 - 16, 1e16 - 2])

    def test_values_that_round_up_to_the_next_power_of_ten(self):
        # each of these doubles lies below its power of ten by less than half a unit of the
        # 17th digit, so '%.17g' writes the power: the 14 doubles next to a power of ten from
        # 1e-320 to 1e308 that do.  1e-14 is in the kernel's range, whose carry to 10^17
        # hands it to Python
        carries = [1e-305, 1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70, 1e-14,
                   1e98, 1e129, 1e153, 1e220]
        for x in carries:
            assert Decimal(x).adjusted() + 1 == Decimal("%.17g" % x).adjusted()
        self.assert_formats(carries)

    def test_three_digit_exponents(self):
        rng = np.random.default_rng(100)
        self.assert_formats((rng.uniform(1.0, 10.0, 300)
                             * 10.0 ** rng.choice([100, 101, 200, 307, -100, -200, -307], 300))
                            .tolist() + [np.finfo(float).max, np.finfo(float).tiny, 5e-324])


class TestParsing:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["no-such-command"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify-theorem", "--k1", "13", "--trials", "200"],
        ["search-counterexample", "--k1", "0.5", "--k2", "40", "--trials", "3"],
        ["render", "--k1", "40"],
    ])
    def test_a_factor_past_the_poincare_chart_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: factors k1=") and captured.err.count("\n") == 1

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
        ["verify-theorem", "--tol", "nan"],
        ["verify-theorem", "--tol", "inf"],
        ["verify-theorem", "--tol", "0"],
        ["search-counterexample", "--tol", "nan"],
        ["search-counterexample", "--tol", "-0.001"],
        ["curvature-sweep", "--tol", "inf"],
        ["curvature-sweep", "--tol=-inf"],
        ["render", "--k1", "inf"],
        ["verify-theorem", "--seed", "-1", "--trials", "2"],
        ["search-counterexample", "--seed", "-1"],
        ["sphere-conjecture", "--seed", "-1"],
        ["curvature-sweep", "--seed", "-1"],
        ["render", "--seed", "-1"],
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
        ["verify-lemmas", "--seed", "5"],
    ])
    def test_option_the_command_does_not_take_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
