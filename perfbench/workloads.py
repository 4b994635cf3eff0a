"""The four closed-loop workloads: op parameters, the op itself, and its report check.

An op calls the public ``hypexpand.cli.run_*`` functions and returns what a
user of the CLI would get back, as text keyed by artifact name, so a traced
op can be compared byte for byte with its untraced twin.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET

import numpy as np

WORKLOADS = ("expansion", "contraction", "sphere", "analysis")

# Op sizes.  The CLI defaults are kept except for the trial counts.
EXPANSION_TRIALS = 20
SPHERE_TRIALS = 20
CONTRACTION_K1 = (0.25, 0.97)
GOLDEN = (5**0.5 - 1) / 2

# Distinct ops of a run (ops 1..POOL).  A timed loop cycles through them and
# always runs each at least once, so which inputs a run checks, and how many of
# them fail, depends on the seed alone and not on how fast the host is.  One
# pass takes about two thirds of a 25 s run on a 2-vCPU x86 VM.
POOL = {"expansion": 128, "contraction": 24, "sphere": 112, "analysis": 36}

# Ops per block of a traced run (ops 1..block of the pool): each block takes a
# few seconds when paired.
TRACE_BLOCK = {"expansion": 8, "contraction": 2, "sphere": 6, "analysis": 3}


def op_params(workload, seed, i):
    """Parameters of op i of the pool; a pure function of (workload seed, i).

    Op 0 is the warm-up op of every process.  It is the same reference op for
    every seed (the CLI's default seed, and the smallest k1), so set-up
    time and the peak memory of one op are measured on the same input in
    every run.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if i == 0:
        return {"seed": 0, "k1": CONTRACTION_K1[0]} if workload == "contraction" else {"seed": 0}
    if not 1 <= i <= POOL[workload]:
        raise ValueError(f"op {i} is outside the pool of {POOL[workload]} ops")
    rng = np.random.default_rng([seed, i])
    params = {"seed": int(rng.integers(0, 2**31))}
    if workload == "contraction":
        # k1 sets most of the op's cost and all of its peak memory (small k1,
        # more probes outside).  A golden-ratio sequence with a per-seed offset
        # spreads every pool's k1 evenly over the range, so runs with different
        # seeds do comparable work.
        offset = np.random.default_rng(seed).uniform()
        lo, hi = CONTRACTION_K1
        params["k1"] = lo + (hi - lo) * ((offset + i * GOLDEN) % 1.0)
    return params


def _dumps(obj):
    """The CLI's JSON report format."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def run_op(cli, workload, params, tmpdir):
    """Run one op; return its outputs as {artifact name: text}."""
    seed = params["seed"]
    if workload == "expansion":
        return {"theorem.json": _dumps(cli.run_verify_theorem(seed=seed, trials=EXPANSION_TRIALS))}
    if workload == "contraction":
        search = cli.run_search_counterexample(seed=seed, k1=params["k1"])
        outputs = {"search.json": _dumps(search)}
        if search["found"]:
            path = os.path.join(tmpdir, "witness.json")
            with open(path, "w") as fh:
                fh.write(outputs["search.json"])
            outputs["replay.json"] = _dumps(cli.run_replay(path))
        return outputs
    if workload == "sphere":
        return {"sphere.json": _dumps(cli.run_sphere_conjecture(seed=seed, trials=SPHERE_TRIALS))}
    if workload == "analysis":
        sweep, csv_text = cli.run_curvature_sweep(seed=seed)
        return {"sweep.json": _dumps(sweep), "sweep.csv": csv_text,
                "lemmas.json": _dumps(cli.run_verify_lemmas()),
                "render.svg": cli.run_render(seed=seed)}
    raise ValueError(f"unknown workload {workload!r}")


def check(workload, outputs):
    """Reasons the op's reports fail their check; empty when the op passed."""
    docs = {name: json.loads(text) for name, text in outputs.items() if name.endswith(".json")}
    problems = []
    if workload == "expansion":
        if docs["theorem.json"]["passed"] is not True:
            problems.append("verify-theorem did not pass")
    elif workload == "contraction":
        search = docs["search.json"]
        if search["found"] is not True:
            problems.append("search found no witness")
        else:
            if not search["witness"]["defect_recheck_4x"] > search["threshold"]:
                problems.append("4x recheck is not above the threshold")
            if docs["replay.json"]["passed"] is not True:
                problems.append("replay differs from the stored defect by more than 1e-9")
    elif workload == "sphere":
        if docs["sphere.json"]["summary"]["symmetric"]["exceedances"] != 0:
            problems.append("symmetric contraction exceeded the defect threshold")
    elif workload == "analysis":
        sweep = docs["sweep.json"]
        if sweep["passed"] is not True:
            problems.append(f"curvature-sweep did not pass "
                            f"(max_rel_mismatch {sweep['max_rel_mismatch']:.3g})")
        if docs["lemmas.json"]["passed"] is not True:
            problems.append("verify-lemmas did not pass")
        try:
            if ET.fromstring(outputs["render.svg"]).tag != "{http://www.w3.org/2000/svg}svg":
                problems.append("render output is XML but not SVG")
        except ET.ParseError as exc:
            problems.append(f"render output does not parse: {exc}")
    return problems
