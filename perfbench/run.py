"""Benchmark of the hypexpand verification harness.

    python3 perfbench/run.py --workload expansion --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload is one closed-loop client that waits for each report before it
asks for the next, in a single-threaded process of its own (worker.py) with
BLAS pinned to one thread and HYPEXPAND_THREADS unset.  It builds nothing: it
imports hypexpand from src/ of the checkout it sits in.

--trace 0 measures the end-to-end metrics: the timed loop runs in one
process, and set-up is measured in SETUPS processes in all (the loop's own and
the extra ones before it).  --trace 1 measures per-layer metrics in a
separate process that runs each op untraced and traced.  Every metric is
printed by name with its unit; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import POOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("expansion", "contraction", "sphere", "analysis")
SETUPS = 5
END_TO_END = (("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# op_ms_p90 is printed only where a run holds enough ops for ten samples beyond it
P90_MIN_OPS = 100
# About the median host-probe time (worker.host_probe) between ops on a 2-vCPU
# x86 VM.  Op times are scaled to this host speed: the shared host's speed
# drifts by 20-50% between runs, far more than the bounds, and the probe
# drifts with it.
PROBE_REF_S = {"expansion": 0.010, "contraction": 0.020, "sphere": 0.010, "analysis": 0.010}


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, mode, timeout):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("HYPEXPAND_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--t0", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker ran past {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds):
    setups = [worker(workload, seed, 0, "loop", 120) for _ in range(SETUPS - 1)]
    run = worker(workload, seed, seconds, "loop", seconds + 120)
    setups.append(run)
    op_ms, probe_s = [s * 1000.0 for s in run["op_s"]], run["probe_s"]
    # each op against the mean of the probes just before and just after it
    scaled_ms = [ms * PROBE_REF_S[workload] * 2 / (before + after)
                 for ms, before, after in zip(op_ms, probe_s, probe_s[1:])]
    # every pool op weighs the same, however often the loop got to repeat it
    per_op = {}
    for j, ms in enumerate(scaled_ms):
        per_op.setdefault(j % POOL[workload], []).append(ms)
    pool_ms = [statistics.median(v) for v in per_op.values()]
    metrics = {
        "ops_per_s": 1000.0 * len(pool_ms) / sum(pool_ms),
        "op_ms_p50": statistics.median(pool_ms),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["setup_rss_mb"] for s in setups),
    }
    info = {"timed_ops": len(op_ms), "unscaled_ops_per_s": len(op_ms) / sum(op_ms) * 1000.0,
            "unscaled_op_ms_p50": statistics.median(op_ms),
            "probe_ms_p50": statistics.median(probe_s) * 1000.0,
            "setup_s_samples": [s["setup_s"] for s in setups],
            "loop_peak_rss_mb": run["loop_rss_mb"],
            "fail_frac": run["failed"] / run["attempted"]}
    if len(op_ms) >= P90_MIN_OPS:
        info["op_ms_p90"] = statistics.quantiles(scaled_ms, n=10)[8]
    units = dict(END_TO_END)
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, info


def per_layer(workload, seed, seconds):
    run = worker(workload, seed, seconds, "trace", seconds + 150)
    info = {"blocks": run["blocks"], "block_ops": run["block_ops"],
            "top_self_s_per_op": run["top_self_s"],
            "mismatched_ops": run["mismatched_ops"],
            "repeatable_counts": run["repeatable_counts"]}
    return run, run["metrics"], info


def report(workload, run, metrics, info, trace):
    for name, m in metrics.items():
        print(f"{workload:<12} {name:<50} {m['value']:.6g} {m['unit']}")
    print(f"{workload:<12} attempted {run['attempted']} failed {run['failed']}"
          f" (raised {run['raised']}; {run['runs']} op runs)")
    for reason in run["reasons"]:
        print(f"{workload:<12}   {reason}")
    for key, value in info.items():
        print(f"{workload:<12} {key}: {json.dumps(value)}")
    print(f"{workload:<12} env: {json.dumps(run['env'], sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    doc = {"workload": workload, "trace": trace, "metrics": metrics, "info": info,
           "correct": run["correct"], "attempted": run["attempted"],
           "failed": run["failed"], "reasons": run["reasons"], "env": run["env"]}
    (OUT / f"{workload}.trace{trace}.json").write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="hypexpand benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hypexpand" / "cli.py").is_file():
        print(f"error: no hypexpand sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            run, wl_metrics, info = measure(name, args.seed, args.seconds)
            report(name, run, wl_metrics, info, args.trace)
            correct &= run["correct"]
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
