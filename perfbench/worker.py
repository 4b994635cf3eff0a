"""One workload process: set up, then a timed closed loop or a traced run.

Started by run.py, one process per run, with BLAS pinned to one thread and
HYPEXPAND_THREADS unset.  Prints one JSON line with its measurements.

    python3 perfbench/worker.py --workload expansion --seed 1 --seconds 20 \
        --mode loop --t0 <time.monotonic_ns() when the process was started>
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_stats
from workloads import POOL, TRACE_BLOCK, WORKLOADS, check, op_params, run_op

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Per-layer metrics of a traced run, per op.  "<module>.<function>.<stat>"
# reads a stat of that function's spans; the last three are derived ratios.
LAYER_METRICS = (
    "disk.geodesic_chord_points.calls",
    "disk.geodesic_chord_points.self_s",
    "disk.mobius_translate.calls",
    "disk.mobius_translate.self_s",
    "dilation.dilate_xy.self_s",
    "dilation.dilate_origin_polar.calls",
    "dilation.dilate_origin_polar.self_s",
    "convexity.random_hconvex_polygon.self_s",
    "convexity.hyperbolic_hull.self_s",
    "convexity.dilate_region.self_s",
    "convexity.convexity_defect.self_s",
    "convexity.klein_polygon_contains.calls",
    "convexity.klein_polygon_contains.self_s",
    "convexity.klein_polygon_contains.probes",
    "convexity.winding_contains.calls",
    "convexity.winding_contains.probes",
    "convexity.polyline_distance.calls",
    "convexity.polyline_distance.self_s",
    "convexity.polyline_distance.point_segment_pairs",
    "cli.measure_witness.calls",
    "sphere.great_circle_points.calls",
    "sphere.great_circle_points.self_s",
    "sphere.angular_distance.calls",
    "sphere.angular_distance.self_s",
    "sphere.tangent_frame.calls",
    "sphere.s_convexity_defect.self_s",
    "sphere.contract_polygon.self_s",
    "sphere.random_convex_spherical_polygon.self_s",
    "curvature.p_coefficients_grid.self_s",
    "curvature.side_ordering.self_s",
    "curvature.preimage_state.calls",
    "lemmas.verify_all.self_s",
    "lemmas.verify_all.span_s",
    "cli.run_curvature_sweep.self_s",
    "convexity.membership.exact_ratio",
    "cli.search.recheck_confirm_ratio",
    "trace.overhead_frac",
)


def layer_unit(metric):
    stat = metric.rpartition(".")[2]
    if stat in ("self_s", "span_s"):
        return "s/op"
    if stat in ("exact_ratio", "recheck_confirm_ratio", "overhead_frac"):
        return "1"
    return "count/op"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, ops, overhead_frac):
    """Per-op layer metrics from summed span statistics of `ops` traced ops."""
    def stat(name, key):
        return totals.get(name, {}).get(key, 0)

    exact = stat("convexity.klein_polygon_contains", "probes")
    winding = stat("convexity.winding_contains", "probes")
    derived = {
        "convexity.membership.exact_ratio": _ratio(exact, exact + winding),
        "cli.search.recheck_confirm_ratio": _ratio(
            stat("cli.run_search_counterexample", "confirmed"),
            stat("cli.measure_witness", "rechecks_4x")),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for metric in LAYER_METRICS:
        if metric in derived:
            value = derived[metric]
        else:
            name, _, key = metric.rpartition(".")
            if key in ("self_s", "span_s"):
                value = stat(name, key[:-2] + "_ns") / 1e9 / ops
            else:
                value = stat(name, key) / ops
        out[metric] = {"value": value, "unit": layer_unit(metric)}
    return out


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if there is none."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "blas_threads": _blas_threads(),
        "HYPEXPAND_THREADS": os.environ.get("HYPEXPAND_THREADS", "unset"),
        "src_lines": src_lines,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Distinct ops run, the ones that failed, and the first few reasons.

    An op is one input of the pool.  It fails if any of its runs raises,
    fails its report check, or returns other reports than its first run did;
    a failing op counts once however often a run repeats it.
    """

    def __init__(self):
        self.runs = 0
        self.first = {}
        self.failed_ops = set()
        self.raised_ops = set()
        self.reasons = []

    def add(self, op, outputs, problems, raised=False):
        self.runs += 1
        digest = None if outputs is None else hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        if self.first.setdefault(op, digest) != digest:
            problems = problems + ["reports differ from the op's first run"]
        if problems:
            self.failed_ops.add(op)
            if raised:
                self.raised_ops.add(op)
            reason = f"op {op}: {'; '.join(problems)}"
            if len(self.reasons) < 10 and reason not in self.reasons:
                self.reasons.append(reason)

    def attempt(self, cli, workload, seed, i, tmpdir):
        """Run and check op i; return (outputs or None, seconds spent in hypexpand)."""
        params = op_params(workload, seed, i)
        start = time.perf_counter()
        try:
            outputs = run_op(cli, workload, params, tmpdir)
        except Exception:
            traceback.print_exc()
            self.add(i, None, ["raised " + traceback.format_exc().strip().splitlines()[-1]],
                     raised=True)
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.add(i, outputs, check(workload, outputs))
        return outputs, elapsed

    def as_dict(self):
        return {"attempted": len(self.first), "failed": len(self.failed_ops),
                "raised": len(self.raised_ops), "runs": self.runs,
                "reasons": self.reasons}


_PROBE_X = np.array([0.3, 0.4, 0.5])
_PROBE_Z = np.array([0.0, 0.0, 1.0])


def host_probe(workload):
    """Seconds a fixed piece of work takes: the host's speed right now.

    The work is shaped like the op's cost: numpy calls on single 3-vectors in a
    Python loop, and, on contraction, whose ops spend most of their time on
    arrays far larger than the caches, a fresh array of that kind.  It does not
    touch hypexpand.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.linalg.norm(np.cross(_PROBE_X, _PROBE_Z))) + i
    if workload == "contraction":
        big = np.full(4_000_000, 1.5)
        big *= 2.0
        acc += float(big.sum())
    return time.perf_counter() - start


def timed_loop(cli, args, tmpdir):
    """Warm-up op 0, then pool ops 1..POOL cyclically, each after the previous one returns.

    The loop runs for `seconds`, and on past it until every pool op has run once.
    A host probe runs before the first op and after each op, outside its time.
    """
    tally = Tally()
    tally.attempt(cli, args.workload, args.seed, 0, tmpdir)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    setup_rss_mb = _peak_rss_mb()
    pool = POOL[args.workload]
    op_s, probe_s = [], []
    start = time.perf_counter()
    while args.seconds > 0 and (len(op_s) < pool or time.perf_counter() - start < args.seconds):
        if not probe_s:
            probe_s.append(host_probe(args.workload))
        i = len(op_s) % pool + 1
        op_s.append(tally.attempt(cli, args.workload, args.seed, i, tmpdir)[1])
        probe_s.append(host_probe(args.workload))
    loop_s = time.perf_counter() - start
    return {"setup_s": setup_s, "setup_rss_mb": setup_rss_mb, "op_s": op_s, "probe_s": probe_s,
            "loop_s": loop_s, "loop_rss_mb": _peak_rss_mb(),
            "correct": not tally.raised_ops, **tally.as_dict()}


def traced_run(cli, args, tmpdir):
    """Blocks of ops 1..K, each op run untraced and traced in alternating order.

    Every block runs the same ops, so its calls and work counts must repeat
    exactly; self time is summed over all blocks.
    """
    tally = Tally()
    tally.attempt(cli, args.workload, args.seed, 0, tmpdir)
    tracer = Tracer()
    block = TRACE_BLOCK[args.workload]
    totals, first_counts, all_spans = {}, None, []
    wall = {False: 0.0, True: 0.0}
    mismatched, repeatable = [], True
    start = time.perf_counter()
    while not all_spans or time.perf_counter() - start < args.seconds:
        for i in range(1, block + 1):
            outputs = {}
            for traced in ((False, True) if i % 2 else (True, False)):
                tracer.op = i
                if traced:
                    tracer.install()
                try:
                    outputs[traced], seconds = tally.attempt(cli, args.workload, args.seed,
                                                             i, tmpdir)
                finally:
                    tracer.uninstall()
                wall[traced] += seconds
            if outputs[False] is None or outputs[False] != outputs[True]:
                mismatched.append(i)
        spans, counts = tracer.take()
        stats = layer_stats(spans, counts)
        work = {name: {k: v for k, v in s.items() if not k.endswith("_ns")}
                for name, s in stats.items()}
        if first_counts is None:
            first_counts = work
        repeatable &= work == first_counts
        for name, s in stats.items():
            for k, v in s.items():
                totals.setdefault(name, {}).setdefault(k, 0)
                totals[name][k] += v
        all_spans.append(spans)

    n_ops = block * len(all_spans)
    write_spans(OUT / f"{args.workload}.spans.tsv.gz", all_spans)
    top = sorted(((s["self_ns"] / 1e9 / n_ops, name) for name, s in totals.items()),
                 reverse=True)[:8]
    return {"metrics": layer_metrics(totals, n_ops, wall[True] / wall[False] - 1.0),
            "top_self_s": [[name, value] for value, name in top],
            "blocks": len(all_spans), "block_ops": block,
            "mismatched_ops": sorted(set(mismatched)), "repeatable_counts": repeatable,
            "correct": not tally.raised_ops and not mismatched and repeatable,
            **tally.as_dict()}


def write_spans(path, blocks):
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("block\top\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for b, spans in enumerate(blocks):
            for idx, (name, start, end, parent, op) in enumerate(spans):
                fh.write(f"{b}\t{op}\t{idx}\t{parent}\t{name}\t{start}\t{end}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("loop", "trace"))
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hypexpand
    from hypexpand import cli
    if Path(hypexpand.__file__).resolve().parent != ROOT / "src" / "hypexpand":
        sys.exit(f"hypexpand was imported from {hypexpand.__file__}, not from this checkout")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        run = timed_loop if args.mode == "loop" else traced_run
        result = run(cli, args, tmpdir)
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
