"""Digest every report the benchmark pools and the CLI defaults produce.

    python tools/report_digests.py --seeds 1 104729 > digests.txt
    python tools/report_digests.py --seeds 1 104729 --against digests.txt

Prints one line per artifact: workload, seed, op, artifact name and the
sha256 of its text.  The ops are pool ops 0..POOL of the four benchmark
workloads (perfbench/workloads.py), then the default verify-theorem,
search-counterexample, replay, sphere-conjecture and render outputs under the
workload name "cli".  A search witness is written to, and replayed from, the
same path on every run, since the replay report records it.  With --against
FILE, a previous output made with the same seeds, the lines that differ
from FILE or are missing are printed, and the exit code is 1 if there are
any.  hypexpand is imported from src/ of the checkout the script sits in, so
a copy of the script in another checkout digests that checkout's reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hypexpand import cli  # noqa: E402
from workloads import POOL, WORKLOADS, op_params, run_op  # noqa: E402

# the witness path is part of the replay report, so it must not vary
WORKDIR = os.path.join(tempfile.gettempdir(), "hypexpand-report-digests")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def default_outputs(workdir):
    """The CLI's default reports, as {artifact name: text}."""
    path = os.path.join(workdir, "witness.json")
    search = cli._dumps(cli.run_search_counterexample())
    with open(path, "w") as fh:
        fh.write(search)
    return {
        "theorem.json": cli._dumps(cli.run_verify_theorem()),
        "search.json": search,
        "replay.json": cli._dumps(cli.run_replay(path)) if json.loads(search)["found"] else "",
        "sphere.json": cli._dumps(cli.run_sphere_conjecture()),
        "render.svg": cli.run_render(),
        "render.csv": cli.run_render_trace(),
    }


def digest_lines(seeds):
    os.makedirs(WORKDIR, exist_ok=True)
    for seed in seeds:
        for workload in WORKLOADS:
            for i in range(POOL[workload] + 1):
                outputs = run_op(cli, workload, op_params(workload, seed, i), WORKDIR)
                for name in sorted(outputs):
                    yield f"{workload} {seed} {i} {name} {_sha(outputs[name])}"
    for name, text in sorted(default_outputs(WORKDIR).items()):
        yield f"cli - - {name} {_sha(text)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 104729])
    parser.add_argument("--against", type=str, default=None,
                        help="a previous output of this script to diff against")
    args = parser.parse_args(argv)
    lines = digest_lines(args.seeds)
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    expected = {}
    for line in Path(args.against).read_text().splitlines():
        key, _, sha = line.rpartition(" ")
        expected[key] = sha
    differ = 0
    for line in lines:
        key, _, sha = line.rpartition(" ")
        if expected.pop(key, None) != sha:
            differ += 1
            print(f"differs: {line}")
    for key in expected:
        differ += 1
        print(f"missing: {key}")
    print(f"{differ} artifact(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
