"""Digest, dump or compare every report the benchmark pools and the CLI defaults produce.

    python tools/report_digests.py --seeds 1 104729 > digests.txt
    python tools/report_digests.py --seeds 1 104729 --against digests.txt
    python tools/report_digests.py --seeds 1 104729 --dump parent.txt
    python tools/report_digests.py --seeds 1 104729 --drift parent.txt

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

--dump FILE writes every artifact's text instead, one line each: its key (the
digest line without the sha256), a tab and the text as a JSON string.  --drift
FILE compares this checkout's artifacts with such a dump, made from another
checkout with the same seeds.  For each workload, artifact name and field
path it prints how many floats the artifacts that differ hold there, how
many of them differ, and their largest absolute and relative difference; a
JSON path writes list indices as [], a CSV path is its column name, and an
SVG's numbers share one path.  Every other difference (a string, an int, a
flag, a list length, the text between an SVG's numbers) is listed on its own
line.  The exit code is 1 if any artifact differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hypexpand import cli  # noqa: E402
from workloads import POOL, WORKLOADS, op_params, run_op  # noqa: E402

# the witness path is part of the replay report, so it must not vary
WORKDIR = os.path.join(tempfile.gettempdir(), "hypexpand-report-digests")
# a number of an SVG or CSV text, as %g, %.17g and repr write it
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


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


def artifacts(seeds):
    """(key, text) of every artifact; the key is "workload seed op name"."""
    os.makedirs(WORKDIR, exist_ok=True)
    for seed in seeds:
        for workload in WORKLOADS:
            for i in range(POOL[workload] + 1):
                outputs = run_op(cli, workload, op_params(workload, seed, i), WORKDIR)
                for name in sorted(outputs):
                    yield f"{workload} {seed} {i} {name}", outputs[name]
    for name, text in sorted(default_outputs(WORKDIR).items()):
        yield f"cli - - {name}", text


# --- drift -------------------------------------------------------------------

class Drift:
    """Float differences per (workload, artifact, path), and every other difference."""

    def __init__(self):
        self.floats = defaultdict(lambda: [0, 0, 0.0, 0.0])  # compared, differ, max abs, max rel
        self.other = []

    def number(self, group, path, old, new):
        row = self.floats[group + (path,)]
        row[0] += 1
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        row[1] += 1
        diff = abs(new - old)
        row[2] = max(row[2], diff)
        row[3] = max(row[3], diff / abs(old) if old else math.inf)

    def json(self, key, group, path, old, new):
        if isinstance(old, float) and isinstance(new, float):
            self.number(group, path, old, new)
        elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
            for k in old:
                self.json(key, group, f"{path}.{k}" if path else k, old[k], new[k])
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for a, b in zip(old, new):
                self.json(key, group, path + "[]", a, b)
        elif type(old) is not type(new) or old != new:
            self.other.append(f"{key} {path or '(document)'}: {_short(old)} -> {_short(new)}")

    def csv(self, key, group, old, new):
        old_rows, new_rows = old.splitlines(), new.splitlines()
        if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
            self.other.append(f"{key}: header or row count differs")
            return
        header = old_rows[0].split(",")
        for a, b in zip(old_rows[1:], new_rows[1:]):
            a, b = a.split(","), b.split(",")
            if len(a) != len(b):
                self.other.append(f"{key}: a row's cell count differs")
                continue
            for col, x, y in zip(header, a, b):
                try:
                    self.number(group, col, float(x), float(y))
                except ValueError:
                    if x != y:
                        self.other.append(f"{key} {col}: {x!r} -> {y!r}")

    def svg(self, key, group, old, new):
        old, new = NUMBER.split(old), NUMBER.split(new)
        if old[::2] != new[::2]:
            self.other.append(f"{key}: the text between its numbers differs")
            return
        for x, y in zip(old[1::2], new[1::2]):
            self.number(group, "numbers", float(x), float(y))

    def compare(self, key, old, new):
        workload, _, _, name = key.split(" ")
        group = (workload, name)
        if name.endswith(".json") and old and new:
            self.json(key, group, "", json.loads(old), json.loads(new))
        elif name.endswith(".csv"):
            self.csv(key, group, old, new)
        elif name.endswith(".svg"):
            self.svg(key, group, old, new)
        else:
            self.other.append(f"{key}: text differs")

    def report(self, out):
        out.write(f"{'workload':<12} {'artifact':<13} {'path':<32} {'floats':>9} "
                  f"{'differ':>7} {'max abs':>10} {'max rel':>10}\n")
        for (workload, name, path), (n, k, da, dr) in sorted(self.floats.items()):
            if k:
                out.write(f"{workload:<12} {name:<13} {path:<32} {n:>9} {k:>7} "
                          f"{da:>10.2e} {dr:>10.2e}\n")
        for line in self.other:
            out.write(f"non-float: {line}\n")


def _short(x):
    text = json.dumps(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _dump_index(path):
    """{key: byte offset of its line} of a --dump file."""
    index = {}
    with open(path, "rb") as fh:
        offset = 0
        for line in fh:
            index[line.split(b"\t", 1)[0].decode()] = offset
            offset += len(line)
    return index


def drift(seeds, path, out):
    """Compare the artifacts with the dump at path; return the number that differ."""
    index = _dump_index(path)
    result = Drift()
    differ = same = 0
    with open(path, "rb") as fh:
        for key, text in artifacts(seeds):
            if key not in index:
                result.other.append(f"{key}: missing from the dump")
                differ += 1
                continue
            fh.seek(index.pop(key))
            old = json.loads(fh.readline().split(b"\t", 1)[1])
            if old == text:
                same += 1
                continue
            differ += 1
            result.compare(key, old, text)
    result.other.extend(f"{key}: missing from this checkout" for key in index)
    differ += len(index)
    result.report(out)
    out.write(f"{differ} of {differ + same} artifact(s) differ\n")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 104729])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", type=str, default=None,
                      help="a previous output of this script to diff against")
    mode.add_argument("--dump", type=str, default=None, help="write every artifact's text here")
    mode.add_argument("--drift", type=str, default=None,
                      help="a --dump file of another checkout to measure the drift against")
    args = parser.parse_args(argv)
    if args.dump is not None:
        with open(args.dump, "w") as fh:
            for key, text in artifacts(args.seeds):
                fh.write(f"{key}\t{json.dumps(text)}\n")
        return 0
    if args.drift is not None:
        return 1 if drift(args.seeds, args.drift, sys.stdout) else 0
    lines = (f"{key} {_sha(text)}" for key, text in artifacts(args.seeds))
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
