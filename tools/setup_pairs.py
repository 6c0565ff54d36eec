"""Where set-up time goes: import, parse and engine build, parent against change.

Usage, from the root of a checkout:

    python3 tools/setup_pairs.py --parent <commit> [--pairs 30] [--seed 42] \\
        [--workload mixed_7ue ...]

The parent commit is extracted with ``git archive`` into a temporary
directory (as ``tools/bench_pairs.py`` does); the change is the working
tree.  Each run is a fresh interpreter that first imports what
``perfbench/child.py`` imports, then times ``import d2dsim``,
``parse_scenario`` and ``Engine(config)`` separately on instance 0 of the
workload at the seed.  Bytecode is cached in the temporary directory, as
``perfbench/run.py`` caches it, and each side runs once before the pairs
to fill it.  Pairs alternate which side runs first.  For each workload and
part it prints the median and quartiles in ms of each side
(``statistics.quantiles``, n=4), the change's median over the parent's, and
the pairs in which the change was faster.  The temporary directory is
removed even on error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, git, spread

PARTS = ("import", "parse", "init", "total")

# the child's imports, as perfbench/child.py makes them before d2dsim
CHILD = """
import hashlib, json, os, resource, sys, time
src = sys.argv[1]
sys.path.insert(0, src)
text = sys.stdin.read()
started = time.perf_counter()
import d2dsim
imported = time.perf_counter()
config = d2dsim.parse_scenario(text)
parsed = time.perf_counter()
d2dsim.Engine(config)
built = time.perf_counter()
if not d2dsim.__file__.startswith(src + os.sep):
    sys.exit(f"d2dsim imported from {d2dsim.__file__}, not {src}")
print(json.dumps({"import": imported - started, "parse": parsed - imported,
                  "init": built - parsed, "total": built - started}))
"""


def time_once(checkout: Path, text: str, env: dict[str, str]) -> dict[str, float]:
    done = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src")], input=text,
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload of BENCHMARK.json")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import scenario_text
    texts = {w: scenario_text(w, args.seed, 0) for w in workloads}
    parent_sha = git("rev-parse", args.parent).decode().strip()

    with tempfile.TemporaryDirectory(prefix="setup_pairs_") as tmp:
        parent_dir = Path(tmp) / "parent"
        extract(parent_sha, parent_dir)
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        sides = {"parent": parent_dir, "change": ROOT}
        times = {w: {side: [] for side in sides} for w in workloads}
        for workload in workloads:
            for side, checkout in sides.items():  # fills the bytecode cache
                time_once(checkout, texts[workload], env)
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    times[workload][side].append(time_once(sides[side], texts[workload], env))

    print(f"parent {parent_sha[:12]}, change: working tree; seed {args.seed}, "
          f"instance 0, {args.pairs} pairs; ms, median [q1, q3]")
    for workload in workloads:
        for part in PARTS:
            parent, change = ([run[part] * 1e3 for run in times[workload][side]]
                              for side in sides)
            p, c = spread(parent), spread(change)
            won = sum(new < old for old, new in zip(parent, change))
            print(f"{workload:20} {part:6} parent {p['median']:7.2f} "
                  f"[{p['q1']:.2f}, {p['q3']:.2f}]  change {c['median']:7.2f} "
                  f"[{c['q1']:.2f}, {c['q3']:.2f}]  x{c['median'] / p['median']:.3f}  "
                  f"faster in {won}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
