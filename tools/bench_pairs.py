"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent <commit> --pairs 10 --seconds 15 \\
        --out BENCH_20.json [--workload mixed_7ue ...] [--seed 42]

The parent commit is extracted with ``git archive`` into a temporary
directory; the change is the working tree.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once from each side, one run at a time, every workload in turn within the
pair.  Odd-numbered pairs run the parent first, even-numbered pairs the
change first.  Each value kept is the one a run printed on its last line;
median and quartiles are over runs (``statistics.quantiles``, n=4), and
``change_better_pairs`` counts the pairs in which the change reads better.
Bounds and directions come from BENCHMARK.json.  Each workload's entry
also gets ``work``: the instructions and calls of instances 0-3 on each
side, of the run and of the set-up, counted once each by
``tools/count_work.py`` after the pairs, and the Python version that
counted them.  ``src_lines`` gives each side's line count of
``src/d2dsim/*.py``.  The temporary directory is removed, and any process a
run left behind is killed, even on error.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_INSTANCES = (0, 1, 2, 3)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          timeout=120).stdout


def extract(sha: str, dest: Path) -> None:
    """Write commit ``sha``'s tree into the directory ``dest`` with ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its last JSON line, or ``{"correct": False}`` if it
    printed none.  A run that times out or is interrupted is killed with
    every process it started."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(command, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=4 * seconds + 600)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        if proc.returncode is None:  # timed out or interrupted: the whole group goes
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    return report if proc.returncode == 0 and "metrics" in report else {"correct": False}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(reports: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """One workload's entry: per metric, each side's runs and how they compare."""
    pairs = len(reports["parent"])
    entry: dict = {
        "pairs": pairs,
        "failed_runs": {side: sum(not r.get("correct") for r in runs)
                        for side, runs in reports.items()},
        "correct": {side: all(r.get("correct") for r in runs)
                    for side, runs in reports.items()},
    }
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs if "metrics" in r]
                  for side, runs in reports.items()}
        if not values["parent"] or not values["change"]:
            continue
        parent, change = spread(values["parent"]), spread(values["change"])
        ratio = change["median"] / parent["median"]
        better = sum((c > p) if higher else (c < p)
                     for p, c in zip(values["parent"], values["change"]))
        entry[name] = {
            "parent": parent, "change": change, "change_to_parent_median": ratio,
            "change_better_pairs": better, "bound": metric["bound"],
            "within_bound": (ratio >= 1 - metric["bound"] if higher
                             else ratio <= 1 + metric["bound"]),
        }
    return entry


def work_counts(sides: dict[str, Path], texts: list[str]) -> dict:
    """``count_work.count`` of each scenario text with the ``src`` of each of
    the sides ``parent`` and ``change``: per side, the instructions and the
    calls of the run and of the set-up of each text, in order, and the
    change's share of the parent's instructions, of each, per text."""
    from count_work import count  # a sibling in tools/

    counted = {side: [count(text, checkout / "src") for text in texts]
               for side, checkout in sides.items()}
    entry: dict = {"python": platform.python_version()}  # every count runs this interpreter
    for side, runs in counted.items():
        entry[side] = {name: [c[name] for c in runs] for name in (
            "instructions", "calls", "setup_instructions", "setup_calls")}
    for name in ("instructions", "setup_instructions"):
        entry[f"change_to_parent_{name}"] = [
            c / p for p, c in zip(entry["parent"][name], entry["change"][name])]
    return entry


def src_lines(sides: dict[str, Path]) -> dict:
    """Lines of ``src/d2dsim/*.py`` on each side."""
    return {side: sum(len(path.read_text().splitlines())
                      for path in (checkout / "src" / "d2dsim").glob("*.py"))
            for side, checkout in sides.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True, help="e.g. BENCH_20.json")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    parent_sha = git("rev-parse", args.parent).decode().strip()
    head_sha = git("rev-parse", "HEAD").decode().strip()
    reports = {w: {"parent": [], "change": []} for w in workloads}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_dir = Path(tmp)
        extract(parent_sha, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    report = run_once(sides[side], workload, args.seed, args.seconds)
                    reports[workload][side].append(report)
                    value = report.get("metrics", {}).get("ttis_per_s", {}).get("value")
                    print(f"pair {pair} {workload} {side}: ttis_per_s {value}", flush=True)
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import scenario_text

        work = {w: work_counts(sides, [scenario_text(w, args.seed, index)
                                       for index in WORK_INSTANCES])
                for w in workloads}
        lines = src_lines(sides)

    record = {
        "description": (
            f"Parent and change, each run as `python3 perfbench/run.py --workload W "
            f"--seed {args.seed} --seconds {args.seconds:g} --trace 0` from its own tree "
            "(the parent extracted with git archive, the change's working tree), in "
            "alternating pairs (odd-numbered pairs parent first, even-numbered pairs "
            "change first), one run at a time, every workload in turn within each pair, "
            "by tools/bench_pairs.py. Each value is the metric one run printed; median and "
            "quartiles are over runs (statistics.quantiles, n=4). change_better_pairs "
            "counts the pairs in which the change reads better. work: instructions and "
            "calls of Engine.run(), and apart of parse_scenario and Engine(config), on "
            "instances "
            f"{', '.join(map(str, WORK_INSTANCES))} of each workload, counted once per side "
            "by tools/count_work.py under this interpreter. src_lines: lines of "
            "src/d2dsim/*.py on each side."),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": platform.platform(),
        "parent_git_sha": parent_sha,
        "change_git_sha": f"working tree on {head_sha}",
        "src_lines": lines,
        "workloads": {f"{w} seed {args.seed}": {
            **summarise(reports[w], benchmark["end_to_end"]), "work": work[w]}
            for w in workloads},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
