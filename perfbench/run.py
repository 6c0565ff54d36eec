"""d2dsim benchmark: host speed, set-up time and memory per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixed_7ue --seed 42 --seconds 60 --trace 0

Every workload:  for w in mixed_7ue cell_40ue_shadowed saturated_cell; do
python3 perfbench/run.py --workload $w --seed 42 --seconds 60; done

BENCHMARK.json lists mixed_7ue and cell_40ue_shadowed.  saturated_cell
runs the same way but is left out there: on a shared 2-core VM the
interquartile range of its TTIs/s over ten seeds reached 22 % of the
median, too close to the 25 % bound.

Load is a closed loop with one client: one simulation at a time, each
in a fresh interpreter (child.py), so set-up time and peak RSS are
per run.  A run of the benchmark checks the shipped scenarios, then
cycles through the workload's instances, starting no simulation that
would end after ``--seconds`` (see ``end_to_end`` for the statistics).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates untraced and traced runs of instance 0 and reports the
per-layer metrics of tracer.py plus ``trace.overhead_ratio``.

Every run is checked: exact per-flow conservation, no ledger audit
violation, the same metrics digest each time an instance repeats and,
at the workload's default seed, the golden digests of golden.json.
Both shipped scenarios are also checked against their golden metrics,
trace and ledger digests, untimed.  Each check that fails counts in
``fail_ratio``.  Details of every run go to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import INSTANCES, WORKLOADS, scenario_text  # noqa: E402

SCENARIOS = ("scenarios/one_to_one.ini", "scenarios/one_to_many.ini")
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"ttis_per_s": "TTI/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Fatal(Exception):
    """This checkout cannot be benchmarked at all."""


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def child_env() -> dict[str, str]:
    """Children cache bytecode under out/, whatever the caller's setting,
    so that set-up time is that of an installed package, not a compile."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child(mode: str, text: str, *extra: str) -> dict:
    """Run one simulation in a fresh interpreter and return its report."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, *extra], input=text,
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"error": f"child ran longer than {CHILD_TIMEOUT_S} s"}
    if proc.returncode == 3:
        raise Fatal(proc.stderr.strip())
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.splitlines()[-1])


class Tally:
    """Checked runs and the problems found in them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def digest_problems(report: dict, expected: dict[str, str | None]) -> list[str]:
    """Conservation problems plus every digest that differs from ``expected``."""
    if "error" in report:
        return [report["error"]]
    problems = list(report["problems"])
    for key, want in expected.items():
        if want is not None and report.get(key) != want:
            problems.append(f"{key} {report.get(key)} != expected {want}")
    return problems


def check_scenarios(golden: dict, tally: Tally) -> None:
    """Untimed check of the shipped scenarios' metrics, trace and ledger."""
    for rel in SCENARIOS:
        try:
            text = (ROOT / rel).read_text()
        except OSError as exc:
            raise Fatal(f"cannot read {rel}: {exc}") from None
        tally.record(rel, digest_problems(child("outputs", text), golden[rel]))


def timed_runs(workload: str, seed: int, deadline: float, golden: dict | None,
               tally: Tally) -> list[dict]:
    """Cycle through the instances until the next run would overrun.

    An instance without a golden digest must repeat its first digest.
    """
    runs: list[dict] = []
    first_digest: dict[int, str] = {}
    longest = 0.0
    while not runs or time.perf_counter() + longest <= deadline:
        index = len(runs) % INSTANCES
        begun = time.perf_counter()
        report = child("timed", scenario_text(workload, seed, index))
        longest = max(longest, time.perf_counter() - begun)
        digest = report.get("metrics_sha256")
        if golden:
            want = golden["metrics_sha256"][index]
        else:
            want = first_digest.setdefault(index, digest) if digest else None
        tally.record(f"{workload} seed {seed} instance {index}",
                     digest_problems(report, {"metrics_sha256": want}))
        runs.append({"instance": index, **report})
    return runs


def traced_runs(workload: str, seed: int, deadline: float, golden: dict | None,
                tally: Tally) -> list[dict]:
    """Alternate untraced and traced runs of instance 0.

    The traced run must give the untraced run's metrics digest, and
    the first traced run's counts and trace and ledger digests, or the
    golden ones at the default seed.
    """
    text = scenario_text(workload, seed, 0)
    spans_path = OUT / f"spans_{workload}_seed{seed}.csv.gz"
    golden = golden or {}
    pairs: list[dict] = []
    longest = 0.0
    while not pairs or time.perf_counter() + longest <= deadline:
        begun = time.perf_counter()
        order = ("timed", "traced") if len(pairs) % 2 == 0 else ("traced", "timed")
        pair = {}
        for mode in order:
            extra = (["--spans", str(spans_path), f"{workload}:{seed}:0"]
                     if mode == "traced" and not pairs else [])
            pair[mode] = child(mode, text, *extra)
        longest = max(longest, time.perf_counter() - begun)

        untraced, traced = pair["timed"], pair["traced"]
        reference = pairs[0]["traced"] if pairs else traced
        tally.record(f"{workload} seed {seed} untraced", digest_problems(
            untraced, {"metrics_sha256": golden.get("metrics_sha256", [None])[0]}))
        problems = digest_problems(traced, {
            "metrics_sha256": untraced.get("metrics_sha256"),
            "trace_sha256": golden.get("trace_sha256") or reference.get("trace_sha256"),
            "ledger_sha256": golden.get("ledger_sha256") or reference.get("ledger_sha256"),
        })
        if "layers" in traced and "layers" in reference:
            changed = [name for name, unit in LAYER_METRICS.items()
                       if unit != "s" and traced["layers"][name] != reference["layers"][name]]
            if changed:
                problems.append(f"traced counts differ between runs: {changed}")
        tally.record(f"{workload} seed {seed} traced", problems)
        pairs.append(pair)
    return pairs


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(runs: list[dict]) -> tuple[dict[str, float], dict[str, dict]]:
    """(metrics, quartiles of every per-run value) over the runs that completed.

    ``ttis_per_s`` is every simulated TTI over every second spent
    simulating them; set-up time and peak RSS are medians.
    """
    ok = [run for run in runs if "error" not in run]
    if not ok:
        return {}, {}
    summary = {
        "ttis_per_s": quartiles([run["ttis"] / run["run_s"] for run in ok]),
        "setup_s": quartiles([run["setup_s"] for run in ok]),
        "peak_rss_mb": quartiles([run["peak_rss_mb"] for run in ok]),
    }
    metrics = {name: entry["median"] for name, entry in summary.items()}
    metrics["ttis_per_s"] = (sum(run["ttis"] for run in ok)
                             / sum(run["run_s"] for run in ok))
    return metrics, summary


def per_layer(pairs: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    ok = [pair for pair in pairs
          if "error" not in pair["timed"] and "error" not in pair["traced"]]
    if not ok:
        return {}, {}
    traced = [pair["traced"] for pair in ok]
    layers = {}
    for name, unit in LAYER_METRICS.items():
        series = [report["layers"][name] for report in traced]
        layers[name] = statistics.median(series) if unit == "s" else series[0]
    layers["trace.overhead_ratio"] = (
        statistics.median(report["run_s"] for report in traced)
        / statistics.median(pair["timed"]["run_s"] for pair in ok))
    shares = {layer: statistics.median(report["shares"][layer] for report in traced)
              for layer in traced[0]["shares"]}
    return layers, shares


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the simulator's source tree, which identifies the code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None, golden: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if golden is None:
        golden = load_golden()
    workload_golden = golden["workloads"][args.workload]
    if args.seed != workload_golden["seed"]:
        workload_golden = None  # other seeds are checked for conservation only

    deadline = time.perf_counter() + args.seconds
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    try:
        check_scenarios(golden["scenarios"], tally)
        if args.trace:
            runs = traced_runs(args.workload, args.seed, deadline,
                               workload_golden, tally)
            metrics, shares = per_layer(runs)
            units = {**LAYER_METRICS, "trace.overhead_ratio": "ratio"}
        else:
            runs = timed_runs(args.workload, args.seed, deadline,
                              workload_golden, tally)
            metrics, summary = end_to_end(runs)
            units = END_TO_END_UNITS
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not metrics:
        print("perfbench: no run completed; " + "; ".join(tally.failures),
              file=sys.stderr)
        return 1

    fail_ratio = tally.failed / tally.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "source_sha256": source_sha256(), "attempted": tally.attempted,
        "failed": tally.failed, "fail_ratio": fail_ratio,
        "failures": tally.failures, "runs": runs,
    }
    if args.trace:
        record["layers"], record["layer_shares"] = metrics, shares
    else:
        record["summary"] = summary
    out_path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(runs)} runs, "
          f"details in {out_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        spread = ""
        if not args.trace:
            spread = (f"  (per-run q1 {summary[name]['q1']:.6g}, "
                      f"q3 {summary[name]['q3']:.6g}, n {summary[name]['n']})")
        print(f"  {name:38s} {value:14.6g} {units[name]}{spread}")
    print(f"  {'fail_ratio':38s} {fail_ratio:14.6g} ratio  "
          f"({tally.failed} of {tally.attempted} checked runs failed)")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
