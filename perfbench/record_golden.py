"""Rewrite golden.json from the code in this checkout.

Usage, from the root of a checkout:  python3 perfbench/record_golden.py

The golden digests are the benchmark's proof that a change kept every
simulated output byte-identical.  Record them again only in a change
that means to alter simulated output, and say so in that change.
"""

import json
import sys

from run import HERE, ROOT, SCENARIOS, child
from workloads import CRITERION_1_SEED, INSTANCES, WORKLOADS, scenario_text

DIGESTS = ("metrics_sha256", "trace_sha256", "ledger_sha256")


def outputs(text: str) -> dict[str, str]:
    report = child("outputs", text)
    if report.get("error") or report["problems"]:
        sys.exit(f"cannot record a failing run: {report}")
    return {key: report[key] for key in DIGESTS}


def main() -> None:
    golden = {"scenarios": {rel: outputs((ROOT / rel).read_text())
                            for rel in SCENARIOS},
              "workloads": {}}
    for workload in WORKLOADS:
        seed = CRITERION_1_SEED
        entry = {"seed": seed, **outputs(scenario_text(workload, seed, 0))}
        entry["metrics_sha256"] = [outputs(scenario_text(workload, seed, k))[
            "metrics_sha256"] for k in range(INSTANCES)]
        golden["workloads"][workload] = entry
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
