"""Byte-identity of simulated outputs against the benchmark's goldens.

``perfbench/golden.json`` holds SHA-256 digests of the metrics, trace
and ledger CSVs of the shipped scenarios and of instance 0 of each
benchmark workload at its default seed.  A change that means to keep
every output the same must keep these digests; this file only reads
them.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from d2dsim import Engine, parse_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import scenario_text  # noqa: E402


def _digests(text: str) -> dict[str, str]:
    result = Engine(parse_scenario(text), trace=True, ledger_dump=True).run()
    return {f"{name}_sha256": hashlib.sha256(csv.encode()).hexdigest()
            for name, csv in (("metrics", result.metrics_csv()),
                              ("trace", result.trace_csv()),
                              ("ledger", result.ledger_csv()))}


@pytest.mark.parametrize("rel", sorted(GOLDEN["scenarios"]))
def test_shipped_scenario_outputs_are_byte_identical(rel):
    expected = GOLDEN["scenarios"][rel]
    assert _digests((ROOT / rel).read_text()) == expected


# mixed_7ue instance 0 at seed 42 is the criterion-1 scenario (cut to
# the workload's TTI count); cell_40ue_shadowed is the one workload
# with shadowing, HARQ drops and mode switches, and its CQI probes see
# other transmitters (no workload places overlapping grants);
# saturated_cell keeps its uplink queues growing all run.
@pytest.mark.parametrize("workload", ["mixed_7ue", "cell_40ue_shadowed",
                                      "saturated_cell"])
def test_workload_outputs_are_byte_identical(workload):
    golden = GOLDEN["workloads"][workload]
    digests = _digests(scenario_text(workload, golden["seed"], 0))
    assert digests == {"metrics_sha256": golden["metrics_sha256"][0],
                       "trace_sha256": golden["trace_sha256"],
                       "ledger_sha256": golden["ledger_sha256"]}
