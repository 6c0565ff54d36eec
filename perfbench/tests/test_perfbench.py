"""Self-checks of the benchmark.  Run: python3 -m pytest perfbench/tests -q"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "perfbench", ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import run  # noqa: E402
from test_acceptance import _randomized_mixed_scenario  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, criterion_1_scenario, mixed_7ue  # noqa: E402


def test_mixed_7ue_at_seed_42_is_the_criterion_1_scenario():
    original = _randomized_mixed_scenario(random.Random(42))
    assert criterion_1_scenario(random.Random(42)) == original
    assert mixed_7ue(42, 0) == original


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **LAYER_METRICS, "trace.overhead_ratio": "ratio"}


def test_shipped_scenarios_match_their_golden_digests():
    tally = run.Tally()
    run.check_scenarios(run.load_golden()["scenarios"], tally)
    assert tally.attempted == 2 and tally.failures == []


def test_altered_golden_digest_fails_the_run():
    golden = run.load_golden()
    digests = golden["workloads"]["mixed_7ue"]["metrics_sha256"]
    digests[0] = "0" * 64
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(["--workload", "mixed_7ue", "--seed", "42",
                           "--seconds", "0.1", "--trace", "0"], golden=golden)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert status == 0
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == 3  # two shipped scenarios and one timed run
