"""Check this interpreter's outputs against the benchmark's golden digests.

It needs only the standard library, so it runs under any CPython 3.10
or newer, with or without pytest:

    python3.12 tests/replay_check.py [golden.json]

For each shipped scenario and for instance 0 of each benchmark
workload, it hashes the metrics, trace and ledger CSVs as
``tests/test_golden.py`` does and compares them with
``perfbench/golden.json`` (or the file given), which it only reads.
It prints one line per digest that differs and exits 1 if any does,
else 0.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from d2dsim import Engine, parse_scenario  # noqa: E402
from workloads import scenario_text  # noqa: E402


def digests(text: str) -> dict[str, str]:
    result = Engine(parse_scenario(text), trace=True, ledger_dump=True).run()
    return {f"{name}_sha256": hashlib.sha256(csv.encode()).hexdigest()
            for name, csv in (("metrics", result.metrics_csv()),
                              ("trace", result.trace_csv()),
                              ("ledger", result.ledger_csv()))}


def runs(golden: dict):
    """(name, scenario text, expected digests) of every run checked."""
    for rel, expected in sorted(golden["scenarios"].items()):
        yield rel, (ROOT / rel).read_text(), expected
    for workload, entry in sorted(golden["workloads"].items()):
        yield (f"{workload}[0]", scenario_text(workload, entry["seed"], 0),
               {"metrics_sha256": entry["metrics_sha256"][0],
                "trace_sha256": entry["trace_sha256"],
                "ledger_sha256": entry["ledger_sha256"]})


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else ROOT / "perfbench" / "golden.json"
    version = sys.version.split()[0]
    differ = [f"{version}: {name}: {key} differs"
              for name, text, expected in runs(json.loads(path.read_text()))
              for key, value in digests(text).items() if value != expected[key]]
    print("\n".join(differ) or f"{version}: every digest matches")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
