"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` patches d2dsim functions and methods by name; a
refactor that renames or stops calling one of them would silently zero
a per-layer metric.  This runs the traced benchmark's path on
cell_40ue_shadowed seed 42 instance 0 (300 TTIs, two mode-selection
rounds) and on mixed_7ue seed 42 instance 0 in one fresh interpreter,
where patching cannot leak into other tests.  Both runs' counts are
pinned, so a fast path that skips or adds a wrapped call fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import d2dsim
from tracer import Tracer
from workloads import scenario_text

texts = {w: scenario_text(w, 42, 0) for w in ("cell_40ue_shadowed", "mixed_7ue")}
plain = {w: d2dsim.Engine(d2dsim.parse_scenario(t)).run().metrics_csv()
         for w, t in texts.items()}
tracer = Tracer()
tracer.install()
report = {}
for w, text in texts.items():
    tracer.spans.clear()
    tracer.counts.clear()
    traced = d2dsim.Engine(d2dsim.parse_scenario(text)).run().metrics_csv()
    report[w] = {"same": traced == plain[w], "values": tracer.layers()[0]}
print(json.dumps(report))
"""

# mixed_7ue instance 0's counts along the grant path, one wrapped call per step
MIXED_7UE_COUNTS = {
    "engine.schedule_event.calls": 18021, "mac.grants": 6510, "rlc.fill.calls": 6510,
    "rlc.fragments": 4542, "binder.record_allocation.calls": 6507,
    "phy.receive.calls": 6502, "harq.feedback.calls": 5000, "rlc.assembler_add.calls": 6815,
}


def test_traced_run_matches_and_counts_every_layer():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert all(run["same"] for run in report.values())
    values = report["cell_40ue_shadowed"]["values"]
    for name in ("mode_selection.rounds", "channel.wideband_cqi.calls", "mac.requests",
                 "mac.grants", "harq.feedback.calls", "harq.retransmits", "harq.drops",
                 "phy.send.calls", "phy.receive.calls", "binder.record_allocation.calls",
                 "engine.schedule_event.calls", "channel.sinr_per_rb_db.calls",
                 "channel.rbs_evaluated", "channel.shadowing_draws"):
        assert values[name] > 0, name
    # what measuring a report only when first read, and keeping a shadowed
    # loss only for a pinned report round, cost on this run
    assert values["channel.shadowing_draws"] == 6379
    assert values["channel.wideband_cqi.calls"] == 1097
    assert {name: value for name, value in report["mixed_7ue"]["values"].items()
            if name in MIXED_7UE_COUNTS} == MIXED_7UE_COUNTS
    # every probe is still made; 876 of the 900 repeat an interference layout
    # the fixed channel has measured, so only 24 fill a band's SINRs
    values = report["mixed_7ue"]["values"]
    assert values["channel.wideband_cqi.calls"] == 900
    assert values["channel.sinr_per_rb_db.calls"] == 24
