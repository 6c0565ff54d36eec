"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` patches d2dsim functions and methods by name; a
refactor that renames or stops calling one of them would silently zero
a per-layer metric.  This runs the traced benchmark's path on
cell_40ue_shadowed seed 42 instance 0 (300 TTIs, two mode-selection
rounds) in a fresh interpreter, where patching cannot leak into other
tests.
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

text = scenario_text("cell_40ue_shadowed", 42, 0)
plain = d2dsim.Engine(d2dsim.parse_scenario(text)).run().metrics_csv()
tracer = Tracer()
tracer.install()
traced = d2dsim.Engine(d2dsim.parse_scenario(text)).run().metrics_csv()
print(json.dumps({"same": traced == plain, "values": tracer.layers()[0]}))
"""


def test_traced_run_matches_and_counts_every_layer():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["same"]
    values = report["values"]
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
