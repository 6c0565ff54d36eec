"""Count the bytecode a simulation runs: a work measure host noise cannot move.

Usage, from the root of a checkout:

    python3 tools/count_work.py [--workload mixed_7ue ...] [--seed 42] \\
        [--instances 0 1 2 3] [--src PATH]

For each instance of each benchmark workload (``perfbench/workloads.py``)
a child interpreter imports d2dsim from ``--src`` (this checkout's
``src`` by default; give another checkout's to compare), then runs
``parse_scenario`` and ``Engine(config)``, and after them ``Engine.run()``,
under ``sys.settrace`` with ``f_trace_opcodes`` set on every frame.  It
counts the opcode events (``instructions``) and the call events, one per
Python frame entered or generator resumed (``calls``), of the run, and
apart those of the set-up (``setup_instructions``, ``setup_calls``); the
import is not counted.  Each instance is printed as one JSON line with the
Python version that counted it.

The counts repeat exactly from run to run and whatever the hash seed,
but they are not time:

- work done in C counts as one instruction, or as none, so a C call such
  as ``Random.seed`` or a SHA-512 barely shows however long it takes;
- bytecode differs between CPython versions, so counts compare only
  within one version;
- wall time (``perfbench/run.py``) stays the benchmark's metric.

Only this process's own trace hook is used.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the child: counts the events of the set-up and of Engine.run() on the
# scenario text on stdin
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
text = sys.stdin.read()
import d2dsim
counts = [0, 0]

def opcode(frame, event, arg):
    if event == "opcode":
        counts[0] += 1
    return opcode

def call(frame, event, arg):
    counts[1] += 1
    frame.f_trace_opcodes = True
    return opcode

sys.settrace(call)
engine = d2dsim.Engine(d2dsim.parse_scenario(text))
sys.settrace(None)
setup, counts[:] = counts[:], [0, 0]
sys.settrace(call)
engine.run()
sys.settrace(None)
print(json.dumps({"instructions": counts[0], "calls": counts[1],
                  "setup_instructions": setup[0], "setup_calls": setup[1],
                  "python": sys.version.split()[0]}))
"""


def count(text: str, src: Path | str = ROOT / "src", env: dict | None = None) -> dict:
    """Instruction and call counts of ``Engine.run()``, and of the set-up
    before it, on scenario ``text``, in a fresh interpreter that imports
    d2dsim from ``src``."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(src)], input=text,
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=["mixed_7ue", "cell_40ue_shadowed"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--instances", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory d2dsim is imported from")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import scenario_text

    for workload in args.workload:
        for index in args.instances:
            counts = count(scenario_text(workload, args.seed, index), args.src.resolve())
            print(json.dumps({"workload": workload, "seed": args.seed, "instance": index,
                              **counts}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
