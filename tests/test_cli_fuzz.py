"""Text-level fuzz of the command line: no mutated scenario crashes it.

Each example mutates one of the two shipped scenario files a few times:
a value is replaced by a token from a pool of hostile values (nan, inf,
-0, huge integers, empty strings, node and group patterns, ...), a key
from a pool (shipped or not) is assigned such a token, a line is
deleted, duplicated or truncated, or a section header is inserted.
Every subcommand then runs on the result (``run`` and ``compare-modes``
with ``--ttis 40``).  Each must exit 0, 1 or 2 with
at most one line on standard error; no exception may escape.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2dsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = [(ROOT / "scenarios" / name).read_text().splitlines()
           for name in ("one_to_one.ini", "one_to_many.ini")]
NUMBERS = ("nan", "-nan", "inf", "-inf", "1e400", "-1e400", "-0", "0", "-0.0", "1", "-1",
           "16", "0.5", "1_000", "0x10", "9" * 20, "1" + "0" * 309, "1" + "0" * 400,
           "-" + "9" * 400, "9" * 5000)
TEXTS = ('""', '" "', '"', "", "true", "false", '"eNB"', '"UE"', '"D2D"', '"oneWay"',
         '"requestResponse"', '"**"', '"*"', '"ue*"', '"ue[*]"', '"*.*"', '"[a"',
         '"ueD2DTx[0]"', '"eNodeB"', '"224.0.0.10"', '"224.0.0.99"',
         '"ueD2DTx[0] ueD2DTx[0]"', '"eNodeB ueD2D[0]"', '"NoSuchPolicy"', '"auto"')
TOKENS = st.sampled_from(NUMBERS) | st.sampled_from(TEXTS)
KEYS = ("sim.ttiCount", "sim.seed", "sim.numRbs", "sim.rbCapacityRe",
        "sim.cqiReportPeriodTtis", "sim.harqMaxRetx", "sim.harqProcesses", "sim.nodes",
        "channel.pathLossExponent", "channel.referenceLossDb",
        "channel.shadowingStdDevDb", "channel.noiseFigureDb",
        "channel.thermalNoiseDbmPerRb", "channel.minDistanceM", "eNodeB.role",
        "**.positionX", "*.ueD2DTx[0].positionY", "**.d2dCapable", "ue*.d2dPeerAddresses",
        "**.ueTxPower", "ueD2D[0].d2dTxPowerDbm", "**.enableD2DCqiReporting",
        "**.usePreconfiguredTxParams", "ue*.d2dCqi", "eNodeB.amcMode",
        "eNodeB.d2dModeSelection", "eNodeB.d2dModeSelectionType",
        "eNodeB.d2dModeSelectionPeriod", "flow[0].sourceNode", "flow[0].destAddress",
        "flow[0].packetBytes", "flow[0].periodTtis", "flow[0].startTti",
        "flow[0].transport", "flow[0].startJitterTtis", "flow[5].packetBytes",
        "224.0.0.10", "sim.mysteryKnob",
        # keys in the wrong scope: mode selection and amcMode belong to the eNB
        "ueD2DTx[0].d2dModeSelection", "ue*.d2dModeSelectionPeriod",
        "**.d2dModeSelectionType", "ueCell[0].amcMode", "**.amcMode")
HEADERS = ("[multicast]", "[general]", "[", "]", "[multicast", "[]")
COMMANDS = (["validate"], ["run", "--ttis", "40"], ["sweep-cqi"],
            ["compare-modes", "--ttis", "40"])


@st.composite
def mutated_scenarios(draw):
    lines = list(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        line = lines[at] if at < len(lines) else ""
        kind = draw(st.sampled_from(("value", "value", "value", "assign", "delete",
                                     "duplicate", "truncate", "header")))
        assignments = [i for i, text in enumerate(lines) if "=" in text]
        if kind == "value" and assignments:
            at = draw(st.sampled_from(assignments))
            lines[at] = f"{lines[at].split('=', 1)[0]}= {draw(TOKENS)}"
        elif kind == "assign":
            lines.insert(at, f"{draw(st.sampled_from(KEYS))} = {draw(TOKENS)}")
        elif kind == "delete" and at < len(lines):
            del lines[at]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif kind == "truncate" and at < len(lines):
            lines[at] = line[:draw(st.integers(0, len(line)))]
        elif kind == "header":
            lines.insert(at, draw(st.sampled_from(HEADERS)))
    return "\n".join(lines) + "\n"


def _one_to_one_with(*extra):
    return "\n".join([*SHIPPED[0], *extra]) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios())
# crash classes found before: integers too large for a float, and a
# policy name that validation let through; then two silent acceptances:
# mode selection on a UE, and an amcMode that is not a mode
@example(_one_to_one_with("sim.rbCapacityRe = 1" + "0" * 400))
@example(_one_to_one_with("flow[2].packetBytes = 1" + "0" * 400))
@example(_one_to_one_with("sim.numRbs = 1" + "0" * 400))
@example(_one_to_one_with("eNodeB.d2dModeSelection = true",
                          'eNodeB.d2dModeSelectionType = "NoSuchPolicy"'))
@example(_one_to_one_with("ueD2DTx[0].d2dModeSelection = true",
                          "ueD2DTx[0].d2dModeSelectionPeriod = 0"))
@example(_one_to_one_with('ueD2DTx[0].amcMode = "x"'))
def test_mutated_scenarios_exit_cleanly_from_every_command(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.ini"
        path.write_text(text)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command[0], str(path), *command[1:]])
            assert status in (0, 1, 2), command
            assert len(err.getvalue().splitlines()) <= 1, (command, err.getvalue())
