"""Command-line interface and sweep/compare helpers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from d2dsim import ChannelParams, CqiTable, load_scenario, path_loss_db, run_scenario
from d2dsim.cli import (SweepRequiresDeterministicChannel, compare_modes,
                        main, max_decode_distance, sweep_cqi_range)
from d2dsim.config import POSITION_LIMIT_M

TABLE = CqiTable.default()

GOOD = """
sim.ttiCount = 50
sim.nodes = "eNodeB ueTx[0] ueRx[0]"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
ueTx[0].d2dCapable = true
ueTx[0].d2dPeerAddresses = "ueRx[0]"
ueTx[0].usePreconfiguredTxParams = true
ueTx[0].d2dCqi = 7
ueTx[0].positionX = 466.0
ueRx[0].d2dCapable = true
ueRx[0].positionX = 470.0
flow[0].sourceNode = "ueTx[0]"
flow[0].destAddress = "ueRx[0]"
flow[0].packetBytes = 500
flow[0].periodTtis = 10
"""


@pytest.fixture
def good_ini(tmp_path):
    path = tmp_path / "good.ini"
    path.write_text(GOOD)
    return str(path)


def test_run_writes_metrics_file(good_ini, tmp_path):
    out = tmp_path / "metrics.csv"
    assert main(["run", good_ini, "--metrics", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scope,flow_id,metric,value"
    assert any("delivered_packets" in line for line in lines)


def test_run_writes_trace_and_ledger(good_ini, tmp_path):
    trace = tmp_path / "trace.csv"
    ledger = tmp_path / "ledger.csv"
    assert main(["run", good_ini, "--metrics", str(tmp_path / "m.csv"),
                 "--trace", str(trace), "--ledger", str(ledger)]) == 0
    assert trace.read_text().startswith("tti,event,")
    assert ledger.read_text().startswith("tti,node,")


def test_run_stdout_by_default(good_ini, capsys):
    assert main(["run", good_ini]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scope,flow_id,metric,value")


def test_run_seed_and_tti_overrides(good_ini, capsys):
    assert main(["run", good_ini, "--ttis", "100", "--seed", "9"]) == 0
    doubled = capsys.readouterr().out
    assert main(["run", good_ini]) == 0
    baseline = capsys.readouterr().out

    def offered(text):
        for line in text.splitlines():
            if "offered_packets" in line:
                return int(line.rsplit(",", 1)[1])

    assert offered(doubled) == 2 * offered(baseline)


def test_validate_good_scenario(good_ini, capsys):
    assert main(["validate", good_ini]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_reports_scenario_errors_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(GOOD + "sim.mysteryKnob = 3\n")
    assert main(["validate", str(bad)]) == 1
    assert "mysteryKnob" in capsys.readouterr().err


def test_validate_rejects_multicast_from_the_enb_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "enb_multicast.ini"
    bad.write_text(GOOD + """
flow[1].sourceNode = "eNodeB"
flow[1].destAddress = "224.0.0.1"
flow[1].packetBytes = 100
flow[1].periodTtis = 5
[multicast]
224.0.0.1 = "ue*"
""")
    assert main(["validate", str(bad)]) == 1
    assert "one-to-many flows must originate at a UE" in capsys.readouterr().err


def test_validate_reports_a_superscript_digit_in_a_group_address_with_exit_1(
        tmp_path, capsys):
    bad = tmp_path / "superscript.ini"
    one_to_many = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_many.ini"
    bad.write_text(one_to_many.read_text() + '224.0.0.\u00b2 = "ueD2D[*]"\n', encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is not a multicast address" in err


def test_validate_reports_a_non_ascii_digit_in_a_group_address_with_exit_1(
        tmp_path, capsys):
    bad = tmp_path / "arabic_indic.ini"
    one_to_many = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_many.ini"
    bad.write_text(one_to_many.read_text() + '224.0.0.3 = "ueD2D*"\n'
                   '224.0.0.\u0663 = "ueD2D*"\n', encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'224.0.0.\u0663' is not a multicast address" in err


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nowhere.ini")]) == 1
    assert "nowhere.ini" in capsys.readouterr().err


def test_sweep_outputs_monotone_columns(good_ini, capsys):
    assert main(["sweep-cqi", good_ini, "--cqis", "3,7,11,15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cqi,max_distance_m,rbs_per_packet"
    distances = [float(line.split(",")[1]) for line in lines[1:]]
    rbs = [int(line.split(",")[2]) for line in lines[1:]]
    assert distances == sorted(distances, reverse=True)
    assert rbs == sorted(rbs, reverse=True)


def test_sweep_rejects_shadowed_channel(tmp_path, capsys):
    path = tmp_path / "shadow.ini"
    path.write_text(GOOD + "channel.shadowingStdDevDb = 6.0\n")
    assert main(["sweep-cqi", str(path)]) == 2
    assert "shadowingStdDevDb" in capsys.readouterr().err


def test_max_decode_distance_matches_closed_form():
    params = ChannelParams()
    # threshold crossing: tx - (ref + 10 n log10 d) - noise = threshold
    for cqi, tx_power in ((3, 20.0), (7, 20.0), (15, 26.0)):
        threshold = TABLE.thresholds_db[cqi - 1]
        noise = params.thermal_noise_dbm_per_rb + params.noise_figure_db
        expected = 10 ** ((tx_power - noise - threshold
                           - params.reference_loss_db)
                          / (10 * params.path_loss_exponent))
        found = max_decode_distance(cqi, tx_power, params, TABLE)
        assert found == pytest.approx(expected, rel=1e-4)


def test_max_decode_distance_zero_when_unreachable():
    params = ChannelParams()
    assert max_decode_distance(15, -80.0, params, TABLE) == 0.0


def test_sweep_reports_an_unbounded_range_as_inf(tmp_path, capsys):
    # with a path loss this small every CQI decodes as far apart as two
    # nodes can be placed, so no finite range is the answer
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    path = tmp_path / "lossless.ini"
    path.write_text(shipped.read_text() + "channel.pathLossExponent = 5e-324\n"
                    "channel.referenceLossDb = 0\nchannel.thermalNoiseDbmPerRb = -200\n")
    assert main(["sweep-cqi", str(path), "--cqis", "1,7,15"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["1", "inf"], ["7", "inf"], ["15", "inf"]]
    params = ChannelParams(path_loss_exponent=5e-324, reference_loss_db=0.0,
                           thermal_noise_dbm_per_rb=-200.0)
    assert max_decode_distance(15, -50.0, params, TABLE) == math.inf


@pytest.mark.parametrize("margin_db, unbounded", [(0.01, True), (-0.01, False)])
def test_range_is_unbounded_iff_it_reaches_the_farthest_placement(margin_db, unbounded):
    # two nodes sit at most 2 * sqrt(2) * POSITION_LIMIT_M apart
    params = ChannelParams()
    farthest = 2 * math.sqrt(2) * POSITION_LIMIT_M
    noise = params.thermal_noise_dbm_per_rb + params.noise_figure_db
    tx_power = TABLE.thresholds_db[0] + path_loss_db(farthest, params) + noise + margin_db
    found = max_decode_distance(1, tx_power, params, TABLE)
    assert found == math.inf if unbounded else farthest * 0.999 < found < farthest


def test_sweep_rows_cover_requested_cqis():
    rows = sweep_cqi_range([3, 7, 11, 15], 20.0, 1000, 168,
                           ChannelParams(), TABLE)
    assert [row.cqi for row in rows] == [3, 7, 11, 15]
    assert rows[0].rbs_per_packet == 127
    assert rows[1].rbs_per_packet == 33


def test_compare_modes_pins_selection_off(good_ini):
    config = load_scenario(good_ini)
    results = compare_modes(config)
    assert set(results) == {"DM", "IM"}
    assert results["DM"].run_metrics["mode_switch_count"] == 0
    assert results["IM"].run_metrics["mode_switch_count"] == 0
    dm = results["DM"].flow_metrics[0]["mean_latency_ttis"]
    im = results["IM"].flow_metrics[0]["mean_latency_ttis"]
    assert dm < im


def test_compare_modes_command_output(good_ini, capsys):
    assert main(["compare-modes", good_ini]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mode,scope,flow_id,metric,value"
    assert any(line.startswith("DM,") for line in lines)
    assert any(line.startswith("IM,") for line in lines)


def test_compare_modes_prefixes_every_metric_row_with_its_mode(good_ini, capsys):
    expected = ["mode,scope,flow_id,metric,value"]
    for mode, result in compare_modes(load_scenario(good_ini)).items():
        rows = result.metrics_csv().splitlines()
        assert rows[0] == "scope,flow_id,metric,value"
        expected += [f"{mode},{row}" for row in rows[1:]]
    assert main(["compare-modes", good_ini]) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_missing_flow_for_sweep(good_ini, capsys):
    assert main(["sweep-cqi", good_ini, "--flow", "7"]) == 2
    assert "no flow[7]" in capsys.readouterr().err


@pytest.mark.parametrize("cqis", ["0,16", "3,16", "x", "3,,7"])
def test_sweep_rejects_bad_cqi_list_with_exit_2(good_ini, capsys, cqis):
    assert main(["sweep-cqi", good_ini, "--cqis", cqis]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --cqis")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "compare-modes"])
def test_negative_tti_override_exits_2(good_ini, capsys, command):
    assert main([command, good_ini, "--ttis", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ttiCount must be >= 0" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_run_writes_what_the_library_computes(good_ini, tmp_path, capsys):
    # each output reflects its own option, and a trace is made only when asked for
    result = run_scenario(load_scenario(good_ini), trace=True, ledger_dump=True)
    trace, ledger = tmp_path / "trace.csv", tmp_path / "ledger.csv"
    assert main(["run", good_ini, "--trace", str(trace), "--ledger", str(ledger)]) == 0
    assert capsys.readouterr().out == result.metrics_csv()
    assert trace.read_text() == result.trace_csv()
    assert ledger.read_text() == result.ledger_csv()
    assert result.trace_csv().count("\n") == 26


@pytest.mark.parametrize("command", ["run", "compare-modes"])
def test_seed_override_equals_the_file_value(tmp_path, capsys, command):
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    shadowed = shipped.read_text() + "channel.shadowingStdDevDb = 8\nsim.ttiCount = 200\n"
    default, seeded = tmp_path / "default.ini", tmp_path / "seeded.ini"
    default.write_text(shadowed)
    seeded.write_text(shadowed + "sim.seed = 9\n")
    outputs = []
    for argv in ([str(default), "--seed", "9"], [str(seeded)], [str(default)]):
        assert main([command, *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]


def test_sweep_cqi_output_of_a_shipped_scenario_is_pinned(capsys):
    # the bisection's path, not only its tolerance, fixes the printed digits
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    assert main(["sweep-cqi", str(shipped)]) == 0
    assert capsys.readouterr().out == ("cqi,max_distance_m,rbs_per_packet\n3,579.237,127\n"
                                       "7,337.730,33\n11,196.918,15\n15,111.833,9\n")


def test_valid_overrides_still_run(good_ini, capsys):
    assert main(["run", good_ini, "--ttis", "0", "--seed", "-3"]) == 0
    assert capsys.readouterr().out.startswith("scope,flow_id,metric,value")


@pytest.mark.parametrize("command", ["validate", "run", "sweep-cqi", "compare-modes"])
def test_non_utf8_scenario_exits_1_with_one_line(tmp_path, capsys, command):
    bad = tmp_path / "b.ini"
    bad.write_bytes(b"\xff\xfe")
    assert main([command, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {bad}")
    assert len(captured.err.splitlines()) == 1


def test_unwritable_output_exits_2(good_ini, tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["run", good_ini, "--metrics", str(missing / "x.csv")]) == 2
    assert main(["run", good_ini, "--metrics", str(tmp_path / "m.csv"),
                 "--trace", str(missing / "t.csv")]) == 2
    assert main(["sweep-cqi", good_ini, "--out", str(missing / "s.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for line, name in zip(err, ("x.csv", "t.csv", "s.csv")):
        assert line.startswith("error: ") and name in line


@pytest.mark.parametrize("line", [
    "channel.pathLossExponent = inf", "channel.referenceLossDb = inf",
    "channel.shadowingStdDevDb = nan", "channel.noiseFigureDb = -inf",
    "channel.thermalNoiseDbmPerRb = inf", "channel.minDistanceM = inf",
    "*.ueD2DTx[0].ueTxPower = nan", "*.ueD2DTx[0].d2dTxPower = -inf"])
@pytest.mark.parametrize("command", [["validate"], ["run", "--ttis", "40"]])
def test_non_finite_float_keys_exit_1_with_one_line(tmp_path, capsys, line, command):
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    bad = tmp_path / "bad.ini"
    bad.write_text(shipped.read_text() + line + "\n")
    assert main([command[0], str(bad), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "must be finite" in captured.err


@pytest.mark.parametrize("line", [
    "ueD2DTx[0].d2dTxPower = 5000", "ueD2DTx[0].d2dTxPower = -4000",
    "ueCell[0].ueTxPower = -4000", "ueD2DTx[0].positionX = 1e200",
    "channel.pathLossExponent = 1000", "channel.pathLossExponent = 0",
    "channel.referenceLossDb = 5000", "channel.thermalNoiseDbmPerRb = 4000",
    "channel.noiseFigureDb = -4000", "channel.minDistanceM = 0.0001",
    "sim.numRbs = 111", "sim.harqProcesses = 17",
    "sim.rbCapacityRe = 0", "sim.rbCapacityRe = 10001", "flow[2].packetBytes = 10000001",
    "ueD2DTx[0].d2dCqi = 0", "ueD2DTx[0].d2dCqi = 16",
    pytest.param("sim.rbCapacityRe = 1" + "0" * 400, id="rbCapacityRe-1e400"),
    pytest.param("flow[2].packetBytes = 1" + "0" * 400, id="packetBytes-1e400"),
    pytest.param("sim.numRbs = 1" + "0" * 400, id="numRbs-1e400")])
@pytest.mark.parametrize("command", [["validate"], ["run", "--ttis", "40"]])
def test_out_of_range_keys_exit_1_with_one_line(tmp_path, capsys, line, command):
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    bad = tmp_path / "bad.ini"
    bad.write_text(shipped.read_text() + line + "\n")
    assert main([command[0], str(bad), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert line.split(" = ")[0].split(".")[-1] in captured.err  # the key, maybe aliased
    assert "must be in" in captured.err


@pytest.mark.parametrize("lines", [
    ["sim.ttiCount = -1"], ["sim.cqiReportPeriodTtis = 0"], ["sim.harqMaxRetx = -1"],
    ["flow[2].periodTtis = 0"], ["flow[2].startTti = -1"], ["flow[2].startJitterTtis = -1"],
    ["eNodeB.d2dModeSelection = true", "eNodeB.d2dModeSelectionPeriod = 0"]],
    ids=lambda lines: lines[-1])
@pytest.mark.parametrize("command", [["validate"], ["run", "--ttis", "40"]])
def test_below_one_sided_bounds_exit_1_with_one_line(tmp_path, capsys, lines, command):
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    bad = tmp_path / "bad.ini"
    bad.write_text(shipped.read_text() + "\n".join(lines) + "\n")
    assert main([command[0], str(bad), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert lines[-1].split(" = ")[0].split(".")[-1] in captured.err
    assert "must be >=" in captured.err


@pytest.mark.parametrize("lines, message", [
    pytest.param(["ueD2DTx[0].d2dModeSelection = true", "ueD2DTx[0].d2dModeSelectionPeriod = 0"],
                 "node=ueD2DTx[0] key=d2dModeSelection d2dModeSelection applies only to the eNB",
                 id="mode-selection-on-a-ue"),
    pytest.param(['ueD2DTx[0].amcMode = "x"'], "amcMode must be auto or D2D, got 'x'",
                 id="amcMode-not-a-mode"),
    pytest.param(['ueCell[0].amcMode = "D2D"'],
                 "node=ueCell[0] key=amcMode amcMode applies only to the eNB",
                 id="amcMode-on-a-ue")])
@pytest.mark.parametrize("command", [["validate"], ["run", "--ttis", "40"]])
def test_enb_only_keys_on_a_ue_exit_1_with_one_line(tmp_path, capsys, lines, message, command):
    # mode selection and amcMode mean something only on the eNB
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    bad = tmp_path / "bad.ini"
    bad.write_text(shipped.read_text() + "\n".join(lines) + "\n")
    assert main([command[0], str(bad), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err


@pytest.mark.parametrize("lines", [
    ["ueD2DTx[0].d2dModeSelection = true"],
    ["ueD2DTx[0].d2dModeSelectionPeriod = 50", "# then a comment", "ueD2DRx[0].positionX = 10"],
    ["**.d2dModeSelection = true"]], ids=["one-key", "later-lines", "every-node"])
def test_mode_selection_on_a_ue_names_the_line(tmp_path, capsys, lines):
    # like every other per-line error, the first assignment to a UE is named
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    bad = tmp_path / "bad.ini"
    bad.write_text(shipped.read_text() + "\n".join(lines) + "\n")
    line = len(shipped.read_text().splitlines()) + 1
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: line {line}: ")
    assert "applies only to the eNB" in captured.err


_NODES = ("eNodeB", "ueD2DTx[0]", "ueD2DRx[0]", "ueCell[0]")


def _placed(*positions):
    return [f"{node}.position{axis} = {value}"
            for node, (x, y) in zip(_NODES, positions)
            for axis, value in (("X", x), ("Y", y))]


# every bounded key at an end of its range: all low, all high, and the
# strongest signal over the least noise against the weakest signal under
# the strongest interferer and the most noise
_CORNERS = {
    "low": ["sim.numRbs = 1", "sim.harqProcesses = 1",
            "channel.pathLossExponent = 5e-324", "channel.referenceLossDb = 0",
            "channel.shadowingStdDevDb = 0", "channel.noiseFigureDb = 0",
            "channel.thermalNoiseDbmPerRb = -200", "channel.minDistanceM = 0.001",
            "**.ueTxPower = -50", "**.d2dTxPower = -50",
            *_placed(*[(-1e5, -1e5)] * 4)],
    "high": ["sim.numRbs = 110", "sim.harqProcesses = 16",
             "channel.pathLossExponent = 10", "channel.referenceLossDb = 200",
             "channel.shadowingStdDevDb = 30", "channel.noiseFigureDb = 30",
             "channel.thermalNoiseDbmPerRb = 0", "channel.minDistanceM = 1e5",
             "**.ueTxPower = 50", "**.d2dTxPower = 50",
             *_placed(*[(1e5, 1e5)] * 4)],
    "strongest": ["channel.pathLossExponent = 10", "channel.referenceLossDb = 0",
                  "channel.shadowingStdDevDb = 30", "channel.noiseFigureDb = 0",
                  "channel.thermalNoiseDbmPerRb = -200", "channel.minDistanceM = 0.001",
                  "**.ueTxPower = 50", "**.d2dTxPower = 50",
                  *_placed(*[(1e5, -1e5)] * 4)],
    "near_far": ["channel.pathLossExponent = 10", "channel.referenceLossDb = 200",
                 "channel.shadowingStdDevDb = 30", "channel.noiseFigureDb = 30",
                 "channel.thermalNoiseDbmPerRb = 0", "channel.minDistanceM = 0.001",
                 "**.ueTxPower = -50", "**.d2dTxPower = -50", "ueCell[0].ueTxPower = 50",
                 *_placed((-1e5, -1e5), (1e5, 1e5), (-1e5, -1e5), (-1e5, -1e5))],
}


@pytest.mark.parametrize("corner", sorted(_CORNERS))
def test_scenarios_at_range_corners_run(tmp_path, capsys, corner):
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    path = tmp_path / "corner.ini"
    path.write_text(shipped.read_text() + "\n".join(_CORNERS[corner]) + "\n")
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--ttis", "40"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [["validate"], ["run", "--ttis", "200"]])
def test_unknown_mode_selection_policy_exits_1_with_one_line(tmp_path, capsys, command):
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "one_to_one.ini"
    bad = tmp_path / "bad.ini"
    bad.write_text(shipped.read_text() + "eNodeB.d2dModeSelection = true\n"
                   'eNodeB.d2dModeSelectionType = "NoSuchPolicy"\n')
    assert main([command[0], str(bad), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "unknown d2dModeSelectionType 'NoSuchPolicy'" in captured.err


def test_module_runs_as_a_script(tmp_path):
    # python -m d2dsim.cli is the console script without an install
    root = Path(__file__).resolve().parents[1]
    bad = tmp_path / "bad.ini"
    bad.write_text("sim.ttiCount = x\n")
    for argv, status, out, err in (
            ([str(root / "scenarios" / "one_to_one.ini")], 0,
             "ok: 4 nodes, 3 flows, 2000 TTIs\n", ""),
            ([str(bad)], 1, "", "error: line 1: invalid scenario: ConstraintViolation: "
             "key=ttiCount bad value for ttiCount: invalid literal for int() with base 10: "
             "'x'\n")):
        done = subprocess.run([sys.executable, "-m", "d2dsim.cli", "validate", *argv],
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (status, out, err)
