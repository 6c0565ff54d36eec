"""Memory of a run follows its queued data, not its length."""

import gc
import tracemalloc
from pathlib import Path

import pytest

from d2dsim import Engine, load_scenario, parse_scenario
from d2dsim.channel import PROBE_MEMO_SIZE

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _shadowed_cell():
    """The benchmark's 40-UE shadowed cell cut to six UEs: two D2D peerings
    with CQI reports, two UEs with uplink and downlink flows, mode selection."""
    ues = [f"ue[{i}]" for i in range(6)]
    lines = ["sim.seed = 11", f'sim.nodes = "eNodeB {" ".join(ues)}"',
             "channel.shadowingStdDevDb = 8", 'eNodeB.role = "eNB"',
             "eNodeB.d2dCapable = true", 'eNodeB.amcMode = "D2D"',
             "eNodeB.d2dModeSelection = true"]
    positions = [(-310.5, 122.0), (-260.0, 180.4), (95.2, -340.7),
                 (150.8, -300.1), (380.0, 20.3), (-45.6, -390.2)]
    for ue, (x, y) in zip(ues, positions):
        lines += [f"{ue}.positionX = {x}", f"{ue}.positionY = {y}"]
    flows = []
    for src, dst in ((ues[0], ues[1]), (ues[2], ues[3])):
        lines += [f"{src}.d2dCapable = true", f'{src}.d2dPeerAddresses = "{dst}"',
                  f"{src}.enableD2DCqiReporting = true", f"{dst}.d2dCapable = true"]
        flows.append((src, dst, 500, 10))
    for ue in ues[4:]:
        flows += [(ue, "eNodeB", 300, 20), ("eNodeB", ue, 600, 20)]
    for i, (src, dst, size, period) in enumerate(flows):
        lines += [f'flow[{i}].sourceNode = "{src}"', f'flow[{i}].destAddress = "{dst}"',
                  f"flow[{i}].packetBytes = {size}", f"flow[{i}].periodTtis = {period}",
                  f"flow[{i}].startJitterTtis = {period - 1}"]
    return parse_scenario("\n".join(lines) + "\n")


def _varied_layout_cell():
    """Eight UEs with uplink flows of eight periods, no shadowing and a CQI
    report every TTI: the probes see far more interference layouts than the
    channel keeps the CQI of."""
    ues = [f"ue[{i}]" for i in range(8)]
    lines = ["sim.seed = 5", "sim.numRbs = 12", "sim.cqiReportPeriodTtis = 1",
             f'sim.nodes = "eNodeB {" ".join(ues)}"', 'eNodeB.role = "eNB"']
    for i, (ue, period) in enumerate(zip(ues, [3, 4, 5, 7, 9, 11, 13, 16])):
        lines += [f"{ue}.positionX = {-350 + 100 * i}", f"{ue}.positionY = {(-1) ** i * 40 * i}",
                  f'flow[{i}].sourceNode = "{ue}"', f'flow[{i}].destAddress = "eNodeB"',
                  f"flow[{i}].packetBytes = {60 + 25 * i}", f"flow[{i}].periodTtis = {period}"]
    return parse_scenario("\n".join(lines) + "\n")


def _retained_bytes(config, ttis):
    """Bytes that building and running ``config`` for ``ttis`` TTIs allocated
    and still holds, measured while the engine and its result are alive,
    and the engine."""
    config = config._replace(sim=config.sim._replace(tti_count=ttis))
    gc.collect()
    tracemalloc.start()
    try:
        engine = Engine(config)
        result = engine.run()  # held, like the engine, while measured
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, engine


@pytest.mark.parametrize("name", ["one_to_one.ini", "one_to_many.ini"])
def test_retained_memory_does_not_grow_with_run_length(name):
    short, _ = _retained_bytes(load_scenario(SCENARIOS / name), 1000)
    long, _ = _retained_bytes(load_scenario(SCENARIOS / name), 4000)
    assert long - short <= 16 * 1024, (short, long)


def test_shadowed_run_keeps_no_run_constant_memo():
    """With shadowing a reception's mean SINR depends on its TTI, so the
    noise-limited memo must stay empty, and the kept losses bounded."""
    config = _shadowed_cell()
    short, _ = _retained_bytes(config, 1000)
    long, engine = _retained_bytes(config, 4000)
    assert long - short <= 16 * 1024, (short, long)
    channel = engine.channel
    assert channel._noise_limited == {}
    assert channel._probes == {}
    assert len(channel._pinned) <= 2
    num_nodes = len(channel.positions)
    assert len(channel._path_loss) <= num_nodes * (num_nodes - 1)  # one per ordered pair
    assert engine.counters["mode_switch_count"] > 0  # mode selection acted


def test_probe_memo_is_bounded_without_shadowing():
    """Without shadowing a probe's CQI is memoised by interference layout;
    the memo holds the last PROBE_MEMO_SIZE layouts, however many the run sees."""
    config = _varied_layout_cell()
    short, _ = _retained_bytes(config, 1000)
    long, engine = _retained_bytes(config, 4000)
    assert long - short <= 16 * 1024, (short, long)
    assert len(engine.channel._probes) == PROBE_MEMO_SIZE  # full: the bound holds it
