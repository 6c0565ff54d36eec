"""Random valid scenarios: runs complete, conserve, replay, and read the
same CQI whether a report is measured when taken or when first read.
Flows fire exactly when due, a group's outsiders are counted once per
packet, traced or not, and every memoised CQI probe equals a fresh one.

The generator builds scenarios that are valid by construction (parsing
validates them): 1-6 UEs, uplink, downlink, UE-to-UE, requestResponse
and multicast flows, senders in two groups, numRbs 1-6 or 50, 1-3 HARQ
processes, 0-2 retransmissions, shadowing 0-15 dB, CQI reports every
1-40 TTIs, sidelink CQI reporting and mode selection every 1-50 TTIs.

A second generator takes every ranged key of ``config.py``'s key tables
over its whole validated range, bounds included, so that a new key or a
changed bound is fuzzed without editing this file.
"""

import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d2dsim.config
from d2dsim import (ChannelModel, Direction, Engine, mean_sinr_db, parse_scenario,
                    rng_stream, serialize_scenario)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import scenario_text  # noqa: E402

GROUPS = ("224.0.0.10", "224.0.0.11")
_coordinate = st.integers(-3000, 3000).map(lambda tenths: tenths / 10)


@st.composite
def scenarios(draw):
    ues = [f"ue[{i}]" for i in range(draw(st.integers(1, 6)))]
    lines = [
        f"sim.ttiCount = {draw(st.integers(0, 120))}",
        f"sim.seed = {draw(st.integers(1, 10_000))}",
        f"sim.numRbs = {draw(st.one_of(st.integers(1, 6), st.just(50)))}",
        f"sim.harqProcesses = {draw(st.integers(1, 3))}",
        f"sim.harqMaxRetx = {draw(st.integers(0, 2))}",
        f"sim.cqiReportPeriodTtis = {draw(st.integers(1, 40))}",
        f'sim.nodes = "eNodeB {" ".join(ues)}"',
        f"channel.shadowingStdDevDb = {draw(st.integers(0, 15))}",
        'eNodeB.role = "eNB"',
        "eNodeB.d2dCapable = true",
        'eNodeB.amcMode = "D2D"',
    ]
    if draw(st.booleans()):
        lines += ["eNodeB.d2dModeSelection = true",
                  f"eNodeB.d2dModeSelectionPeriod = {draw(st.integers(1, 50))}"]
    fixed_format = []
    for ue in ues:
        lines += [f"{ue}.positionX = {draw(_coordinate)}",
                  f"{ue}.positionY = {draw(_coordinate)}",
                  f"{ue}.d2dCapable = true"]
        fixed, reporting = draw(st.sampled_from(
            [(True, False), (False, True), (True, True)]))
        if fixed:
            fixed_format.append(ue)
            lines += [f"{ue}.usePreconfiguredTxParams = true",
                      f"{ue}.d2dCqi = {draw(st.integers(1, 15))}"]
        if reporting:
            lines.append(f"{ue}.enableD2DCqiReporting = true")
        peers = draw(st.lists(st.sampled_from(ues), unique=True, max_size=3))
        peers = [peer for peer in peers if peer != ue]
        if peers:
            lines.append(f'{ue}.d2dPeerAddresses = "{" ".join(peers)}"')
    kinds = ["uplink", "downlink", "request"]
    if len(ues) > 1:
        kinds.append("ue_to_ue")
    if fixed_format:
        kinds.append("multicast")
    routes = []  # (source, destination, transport)
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "multicast":  # to one group or, from one sender, to both
            src = draw(st.sampled_from(fixed_format))
            for group in draw(st.sampled_from([GROUPS[:1], GROUPS[1:], GROUPS])):
                routes.append((src, group, "oneWay"))
        elif kind == "downlink":
            routes.append(("eNodeB", draw(st.sampled_from(ues)), "oneWay"))
        else:
            src = draw(st.sampled_from(ues))
            dst = ("eNodeB" if kind == "uplink"
                   else draw(st.sampled_from([n for n in ["eNodeB", *ues] if n != src])))
            routes.append((src, dst, "requestResponse" if kind == "request" else "oneWay"))
    for flow_id, (src, dst, transport) in enumerate(routes):
        lines += [f'flow[{flow_id}].sourceNode = "{src}"',
                  f'flow[{flow_id}].destAddress = "{dst}"',
                  f'flow[{flow_id}].transport = "{transport}"',
                  f"flow[{flow_id}].packetBytes = {draw(st.integers(1, 1500))}",
                  f"flow[{flow_id}].periodTtis = {draw(st.integers(1, 20))}",
                  f"flow[{flow_id}].startTti = {draw(st.integers(0, 10))}",
                  f"flow[{flow_id}].startJitterTtis = {draw(st.integers(0, 5))}"]
    lines.append("[multicast]")
    for address in GROUPS:
        members = draw(st.sampled_from(["ue*", "**", *ues]))
        lines.append(f'{address} = "{members}"')
    return "\n".join(lines) + "\n"


def _outputs(text):
    engine = Engine(parse_scenario(text), trace=True, ledger_dump=True)
    result = engine.run()
    return engine, result, (result.metrics_csv(), result.trace_csv(), result.ledger_csv())


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_random_valid_scenarios_conserve_and_replay(text):
    engine, result, outputs = _outputs(text)
    for flow_id, metrics in result.flow_metrics.items():
        ends = sum(metrics[name] for name in (
            "delivered_packets", "lost_harq_exhausted", "lost_mode_switch",
            "lost_filtered", "lost_decode_failed", "queued_end"))
        assert metrics["offered_packets"] == ends, flow_id
    assert result.run_metrics["rb_conservation_violations"] == 0
    # only open instances are kept: member instances one by one, the UEs
    # outside a multicast group together while no block of the packet has
    # been received; each of them is queued at the end
    assert len(engine.instances) + sum(
        outsiders for _, outsiders in engine._unsent.values()) == sum(
        metrics["queued_end"] for metrics in result.flow_metrics.values())
    assert _outputs(text)[2] == outputs


def _eager_reads_checked(engine):
    """Check every reported CQI the engine reads against the report
    measured eagerly.

    Right after each report round, while the previous TTI's ledger is
    still there, every reported link is measured from the ledger; each
    later read must return the value of the last report taken before
    the read's TTI, or 0 before the first.  Returns the list of links read.
    """
    eager: dict[tuple, dict[int, int]] = {}  # link key -> {report TTI: CQI}
    reads: list[tuple] = []
    report, link_cqi = engine._phase_cqi_report, engine._link_cqi

    def measured(link, tti):
        cfg = engine.config.nodes[link.tx_id]
        sidelink = link.direction is Direction.D2D
        power = cfg.d2d_tx_power_dbm if sidelink else cfg.ue_tx_power_dbm
        return engine.channel.wideband_cqi(link.tx_id, link.rx_id, tti=tti,
                                           tx_power_dbm=power,
                                           direction=link.direction)

    def eager_report(tti):
        report(tti)
        if tti % engine.config.sim.cqi_report_period_ttis == 0:  # taken this round
            for link in engine._links.values():
                if link.fixed_cqi is None:
                    eager.setdefault(link.key, {})[tti] = measured(link, tti)

    def checked(link, tti):
        value = link_cqi(link, tti)
        if link.fixed_cqi is None:
            taken = [when for when in eager.get(link.key, ()) if when < tti]
            assert value == (eager[link.key][max(taken)] if taken else 0), (link.key, tti)
            reads.append(link.key)
        return value

    engine._phase_cqi_report = eager_report
    engine._link_cqi = checked
    return reads


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_lazy_reports_read_the_eagerly_measured_cqi(text):
    engine = Engine(parse_scenario(text), trace=True)
    _eager_reads_checked(engine)
    checked = engine.run()
    plain = Engine(parse_scenario(text), trace=True).run()
    assert checked.metrics_csv() == plain.metrics_csv()
    assert checked.trace_csv() == plain.trace_csv()


def _shadowing_draws(monkeypatch, engine):
    draws = []
    shadowing_db = ChannelModel.shadowing_db
    monkeypatch.setattr(ChannelModel, "shadowing_db",
                        lambda self, *key: draws.append(key) or shadowing_db(self, *key))
    result = engine.run()
    monkeypatch.undo()
    return result.metrics_csv(), len(draws)


def test_lazy_reports_draw_less_shadowing_on_the_shadowed_cell(monkeypatch):
    config = parse_scenario(scenario_text("cell_40ue_shadowed", 42, 0))
    checked = Engine(config)
    reads = _eager_reads_checked(checked)
    checked_metrics = checked.run().metrics_csv()
    assert reads  # the check saw reports being read

    eager = Engine(config)  # measures every report when it is taken
    report = eager._phase_cqi_report

    def measure_now(tti):
        report(tti)
        if tti % config.sim.cqi_report_period_ttis == 0:
            for link in eager._links.values():
                eager._link_cqi(link, tti + 1)

    eager._phase_cqi_report = measure_now
    eager_metrics, eager_draws = _shadowing_draws(monkeypatch, eager)
    lazy_metrics, lazy_draws = _shadowing_draws(monkeypatch, Engine(config))
    assert lazy_metrics == eager_metrics == checked_metrics
    assert lazy_draws < eager_draws


# -- work that follows the traffic ----------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 150), st.integers(1, 10_000),
       st.lists(st.tuples(st.integers(0, 30), st.integers(0, 10), st.integers(1, 40)),
                min_size=1, max_size=4))
def test_flows_fire_at_exactly_the_ttis_their_period_names(ttis, seed, flows):
    # (start, jitter, period) per flow; all share one sender, so a TTI may fire several
    lines = [f"sim.ttiCount = {ttis}", f"sim.seed = {seed}", 'sim.nodes = "eNodeB ue[0]"',
             'eNodeB.role = "eNB"']
    for flow_id, (start, jitter, period) in enumerate(flows):
        lines += [f'flow[{flow_id}].sourceNode = "ue[0]"',
                  f'flow[{flow_id}].destAddress = "eNodeB"', f"flow[{flow_id}].packetBytes = 10",
                  f"flow[{flow_id}].startTti = {start}",
                  f"flow[{flow_id}].startJitterTtis = {jitter}",
                  f"flow[{flow_id}].periodTtis = {period}"]
    engine = Engine(parse_scenario("\n".join(lines) + "\n"))
    fired = []
    new_packet = engine._new_packet

    def recorded(flow_id, *args, **kwargs):
        fired.append((engine.now_tti, flow_id))
        return new_packet(flow_id, *args, **kwargs)

    engine._new_packet = recorded
    engine.run()
    due = []
    for flow_id, (start, jitter, period) in enumerate(flows):
        first = start + (rng_stream(seed, "jitter", flow_id).randint(0, jitter) if jitter else 0)
        due += [(t, flow_id) for t in range(ttis) if t >= first and (t - first) % period == 0]
    assert fired == sorted(due)  # by TTI, then in flow order


@st.composite
def multicast_scenarios(draw):
    """``scenarios`` plus ue[0] sending to both groups, every 1-10 TTIs, so
    that runs often end with multicast packets queued, and each group's
    members drawn again, so that most groups leave some UEs out."""
    text = draw(scenarios())
    lines = ["ue[0].usePreconfiguredTxParams = true", f"ue[0].d2dCqi = {draw(st.integers(1, 15))}"]
    for flow_id, group in zip((90, 91), GROUPS):
        lines += [f'flow[{flow_id}].sourceNode = "ue[0]"',
                  f'flow[{flow_id}].destAddress = "{group}"',
                  f"flow[{flow_id}].packetBytes = {draw(st.integers(1, 1500))}",
                  f"flow[{flow_id}].periodTtis = {draw(st.integers(1, 10))}"]
    members = st.sampled_from(["ue[0]", "ue[1]", "ue[2]", "ue[1*", "ue[*]", "**"])
    return (text.replace("[multicast]", "\n".join(lines) + "\n[multicast]")
            + "".join(f'{group} = "{draw(members)}"\n' for group in GROUPS))


@settings(max_examples=100, deadline=None)
@given(multicast_scenarios())
def test_group_outsiders_are_counted_once_per_packet_traced_or_not(text):
    config = parse_scenario(text)
    engine = Engine(config, trace=True)
    created: dict[int, tuple[int, int]] = {}  # multicast packet id -> (flow id, outsiders)
    received: set[int] = set()  # multicast packets a block of which was received
    new_packet, receive = engine._new_packet, engine._receive_multicast

    def recorded(flow_id, size_bits, src_id, dst_id, group, **kwargs):
        packet = new_packet(flow_id, size_bits, src_id, dst_id, group, **kwargs)
        if group is not None:
            outsiders = [member for _, member in
                         engine._links[src_id, Direction.D2D_MULTI, group].receivers]
            created[packet.packet_id] = (flow_id, outsiders.count(False))
        return packet

    def heard(tb, link):
        received.update(chunk.packet.packet_id for chunk in tb.chunks)
        receive(tb, link)

    engine._new_packet, engine._receive_multicast = recorded, heard
    traced = engine.run()
    assert traced.metrics_csv() == Engine(config).run().metrics_csv()
    for flow_id, metrics in traced.flow_metrics.items():
        outsiders = [(packet_id in received, count)
                     for packet_id, (flow, count) in created.items() if flow == flow_id]
        open_members = sum(packet.flow_id == flow_id for packet in engine.instances.values())
        assert metrics["lost_filtered"] == sum(count for heard, count in outsiders if heard)
        assert metrics["queued_end"] == open_members + sum(
            count for heard, count in outsiders if not heard)


def test_a_group_packet_still_in_flight_is_queued_for_its_outsiders():
    # ueBystander[0] is the one UE outside the group; the first packet is
    # granted at TTI 0, sent at TTI 1 and received at TTI 2
    config = parse_scenario((Path(__file__).resolve().parents[1] / "scenarios"
                             / "one_to_many.ini").read_text())
    for ttis, filtered, queued in ((2, 0, 4), (3, 1, 0)):
        short = config._replace(sim=config.sim._replace(tti_count=ttis))
        engine = Engine(short)
        result = engine.run()
        metrics = result.flow_metrics[0]
        assert (metrics["offered_packets"], metrics["lost_filtered"],
                metrics["queued_end"]) == (4, filtered, queued)
        assert len(engine._unsent) == (ttis == 2)
        assert Engine(short, trace=True).run().metrics_csv() == result.metrics_csv()


def _probes_checked(engine):
    """Check every CQI probe the channel answers against a fresh measurement.

    Each answer must equal the CQI of the mean of ``sinr_per_rb_db`` over
    the same ledger entries, measured afresh.  Returns one flag per probe,
    True where the memo answered it (no SINR was computed for it).
    """
    channel, answered = engine.channel, []
    probe, sinr = channel.wideband_cqi, channel.sinr_per_rb_db
    computed = []

    def counted(*args, **kwargs):
        computed.append(1)
        return sinr(*args, **kwargs)

    def checked(tx_id, rx_id, *, tti, tx_power_dbm, direction):
        before = len(computed)
        cqi = probe(tx_id, rx_id, tti=tti, tx_power_dbm=tx_power_dbm, direction=direction)
        pinned = channel._pinned.get(tti)
        band = direction.band
        entries = pinned[band] if pinned else channel.binder.band_allocations(tti - 1, band)
        fresh = ChannelModel.sinr_per_rb_db(channel, tx_id, rx_id, tti=tti,
                                            rbs=range(channel.binder.num_rbs),
                                            tx_power_dbm=tx_power_dbm, entries=entries)
        assert cqi == channel.table.sinr_to_cqi(mean_sinr_db(fresh)), (tx_id, rx_id, tti)
        answered.append(len(computed) == before)
        return cqi

    channel.wideband_cqi, channel.sinr_per_rb_db = checked, counted
    return answered


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_memoised_probes_equal_a_fresh_measurement(text):
    engine = Engine(parse_scenario(text), trace=True)
    answered = _probes_checked(engine)
    checked = engine.run()
    assert checked.trace_csv() == Engine(parse_scenario(text), trace=True).run().trace_csv()
    if engine.channel.params.shadowing_std_dev_db:
        assert not any(answered) and engine.channel._probes == {}


def test_mixed_7ue_probes_repeat_their_interference_layouts():
    engine = Engine(parse_scenario(scenario_text("mixed_7ue", 42, 0)))
    answered = _probes_checked(engine)
    engine.run()
    assert (len(answered), sum(answered)) == (900, 876)


# -- every key over its validated range ----------------------------------------

# each ranged key by scope: "sim", "channel", "flow", "node" (every UE) and
# "eNB" (the mode-selection keys), as (key, converter, (low, high, open below))
RANGED = [(scope, key, conv, bounds)
          for scope, table in (("sim", d2dsim.config._SIM_KEYS),
                               ("channel", d2dsim.config._CHANNEL_KEYS),
                               ("node", d2dsim.config._NODE_KEYS),
                               ("eNB", d2dsim.config._MODE_SELECTION_KEYS),
                               ("flow", d2dsim.config._FLOW_KEYS))
          for key, (_, conv, bounds) in table.items() if bounds is not None]
# a key with no upper bound is drawn up to low + 10**6, ttiCount only to 60
# TTIs, to keep each run short
_TTI_CAP = 60


def _ends(key: str, conv: type, bounds: tuple) -> tuple:
    """The lowest and highest value of a key's range that a run can take."""
    low, high, open_below = bounds
    if open_below:
        low = low + 1 if conv is int else math.nextafter(low, math.inf)
    if high == math.inf:
        high = low + (_TTI_CAP if key == "ttiCount" else 10**6)
    return conv(low), conv(high)


def _in_range(key: str, conv: type, bounds: tuple):
    low, high = _ends(key, conv, bounds)
    inside = st.integers(low, high) if conv is int else st.floats(low, high)
    return st.sampled_from([low, high]) | inside


def _ranged_scenario(ues: int, seed: int, values: dict) -> str:
    """A valid cell of ``ues`` UEs with every traffic kind, then one line per
    ``values[scope, key, index]``: index is a UE's or a flow's, else 0."""
    names = [f"ue[{i}]" for i in range(ues)]
    peer = names[-1]  # ue[0]'s peer, when there are two UEs or more
    flows = [("ue[0]", "eNodeB", "oneWay"), ("eNodeB", peer, "oneWay"),
             ("ue[0]", "224.0.0.10", "oneWay"), (peer, "ue[0]", "requestResponse")]
    flows = flows[:4 if ues > 1 else 3]
    lines = [f"sim.seed = {seed}",
             f'sim.nodes = "eNodeB {" ".join(names)}"',
             'eNodeB.role = "eNB"', "eNodeB.d2dCapable = true", 'eNodeB.amcMode = "D2D"',
             "eNodeB.d2dModeSelection = true",
             "ue[*].d2dCapable = true", "ue[*].enableD2DCqiReporting = true",
             "ue[0].usePreconfiguredTxParams = true", "ue[*].d2dCqi = 7"]
    if ues > 1:  # one peering each way: ue[0]'s preconfigured, the other's reported
        lines += [f'ue[0].d2dPeerAddresses = "{peer}"', f'{peer}.d2dPeerAddresses = "ue[0]"']
    for flow_id, (src, dst, transport) in enumerate(flows):
        lines += [f'flow[{flow_id}].sourceNode = "{src}"',
                  f'flow[{flow_id}].destAddress = "{dst}"',
                  f'flow[{flow_id}].transport = "{transport}"',
                  f"flow[{flow_id}].packetBytes = 100", f"flow[{flow_id}].periodTtis = 5"]
    scopes = {"sim": ["sim"], "channel": ["channel"], "eNB": ["eNodeB"], "node": names,
              "flow": [f"flow[{i}]" for i in range(len(flows))]}
    for (scope, key, index), value in values.items():
        if index < len(scopes[scope]):
            lines.append(f"{scopes[scope][index]}.{key} = {value!r}")
    lines += ["[multicast]", '224.0.0.10 = "ue*"']
    return "\n".join(lines) + "\n"


def _runs_sound(text: str) -> None:
    """It parses, replays its canonical text, conserves every packet, keeps
    the audit at 0 and formats all three CSVs."""
    config = parse_scenario(text)
    assert parse_scenario(serialize_scenario(config)) == config
    result = Engine(config, trace=True, ledger_dump=True).run()
    for flow_id, metrics in result.flow_metrics.items():
        ends = metrics["delivered_packets"] + metrics["queued_end"] + sum(
            value for name, value in metrics.items() if name.startswith("lost_"))
        assert metrics["offered_packets"] == ends, flow_id
    assert result.run_metrics["rb_conservation_violations"] == 0
    for csv in (result.metrics_csv(), result.trace_csv(), result.ledger_csv()):
        assert csv.endswith("\n")


def test_every_ranged_key_is_an_int_or_a_float():
    assert RANGED and all(conv in (int, float) for _, _, conv, _ in RANGED)


@pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
@pytest.mark.parametrize("scope, key, conv, bounds", RANGED,
                         ids=[key for _, key, _, _ in RANGED])
def test_each_ranged_key_runs_at_each_end_of_its_range(scope, key, conv, bounds, end):
    value = _ends(key, conv, bounds)[end]
    values = {("sim", "ttiCount", 0): 40}
    values.update({(scope, key, index): value for index in range(4)})
    _runs_sound(_ranged_scenario(3, -7, values))


@st.composite
def ranged_scenarios(draw):
    ues = draw(st.integers(1, 5))
    values = {(scope, key, index): draw(_in_range(key, conv, bounds))
              for scope, key, conv, bounds in RANGED
              for index in range(ues if scope in ("node", "flow") else 1)}
    return _ranged_scenario(ues, draw(st.integers(-2**63, 2**63)), values)


@settings(max_examples=250, deadline=None)
@given(ranged_scenarios())
def test_random_scenarios_over_every_ranged_key_run_sound(text):
    _runs_sound(text)
