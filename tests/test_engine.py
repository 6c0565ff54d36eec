"""End-to-end engine behavior on small scenarios."""

import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from d2dsim import (Binder, Direction, Engine, Mode, ModeSwitchCommand, PacketAssembler, Phase,
                    parse_scenario, run_scenario)
from d2dsim import engine as engine_module
from d2dsim.engine import InstanceStatus

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import scenario_text  # noqa: E402


def scenario(extra="", tti_count=60, flows=True, d2d_distance=4.0):
    tx_x, rx_x = 100.0, 100.0 + d2d_distance
    flow_block = """
flow[0].sourceNode = "ueTx[0]"
flow[0].destAddress = "ueRx[0]"
flow[0].packetBytes = 500
flow[0].periodTtis = 10
""" if flows else ""
    return parse_scenario(f"""
sim.ttiCount = {tti_count}
sim.nodes = "eNodeB ueTx[0] ueRx[0]"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
ueTx[0].d2dCapable = true
ueTx[0].d2dPeerAddresses = "ueRx[0]"
ueTx[0].usePreconfiguredTxParams = true
ueTx[0].d2dCqi = 7
ueTx[0].positionX = {tx_x}
ueRx[0].d2dCapable = true
ueRx[0].positionX = {rx_x}
{flow_block}{extra}
""")


def conservation_ok(result):
    for metrics in result.flow_metrics.values():
        parts = (metrics["delivered_packets"] + metrics["lost_harq_exhausted"]
                 + metrics["lost_mode_switch"] + metrics["lost_filtered"]
                 + metrics["lost_decode_failed"] + metrics["queued_end"])
        if metrics["offered_packets"] != parts:
            return False
    return True


def test_direct_hop_takes_two_ttis():
    result = run_scenario(scenario())
    metrics = result.flow_metrics[0]
    assert metrics["delivered_packets"] == 6
    assert metrics["mean_latency_ttis"] == 2
    assert metrics["max_latency_ttis"] == 2


def test_infrastructure_path_takes_five_ttis_steady_state():
    extra = """
flow[1].sourceNode = "ueRx[0]"
flow[1].destAddress = "ueTx[0]"
flow[1].packetBytes = 200
flow[1].periodTtis = 25
"""
    result = run_scenario(scenario(extra), trace=True)
    metrics = result.flow_metrics[1]
    # the very first packet waits one extra TTI for the first CQI report
    assert metrics["max_latency_ttis"] == 6
    latencies = sorted(row.tti for row in result.trace
                       if row.event == "classify" and row.src == "eNodeB")
    assert metrics["delivered_packets"] == 3
    assert metrics["mean_latency_ttis"] == pytest.approx((6 + 5 + 5) / 3)
    assert latencies  # the relay leg really went through the eNB


def test_unidirectional_peering_classification():
    extra = """
flow[1].sourceNode = "ueRx[0]"
flow[1].destAddress = "ueTx[0]"
flow[1].packetBytes = 200
flow[1].periodTtis = 25
"""
    result = run_scenario(scenario(extra), trace=True)
    directions = {(row.src, row.dst): row.direction
                  for row in result.trace if row.event == "classify"}
    assert directions[("ueTx[0]", "ueRx[0]")] == "D2D"
    assert directions[("ueRx[0]", "ueTx[0]")] == "UL"
    assert directions[("eNodeB", "ueTx[0]")] == "DL"


def test_preconfigured_cqi_suppresses_sidelink_reports():
    # reporting enabled AND preconfigured: the fixed format wins
    result = run_scenario(scenario("ueTx[0].enableD2DCqiReporting = true\n"))
    assert result.run_metrics["cqi_reports_sl"] == 0
    sl_cqis = {key for key in result.run_metrics if key.startswith("cqi_hist_sl_")}
    assert sl_cqis == {"cqi_hist_sl_7"}


def test_reported_sidelink_cqi_used_without_preconfigured():
    config = scenario()
    tx = config.node_by_name("ueTx[0]")._replace(
        use_preconfigured_tx_params=False, d2d_cqi=None,
        enable_d2d_cqi_reporting=True)
    config = config._replace(nodes=tuple(tx if n.name == "ueTx[0]" else n
                                         for n in config.nodes))
    result = run_scenario(config)
    assert result.run_metrics["cqi_reports_sl"] > 0
    # 4 m apart: the measured link is far better than CQI 7
    assert "cqi_hist_sl_15" in result.run_metrics
    assert result.flow_metrics[0]["delivered_packets"] > 0


def test_out_of_range_link_exhausts_harq():
    # 400 m is beyond what CQI 7 decodes; every attempt fails
    result = run_scenario(scenario(tti_count=40, d2d_distance=400.0))
    metrics = result.flow_metrics[0]
    assert metrics["delivered_packets"] == 0
    assert metrics["lost_harq_exhausted"] > 0
    assert conservation_ok(result)


def test_harq_transmissions_capped_at_initial_plus_max_retx():
    config = scenario(tti_count=30, d2d_distance=400.0)
    config = config._replace(flows=(config.flows[0]._replace(period_ttis=1000),))
    result = run_scenario(config, trace=True)
    transmits = [row for row in result.trace if row.event == "transmit"]
    assert len(transmits) == 1 + config.sim.harq_max_retx


def test_request_response_round_trip():
    extra = 'flow[0].transport = "requestResponse"\n'
    result = run_scenario(scenario(extra, tti_count=40), trace=True)
    metrics = result.flow_metrics[0]
    # each request spawns a response instance in the same flow
    assert metrics["offered_packets"] == 8
    assert metrics["delivered_packets"] == 8
    returns = [row for row in result.trace
               if row.event == "classify" and row.src == "ueRx[0]"]
    assert returns and all(row.direction == "UL" for row in returns)


def test_multicast_counts_every_candidate_receiver():
    config = parse_scenario("""
sim.ttiCount = 30
sim.nodes = "eNodeB ueG[0] ueG[1] ueG[2] ueOut[0]"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
*.ueG[*].d2dCapable = true
ueG[0].usePreconfiguredTxParams = true
ueG[0].d2dCqi = 7
ueG[0].positionX = 50.0
ueG[1].positionX = 60.0
ueG[2].positionX = 40.0
ueOut[0].positionX = 55.0
flow[0].sourceNode = "ueG[0]"
flow[0].destAddress = "224.0.0.10"
flow[0].packetBytes = 100
flow[0].periodTtis = 10
[multicast]
224.0.0.10 = "ueG[*]"
""")
    result = run_scenario(config)
    metrics = result.flow_metrics[0]
    assert metrics["offered_packets"] == 3 * 3  # 3 packets, 3 candidates each
    assert metrics["delivered_packets"] == 3 * 2  # two members in range
    assert metrics["lost_filtered"] == 3  # the bystander discards
    assert conservation_ok(result)


def test_group_pattern_matching_the_enb_leaves_it_out():
    # "e*" matches the eNB and both group UEs; the eNB hears no sidelink
    # and ueOut[0], matched by nothing, discards every packet
    config = parse_scenario("""
sim.ttiCount = 30
sim.nodes = "eNodeB eUe[0] eUe[1] ueOut[0]"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
**.d2dCapable = true
eUe[0].usePreconfiguredTxParams = true
eUe[0].d2dCqi = 7
eUe[0].positionX = 50.0
eUe[1].positionX = 60.0
ueOut[0].positionX = 55.0
flow[0].sourceNode = "eUe[0]"
flow[0].destAddress = "224.0.0.10"
flow[0].packetBytes = 100
flow[0].periodTtis = 10
[multicast]
224.0.0.10 = "e*"
""")
    engine = Engine(config)
    link = engine._links[1, Direction.D2D_MULTI, "224.0.0.10"]
    assert link.receivers == [(2, True), (3, False)]
    metrics = engine.run().flow_metrics[0]
    assert metrics["offered_packets"] == 3 * 2  # 3 packets, 2 candidates each
    assert metrics["delivered_packets"] == 3
    assert metrics["lost_filtered"] == 3


def test_node_ids_are_places_in_sim_nodes():
    config = parse_scenario("""
sim.ttiCount = 20
sim.nodes = "ueB[0] eNodeB ueA[0]"
eNodeB.role = "eNB"
ueB[0].positionX = 30.0
ueA[0].positionY = -40.0
flow[0].sourceNode = "ueA[0]"
flow[0].destAddress = "ueB[0]"
flow[0].packetBytes = 100
flow[0].periodTtis = 10
flow[0].transport = "requestResponse"
""")
    engine = Engine(config, trace=True)
    assert engine.names == ["ueB[0]", "eNodeB", "ueA[0]"]
    assert (engine.enb_id, engine.ue_ids) == (1, [0, 2])
    assert engine.channel.positions == [(30.0, 0.0), (0.0, 0.0), (0.0, -40.0)]
    assert [(src_id, dst_id) for _, src_id, dst_id in engine.flows] == [(2, 0)]
    assert (2, Direction.UL, 1) in engine._links and (1, Direction.DL, 0) in engine._links
    result = engine.run()
    assert {(row.src, row.dst) for row in result.trace if row.event == "transmit"} == {
        ("ueA[0]", "eNodeB"), ("eNodeB", "ueB[0]"), ("ueB[0]", "eNodeB"), ("eNodeB", "ueA[0]")}
    # each response is a packet of the request's flow and size: two requests
    # and their responses are offered, the second response arrives too late
    metrics = result.flow_metrics[0]
    assert (metrics["offered_packets"], metrics["offered_bits"]) == (4, 4 * 800)
    assert (metrics["delivered_packets"], metrics["delivered_bits"]) == (3, 3 * 800)


def test_multicast_never_uses_harq():
    config = parse_scenario("""
sim.ttiCount = 50
sim.nodes = "eNodeB ueG[0] ueG[1]"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
*.ueG[*].d2dCapable = true
ueG[0].usePreconfiguredTxParams = true
ueG[0].d2dCqi = 7
ueG[0].positionX = 30.0
ueG[1].positionX = 600.0
flow[0].sourceNode = "ueG[0]"
flow[0].destAddress = "224.0.0.10"
flow[0].packetBytes = 100
flow[0].periodTtis = 5
[multicast]
224.0.0.10 = "ueG[*]"
""")
    engine = Engine(config, trace=True)
    result = engine.run()
    assert all(key[1] is not Direction.D2D_MULTI for key in engine.pools)
    assert not [row for row in result.trace if row.event == "feedback"]
    # out of range and unprotected: the loss is a plain decode failure
    metrics = result.flow_metrics[0]
    assert metrics["lost_decode_failed"] == metrics["offered_packets"]


def test_mode_switch_flushes_committed_data():
    extra = """
eNodeB.d2dModeSelection = true
eNodeB.d2dModeSelectionPeriod = 30
ueTx[0].positionX = 5.0
ueRx[0].positionX = 9.0
flow[0].packetBytes = 2000
flow[0].periodTtis = 1
"""
    config = parse_scenario(f"""
sim.ttiCount = 60
sim.nodes = "eNodeB ueTx[0] ueRx[0]"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
ueTx[0].d2dCapable = true
ueTx[0].d2dPeerAddresses = "ueRx[0]"
ueTx[0].usePreconfiguredTxParams = true
ueTx[0].d2dCqi = 7
ueRx[0].d2dCapable = true
flow[0].sourceNode = "ueTx[0]"
flow[0].destAddress = "ueRx[0]"
flow[0].packetBytes = 500
flow[0].periodTtis = 10
{extra}
""")
    result = run_scenario(config, trace=True)
    # near the eNB the uplink reaches CQI 15 > preconfigured 7: switch to IM
    assert result.run_metrics["mode_switch_count"] >= 1
    assert result.run_metrics["mode_switch_losses"] >= 1
    assert result.flow_metrics[0]["lost_mode_switch"] >= 1
    switches = [row for row in result.trace if row.event == "modeSwitch"]
    assert switches and switches[0].direction == "IM"
    assert conservation_ok(result)


def test_conservation_holds_under_saturation():
    extra = """
flow[1].sourceNode = "ueTx[0]"
flow[1].destAddress = "eNodeB"
flow[1].packetBytes = 1500
flow[1].periodTtis = 1
flow[2].sourceNode = "eNodeB"
flow[2].destAddress = "ueRx[0]"
flow[2].packetBytes = 1500
flow[2].periodTtis = 1
"""
    result = run_scenario(scenario(extra, tti_count=80))
    assert conservation_ok(result)
    assert result.run_metrics["rb_conservation_violations"] == 0
    assert result.flow_metrics[1]["queued_end"] > 0  # genuinely saturated


def test_start_jitter_shifts_first_arrival_deterministically():
    extra = "flow[0].startJitterTtis = 5\n"
    first = run_scenario(scenario(extra), trace=True)
    second = run_scenario(scenario(extra), trace=True)
    arrivals1 = [row.tti for row in first.trace if row.event == "classify"]
    arrivals2 = [row.tti for row in second.trace if row.event == "classify"]
    assert arrivals1 == arrivals2
    assert arrivals1[0] in range(0, 6)


def test_same_seed_runs_are_byte_identical():
    config = scenario("channel.shadowingStdDevDb = 6.0\n", tti_count=100)
    assert (run_scenario(config).metrics_csv()
            == run_scenario(config).metrics_csv())


def test_seed_changes_stochastic_outcomes():
    config = scenario("channel.shadowingStdDevDb = 8.0\n", tti_count=200,
                      d2d_distance=300.0)
    other = config._replace(sim=config.sim._replace(seed=4242))
    assert (run_scenario(config).metrics_csv()
            != run_scenario(other).metrics_csv())


def test_zero_tti_run_is_empty_but_valid():
    result = run_scenario(scenario(tti_count=0))
    assert result.flow_metrics[0]["offered_packets"] == 0
    assert result.run_metrics["rbs_granted_total"] == 0
    assert result.run_metrics["rb_utilization_sl"] == 0.0


def test_every_event_fires_one_tti_after_it_is_queued():
    # one packet on a link that never decodes: grant, transmission,
    # reception and NACK each come one TTI after the step before, and
    # the retransmission is granted one TTI after the NACK
    config = scenario(tti_count=5, d2d_distance=400.0)
    config = config._replace(flows=(config.flows[0]._replace(period_ttis=1000),))
    rows = [(row.tti, row.event) for row in run_scenario(config, trace=True).trace
            if row.event != "classify"]
    assert rows == [(0, "grant"), (1, "transmit"), (2, "receive"), (3, "feedback"),
                    (4, "grant")]
    # near the eNB the round at TTI 30 moves the peering to the
    # infrastructure path, and the switch is applied at TTI 31
    config = scenario("""
eNodeB.d2dModeSelection = true
eNodeB.d2dModeSelectionPeriod = 30
""", tti_count=40)
    switches = [row.tti for row in run_scenario(config, trace=True).trace
                if row.event == "modeSwitch"]
    assert switches[0] == 31


def test_initial_mode_override_forces_infrastructure():
    result = run_scenario(scenario(), initial_mode=Mode.IM)
    metrics = result.flow_metrics[0]
    assert metrics["delivered_packets"] > 0
    assert metrics["mean_latency_ttis"] > 2  # rode the two-hop path
    assert result.run_metrics["rbs_granted_sl"] == 0


def test_metrics_csv_schema():
    lines = run_scenario(scenario()).metrics_csv().splitlines()
    assert lines[0] == "scope,flow_id,metric,value"
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    scopes = {line.split(",")[0] for line in lines[1:]}
    assert scopes == {"run", "flow"}


def test_trace_csv_schema():
    result = run_scenario(scenario(), trace=True)
    lines = result.trace_csv().splitlines()
    assert lines[0] == "tti,event,src,dst,direction,rbs,sinr_db,decoded"
    events = {line.split(",")[1] for line in lines[1:]}
    assert {"classify", "grant", "transmit", "receive", "feedback"} <= events


def test_ledger_dump_lists_allocations():
    result = run_scenario(scenario(), ledger_dump=True)
    lines = result.ledger_csv().splitlines()
    assert lines[0] == "tti,node,direction,rb_list,power_dbm"
    assert any(",SL," in line for line in lines[1:])


def test_sender_in_two_multicast_groups_serves_both():
    text = (ROOT / "scenarios" / "one_to_many.ini").read_text().replace(
        "sim.ttiCount = 2000", "sim.ttiCount = 300")
    text = text.replace("[multicast]", """
flow[1].sourceNode = "ueD2D[0]"
flow[1].destAddress = "224.0.0.20"
flow[1].packetBytes = 300
flow[1].periodTtis = 7

[multicast]
224.0.0.20 = "ueD2D[1]"
""")
    result = run_scenario(parse_scenario(text))
    assert conservation_ok(result)
    assert result.run_metrics["rb_conservation_violations"] == 0
    assert result.flow_metrics[0]["delivered_packets"] > 0
    assert result.flow_metrics[1]["delivered_packets"] > 0


def _lossy_cell():
    """12-UE shadowed cell with mode selection, one HARQ retry and multicast."""
    rng = random.Random(7)
    ues = [f"ue[{i}]" for i in range(12)]
    lines = ["sim.ttiCount = 200", "sim.seed = 3", "sim.harqMaxRetx = 1",
             f'sim.nodes = "eNodeB {" ".join(ues)}"',
             "channel.shadowingStdDevDb = 8", 'eNodeB.role = "eNB"',
             "eNodeB.d2dCapable = true", 'eNodeB.amcMode = "D2D"',
             "eNodeB.d2dModeSelection = true", "**.d2dCapable = true"]
    for ue in ues:
        lines += [f"{ue}.positionX = {rng.uniform(-400, 400):.1f}",
                  f"{ue}.positionY = {rng.uniform(-400, 400):.1f}"]
    for i in range(4):
        src, dst = ues[2 * i], ues[2 * i + 1]
        lines += [f'{src}.d2dPeerAddresses = "{dst}"',
                  f"{src}.enableD2DCqiReporting = true",
                  f'flow[{i}].sourceNode = "{src}"', f'flow[{i}].destAddress = "{dst}"',
                  f"flow[{i}].packetBytes = 1500", f"flow[{i}].periodTtis = 4"]
    lines += [f"{ues[8]}.usePreconfiguredTxParams = true", f"{ues[8]}.d2dCqi = 12",
              f'flow[4].sourceNode = "{ues[8]}"', 'flow[4].destAddress = "224.0.0.10"',
              "flow[4].packetBytes = 1500", "flow[4].periodTtis = 5",
              "[multicast]", '224.0.0.10 = "ue[*]"']
    return parse_scenario("\n".join(lines) + "\n")


def test_assemblers_drop_packets_whose_instance_closed():
    engine = Engine(_lossy_cell())
    result = engine.run()
    totals = {name: sum(m[name] for m in result.flow_metrics.values())
              for name in ("lost_harq_exhausted", "lost_mode_switch",
                           "lost_decode_failed")}
    assert result.run_metrics["mode_switch_count"] > 0
    assert all(count > 0 for count in totals.values()), totals
    assert conservation_ok(result)
    held = [(rx_id, packet_id) for rx_id, assembler in engine.assemblers.items()
            for packet_id in assembler._received_bits]
    assert held  # open packets are still being reassembled
    for rx_id, packet_id in held:  # only open instances are kept
        assert ((packet_id, None) in engine.instances
                or (packet_id, rx_id) in engine.instances), (rx_id, packet_id)


def test_a_lost_unicast_instance_is_discarded_at_the_enb_and_its_destination(monkeypatch):
    # a unicast packet's chunks wait only at the eNB or at its destination,
    # so closing a lost one touches at most those two assemblers
    discards = []
    monkeypatch.setattr(PacketAssembler, "discard",
                        lambda self, packet_id: discards.append(packet_id))
    close = Engine._close_instance
    per_loss = []

    def counting_close(self, packet_id, rx_id, status):
        lost = (rx_id is None and status is not InstanceStatus.DELIVERED
                and (packet_id, None) in self.instances)
        before = len(discards)
        close(self, packet_id, rx_id, status)
        if lost:
            per_loss.append(len(discards) - before)

    monkeypatch.setattr(Engine, "_close_instance", counting_close)
    engine = Engine(_lossy_cell())
    engine.run()
    assert len(engine.assemblers) > 2
    assert per_loss and max(per_loss) <= 2, per_loss


def test_grants_that_carry_nothing_are_not_counted():
    # at one resource element per block a grant can hold fewer than 8 bits,
    # too few for a byte of payload: it is neither sent nor counted
    config = _lossy_cell()
    config = config._replace(sim=config.sim._replace(rb_capacity_re=1))
    result = run_scenario(config, trace=True)
    grants = [row for row in result.trace if row.event == "grant"]
    hist = sum(count for name, count in result.run_metrics.items()
               if name.startswith("cqi_hist_"))
    assert result.run_metrics["rbs_granted_total"] == sum(row.rbs for row in grants)
    assert hist == len(grants)


# the shipped scenarios make no grant in their last TTI; instance 0 of each workload does
@pytest.mark.parametrize("case, unsent", [("one_to_one", 0), ("one_to_many", 0),
                                          ("mixed_7ue", 3), ("cell_40ue_shadowed", 12)])
def test_every_grant_is_sent_the_next_tti_except_the_last_ttis(case, unsent):
    path = ROOT / "scenarios" / f"{case}.ini"
    text = path.read_text() if path.exists() else scenario_text(case, 42, 0)
    config = parse_scenario(text)
    result = run_scenario(config, trace=True, ledger_dump=True)
    last = config.sim.tti_count - 1

    def rows(event, shift=0):
        return Counter((row.tti + shift, row.src, row.dst, row.direction, row.rbs)
                       for row in result.trace if row.event == event)
    grants = rows("grant", 1)
    late = Counter({row: n for row, n in grants.items() if row[0] > last})
    assert sum(late.values()) == unsent
    assert rows("transmit") == grants - late
    assert Counter((tti, node, len(rb_list.split()))
                   for tti, node, _, rb_list, _ in result.ledger_rows) == Counter(
        (tti, src, rbs) for tti, src, _, _, rbs in rows("transmit").elements())


@pytest.mark.parametrize("ack", [True, False])
def test_stale_feedback_leaves_a_reused_process_alone(ack):
    # a switch releases the process of a block in flight, and a block sent
    # after switching back takes the same process before the old feedback
    engine = Engine(scenario())
    tx, rx = engine.names.index("ueTx[0]"), engine.names.index("ueRx[0]")
    link = engine._peerings[tx, rx]

    def send(tti):
        engine.now_tti = tti
        packet = engine._new_packet(0, 800, tx, rx, None, is_request=False)
        engine._classify_and_enqueue(packet, tx)
        engine._phase_schedule(tti)
        return engine._next[Phase.TRANSMIT][-1]

    old = send(0)
    engine._apply_switch(ModeSwitchCommand(tx, rx, Mode.IM))
    engine._apply_switch(ModeSwitchCommand(tx, rx, Mode.DM))
    new = send(1)
    process = new.harq
    assert process is old.harq and process.tb is new

    engine._phase_harq_feedback(old, ack)
    assert process.busy and process.tb is new
    assert not process.awaiting_retx and link.pool.pending_retx() is None
    engine._phase_harq_feedback(new, True)
    assert not process.busy and process.tb is None


def test_nacked_link_with_empty_queue_gets_its_retransmission_next_tti():
    # one packet on a link that never decodes: after each NACK the queue
    # is empty and only the waiting HARQ process can bring the UE back
    config = scenario(tti_count=30, d2d_distance=400.0)
    config = config._replace(flows=(config.flows[0]._replace(period_ttis=1000),))
    engine = Engine(config, trace=True)
    result = engine.run()
    grants = [row for row in result.trace if row.event == "grant"]
    nacks = [row.tti for row in result.trace
             if row.event == "feedback" and not row.decoded]
    assert len(grants) == 1 + config.sim.harq_max_retx
    # each NACK but the last, which drops the packet, is served next TTI
    assert [row.tti for row in grants[1:]] == [tti + 1 for tti in nacks[:-1]]
    assert {row.rbs for row in grants} == {grants[0].rbs}
    assert not engine._active  # nothing is left to schedule


def test_idle_ue_is_scheduled_in_the_first_pass_after_data_reaches_it():
    # ueRx[0] -> ueTx[0] is not peered, so it crosses the eNB: the sender
    # idles 100 TTIs before its uplink, the receiver 103 before its downlink
    config = scenario("""
flow[0].sourceNode = "ueRx[0]"
flow[0].destAddress = "ueTx[0]"
flow[0].packetBytes = 200
flow[0].periodTtis = 150
flow[0].startTti = 100
""", tti_count=400)
    result = run_scenario(config, trace=True)
    grants = [(row.tti, row.src, row.dst, row.direction)
              for row in result.trace if row.event == "grant"]
    assert grants == [(100, "ueRx[0]", "eNodeB", "UL"), (103, "eNodeB", "ueTx[0]", "DL"),
                      (250, "ueRx[0]", "eNodeB", "UL"), (253, "eNodeB", "ueTx[0]", "DL")]
    assert result.flow_metrics[0]["delivered_packets"] == 2
    assert result.flow_metrics[0]["max_latency_ttis"] == 5


def _sidelink_grants(text):
    result = run_scenario(parse_scenario(text), trace=True)
    return [(row.tti, row.dst) for row in result.trace
            if row.event == "grant" and row.src == "ueS"]


SERVING_CELL = """
sim.ttiCount = 8
sim.nodes = "eNodeB ueS ueA ueB"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
**.d2dCapable = true
ueS.usePreconfiguredTxParams = true
ueS.d2dCqi = 7
ueA.positionX = 4.0
ueB.positionX = 400.0
"""


def test_a_peer_awaiting_retransmission_is_served_before_new_data():
    # ueB (id 3) is out of range and NACKs at TTI 3; at TTI 4 its
    # retransmission waits while new data for ueA (id 2) arrives, and at
    # TTI 5 both peers have new data, so the lower id goes first
    grants = _sidelink_grants(SERVING_CELL + """
ueS.d2dPeerAddresses = "ueB ueA"
flow[0].sourceNode = "ueS"
flow[0].destAddress = "ueB"
flow[0].packetBytes = 500
flow[0].periodTtis = 1000
flow[1].sourceNode = "ueS"
flow[1].destAddress = "ueA"
flow[1].packetBytes = 500
flow[1].periodTtis = 1000
flow[1].startTti = 4
flow[2].sourceNode = "ueS"
flow[2].destAddress = "ueB"
flow[2].packetBytes = 500
flow[2].periodTtis = 1000
flow[2].startTti = 5
""")
    assert grants == [(0, "ueB"), (4, "ueB"), (5, "ueA"), (6, "ueB")]


def test_a_sender_in_two_groups_serves_the_lowest_address_first():
    # both packets arrive at TTI 0; the higher address is declared first
    grants = _sidelink_grants(SERVING_CELL + """
flow[0].sourceNode = "ueS"
flow[0].destAddress = "224.0.0.20"
flow[0].packetBytes = 100
flow[0].periodTtis = 1000
flow[1].sourceNode = "ueS"
flow[1].destAddress = "224.0.0.10"
flow[1].packetBytes = 100
flow[1].periodTtis = 1000
[multicast]
224.0.0.20 = "ueB"
224.0.0.10 = "ueA"
""")
    assert grants == [(0, "224.0.0.10"), (1, "224.0.0.20")]


def test_mode_selection_visits_peerings_in_the_order_they_are_listed():
    # ueA hears the eNB well but lists two far peers, ueC before ueB;
    # both switch to the infrastructure path in the same round
    config = parse_scenario("""
sim.ttiCount = 30
sim.nodes = "eNodeB ueA ueB ueC"
eNodeB.role = "eNB"
eNodeB.amcMode = "D2D"
eNodeB.d2dModeSelection = true
eNodeB.d2dModeSelectionPeriod = 20
**.d2dCapable = true
ueA.positionX = 10.0
ueB.positionX = 3000.0
ueC.positionX = -3000.0
ueA.d2dPeerAddresses = "ueC ueB"
ueA.enableD2DCqiReporting = true
""")
    result = run_scenario(config, trace=True)
    switches = [(row.tti, row.src, row.dst, row.direction)
                for row in result.trace if row.event == "modeSwitch"]
    assert switches == [(21, "ueA", "ueC", "IM"), (21, "ueA", "ueB", "IM")]


def test_a_flow_that_delivers_nothing_reports_zero_latencies():
    # 400 m is beyond what CQI 7 decodes: the flow's latency metrics keep
    # their starting values, 0 for the maximum and nan for the mean
    metrics = run_scenario(scenario(tti_count=40, d2d_distance=400.0)).flow_metrics[0]
    assert metrics["offered_packets"] > 0 and metrics["delivered_packets"] == 0
    assert metrics["max_latency_ttis"] == 0
    assert math.isnan(metrics["mean_latency_ttis"])


def test_mode_selection_runs_every_period_from_the_first_period_on(monkeypatch):
    # no CQI report is usable at TTI 0, so the first round is at one period
    rounds = []
    do_mode_selection = engine_module.do_mode_selection
    engine = Engine(scenario("eNodeB.d2dModeSelection = true\n"
                             "eNodeB.d2dModeSelectionPeriod = 10\n", tti_count=35))
    monkeypatch.setattr(engine_module, "do_mode_selection", lambda *args: (
        rounds.append(engine.now_tti), do_mode_selection(*args))[1])
    engine.run()
    assert rounds == [10, 20, 30]


def test_the_first_peer_awaiting_a_retransmission_is_served(monkeypatch):
    # both peerings wait for a retransmission: the first in serving order,
    # the lower id, is the one the pass asks a grant for
    engine = Engine(parse_scenario(SERVING_CELL + 'ueS.d2dPeerAddresses = "ueB ueA"\n'))
    ue = engine.names.index("ueS")
    downlink, uplink, peers, _ = engine._ue_links[ue]
    assert [link.rx for link in peers] == [engine.names.index("ueA"), engine.names.index("ueB")]
    for link in peers:
        link.pool.waiting = 1
    asked = []
    monkeypatch.setattr(Engine, "_request",
                        lambda self, link, tti, taken, bucket: asked.append(link) or False)
    engine._active.add(ue)
    engine._phase_schedule(5)
    assert asked == [downlink, uplink, peers[0]]


def test_a_grant_too_small_for_a_byte_is_not_sent(monkeypatch):
    # at one resource element per block a short run holds fewer than 8 bits:
    # the scheduler lays out no such grant, so no payload is asked for one
    # and every block sent carries data
    sent, refused = [], []
    phy_send = engine_module.phy_send
    monkeypatch.setattr(engine_module, "phy_send",
                        lambda binder, tb: (sent.append(tb), phy_send(binder, tb))[1])
    fill_chunks = Engine._fill_chunks
    monkeypatch.setattr(Engine, "_fill_chunks", lambda self, link, bits: (
        refused.append(bits) if bits < 8 else None, fill_chunks(self, link, bits))[1])
    config = _lossy_cell()
    Engine(config._replace(sim=config.sim._replace(rb_capacity_re=1))).run()
    assert sent and not refused
    assert all(tb.chunks for tb in sent)


def test_every_tti_is_audited_and_its_violations_counted(monkeypatch):
    # the ledger audit runs at the end of every TTI; the run counts what it reports
    audited = []
    monkeypatch.setattr(Binder, "check_conservation",
                        lambda self, tti: audited.append(tti) or ["violation"] * (tti % 3))
    result = run_scenario(scenario(tti_count=20))
    assert audited == list(range(20))
    assert result.run_metrics["rb_conservation_violations"] == sum(t % 3 for t in range(20))
