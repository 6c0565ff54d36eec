"""Random valid scenarios: runs complete, conserve, replay, and read the
same CQI whether a report is measured when taken or when first read.

The generator builds scenarios that are valid by construction (parsing
validates them): 1-6 UEs, uplink, downlink, UE-to-UE, requestResponse
and multicast flows, senders in two groups, numRbs 1-6 or 50, 1-3 HARQ
processes, 0-2 retransmissions, shadowing 0-15 dB, CQI reports every
1-40 TTIs, sidelink CQI reporting and mode selection every 1-50 TTIs.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from d2dsim import ChannelModel, Engine, LinkDirection, parse_scenario

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
    # only open instances are kept, and each is queued at the end
    assert len(engine.instances) == sum(
        metrics["queued_end"] for metrics in result.flow_metrics.values())
    assert _outputs(text)[2] == outputs


def _eager_reads_checked(engine):
    """Check every CQI the engine reads against the report measured eagerly.

    Right after each report round, while the previous TTI's ledger is
    still there, every report of the round is measured from the ledger;
    each later read must return the value of the report it reads.
    Returns the list of keys read.
    """
    eager: dict[tuple, int] = {}
    reads: list[tuple] = []
    report, cqi_for = engine._phase_cqi_report, engine._cqi_for
    enb = engine.enb_id

    def measured(key, tti):
        if key[0] == "SL":
            _, tx_id, rx_id = key
            power = engine.node_cfg[tx_id].d2d_tx_power_dbm
        else:
            tx_id, rx_id = (key[1], enb) if key[0] == "UL" else (enb, key[1])
            power = engine.node_cfg[tx_id].ue_tx_power_dbm
        return engine.channel.wideband_cqi(tx_id, rx_id, tti=tti, tx_power_dbm=power,
                                           direction=LinkDirection[key[0]])

    def eager_report(tti):
        report(tti)
        for key, history in engine.cqi_store.items():
            if history[-1][1] == tti + 1:  # taken this round
                eager[key, tti + 1] = measured(key, tti)

    def checked(key, tti):
        value = cqi_for(key, tti)
        usable = [usable_from for _, usable_from in engine.cqi_store.get(key, ())
                  if usable_from <= tti]
        assert value == (eager[key, max(usable)] if usable else 0), (key, tti)
        reads.append(key)
        return value

    engine._phase_cqi_report = eager_report
    engine._cqi_for = checked
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
        for key in eager.cqi_store:
            eager._cqi_for(key, tti + 1)

    eager._phase_cqi_report = measure_now
    eager_metrics, eager_draws = _shadowing_draws(monkeypatch, eager)
    lazy_metrics, lazy_draws = _shadowing_draws(monkeypatch, Engine(config))
    assert lazy_metrics == eager_metrics == checked_metrics
    assert lazy_draws < eager_draws
