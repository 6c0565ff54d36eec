"""Discrete-event simulation core.

Time advances in 1 ms TTIs.  Within a TTI, work happens in a fixed
phase order so runs are reproducible event for event:

    packetArrival < cqiReport < modeSelection < modeSwitchApply
        < schedule < transmit < receive < harqFeedback

modeSwitchApply, transmit, receive and harqFeedback only handle
events, each queued by ``schedule_event`` in a FIFO list for one later
(TTI, phase); every delay is +1 TTI.

A CQI report is counted when taken but measured when first read, as
of its own TTI and against the ledger entries of the TTI before it,
which it keeps; a report that nothing reads is never measured.

Scheduling at TTI t produces transport blocks that hit the air at
t+1, are evaluated against the t+1 interference ledger and received
at t+2, with HARQ feedback at t+3.  One radio hop therefore costs
2 TTIs of latency and the two-hop infrastructure path costs 5 (the
relay re-enters the scheduler at the eNB).

Every application packet becomes one delivery instance per intended
receiver (one for unicast, one per candidate group receiver for
multicast).  An instance ends in exactly one state: delivered, lost
to HARQ exhaustion, lost to a mode switch flush, filtered by group
membership, lost to an unrecoverable decode failure, or still queued
when the run ends.  Offered traffic always equals the sum of those
buckets; the run audits the resource ledger every TTI the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import partial
from typing import Iterable, Iterator

from .binder import Binder, LinkDirection
from .channel import ChannelModel, CqiTable
from .config import (FlowConfig, NodeConfig, Role, ScenarioConfig, Transport,
                     resolve_pattern)
from .mode_selection import (Mode, ModeSwitchCommand, PeeringTable,
                             apply_mode_switch, do_mode_selection, get_policy)
from .stack import (Direction, HarqOutcome, HarqPool, PacketAssembler,
                    PacketDescriptor, RlcChunk, RlcTxQueue, ScheduleGrant,
                    ScheduleRequest, TransportBlock, harq_on_feedback,
                    pdcp_classify, phy_receive, phy_send, schedule_band)


class Phase(IntEnum):
    PACKET_ARRIVAL = 0
    CQI_REPORT = 1
    MODE_SELECTION = 2
    MODE_SWITCH_APPLY = 3
    SCHEDULE = 4
    TRANSMIT = 5
    RECEIVE = 6
    HARQ_FEEDBACK = 7


class PastEvent(Exception):
    """An event was scheduled at or before the point being processed."""


class InstanceStatus(Enum):
    """Where a packet instance ended; the value names its per-flow count."""

    DELIVERED = "delivered_packets"
    LOST_HARQ = "lost_harq_exhausted"
    LOST_MODE_SWITCH = "lost_mode_switch"
    FILTERED = "lost_filtered"
    LOST_DECODE = "lost_decode_failed"


@dataclass(frozen=True)
class TraceRow:
    tti: int
    event: str
    src: str
    dst: str
    direction: str
    rbs: int = 0
    sinr_db: float | None = None
    decoded: bool | None = None


@dataclass
class SimulationResult:
    run_metrics: dict[str, float]
    flow_metrics: dict[int, dict[str, float]]
    trace: list[TraceRow]
    ledger_rows: list[tuple[int, str, str, str, float]]

    def metrics_csv(self) -> str:
        lines = ["scope,flow_id,metric,value"]
        for name in sorted(self.run_metrics):
            lines.append(f"run,,{name},{_fmt(self.run_metrics[name])}")
        for flow_id in sorted(self.flow_metrics):
            metrics = self.flow_metrics[flow_id]
            for name in sorted(metrics):
                lines.append(f"flow,{flow_id},{name},{_fmt(metrics[name])}")
        return "\n".join(lines) + "\n"

    def trace_csv(self) -> str:
        lines = ["tti,event,src,dst,direction,rbs,sinr_db,decoded"]
        for row in self.trace:
            sinr = "" if row.sinr_db is None else f"{row.sinr_db:.3f}"
            decoded = "" if row.decoded is None else str(int(row.decoded))
            lines.append(f"{row.tti},{row.event},{row.src},{row.dst},"
                         f"{row.direction},{row.rbs},{sinr},{decoded}")
        return "\n".join(lines) + "\n"

    def ledger_csv(self) -> str:
        lines = ["tti,node,direction,rb_list,power_dbm"]
        for tti, node, direction, rb_list, power in self.ledger_rows:
            lines.append(f"{tti},{node},{direction},{rb_list},{_fmt(power)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@dataclass
class _Link:
    """One radio link: its RLC queues, its HARQ pool and how it is served."""

    key: tuple  # (tx_id, direction, rx_id or group address)
    tx_power_dbm: float
    cqi_key: tuple | None  # the link's CQI history, None for a fixed format
    fixed_cqi: int = 0
    pool: HarqPool | None = None  # None on one-to-many links: no feedback
    # by final endpoint, in endpoint order; only a UE's uplink has several
    queues: dict[int | str, RlcTxQueue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tx_id, self.direction, rx = self.key
        self.rx_id = None if self.direction is Direction.D2D_MULTI else rx
        self.group_address = rx if self.rx_id is None else None
        self.node_id = rx if self.direction is Direction.DL else self.tx_id
        self.link = self.direction.link.value.lower()  # as metric names spell it
        self.granted_key = f"rbs_granted_{self.link}"

    def backlog(self) -> int:
        return sum(queue.backlog_bits for queue in self.queues.values())


def rng_stream(seed: int, purpose: str, *extra) -> random.Random:
    """Independent, reproducible random stream named by its purpose."""
    tail = ":".join(str(part) for part in extra)
    return random.Random(f"{seed}:{purpose}:{tail}")


class Engine:
    """One simulation run over a validated scenario."""

    def __init__(self, config: ScenarioConfig, *, trace: bool = False,
                 ledger_dump: bool = False, initial_mode: Mode | None = None):
        self.config = config
        self.trace_enabled = trace
        self.ledger_dump = ledger_dump

        sim = config.sim
        self.binder = Binder(sim.num_rbs)
        self.table = CqiTable.default()
        self.channel = ChannelModel(self.binder, config.channel, self.table, sim.seed)

        self.node_cfg: dict[int, NodeConfig] = {}
        for node in config.nodes:
            node_id = self.binder.register_node(
                node.name, is_enb=node.role is Role.ENB,
                position=(node.position_x, node.position_y))
            self.node_cfg[node_id] = node
        self.enb_id = self.binder.enb_id()
        self.ue_ids = [r.node_id for r in self.binder.records if not r.is_enb]

        names = [node.name for node in config.nodes]
        self.peering = PeeringTable()
        for node_id, node in self.node_cfg.items():
            for peer in node.d2d_peer_addresses:
                self.peering.add_peering(node_id, self.binder.id_of(peer),
                                         initial_mode or Mode.DM)

        for group in config.multicast_groups:
            self.binder.register_group(group.address)
            for member in sorted(resolve_pattern(group.member_pattern, names)):
                member_id = self.binder.id_of(member)
                if not self.node_cfg[member_id].role is Role.ENB:
                    self.binder.add_member(group.address, member_id)

        self.flows: list[tuple[FlowConfig, int, int | None, int]] = []
        self._flow_by_id: dict[int, FlowConfig] = {}
        for flow in config.flows:
            src_id = self.binder.id_of(flow.source_node)
            dst_id = (None if any(g.address == flow.dest_address
                                  for g in config.multicast_groups)
                      else self.binder.id_of(flow.dest_address))
            jitter = 0
            if flow.start_jitter_ttis > 0:
                jitter = rng_stream(sim.seed, "jitter", flow.flow_id).randint(
                    0, flow.start_jitter_ttis)
            self.flows.append((flow, src_id, dst_id, flow.start_tti + jitter))
            self._flow_by_id.setdefault(flow.flow_id, flow)

        # every link the scenario can use, as (downlink, uplink, peers, groups)
        # per UE; a UE serves its peers in id order and its groups by address
        self.pools: dict[tuple, HarqPool] = {}
        self._links: dict[tuple, _Link] = {}
        self._ue_links: dict[int, tuple[_Link, _Link, list[_Link], list[_Link]]] = {
            ue_id: (self._add_link(self.enb_id, Direction.DL, ue_id),
                    self._add_link(ue_id, Direction.UL, self.enb_id), [], [])
            for ue_id in self.ue_ids}
        one_to_many = {(src_id, flow.dest_address)
                       for flow, src_id, dst_id, _ in self.flows if dst_id is None}
        for direction, pairs in ((Direction.D2D, self.peering.peerings()),
                                 (Direction.D2D_MULTI, one_to_many)):
            for tx_id, rx in sorted(pairs):
                link = self._add_link(tx_id, direction, rx)
                if tx_id in self._ue_links:  # the eNB has no sidelink to serve
                    sidelinks = self._ue_links[tx_id][2 if direction is Direction.D2D else 3]
                    sidelinks.append(link)

        # mutable run state; ``_active`` holds the UEs that may have queued
        # data or a pending retransmission
        self._active: set[int] = set()
        self.assemblers: dict[int, PacketAssembler] = {}
        self.cqi_store: dict[tuple, list[list]] = {}  # [cqi or probe, usable_from]
        # open packet instances only: each is counted in ``totals`` as it closes
        self.instances: dict[tuple[int, int | None], PacketDescriptor] = {}
        self._events: dict[tuple[int, Phase], list] = {}  # FIFO per (tti, phase)

        self.now_tti = -1
        self.now_phase = Phase.PACKET_ARRIVAL
        self._packet_seq = 0

        self.trace: list[TraceRow] = []
        self.ledger_rows: list[tuple[int, str, str, str, float]] = []
        self.counters: dict[str, float] = {
            "rbs_granted_dl": 0, "rbs_granted_ul": 0, "rbs_granted_sl": 0,
            "cqi_reports_dl": 0, "cqi_reports_ul": 0, "cqi_reports_sl": 0,
            "mode_switch_count": 0, "rb_conservation_violations": 0,
        }
        self.cqi_hist: dict[tuple[str, int], int] = {}
        self.totals: dict[int, dict[str, float]] = {
            flow.flow_id: {
                "offered_packets": 0, "offered_bits": 0,
                "delivered_packets": 0, "delivered_bits": 0,
                "lost_harq_exhausted": 0, "lost_mode_switch": 0,
                "lost_filtered": 0, "lost_decode_failed": 0, "queued_end": 0,
                "mean_latency_ttis": float("nan"), "max_latency_ttis": 0,
            } for flow, _, _, _ in self.flows}
        self._latency_sum: dict[int, int] = dict.fromkeys(self.totals, 0)

    # -- helpers --------------------------------------------------------

    def _name(self, node_id: int) -> str:
        return self.binder.record(node_id).name

    def _trace(self, event: str, src_id: int, dst: int | str,
               direction: Direction | Mode, rbs: int = 0,
               sinr_db: float | None = None, decoded: bool | None = None) -> None:
        """Record a trace row; ``dst`` is a node id or a group address."""
        if self.trace_enabled:
            dst_name = dst if isinstance(dst, str) else self._name(dst)
            self.trace.append(TraceRow(self.now_tti, event, self._name(src_id), dst_name,
                                       direction.value, rbs, sinr_db, decoded))

    def schedule_event(self, fire_tti: int, phase: Phase, payload: object) -> None:
        """Queue ``payload`` for ``phase`` of ``fire_tti``, behind earlier ones."""
        if (fire_tti, phase) <= (self.now_tti, self.now_phase):
            raise PastEvent(f"cannot schedule at tti {fire_tti} phase {phase.name} "
                            f"from tti {self.now_tti} phase {self.now_phase.name}")
        self._events.setdefault((fire_tti, phase), []).append(payload)

    def _enter(self, tti: int, phase: Phase) -> list:
        """Make ``phase`` current and take the events queued for it."""
        self.now_phase = phase
        return self._events.pop((tti, phase), ())

    def _add_link(self, tx_id: int, direction: Direction, rx: int | str) -> _Link:
        key = (tx_id, direction, rx)
        cfg = self.node_cfg[tx_id]
        if direction is Direction.D2D_MULTI:  # fixed format, no feedback, no HARQ
            link = _Link(key, cfg.d2d_tx_power_dbm, None, cfg.d2d_cqi or 0)
        else:
            pool = self.pools[key] = HarqPool(self.config.sim.harq_processes)
            if direction is Direction.D2D:
                cqi_key = None if cfg.use_preconfigured_tx_params else ("SL", tx_id, rx)
                link = _Link(key, cfg.d2d_tx_power_dbm, cqi_key, cfg.d2d_cqi or 0, pool)
            else:
                ue_id = rx if direction is Direction.DL else tx_id
                link = _Link(key, cfg.ue_tx_power_dbm, (direction.value, ue_id), pool=pool)
        self._links[key] = link
        return link

    def _assembler(self, rx_id: int) -> PacketAssembler:
        if rx_id not in self.assemblers:
            self.assemblers[rx_id] = PacketAssembler()
        return self.assemblers[rx_id]

    def _store_cqi(self, key: tuple, probe: partial) -> None:
        # a report becomes usable one TTI after it is taken; the previous
        # report stays in force until then
        history = self.cqi_store.setdefault(key, [])
        history.append([probe, self.now_tti + 1])
        del history[:-2]

    def _cqi_for(self, key: tuple, tti: int) -> int:
        for report in reversed(self.cqi_store.get(key, ())):
            if report[1] <= tti:
                if type(report[0]) is not int:  # a probe, measured on first read
                    report[0] = report[0]()
                return report[0]
        return 0

    def _link_cqi(self, link: _Link, tti: int) -> int:
        return link.fixed_cqi if link.cqi_key is None else self._cqi_for(link.cqi_key, tti)

    # -- packet lifecycle ------------------------------------------------

    def _new_packet(self, flow: FlowConfig, src_id: int, dst_id: int | None,
                    group: str | None, is_request: bool) -> PacketDescriptor:
        self._packet_seq += 1
        packet = PacketDescriptor(
            packet_id=self._packet_seq, flow_id=flow.flow_id, src_id=src_id,
            dst_id=dst_id, group_address=group, size_bits=flow.packet_bytes * 8,
            created_tti=self.now_tti, is_request=is_request)
        rx_ids = [None] if group is None else [r for r in self.ue_ids if r != src_id]
        for rx_id in rx_ids:
            self.instances[(packet.packet_id, rx_id)] = packet
        totals = self.totals[flow.flow_id]
        totals["offered_packets"] += len(rx_ids)
        totals["offered_bits"] += len(rx_ids) * packet.size_bits
        return packet

    def _close_instance(self, packet_id: int, rx_id: int | None,
                        status: InstanceStatus) -> None:
        """Count an open instance in its flow's totals and forget it."""
        packet = self.instances.pop((packet_id, rx_id), None)
        if packet is None:
            return  # already closed
        totals = self.totals[packet.flow_id]
        totals[status.value] += 1
        if status is InstanceStatus.DELIVERED:
            totals["delivered_bits"] += packet.size_bits
            latency = self.now_tti - packet.created_tti
            self._latency_sum[packet.flow_id] += latency
            totals["max_latency_ttis"] = max(totals["max_latency_ttis"], latency)
        elif rx_id is None:  # part of a unicast packet may wait at any hop
            for assembler in self.assemblers.values():
                assembler.discard(packet_id)
        elif rx_id in self.assemblers:
            self.assemblers[rx_id].discard(packet_id)

    def _reassemble(self, rx_id: int, chunks: Iterable[RlcChunk], *,
                    multicast: bool) -> Iterator[PacketDescriptor]:
        """Packets that ``chunks`` complete at ``rx_id``.

        A chunk whose packet instance has already closed is dropped: the
        packet's fate is settled, and its bits would never be freed.
        """
        assembler = self._assembler(rx_id)
        instance_rx = rx_id if multicast else None
        for chunk in chunks:
            if (chunk.packet.packet_id, instance_rx) not in self.instances:
                continue
            done = assembler.add(chunk)
            if done is not None:
                yield done

    def _classify_and_enqueue(self, packet: PacketDescriptor, at_node: int) -> None:
        """Run one hop's PDCP classification and queue the packet."""
        is_mcast = packet.group_address is not None
        src_is_enb = at_node == self.enb_id
        dst_is_enb = packet.dst_id == self.enb_id
        peer_mode = None
        if not is_mcast and not src_is_enb and not dst_is_enb:
            peer_mode = self.peering.mode_of(at_node, packet.dst_id)
        direction = pdcp_classify(src_is_enb, dst_is_enb, is_mcast, peer_mode)
        endpoint = packet.group_address if is_mcast else packet.dst_id
        link = self._links[at_node, direction,
                           self.enb_id if direction is Direction.UL else endpoint]
        if endpoint not in link.queues:  # keep the queues in endpoint order
            link.queues = dict(sorted({**link.queues, endpoint: RlcTxQueue()}.items()))
        link.queues[endpoint].push(packet)
        self._activate(endpoint if direction is Direction.DL else at_node)
        self._trace("classify", at_node, endpoint, direction)

    def _activate(self, ue_id: int) -> None:
        """Have the scheduling pass visit ``ue_id``, its downlink included."""
        if ue_id != self.enb_id:  # only UEs are served; an eNB multicast is invalid
            self._active.add(ue_id)

    # -- phases -----------------------------------------------------------

    def _phase_packet_arrival(self, tti: int) -> None:
        for flow, src_id, dst_id, start in self.flows:
            if tti >= start and (tti - start) % flow.period_ttis == 0:
                group = flow.dest_address if dst_id is None else None
                packet = self._new_packet(
                    flow, src_id, dst_id, group,
                    is_request=flow.transport is Transport.REQUEST_RESPONSE)
                self._classify_and_enqueue(packet, src_id)

    def _phase_cqi_report(self, tti: int) -> None:
        if tti % self.config.sim.cqi_report_period_ttis != 0:
            return
        self.channel.pin(tti)  # the round's probes share its link losses
        measure = partial(self.channel.wideband_cqi, tti=tti)
        band = {link: self.binder.band_allocations(tti - 1, link.band)
                for link in (LinkDirection.UL, LinkDirection.DL)}
        for ue_id in self.ue_ids:
            for link, tx_id, rx_id in ((LinkDirection.UL, ue_id, self.enb_id),
                                       (LinkDirection.DL, self.enb_id, ue_id)):
                self._store_cqi((link.value, ue_id), partial(
                    measure, tx_id, rx_id, direction=link, entries=band[link],
                    tx_power_dbm=self.node_cfg[tx_id].ue_tx_power_dbm))
                self.counters[f"cqi_reports_{link.value.lower()}"] += 1
        for src_id, dst_id in self.peering.peerings():
            src_cfg = self.node_cfg[src_id]
            if src_cfg.use_preconfigured_tx_params:
                continue  # fixed transmit format, the pair is never sounded
            if not src_cfg.enable_d2d_cqi_reporting:
                continue
            self._store_cqi(("SL", src_id, dst_id), partial(
                measure, src_id, dst_id, direction=LinkDirection.SL,
                entries=band[LinkDirection.UL], tx_power_dbm=src_cfg.d2d_tx_power_dbm))
            self.counters["cqi_reports_sl"] += 1

    def _phase_mode_selection(self, tti: int) -> None:
        ms = self.config.mode_selection
        if not ms.enabled or tti == 0 or tti % ms.period_ttis != 0:
            return
        policy = get_policy(ms.policy_name)
        commands = do_mode_selection(
            self.peering, policy,
            lambda s, d: (self._link_cqi(self._links[s, Direction.D2D, d], tti),
                          self._cqi_for(("UL", s), tti)),
            tti)
        for command in commands:
            self.schedule_event(command.apply_tti, Phase.MODE_SWITCH_APPLY, command)

    def _apply_switch(self, command: ModeSwitchCommand) -> None:
        old = apply_mode_switch(self.peering, command)
        self.counters["mode_switch_count"] += 1
        src, dst = command.src_id, command.dst_id
        lost: list[int] = []
        if old is Mode.DM:
            link = self._links[src, Direction.D2D, dst]
            for queue in link.queues.values():
                lost.extend(p.packet_id for p in queue.flush())
            link.pool.epoch += 1  # feedback for in-flight blocks is now stale
            for process in link.pool.busy_processes():
                lost.extend({c.packet.packet_id for c in process.chunks})
                link.pool.release(process)
        else:  # src's uplink and the eNB's relay leg; a peering with the eNB has neither
            for key in ((src, Direction.UL, self.enb_id), (self.enb_id, Direction.DL, dst)):
                queue = self._links[key].queues.get(dst) if key in self._links else None
                if queue is not None:  # every packet on src's uplink is from src
                    lost.extend(p.packet_id
                                for p in queue.flush_where(lambda p: p.src_id == src))
        for packet_id in lost:
            self._close_instance(packet_id, None, InstanceStatus.LOST_MODE_SWITCH)
        self._trace("modeSwitch", src, dst, command.new_mode)

    # -- scheduling --------------------------------------------------------

    def _request(self, link: _Link, tti: int, bucket: list[ScheduleRequest]) -> bool:
        """Request a pending retransmission, else new data if the link has a
        usable CQI and an idle HARQ process; True if it holds either."""
        retx = link.pool.pending_retx() if link.pool is not None else None
        if retx is not None:
            bucket.append(ScheduleRequest(link.node_id, link.direction, retx.cqi,
                                          retx_rbs=retx.num_rbs, link_key=link.key))
            return True
        backlog = link.backlog()
        if backlog <= 0:
            return False
        cqi = self._link_cqi(link, tti)
        if cqi >= 1 and (link.pool is None or link.pool.has_idle()):
            bucket.append(ScheduleRequest(link.node_id, link.direction, cqi,
                                          backlog_bits=backlog, link_key=link.key))
        return True

    def _phase_schedule(self, tti: int) -> None:
        sim = self.config.sim
        dl_requests: list[ScheduleRequest] = []
        ul_requests: list[ScheduleRequest] = []

        # a UE with nothing left leaves; an enqueue or a NACK brings it back
        for ue_id in sorted(self._active):
            downlink, uplink, peers, groups = self._ue_links[ue_id]
            busy = self._request(downlink, tti, dl_requests)
            busy |= self._request(uplink, tti, ul_requests)
            # one sidelink per TTI: a pending retransmission outranks new
            # data, then the first peer with queued data is served
            if peers:
                peer = (next((link for link in peers
                              if link.pool.pending_retx() is not None), None)
                        or next((link for link in peers if link.backlog()), None))
                if peer is not None:
                    busy |= self._request(peer, tti, ul_requests)
            # likewise one group per TTI, the first with queued data
            if groups:
                group = next((link for link in groups if link.backlog()), None)
                if group is not None:
                    busy |= self._request(group, tti, ul_requests)
            if not busy:
                self._active.discard(ue_id)

        for requests in (dl_requests, ul_requests):
            for grant in schedule_band(requests, sim.num_rbs,
                                       sim.rb_capacity_re, self.table):
                self._issue_grant(grant, self._links[grant.request.link_key])

    def _issue_grant(self, grant: ScheduleGrant, link: _Link) -> None:
        request = grant.request
        self.counters[link.granted_key] += grant.num_rbs
        hist_key = (link.link, request.cqi)
        self.cqi_hist[hist_key] = self.cqi_hist.get(hist_key, 0) + 1

        if grant.is_retx:
            process = link.pool.pending_retx()
            process.awaiting_retx = False
            process.num_rbs = grant.num_rbs
            process.tx_count += 1
            chunks = process.chunks
            cqi = process.cqi
            process_id = process.process_id
        else:
            chunks = self._fill_chunks(link, grant.tbs_bits)
            if not chunks:
                return
            cqi = request.cqi
            process_id = None
            if link.pool is not None:
                process = link.pool.allocate()
                process.chunks = tuple(chunks)
                process.cqi = cqi
                process.num_rbs = grant.num_rbs
                process.tx_count = 1
                process_id = process.process_id

        tb = TransportBlock(
            tx_id=link.tx_id, direction=link.direction, chunks=tuple(chunks),
            cqi=cqi, rbs=grant.rbs, tx_power_dbm=link.tx_power_dbm,
            tti=self.now_tti + 1, dst_id=link.rx_id,
            group_address=link.group_address, harq_process_id=process_id,
            harq_epoch=link.pool.epoch if link.pool is not None else 0)
        self._trace("grant", link.tx_id,
                    link.group_address if link.rx_id is None else link.rx_id,
                    link.direction, grant.num_rbs)
        self.schedule_event(self.now_tti + 1, Phase.TRANSMIT, tb)

    def _fill_chunks(self, link: _Link, capacity_bits: int) -> list[RlcChunk]:
        """Drain this link's queues, lowest endpoint first, into one payload."""
        chunks: list[RlcChunk] = []
        capacity = capacity_bits
        for queue in link.queues.values():
            if not queue or capacity < 8:
                continue
            taken = queue.fill(capacity)
            capacity -= sum(c.bits for c in taken)
            chunks.extend(taken)
            if chunks and not chunks[-1].last:
                break  # the single fragment must end the block
        return chunks

    # -- air interface ------------------------------------------------------

    def _phase_transmit(self, tb: TransportBlock) -> None:
        phy_send(self.binder, tb)
        self._trace("transmit", tb.tx_id,
                    tb.group_address if tb.dst_id is None else tb.dst_id,
                    tb.direction, len(tb.rbs))
        if self.ledger_dump:
            self.ledger_rows.append(
                (tb.tti, self._name(tb.tx_id), tb.direction.link.value,
                 " ".join(str(rb) for rb in tb.rbs), tb.tx_power_dbm))
        self.schedule_event(tb.tti + 1, Phase.RECEIVE, tb)

    def _phase_receive(self, tb: TransportBlock) -> None:
        if tb.group_address is not None:
            self._receive_multicast(tb)
            return
        result = phy_receive(self.channel, tb, tb.dst_id)
        self._trace("receive", tb.tx_id, tb.dst_id, tb.direction,
                    len(tb.rbs), result.mean_sinr_db, result.decoded)
        if result.decoded:
            for packet in self._reassemble(tb.dst_id, tb.chunks, multicast=False):
                self._deliver(packet, tb.dst_id)
        if tb.harq_process_id is not None:
            self.schedule_event(self.now_tti + 1, Phase.HARQ_FEEDBACK,
                                (tb, result.decoded))

    def _receive_multicast(self, tb: TransportBlock) -> None:
        group = tb.group_address
        for rx_id in self.ue_ids:
            if rx_id == tb.tx_id:
                continue
            if not self.binder.is_member(group, rx_id):
                for packet_id in sorted({c.packet.packet_id for c in tb.chunks}):
                    self._close_instance(packet_id, rx_id, InstanceStatus.FILTERED)
                self._trace("receive", tb.tx_id, rx_id, tb.direction,
                            len(tb.rbs), None, None)
                continue
            result = phy_receive(self.channel, tb, rx_id)
            self._trace("receive", tb.tx_id, rx_id, tb.direction,
                        len(tb.rbs), result.mean_sinr_db, result.decoded)
            if result.decoded:
                for packet in self._reassemble(rx_id, tb.chunks, multicast=True):
                    self._close_instance(packet.packet_id, rx_id,
                                         InstanceStatus.DELIVERED)
            else:
                for packet_id in sorted({c.packet.packet_id for c in tb.chunks}):
                    self._close_instance(packet_id, rx_id, InstanceStatus.LOST_DECODE)

    def _deliver(self, packet: PacketDescriptor, rx_id: int) -> None:
        if rx_id == self.enb_id and packet.dst_id != self.enb_id:
            self._classify_and_enqueue(packet, self.enb_id)  # relay leg
            return
        self._close_instance(packet.packet_id, None, InstanceStatus.DELIVERED)
        if packet.is_request:
            response = self._new_packet(self._flow_by_id[packet.flow_id], rx_id,
                                        packet.src_id, None, is_request=False)
            self._classify_and_enqueue(response, rx_id)

    def _phase_harq_feedback(self, tb: TransportBlock, ack: bool) -> None:
        pool = self._links[tb.tx_id, tb.direction, tb.dst_id].pool
        if tb.harq_epoch != pool.epoch:
            return  # the link was reset while this block was in flight
        process = pool.get(tb.harq_process_id)
        outcome = harq_on_feedback(process, ack, self.config.sim.harq_max_retx)
        self._trace("feedback", tb.dst_id, tb.tx_id, tb.direction, 0,
                    None, ack)
        if outcome is HarqOutcome.RETRANSMIT:
            self._activate(tb.dst_id if tb.direction is Direction.DL else tb.tx_id)
        elif outcome is HarqOutcome.RELEASED:
            pool.release(process)
        elif outcome is HarqOutcome.DROPPED:
            for packet_id in sorted({c.packet.packet_id for c in process.chunks}):
                self._close_instance(packet_id, None, InstanceStatus.LOST_HARQ)
            pool.release(process)

    # -- main loop ------------------------------------------------------------

    def run(self) -> SimulationResult:
        for tti in range(self.config.sim.tti_count):
            self.now_tti = tti
            self.binder.advance(tti)
            self._enter(tti, Phase.PACKET_ARRIVAL)
            self._phase_packet_arrival(tti)
            self._enter(tti, Phase.CQI_REPORT)
            self._phase_cqi_report(tti)
            self._enter(tti, Phase.MODE_SELECTION)
            self._phase_mode_selection(tti)
            for command in self._enter(tti, Phase.MODE_SWITCH_APPLY):
                self._apply_switch(command)
            self._enter(tti, Phase.SCHEDULE)
            self._phase_schedule(tti)
            for tb in self._enter(tti, Phase.TRANSMIT):
                self._phase_transmit(tb)
            for tb in self._enter(tti, Phase.RECEIVE):
                self._phase_receive(tb)
            for tb, ack in self._enter(tti, Phase.HARQ_FEEDBACK):
                self._phase_harq_feedback(tb, ack)
            for problem in self.binder.check_conservation(tti):
                self.counters["rb_conservation_violations"] += 1
        return self._finalize()

    def _finalize(self) -> SimulationResult:
        flow_metrics = {flow_id: dict(totals) for flow_id, totals in self.totals.items()}
        for packet in self.instances.values():
            flow_metrics[packet.flow_id]["queued_end"] += 1
        for flow_id, metrics in flow_metrics.items():
            if metrics["delivered_packets"]:
                metrics["mean_latency_ttis"] = (
                    self._latency_sum[flow_id] / metrics["delivered_packets"])

        run_metrics = dict(self.counters)
        ttis = self.config.sim.tti_count
        capacity = self.config.sim.num_rbs * ttis if ttis else 0
        for link in ("dl", "ul", "sl"):
            run_metrics[f"rb_utilization_{link}"] = (
                run_metrics[f"rbs_granted_{link}"] / capacity if capacity else 0.0)
        run_metrics["rbs_granted_total"] = (
            run_metrics["rbs_granted_dl"] + run_metrics["rbs_granted_ul"]
            + run_metrics["rbs_granted_sl"])
        run_metrics["mode_switch_losses"] = sum(
            m["lost_mode_switch"] for m in flow_metrics.values())
        for (link, cqi), count in sorted(self.cqi_hist.items()):
            run_metrics[f"cqi_hist_{link}_{cqi}"] = count

        return SimulationResult(run_metrics, flow_metrics, self.trace,
                                self.ledger_rows)


def run_scenario(config: ScenarioConfig, *, trace: bool = False,
                 ledger_dump: bool = False,
                 initial_mode: Mode | None = None) -> SimulationResult:
    """Simulate one scenario end to end."""
    return Engine(config, trace=trace, ledger_dump=ledger_dump,
                  initial_mode=initial_mode).run()
