"""Discrete-event simulation core.

Time advances in 1 ms TTIs.  Within a TTI, work happens in a fixed
phase order so runs are reproducible event for event:

    packetArrival < cqiReport < modeSelection < modeSwitchApply
        < schedule < transmit < receive < harqFeedback

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

import heapq
import random
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

from .binder import Binder, LinkDirection
from .channel import ChannelModel, CqiTable
from .config import (FlowConfig, NodeConfig, Role, ScenarioConfig, Transport,
                     resolve_pattern)
from .mode_selection import (Mode, ModeSwitchCommand, PeeringTable,
                             apply_mode_switch, do_mode_selection, get_policy)
from .stack import (Direction, HarqOutcome, HarqPool, HarqProcess, PacketAssembler,
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


class InstanceStatus(IntEnum):
    OPEN = 0
    DELIVERED = 1
    LOST_HARQ = 2
    LOST_MODE_SWITCH = 3
    FILTERED = 4
    LOST_DECODE = 5


@dataclass
class _Instance:
    """Fate of one packet at one intended receiver."""

    flow_id: int
    created_tti: int
    size_bits: int
    status: InstanceStatus = InstanceStatus.OPEN
    delivered_tti: int = -1


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
class _LinkCtx:
    """Everything the scheduler needs to serve one radio link."""

    tx_id: int
    rx_id: int | None  # None for multicast
    direction: Direction
    tx_power_dbm: float
    group_address: str | None = None
    pool: HarqPool | None = None


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

        # mutable run state; bearers and D2D pools are also indexed per
        # sender, so a TTI's scheduling pass only visits what each UE holds
        self.bearers: dict[tuple[int, Direction, int | str], RlcTxQueue] = {}
        self.pools: dict[tuple, HarqPool] = {}
        self._tx_bearers: dict[Direction, dict[int, dict[int | str, RlcTxQueue]]] = {
            direction: {} for direction in Direction}
        self._d2d_pools: dict[int, dict[int, HarqPool]] = {}
        self.assemblers: dict[int, PacketAssembler] = {}
        self.cqi_store: dict[tuple, list[tuple[int, int]]] = {}  # (cqi, usable_from)
        self.instances: dict[tuple[int, int | None], _Instance] = {}
        self.events: list[tuple[int, int, int, str, object]] = []
        self.pending_switches: list[ModeSwitchCommand] = []

        self.now_tti = -1
        self.now_phase = Phase.PACKET_ARRIVAL
        self._seq = 0
        self._packet_seq = 0

        self.trace: list[TraceRow] = []
        self.ledger_rows: list[tuple[int, str, str, str, float]] = []
        self.counters: dict[str, float] = {
            "rbs_granted_dl": 0, "rbs_granted_ul": 0, "rbs_granted_sl": 0,
            "cqi_reports_dl": 0, "cqi_reports_ul": 0, "cqi_reports_sl": 0,
            "mode_switch_count": 0, "rb_conservation_violations": 0,
        }
        self.cqi_hist: dict[tuple[str, int], int] = {}

    # -- helpers --------------------------------------------------------

    def _name(self, node_id: int) -> str:
        return self.binder.record(node_id).name

    def _trace(self, event: str, src_id: int, dst: int | str, direction: str,
               rbs: int = 0, sinr_db: float | None = None,
               decoded: bool | None = None) -> None:
        """Record a trace row; ``dst`` is a node id or a group address."""
        if self.trace_enabled:
            dst_name = dst if isinstance(dst, str) else self._name(dst)
            self.trace.append(TraceRow(self.now_tti, event, self._name(src_id),
                                       dst_name, direction, rbs, sinr_db, decoded))

    def schedule_event(self, fire_tti: int, phase: Phase, kind: str,
                       payload: object) -> None:
        if (fire_tti, phase) <= (self.now_tti, self.now_phase):
            raise PastEvent(f"cannot schedule {kind} at tti {fire_tti} phase "
                            f"{phase.name} from tti {self.now_tti} "
                            f"phase {self.now_phase.name}")
        self._seq += 1
        heapq.heappush(self.events, (fire_tti, int(phase), self._seq, kind, payload))

    def _drain_events(self, tti: int, phase: Phase) -> Iterable[tuple[str, object]]:
        while self.events and self.events[0][0] == tti and self.events[0][1] == int(phase):
            _, _, _, kind, payload = heapq.heappop(self.events)
            yield kind, payload

    def _bearer(self, tx_id: int, direction: Direction,
                endpoint: int | str) -> RlcTxQueue:
        queues = self._tx_bearers[direction].setdefault(tx_id, {})
        queue = queues.get(endpoint)
        if queue is None:
            queue = queues[endpoint] = RlcTxQueue()
            self.bearers[(tx_id, direction, endpoint)] = queue
        return queue

    def _pool(self, link_key: tuple) -> HarqPool:
        pool = self.pools.get(link_key)
        if pool is None:
            pool = self.pools[link_key] = HarqPool(self.config.sim.harq_processes)
            tx_id, direction, dst_id = link_key
            if direction is Direction.D2D:
                self._d2d_pools.setdefault(tx_id, {})[dst_id] = pool
        return pool

    def _assembler(self, rx_id: int) -> PacketAssembler:
        if rx_id not in self.assemblers:
            self.assemblers[rx_id] = PacketAssembler()
        return self.assemblers[rx_id]

    def _store_cqi(self, key: tuple, cqi: int) -> None:
        # a report becomes usable one TTI after it is taken; the previous
        # report stays in force until then
        history = self.cqi_store.setdefault(key, [])
        history.append((cqi, self.now_tti + 1))
        del history[:-2]

    def _cqi_for(self, key: tuple, tti: int) -> int:
        usable = [cqi for cqi, usable_from in self.cqi_store.get(key, ())
                  if usable_from <= tti]
        return usable[-1] if usable else 0

    def _sl_cqi(self, src_id: int, dst_id: int, tti: int) -> int:
        node = self.node_cfg[src_id]
        if node.use_preconfigured_tx_params:
            return node.d2d_cqi or 0
        return self._cqi_for(("SL", src_id, dst_id), tti)

    # -- packet lifecycle ------------------------------------------------

    def _new_packet(self, flow: FlowConfig, src_id: int, dst_id: int | None,
                    group: str | None, is_request: bool) -> PacketDescriptor:
        self._packet_seq += 1
        packet = PacketDescriptor(
            packet_id=self._packet_seq, flow_id=flow.flow_id, src_id=src_id,
            dst_id=dst_id, group_address=group, size_bits=flow.packet_bytes * 8,
            created_tti=self.now_tti, is_request=is_request)
        if group is None:
            self.instances[(packet.packet_id, None)] = _Instance(
                flow.flow_id, self.now_tti, packet.size_bits)
        else:
            for rx_id in self.ue_ids:
                if rx_id != src_id:
                    self.instances[(packet.packet_id, rx_id)] = _Instance(
                        flow.flow_id, self.now_tti, packet.size_bits)
        return packet

    def _close_instance(self, packet_id: int, rx_id: int | None,
                        status: InstanceStatus) -> bool:
        instance = self.instances.get((packet_id, rx_id))
        if instance is None or instance.status is not InstanceStatus.OPEN:
            return False
        instance.status = status
        if status is InstanceStatus.DELIVERED:
            instance.delivered_tti = self.now_tti
        elif rx_id is None:  # part of a unicast packet may wait at any hop
            for assembler in self.assemblers.values():
                assembler.discard(packet_id)
        elif rx_id in self.assemblers:
            self.assemblers[rx_id].discard(packet_id)
        return True

    def _reassemble(self, rx_id: int, chunks: Iterable[RlcChunk], *,
                    multicast: bool) -> Iterator[PacketDescriptor]:
        """Packets that ``chunks`` complete at ``rx_id``.

        A chunk whose packet instance has already closed is dropped: the
        packet's fate is settled, and its bits would never be freed.
        """
        assembler = self._assembler(rx_id)
        instance_rx = rx_id if multicast else None
        for chunk in chunks:
            instance = self.instances[(chunk.packet.packet_id, instance_rx)]
            if instance.status is not InstanceStatus.OPEN:
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
        self._bearer(at_node, direction, endpoint).push(packet)
        self._trace("classify", at_node, endpoint, direction.value)

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
        enb_cfg = self.node_cfg[self.enb_id]
        for ue_id in self.ue_ids:
            ue_cfg = self.node_cfg[ue_id]
            ul = self.channel.wideband_cqi(
                ue_id, self.enb_id, tti=tti,
                tx_power_dbm=ue_cfg.ue_tx_power_dbm, direction=LinkDirection.UL)
            self._store_cqi(("UL", ue_id), ul)
            self.counters["cqi_reports_ul"] += 1
            dl = self.channel.wideband_cqi(
                self.enb_id, ue_id, tti=tti,
                tx_power_dbm=enb_cfg.ue_tx_power_dbm, direction=LinkDirection.DL)
            self._store_cqi(("DL", ue_id), dl)
            self.counters["cqi_reports_dl"] += 1
        for src_id, dst_id in self.peering.peerings():
            src_cfg = self.node_cfg[src_id]
            if src_cfg.use_preconfigured_tx_params:
                continue  # fixed transmit format, the pair is never sounded
            if not src_cfg.enable_d2d_cqi_reporting:
                continue
            sl = self.channel.wideband_cqi(
                src_id, dst_id, tti=tti,
                tx_power_dbm=src_cfg.d2d_tx_power_dbm, direction=LinkDirection.SL)
            self._store_cqi(("SL", src_id, dst_id), sl)
            self.counters["cqi_reports_sl"] += 1

    def _phase_mode_selection(self, tti: int) -> None:
        ms = self.config.mode_selection
        if not ms.enabled or tti == 0 or tti % ms.period_ttis != 0:
            return
        policy = get_policy(ms.policy_name)
        commands = do_mode_selection(
            self.peering, policy,
            lambda s, d: (self._sl_cqi(s, d, tti), self._cqi_for(("UL", s), tti)),
            tti)
        for command in commands:
            self.schedule_event(command.apply_tti, Phase.MODE_SWITCH_APPLY,
                                "modeSwitchApply", command)

    def _apply_switch(self, command: ModeSwitchCommand) -> None:
        old = apply_mode_switch(self.peering, command)
        self.counters["mode_switch_count"] += 1
        src, dst = command.src_id, command.dst_id
        lost: list[int] = []
        if old is Mode.DM:
            queue = self.bearers.get((src, Direction.D2D, dst))
            if queue is not None:
                lost.extend(p.packet_id for p in queue.flush())
            pool = self.pools.get((src, Direction.D2D, dst))
            if pool is not None:
                pool.epoch += 1  # feedback for in-flight blocks is now stale
                for process in pool.busy_processes():
                    lost.extend({c.packet.packet_id for c in process.chunks})
                    pool.release(process)
        else:
            queue = self.bearers.get((src, Direction.UL, dst))
            if queue is not None:
                lost.extend(p.packet_id for p in queue.flush())
            relay = self.bearers.get((self.enb_id, Direction.DL, dst))
            if relay is not None:
                lost.extend(p.packet_id
                            for p in relay.flush_where(lambda p: p.src_id == src))
        for packet_id in lost:
            self._close_instance(packet_id, None, InstanceStatus.LOST_MODE_SWITCH)
        self._trace("modeSwitch", src, dst, command.new_mode.value)

    # -- scheduling --------------------------------------------------------

    def _queues(self, tx_id: int, direction: Direction) -> dict[int | str, RlcTxQueue]:
        """One sender's bearers in one direction, by endpoint."""
        return self._tx_bearers[direction].get(tx_id, {})

    @staticmethod
    def _busy_endpoints(queues: dict[int | str, RlcTxQueue]) -> list[int | str]:
        """Endpoints with queued data, node ids first, each kind sorted."""
        found = [endpoint for endpoint, queue in queues.items() if len(queue) > 0]
        if len(found) > 1:
            found.sort(key=lambda e: (isinstance(e, str), e))
        return found

    def _phase_schedule(self, tti: int) -> None:
        sim = self.config.sim
        dl_requests: list[ScheduleRequest] = []
        ul_requests: list[ScheduleRequest] = []
        contexts: dict[tuple, _LinkCtx] = {}

        def consider(link_key: tuple, ctx: _LinkCtx, retx: HarqProcess | None,
                     cqi: int, backlog: int, bucket: list[ScheduleRequest]) -> None:
            node_id = ctx.rx_id if ctx.direction is Direction.DL else ctx.tx_id
            if retx is not None:
                request = ScheduleRequest(
                    node_id=node_id, direction=ctx.direction, cqi=retx.cqi,
                    retx_rbs=retx.num_rbs, link_key=link_key)
            elif backlog > 0 and cqi >= 1 and (
                    ctx.pool is None or ctx.pool.has_idle()):
                request = ScheduleRequest(
                    node_id=node_id, direction=ctx.direction, cqi=cqi,
                    backlog_bits=backlog, link_key=link_key)
            else:
                return
            contexts[link_key] = ctx
            bucket.append(request)

        # a link with neither queued data nor a pending retransmission
        # asks for nothing, so its CQI and context are never looked up
        enb_id = self.enb_id
        enb_power = self.node_cfg[enb_id].ue_tx_power_dbm
        dl_queues = self._queues(enb_id, Direction.DL)
        for ue_id in self.ue_ids:
            ue_cfg = self.node_cfg[ue_id]

            # downlink toward this UE
            link_key = (enb_id, Direction.DL, ue_id)
            pool = self._pool(link_key)
            retx = pool.pending_retx()
            queue = dl_queues.get(ue_id)
            backlog = queue.backlog_bits if queue is not None else 0
            if retx is not None or backlog > 0:
                consider(link_key,
                         _LinkCtx(enb_id, ue_id, Direction.DL, enb_power, pool=pool),
                         retx, self._cqi_for(("DL", ue_id), tti), backlog, dl_requests)

            # uplink from this UE (all final destinations share the hop)
            link_key = (ue_id, Direction.UL, enb_id)
            pool = self._pool(link_key)
            retx = pool.pending_retx()
            backlog = sum(queue.backlog_bits
                          for queue in self._queues(ue_id, Direction.UL).values())
            if retx is not None or backlog > 0:
                consider(link_key,
                         _LinkCtx(ue_id, enb_id, Direction.UL, ue_cfg.ue_tx_power_dbm,
                                  pool=pool),
                         retx, self._cqi_for(("UL", ue_id), tti), backlog, ul_requests)

            # direct sidelink: pending retransmissions outrank new data,
            # then the lowest-id peer with queued data is served
            d2d_queues = self._queues(ue_id, Direction.D2D)
            retx_dsts = sorted(
                dst_id for dst_id, pool in self._d2d_pools.get(ue_id, {}).items()
                if pool.pending_retx() is not None)
            d2d_endpoints = retx_dsts or self._busy_endpoints(d2d_queues)
            if d2d_endpoints:
                dst_id = d2d_endpoints[0]
                link_key = (ue_id, Direction.D2D, dst_id)
                pool = self._pool(link_key)
                queue = d2d_queues.get(dst_id)
                consider(link_key,
                         _LinkCtx(ue_id, dst_id, Direction.D2D,
                                  ue_cfg.d2d_tx_power_dbm, pool=pool),
                         pool.pending_retx(), self._sl_cqi(ue_id, dst_id, tti),
                         queue.backlog_bits if queue is not None else 0,
                         ul_requests)
            # one-to-many sidelink: fixed transmit format, no feedback;
            # like unicast, one group per TTI, the lowest with queued data
            multi_queues = self._queues(ue_id, Direction.D2D_MULTI)
            groups = self._busy_endpoints(multi_queues)
            if groups:
                group = groups[0]
                consider((ue_id, Direction.D2D_MULTI, group),
                         _LinkCtx(ue_id, None, Direction.D2D_MULTI,
                                  ue_cfg.d2d_tx_power_dbm, group_address=group),
                         None, ue_cfg.d2d_cqi or 0,
                         multi_queues[group].backlog_bits, ul_requests)

        for requests in (dl_requests, ul_requests):
            for grant in schedule_band(requests, sim.num_rbs,
                                       sim.rb_capacity_re, self.table):
                self._issue_grant(grant, contexts[grant.request.link_key])

    def _issue_grant(self, grant: ScheduleGrant, ctx: _LinkCtx) -> None:
        request = grant.request
        link = ctx.direction.link
        self.counters[f"rbs_granted_{link.value.lower()}"] += grant.num_rbs
        self.cqi_hist[(link.value.lower(), request.cqi)] = (
            self.cqi_hist.get((link.value.lower(), request.cqi), 0) + 1)

        if grant.is_retx:
            process = ctx.pool.pending_retx()
            process.awaiting_retx = False
            process.num_rbs = grant.num_rbs
            process.tx_count += 1
            chunks = process.chunks
            cqi = process.cqi
            process_id = process.process_id
        else:
            chunks = self._fill_chunks(ctx, grant.tbs_bits)
            if not chunks:
                return
            cqi = request.cqi
            process_id = None
            if ctx.pool is not None:
                process = ctx.pool.allocate()
                process.chunks = tuple(chunks)
                process.cqi = cqi
                process.num_rbs = grant.num_rbs
                process.tx_count = 1
                process_id = process.process_id

        tb = TransportBlock(
            tx_id=ctx.tx_id, direction=ctx.direction, chunks=tuple(chunks),
            cqi=cqi, rbs=grant.rbs, tx_power_dbm=ctx.tx_power_dbm,
            tti=self.now_tti + 1, dst_id=ctx.rx_id,
            group_address=ctx.group_address,
            harq_key=request.link_key if ctx.pool is not None else None,
            harq_process_id=process_id,
            harq_epoch=ctx.pool.epoch if ctx.pool is not None else 0,
            is_retx=grant.is_retx)
        self._trace("grant", ctx.tx_id,
                    ctx.group_address if ctx.rx_id is None else ctx.rx_id,
                    ctx.direction.value, grant.num_rbs)
        self.schedule_event(self.now_tti + 1, Phase.TRANSMIT, "transmit", tb)

    def _fill_chunks(self, ctx: _LinkCtx, capacity_bits: int) -> list[RlcChunk]:
        """Drain this link's bearers into one transport block payload."""
        if ctx.direction is Direction.UL:
            endpoints = self._busy_endpoints(self._queues(ctx.tx_id, Direction.UL))
        elif ctx.direction is Direction.DL:
            endpoints = [ctx.rx_id]
        elif ctx.direction is Direction.D2D:
            endpoints = [ctx.rx_id]
        else:
            endpoints = [ctx.group_address]
        queues = self._queues(ctx.tx_id, ctx.direction)
        chunks: list[RlcChunk] = []
        capacity = capacity_bits
        for endpoint in endpoints:
            queue = queues.get(endpoint)
            if queue is None or capacity < 8:
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
                    tb.direction.value, len(tb.rbs))
        if self.ledger_dump:
            self.ledger_rows.append(
                (tb.tti, self._name(tb.tx_id), tb.direction.link.value,
                 " ".join(str(rb) for rb in tb.rbs), tb.tx_power_dbm))
        self.schedule_event(tb.tti + 1, Phase.RECEIVE, "receive", tb)

    def _phase_receive(self, tb: TransportBlock) -> None:
        if tb.group_address is not None:
            self._receive_multicast(tb)
            return
        result = phy_receive(self.channel, tb, tb.dst_id)
        self._trace("receive", tb.tx_id, tb.dst_id, tb.direction.value,
                    len(tb.rbs), result.mean_sinr_db, result.decoded)
        if result.decoded:
            for packet in self._reassemble(tb.dst_id, tb.chunks, multicast=False):
                self._deliver(packet, tb.dst_id)
        if tb.harq_key is not None:
            self.schedule_event(self.now_tti + 1, Phase.HARQ_FEEDBACK,
                                "harqFeedback", (tb, result.decoded))

    def _receive_multicast(self, tb: TransportBlock) -> None:
        group = tb.group_address
        for rx_id in self.ue_ids:
            if rx_id == tb.tx_id:
                continue
            if not self.binder.is_member(group, rx_id):
                for packet_id in sorted({c.packet.packet_id for c in tb.chunks}):
                    self._close_instance(packet_id, rx_id, InstanceStatus.FILTERED)
                self._trace("receive", tb.tx_id, rx_id, tb.direction.value,
                            len(tb.rbs), None, None)
                continue
            result = phy_receive(self.channel, tb, rx_id)
            self._trace("receive", tb.tx_id, rx_id, tb.direction.value,
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
            flow = next(f for f, _, _, _ in self.flows
                        if f.flow_id == packet.flow_id)
            response = self._new_packet(flow, rx_id, packet.src_id, None,
                                        is_request=False)
            self._classify_and_enqueue(response, rx_id)

    def _phase_harq_feedback(self, tb: TransportBlock, ack: bool) -> None:
        pool = self.pools[tb.harq_key]
        if tb.harq_epoch != pool.epoch:
            return  # the link was reset while this block was in flight
        process = pool.get(tb.harq_process_id)
        outcome = harq_on_feedback(process, ack, self.config.sim.harq_max_retx)
        self._trace("feedback", tb.dst_id, tb.tx_id, tb.direction.value, 0,
                    None, ack)
        if outcome is HarqOutcome.RELEASED:
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
            for phase in Phase:
                self.now_phase = phase
                if phase is Phase.PACKET_ARRIVAL:
                    self._phase_packet_arrival(tti)
                elif phase is Phase.CQI_REPORT:
                    self._phase_cqi_report(tti)
                elif phase is Phase.MODE_SELECTION:
                    self._phase_mode_selection(tti)
                elif phase is Phase.SCHEDULE:
                    self._phase_schedule(tti)
                for kind, payload in self._drain_events(tti, phase):
                    if kind == "modeSwitchApply":
                        self._apply_switch(payload)
                    elif kind == "transmit":
                        self._phase_transmit(payload)
                    elif kind == "receive":
                        self._phase_receive(payload)
                    elif kind == "harqFeedback":
                        self._phase_harq_feedback(*payload)
            for problem in self.binder.check_conservation(tti):
                self.counters["rb_conservation_violations"] += 1
        return self._finalize()

    def _finalize(self) -> SimulationResult:
        flow_metrics: dict[int, dict[str, float]] = {}
        for flow, _, _, _ in self.flows:
            flow_metrics[flow.flow_id] = {
                "offered_packets": 0, "offered_bits": 0,
                "delivered_packets": 0, "delivered_bits": 0,
                "lost_harq_exhausted": 0, "lost_mode_switch": 0,
                "lost_filtered": 0, "lost_decode_failed": 0, "queued_end": 0,
                "mean_latency_ttis": float("nan"), "max_latency_ttis": 0,
            }
        latencies: dict[int, list[int]] = {fid: [] for fid in flow_metrics}

        for instance in self.instances.values():
            metrics = flow_metrics[instance.flow_id]
            metrics["offered_packets"] += 1
            metrics["offered_bits"] += instance.size_bits
            if instance.status is InstanceStatus.DELIVERED:
                metrics["delivered_packets"] += 1
                metrics["delivered_bits"] += instance.size_bits
                latencies[instance.flow_id].append(
                    instance.delivered_tti - instance.created_tti)
            elif instance.status is InstanceStatus.LOST_HARQ:
                metrics["lost_harq_exhausted"] += 1
            elif instance.status is InstanceStatus.LOST_MODE_SWITCH:
                metrics["lost_mode_switch"] += 1
            elif instance.status is InstanceStatus.FILTERED:
                metrics["lost_filtered"] += 1
            elif instance.status is InstanceStatus.LOST_DECODE:
                metrics["lost_decode_failed"] += 1
            else:
                metrics["queued_end"] += 1

        for flow_id, values in latencies.items():
            if values:
                flow_metrics[flow_id]["mean_latency_ttis"] = (
                    sum(values) / len(values))
                flow_metrics[flow_id]["max_latency_ttis"] = max(values)

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
