"""Discrete-event simulation core.

Time advances in 1 ms TTIs.  Within a TTI, work happens in a fixed
phase order so runs are reproducible event for event:

    packetArrival < cqiReport < modeSelection < modeSwitchApply
        < schedule < transmit < receive < harqFeedback

modeSwitchApply, transmit, receive and harqFeedback only handle
events, and every event fires exactly one TTI after it is queued.
``schedule_event`` appends it to that stage's FIFO list for the next
TTI; at the top of each TTI the run takes the four lists and starts
four empty ones.

CQI reports are taken every report period from TTI 0 and usable one
TTI later.  Each is counted when taken but measured when first read,
as of its own TTI against the ledger entries of the TTI before it,
which the channel keeps; a report that nothing reads is never measured.

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
from collections.abc import Iterable

from .binder import Binder, Record
from .channel import ChannelModel, CqiTable
from .config import FlowConfig, Role, ScenarioConfig, Transport, resolve_pattern
from .mode_selection import (Mode, ModeSwitchCommand, do_mode_selection,
                             get_policy)
from .stack import (Direction, HarqOutcome, HarqPool, PacketAssembler,
                    PacketDescriptor, RlcChunk, RlcTxQueue, TransportBlock,
                    harq_on_feedback, pdcp_classify, phy_receive,
                    phy_send, schedule_band)


class Phase:
    """The stages fed by events; each indexes a list of ``Engine._next``."""

    MODE_SWITCH_APPLY = 0
    TRANSMIT = 1
    RECEIVE = 2
    HARQ_FEEDBACK = 3


class InstanceStatus:
    """Where a packet instance ended, as its per-flow count names it."""

    DELIVERED = "delivered_packets"
    LOST_HARQ = "lost_harq_exhausted"
    LOST_MODE_SWITCH = "lost_mode_switch"
    FILTERED = "lost_filtered"
    LOST_DECODE = "lost_decode_failed"


class TraceRow(Record):
    __slots__ = ()

    # sinr_db and decoded are None on rows that are not receptions
    def __new__(cls, tti, event, src, dst, direction, rbs=0, sinr_db=None, decoded=None):
        return tuple.__new__(cls, (tti, event, src, dst, direction, rbs, sinr_db, decoded))


class SimulationResult(Record):
    """A run's outputs: metrics by name, metrics by flow id and name, its
    ``TraceRow``s, and its ledger rows (tti, node, direction, blocks, dBm)."""

    __slots__ = ()

    def __new__(cls, run_metrics, flow_metrics, trace, ledger_rows):
        return tuple.__new__(cls, (run_metrics, flow_metrics, trace, ledger_rows))

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


class _Link:
    """One radio link: its RLC queues, its HARQ pool and how it is served."""

    __slots__ = ("key", "tx_power_dbm", "fixed_cqi", "pool", "queues", "backlog_bits",
                 "mode", "cqi_memo", "tx_id", "direction", "rx", "rx_id", "node_id", "link",
                 "receivers", "members", "outsiders", "cqi", "retx_rbs", "granted", "grants")

    def __init__(self, key: tuple, tx_power_dbm: float, fixed_cqi: int | None,
                 pool: HarqPool | None) -> None:
        self.key = key  # (tx_id, direction, rx_id or group address)
        self.tx_id, self.direction, self.rx = key
        self.tx_power_dbm = tx_power_dbm
        self.fixed_cqi = fixed_cqi  # None when its CQI comes from reports
        self.pool = pool  # None on one-to-many links: no feedback
        # by final endpoint, in endpoint order; only a UE's uplink has several
        self.queues: dict[int | str, RlcTxQueue] = {}
        self.backlog_bits = 0  # bits left in the queues, kept as a running total
        self.cqi_memo = (None, None)  # (report TTI, CQI) last measured
        self.rx_id = None if self.direction is Direction.D2D_MULTI else self.rx
        self.node_id = self.rx if self.direction is Direction.DL else self.tx_id
        self.link = self.direction.link.lower()  # as metric names spell it
        self.granted, self.grants = 0, {}  # blocks granted; grants by CQI
        # it is its own schedule request: ``cqi`` and ``retx_rbs`` are set each TTI it
        # asks for a grant, ``retx_rbs`` to a pending retransmission's exact size or 0


def rng_stream(seed: int, purpose: str, *extra) -> random.Random:
    """Independent, reproducible random stream named by its purpose."""
    tail = ":".join(str(part) for part in extra)
    return random.Random(f"{seed}:{purpose}:{tail}")


class Engine:
    """One simulation run over a validated scenario."""

    def __init__(self, config: ScenarioConfig, *, trace: bool = False,
                 ledger_dump: bool = False, initial_mode: Mode | None = None):
        self.config = config
        self.trace_enabled = trace  # tested before any trace call builds its arguments
        self.ledger_dump = ledger_dump

        sim = config.sim
        # a node's id is its place in ``sim.nodes``; validate keeps names unique
        nodes = config.nodes
        self.names = [node.name for node in nodes]
        ids = {name: node_id for node_id, name in enumerate(self.names)}
        self.enb_id = next(i for i, node in enumerate(nodes) if node.role is Role.ENB)
        self.ue_ids = [i for i, node in enumerate(nodes) if node.role is not Role.ENB]
        self.binder = Binder(sim.num_rbs)
        self.table = CqiTable.default()
        self.channel = ChannelModel(self.binder, [(n.position_x, n.position_y) for n in nodes],
                                    config.channel, self.table, sim.seed)

        # each peering's starting mode, in node order and then in the order
        # the node lists its peers, the order mode selection visits them in
        peerings = dict.fromkeys(((node_id, ids[peer])
                                  for node_id, node in enumerate(nodes)
                                  for peer in node.d2d_peer_addresses),
                                 initial_mode or Mode.DM)
        # each group's member names; validate keeps addresses unique
        self._members = {group.address: resolve_pattern(group.member_pattern, self.names)
                         for group in config.multicast_groups}

        self.flows: list[tuple[FlowConfig, int, int | None]] = []
        self._due: dict[int, list[int]] = {}  # TTI -> flows due then; each refiles as it fires
        for flow in config.flows:
            jitter = (rng_stream(sim.seed, "jitter", flow.flow_id).randint(
                0, flow.start_jitter_ttis) if flow.start_jitter_ttis > 0 else 0)
            self._due.setdefault(flow.start_tti + jitter, []).append(len(self.flows))
            self.flows.append((flow, ids[flow.source_node],
                               None if flow.dest_address in self._members
                               else ids[flow.dest_address]))

        # every link the scenario can use, as (downlink, uplink, peers, groups)
        # per UE; a UE serves its peers in id order and its groups by address
        self.pools: dict[tuple, HarqPool] = {}
        self._links: dict[tuple, _Link] = {}
        self._ue_links: dict[int, tuple[_Link, _Link, list[_Link], list[_Link]]] = {
            ue_id: (self._add_link(self.enb_id, Direction.DL, ue_id),
                    self._add_link(ue_id, Direction.UL, self.enb_id), [], [])
            for ue_id in self.ue_ids}
        one_to_many = {(src_id, flow.dest_address)
                       for flow, src_id, dst_id in self.flows if dst_id is None}
        for direction, pairs in ((Direction.D2D, peerings),
                                 (Direction.D2D_MULTI, one_to_many)):
            for tx_id, rx in sorted(pairs):
                link = self._add_link(tx_id, direction, rx)
                link.mode = peerings.get((tx_id, rx))  # None on one-to-many links
                self._ue_links[tx_id][2 if direction is Direction.D2D else 3].append(link)
        self._peerings = {(tx, rx): self._links[tx, Direction.D2D, rx] for tx, rx in peerings}

        # mutable run state; ``_active`` holds the UEs that may have queued
        # data or a pending retransmission
        self._active: set[int] = set()
        self.assemblers: dict[int, PacketAssembler] = {}
        # open packet instances only: each is counted in ``totals`` as it closes
        self.instances: dict[tuple[int, int | None], PacketDescriptor] = {}
        self._unsent: dict[int, tuple[int, int]] = {}  # multicast id -> (flow id, outsiders)
        self._next: list[list] = [[], [], [], []]  # FIFO per Phase, for the next TTI
        self._packet_seq = 0  # ``run`` sets ``now_tti`` at the top of each TTI

        self.trace: list[TraceRow] = []
        self.ledger_rows: list[tuple[int, str, str, str, float]] = []
        self.counters: dict[str, float] = {
            "rbs_granted_dl": 0, "rbs_granted_ul": 0, "rbs_granted_sl": 0,
            "cqi_reports_dl": 0, "cqi_reports_ul": 0, "cqi_reports_sl": 0,
            "mode_switch_count": 0, "rb_conservation_violations": 0,
        }
        self.totals: dict[int, dict[str, float]] = {
            flow.flow_id: {
                "offered_packets": 0, "offered_bits": 0,
                "delivered_packets": 0, "delivered_bits": 0,
                "lost_harq_exhausted": 0, "lost_mode_switch": 0,
                "lost_filtered": 0, "lost_decode_failed": 0, "queued_end": 0,
                "mean_latency_ttis": float("nan"), "max_latency_ttis": 0,
            } for flow, _, _ in self.flows}
        self._latency_sum: dict[int, int] = dict.fromkeys(self.totals, 0)

    # -- helpers --------------------------------------------------------

    def _trace(self, event: str, src_id: int, dst: int | str,
               direction: Direction | Mode, rbs: int = 0,
               sinr_db: float | None = None, decoded: bool | None = None) -> None:
        """Record a trace row; ``dst`` is a node id or a group address."""
        dst_name = dst if isinstance(dst, str) else self.names[dst]
        self.trace.append(TraceRow(self.now_tti, event, self.names[src_id], dst_name,
                                   direction.value, rbs, sinr_db, decoded))

    def schedule_event(self, phase: Phase, payload: object) -> None:
        """Queue ``payload`` for ``phase`` of the next TTI, behind earlier ones."""
        self._next[phase].append(payload)

    def _add_link(self, tx_id: int, direction: Direction, rx: int | str) -> _Link:
        key = (tx_id, direction, rx)
        cfg = self.config.nodes[tx_id]
        if direction is Direction.D2D_MULTI:  # fixed format, no feedback, no HARQ
            link = _Link(key, cfg.d2d_tx_power_dbm, cfg.d2d_cqi, None)
            # every other UE, in id order; the eNB hears no sidelink, member or not
            link.receivers = [(ue_id, self.names[ue_id] in self._members[rx])
                              for ue_id in self.ue_ids if ue_id != tx_id]
            link.members = [ue_id for ue_id, member in link.receivers if member]
            link.outsiders = len(link.receivers) - len(link.members)  # the other UEs
        else:
            pool = self.pools[key] = HarqPool(self.config.sim.harq_processes)
            # validate: a preconfigured sender has a CQI and is never sounded; any
            # other sidelink sender reports
            if direction is Direction.D2D:
                link = _Link(key, cfg.d2d_tx_power_dbm,
                             cfg.d2d_cqi if cfg.use_preconfigured_tx_params else None, pool)
            else:
                link = _Link(key, cfg.ue_tx_power_dbm, None, pool)
        self._links[key] = link
        return link

    def _link_cqi(self, link: _Link, tti: int) -> int:
        """The link's CQI at ``tti``: its fixed CQI, or the last report
        usable by then, 0 before the first, measured on first read."""
        if link.fixed_cqi is not None:
            return link.fixed_cqi
        period = self.config.sim.cqi_report_period_ttis
        taken = (tti - 1) // period * period  # usable one TTI after it is taken
        if taken < 0:
            return 0
        if link.cqi_memo[0] != taken:
            link.cqi_memo = (taken, self.channel.wideband_cqi(
                link.tx_id, link.rx_id, tti=taken, tx_power_dbm=link.tx_power_dbm,
                direction=link.direction))
        return link.cqi_memo[1]

    # -- packet lifecycle ------------------------------------------------

    def _new_packet(self, flow_id: int, size_bits: int, src_id: int, dst_id: int | None,
                    group: str | None, is_request: bool) -> PacketDescriptor:
        self._packet_seq += 1
        packet = PacketDescriptor(
            packet_id=self._packet_seq, flow_id=flow_id, src_id=src_id,
            dst_id=dst_id, group_address=group, size_bits=size_bits,
            created_tti=self.now_tti, is_request=is_request)
        rx_ids, outsiders = [None], 0
        if group is not None:  # its outsiders are open until a block of it is received
            link = self._links[src_id, Direction.D2D_MULTI, group]
            rx_ids, outsiders = link.members, link.outsiders
            self._unsent[packet.packet_id] = (flow_id, outsiders)
        for rx_id in rx_ids:
            self.instances[(packet.packet_id, rx_id)] = packet
        totals = self.totals[flow_id]
        totals["offered_packets"] += len(rx_ids) + outsiders
        totals["offered_bits"] += (len(rx_ids) + outsiders) * packet.size_bits
        return packet

    def _close_instance(self, packet_id: int, rx_id: int | None,
                        status: InstanceStatus) -> None:
        """Count an open instance in its flow's totals and forget it."""
        packet = self.instances.pop((packet_id, rx_id), None)
        if packet is None:
            return  # already closed
        totals = self.totals[packet.flow_id]
        totals[status] += 1
        if status is InstanceStatus.DELIVERED:
            totals["delivered_bits"] += packet.size_bits
            latency = self.now_tti - packet.created_tti
            self._latency_sum[packet.flow_id] += latency
            totals["max_latency_ttis"] = max(totals["max_latency_ttis"], latency)
        else:  # chunks wait at the receiver; a unicast packet's at the eNB or its destination
            for node_id in (self.enb_id, packet.dst_id) if rx_id is None else (rx_id,):
                if node_id in self.assemblers:
                    self.assemblers[node_id].discard(packet_id)

    def _reassemble(self, rx_id: int, chunks: Iterable[RlcChunk], *,
                    multicast: bool) -> list[PacketDescriptor]:
        """Packets that ``chunks`` complete at ``rx_id``.

        A chunk whose packet instance has already closed is dropped: the
        packet's fate is settled, and its bits would never be freed.
        """
        assembler = self.assemblers.get(rx_id)
        if assembler is None:
            assembler = self.assemblers[rx_id] = PacketAssembler()
        instance_rx = rx_id if multicast else None
        done = []
        for chunk in chunks:
            if (chunk.packet.packet_id, instance_rx) in self.instances:
                packet = assembler.add(chunk)
                if packet is not None:
                    done.append(packet)
        return done

    def _classify_and_enqueue(self, packet: PacketDescriptor, at_node: int) -> None:
        """Run one hop's PDCP classification and queue the packet."""
        is_mcast = packet.group_address is not None
        peer = self._peerings.get((at_node, packet.dst_id))  # peerings run UE to UE
        direction = pdcp_classify(at_node == self.enb_id, is_mcast,
                                  peer.mode if peer is not None else None)
        endpoint = packet.group_address if is_mcast else packet.dst_id
        link = self._links[at_node, direction,
                           self.enb_id if direction is Direction.UL else endpoint]
        if endpoint not in link.queues:  # keep the queues in endpoint order
            link.queues = dict(sorted({**link.queues, endpoint: RlcTxQueue()}.items()))
        link.queues[endpoint].push(packet)
        link.backlog_bits += packet.size_bits
        self._active.add(link.node_id)  # the scheduling pass visits it
        if self.trace_enabled:
            self._trace("classify", at_node, endpoint, direction)

    # -- phases -----------------------------------------------------------

    def _phase_packet_arrival(self, tti: int) -> None:
        for index in sorted(self._due.pop(tti, ())):  # in flow order
            flow, src_id, dst_id = self.flows[index]
            self._due.setdefault(tti + flow.period_ttis, []).append(index)
            group = flow.dest_address if dst_id is None else None
            packet = self._new_packet(
                flow.flow_id, flow.packet_bytes * 8, src_id, dst_id, group,
                is_request=flow.transport is Transport.REQUEST_RESPONSE)
            self._classify_and_enqueue(packet, src_id)

    def _phase_cqi_report(self, tti: int) -> None:
        if tti % self.config.sim.cqi_report_period_ttis != 0:
            return
        self.channel.pin(tti)  # the round's reports are measured as of ``tti``
        self.counters["cqi_reports_ul"] += len(self.ue_ids)
        self.counters["cqi_reports_dl"] += len(self.ue_ids)
        self.counters["cqi_reports_sl"] += sum(
            link.fixed_cqi is None for link in self._peerings.values())

    def _phase_mode_selection(self, tti: int) -> None:
        ms = self.config.mode_selection
        if not ms.enabled or tti == 0 or tti % ms.period_ttis != 0:
            return
        policy = get_policy(ms.policy_name)
        commands = do_mode_selection(
            {pair: link.mode for pair, link in self._peerings.items()}, policy,
            lambda s, d: (self._link_cqi(self._peerings[s, d], tti),
                          self._link_cqi(self._ue_links[s][1], tti)))
        for command in commands:
            self.schedule_event(Phase.MODE_SWITCH_APPLY, command)

    def _apply_switch(self, command: ModeSwitchCommand) -> None:
        src, dst = command.src_id, command.dst_id
        link = self._peerings[src, dst]
        old, link.mode = link.mode, command.new_mode
        self.counters["mode_switch_count"] += 1
        lost: list[int] = []
        if old is Mode.DM:
            for queue in link.queues.values():
                lost.extend(p.packet_id for p in queue.flush())
            link.backlog_bits = 0
            # releasing a process makes the feedback for its block stale
            for process in [p for p in link.pool.processes if p.busy]:
                lost.extend({c.packet.packet_id for c in process.tb.chunks})
                link.pool.release(process)
        else:  # src's uplink and the eNB's relay leg
            for key in ((src, Direction.UL, self.enb_id), (self.enb_id, Direction.DL, dst)):
                leg = self._links[key]
                if dst in leg.queues:  # every packet on src's uplink is from src
                    lost.extend(p.packet_id for p in
                                leg.queues[dst].flush_where(lambda p: p.src_id == src))
                    leg.backlog_bits = sum(q.backlog_bits for q in leg.queues.values())
        for packet_id in lost:
            self._close_instance(packet_id, None, InstanceStatus.LOST_MODE_SWITCH)
        if self.trace_enabled:
            self._trace("modeSwitch", src, dst, command.new_mode)

    # -- scheduling --------------------------------------------------------

    def _request(self, link: _Link, tti: int, taken: int, bucket: list[_Link]) -> bool:
        """Request a pending retransmission, else new data if the link has a usable
        CQI (reported at ``taken``) and an idle HARQ process; True if it holds either."""
        pool = link.pool
        if pool is not None and pool.waiting:
            retx = pool.pending_retx()
            link.cqi, link.retx_rbs = retx.tb.cqi, len(retx.tb.rbs)
            bucket.append(link)
            return True
        if not link.backlog_bits:
            return False
        cqi = link.fixed_cqi
        if cqi is None:  # reported: read the memo inline while it holds the report usable now
            memo = link.cqi_memo
            cqi = memo[1] if memo[0] == taken else self._link_cqi(link, tti)
        if cqi >= 1 and (pool is None or pool.has_idle()):
            link.cqi, link.retx_rbs = cqi, 0
            bucket.append(link)
        return True

    def _phase_schedule(self, tti: int) -> None:
        sim = self.config.sim
        dl_requests: list[_Link] = []
        ul_requests: list[_Link] = []
        taken = (tti - 1) // sim.cqi_report_period_ttis * sim.cqi_report_period_ttis

        # a UE with nothing left leaves; an enqueue or a NACK brings it back
        for ue_id in sorted(self._active):
            downlink, uplink, peers, groups = self._ue_links[ue_id]
            busy = self._request(downlink, tti, taken, dl_requests)
            busy |= self._request(uplink, tti, taken, ul_requests)
            # one sidelink per TTI: a pending retransmission outranks new
            # data, then the first peer with queued data is served
            peer = None
            for link in peers:
                if link.pool.waiting:
                    peer = link
                    break
                if peer is None and link.backlog_bits:
                    peer = link
            if peer is not None:
                busy |= self._request(peer, tti, taken, ul_requests)
            # likewise one group per TTI, the first with queued data
            for link in groups:
                if link.backlog_bits:
                    busy |= self._request(link, tti, taken, ul_requests)
                    break
            if not busy:
                self._active.discard(ue_id)

        for requests in (dl_requests, ul_requests):
            if requests:
                for tb in schedule_band(requests, sim.num_rbs, sim.rb_capacity_re,
                                        self.table):
                    self._issue_grant(tb)

    def _issue_grant(self, tb: TransportBlock) -> None:
        link, num_rbs = tb.request, len(tb.rbs)
        pool = link.pool
        if link.retx_rbs:  # granted at exactly the size of the block it repeats
            process = pool.pending_retx()
            process.awaiting_retx = False
            tb.chunks, tb.cqi = process.tb.chunks, process.tb.cqi
        else:
            # the link has data and a fresh grant carries a byte: never empty
            tb.chunks, tb.cqi = tuple(self._fill_chunks(link, tb.tbs_bits)), link.cqi
            process = pool.allocate() if pool is not None else None
        if process is not None:
            process.tb, tb.harq = tb, process
            process.tx_count += 1
        link.granted += num_rbs
        link.grants[link.cqi] = link.grants.get(link.cqi, 0) + 1
        tb.tx_id, tb.direction = link.tx_id, link.direction
        tb.tx_power_dbm, tb.tti = link.tx_power_dbm, self.now_tti + 1
        if self.trace_enabled:
            self._trace("grant", link.tx_id, link.rx, link.direction, num_rbs)
        self.schedule_event(Phase.TRANSMIT, tb)

    def _fill_chunks(self, link: _Link, capacity_bits: int) -> list[RlcChunk]:
        """Drain this link's queues, lowest endpoint first, into one payload."""
        if len(link.queues) == 1:  # most links have one endpoint: fill straight from it
            queue, = link.queues.values()
            chunks = queue.fill(capacity_bits)
        else:
            chunks = []  # a fragment ends the block: it leaves fewer than 8 bits
            for queue in link.queues.values():
                if queue:
                    chunks += queue.fill(capacity_bits - sum(chunk.bits for chunk in chunks))
        for chunk in chunks:
            link.backlog_bits -= chunk.bits
        return chunks

    # -- air interface ------------------------------------------------------

    def _phase_transmit(self, tb: TransportBlock) -> None:
        phy_send(self.binder, tb)
        if self.trace_enabled:
            link = tb.request
            self._trace("transmit", tb.tx_id, link.rx, link.direction, len(tb.rbs))
        if self.ledger_dump:
            self.ledger_rows.append(
                (tb.tti, self.names[tb.tx_id], tb.direction.link,
                 " ".join(str(rb) for rb in tb.rbs), tb.tx_power_dbm))
        self.schedule_event(Phase.RECEIVE, tb)

    def _phase_receive(self, tb: TransportBlock) -> None:
        link = tb.request
        if link.rx_id is None:
            self._receive_multicast(tb, link)
            return
        result = phy_receive(self.channel, tb, link.rx_id)
        if self.trace_enabled:
            self._trace("receive", tb.tx_id, link.rx_id, link.direction,
                        len(tb.rbs), result.mean_sinr_db, result.decoded)
        if result.decoded:
            for packet in self._reassemble(link.rx_id, tb.chunks, multicast=False):
                self._deliver(packet, link.rx_id)
        # every unicast link has HARQ
        self.schedule_event(Phase.HARQ_FEEDBACK, (tb, result.decoded))

    def _receive_multicast(self, tb: TransportBlock, link: _Link) -> None:
        packet_ids = sorted({c.packet.packet_id for c in tb.chunks})
        for packet_id in packet_ids:  # a packet's first block: every outsider filters it
            unsent = self._unsent.pop(packet_id, None)
            if unsent is not None:
                self.totals[unsent[0]][InstanceStatus.FILTERED] += unsent[1]
        results = {rx_id: phy_receive(self.channel, tb, rx_id) for rx_id in link.members}
        if self.trace_enabled:  # a row for every UE that hears it, member or not
            for rx_id, _ in link.receivers:
                result = results.get(rx_id)
                self._trace("receive", tb.tx_id, rx_id, link.direction, len(tb.rbs),
                            result and result.mean_sinr_db, result and result.decoded)
        for rx_id, result in results.items():
            if result.decoded:
                for packet in self._reassemble(rx_id, tb.chunks, multicast=True):
                    self._close_instance(packet.packet_id, rx_id,
                                         InstanceStatus.DELIVERED)
            else:
                for packet_id in packet_ids:
                    self._close_instance(packet_id, rx_id, InstanceStatus.LOST_DECODE)

    def _deliver(self, packet: PacketDescriptor, rx_id: int) -> None:
        if rx_id == self.enb_id and packet.dst_id != self.enb_id:
            self._classify_and_enqueue(packet, self.enb_id)  # relay leg
            return
        self._close_instance(packet.packet_id, None, InstanceStatus.DELIVERED)
        if packet.is_request:
            response = self._new_packet(packet.flow_id, packet.size_bits, rx_id,
                                        packet.src_id, None, is_request=False)
            self._classify_and_enqueue(response, rx_id)

    def _phase_harq_feedback(self, tb: TransportBlock, ack: bool) -> None:
        process, link = tb.harq, tb.request
        if process.tb is not tb:
            return  # a mode switch released the process while this block was in flight
        outcome = harq_on_feedback(process, ack, self.config.sim.harq_max_retx)
        if self.trace_enabled:
            self._trace("feedback", link.rx_id, link.tx_id, link.direction, 0, None, ack)
        if outcome is HarqOutcome.RETRANSMIT:
            self._active.add(link.node_id)
        elif outcome is HarqOutcome.RELEASED:
            link.pool.release(process)
        elif outcome is HarqOutcome.DROPPED:
            for packet_id in sorted({c.packet.packet_id for c in tb.chunks}):
                self._close_instance(packet_id, None, InstanceStatus.LOST_HARQ)
            link.pool.release(process)

    # -- main loop ------------------------------------------------------------

    def run(self) -> SimulationResult:
        for tti in range(self.config.sim.tti_count):
            self.now_tti = tti
            self.binder.advance(tti)
            switches, transmits, receives, feedback = self._next
            self._next = [[], [], [], []]
            self._phase_packet_arrival(tti)
            self._phase_cqi_report(tti)
            self._phase_mode_selection(tti)
            for command in switches:
                self._apply_switch(command)
            self._phase_schedule(tti)
            for tb in transmits:
                self._phase_transmit(tb)
            for tb in receives:
                self._phase_receive(tb)
            for tb, ack in feedback:
                self._phase_harq_feedback(tb, ack)
            self.counters["rb_conservation_violations"] += len(
                self.binder.check_conservation(tti))
        return self._finalize()

    def _finalize(self) -> SimulationResult:
        flow_metrics = {flow_id: dict(totals) for flow_id, totals in self.totals.items()}
        for packet in self.instances.values():
            flow_metrics[packet.flow_id]["queued_end"] += 1
        for flow_id, outsiders in self._unsent.values():  # still queued for every outsider
            flow_metrics[flow_id]["queued_end"] += outsiders
        for flow_id, metrics in flow_metrics.items():
            if metrics["delivered_packets"]:
                metrics["mean_latency_ttis"] = (
                    self._latency_sum[flow_id] / metrics["delivered_packets"])

        run_metrics = dict(self.counters)
        for link in self._links.values():
            run_metrics[f"rbs_granted_{link.link}"] += link.granted
            for cqi, count in link.grants.items():
                name = f"cqi_hist_{link.link}_{cqi}"
                run_metrics[name] = run_metrics.get(name, 0) + count
        capacity = self.config.sim.num_rbs * self.config.sim.tti_count
        for link in ("dl", "ul", "sl"):
            run_metrics[f"rb_utilization_{link}"] = (
                run_metrics[f"rbs_granted_{link}"] / capacity if capacity else 0.0)
        run_metrics["rbs_granted_total"] = sum(
            run_metrics[f"rbs_granted_{link}"] for link in ("dl", "ul", "sl"))
        run_metrics["mode_switch_losses"] = sum(
            m["lost_mode_switch"] for m in flow_metrics.values())

        return SimulationResult(run_metrics, flow_metrics, self.trace,
                                self.ledger_rows)


def run_scenario(config: ScenarioConfig, *, trace: bool = False,
                 ledger_dump: bool = False,
                 initial_mode: Mode | None = None) -> SimulationResult:
    """Simulate one scenario end to end."""
    return Engine(config, trace=trace, ledger_dump=ledger_dump,
                  initial_mode=initial_mode).run()
