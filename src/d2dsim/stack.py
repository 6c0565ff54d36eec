"""Protocol stack building blocks: PDCP, RLC, MAC, HARQ and PHY.

These are the mechanisms the engine composes each TTI.  They hold no
clock of their own: every operation takes the state it works on, so
each piece can be exercised in isolation.

Traffic direction is decided once per hop at the PDCP layer.  A
UE-to-UE packet rides the sidelink in one hop when its peering is in
direct mode, and otherwise crosses the eNB as an ordinary uplink
transmission followed by a downlink one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque

from .binder import Binder, Direction
from .channel import ChannelModel, CqiTable, amc_tbs, decode
from .mode_selection import Mode


class PacketDescriptor:
    """Identity of one application packet, fixed at creation."""

    __slots__ = ("packet_id", "flow_id", "src_id", "dst_id", "group_address",
                 "size_bits", "created_tti", "is_request")

    def __init__(self, packet_id: int, flow_id: int, src_id: int,
                 dst_id: int | None, group_address: str | None, size_bits: int,
                 created_tti: int, is_request: bool = False) -> None:
        self.packet_id, self.flow_id, self.src_id = packet_id, flow_id, src_id
        self.dst_id, self.group_address = dst_id, group_address  # dst None for multicast
        self.size_bits, self.created_tti, self.is_request = size_bits, created_tti, is_request


def pdcp_classify(src_is_enb: bool, is_multicast: bool,
                  peer_mode: Mode | None) -> Direction:
    """Pick the direction of a packet's next hop.

    ``peer_mode`` is the sender's peering mode toward the destination,
    or None when the pair is not peered; every other unicast packet a UE
    sends, to the eNB (never a peer) or through it, goes up the uplink.
    """
    if is_multicast:
        return Direction.D2D_MULTI
    if src_is_enb:
        return Direction.DL
    return Direction.D2D if peer_mode is Mode.DM else Direction.UL


# ---------------------------------------------------------------------------
# RLC (unacknowledged mode, byte-granular segmentation)

class RlcChunk:
    __slots__ = ("packet", "bits", "last")

    def __init__(self, packet: PacketDescriptor, bits: int, last: bool) -> None:
        self.packet, self.bits, self.last = packet, bits, last


class RlcTxQueue(deque):
    """FIFO of packets awaiting transmission on one (link, direction),
    each held as ``[descriptor, remaining_bits]``.

    ``fill`` builds one transport block's payload: whole packets first,
    then at most one trailing fragment, cut at a byte boundary.  The
    fragmented packet's remainder stays at the head of the queue.
    """

    __slots__ = ()

    def push(self, packet: PacketDescriptor) -> None:
        self.append([packet, packet.size_bits])

    @property
    def backlog_bits(self) -> int:
        """Bits left to send; the engine keeps each link's total running."""
        return sum(remaining for _, remaining in self)

    def fill(self, capacity: int) -> list[RlcChunk]:
        chunks: list[RlcChunk] = []
        while self and capacity >= 8:
            head = self[0]
            packet, remaining = head
            if remaining <= capacity:
                chunks.append(RlcChunk(packet, remaining, last=True))
                capacity -= remaining
                self.popleft()
            else:
                fragment = (capacity // 8) * 8
                chunks.append(RlcChunk(packet, fragment, last=False))
                head[1] = remaining - fragment
                break
        return chunks

    def flush(self) -> list[PacketDescriptor]:
        """Drop everything queued, returning one descriptor per packet."""
        return self.flush_where(lambda packet: True)

    def flush_where(self, predicate) -> list[PacketDescriptor]:
        """Drop only the queued packets matching ``predicate``."""
        dropped = [packet for packet, _ in self if predicate(packet)]
        kept = [item for item in self if not predicate(item[0])]
        self.clear()
        self.extend(kept)
        return dropped


class PacketAssembler:
    """Receiver-side reassembly: a packet completes when all bits arrive."""

    __slots__ = ("_received_bits",)

    def __init__(self) -> None:
        self._received_bits: dict[int, int] = {}

    def add(self, chunk: RlcChunk) -> PacketDescriptor | None:
        pid = chunk.packet.packet_id
        total = self._received_bits.get(pid, 0) + chunk.bits
        if total >= chunk.packet.size_bits:
            self._received_bits.pop(pid, None)
            return chunk.packet
        self._received_bits[pid] = total

    def discard(self, packet_id: int) -> None:
        """Forget the bits of a packet that will not complete."""
        self._received_bits.pop(packet_id, None)


# ---------------------------------------------------------------------------
# AMC

def rbs_needed(bits: int, cqi: int, rb_capacity_re: int, table: CqiTable) -> int | None:
    """Fewest blocks whose transport block fits ``bits``, or None at CQI 0."""
    if cqi == 0:
        return None
    if bits <= 0:
        return 0
    # the rounded ratio is within a block of the need either way: climb from a block below
    n = math.ceil(bits / (rb_capacity_re * table.efficiencies[cqi])) - 1
    while amc_tbs(cqi, n, rb_capacity_re, table) < bits:
        n += 1
    return n


# ---------------------------------------------------------------------------
# MAC scheduler

_DIRECTION_RANK = {d: rank for rank, d in
                   enumerate(sorted(Direction, key=lambda d: d.value))}


def _by_node(request) -> tuple[int, int]:
    return request.node_id, _DIRECTION_RANK[request.direction]


def schedule_band(requests: list, num_rbs: int,
                  rb_capacity_re: int, table: CqiTable) -> list[TransportBlock]:
    """Share one band's blocks among this TTI's requests.

    A request is any object with ``node_id``, ``direction``, ``cqi``,
    ``backlog_bits`` and ``retx_rbs``, the exact size of a pending
    retransmission or 0; at most one per (node, direction).

    Retransmissions come first, in node-id order, each all-or-nothing
    at its original size.  Remaining blocks go to new transmissions
    round-robin, one block per requester per round, so a node that
    needs few blocks finishes early and the rest keep absorbing the
    residue; when the last round cannot serve everyone, lower node ids
    win.  New data is never granted a run too small for a byte (8 bits):
    the last requester left with one drops out, and the rest are dealt the
    blocks again.  Granted counts are then laid out contiguously from
    index 0, one transport block per grant.
    """
    if len(requests) > 1 and len({(r.node_id, r.direction) for r in requests}) != len(requests):
        keys = [(r.node_id, r.direction) for r in requests]
        node_id, direction = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"duplicate request for node {node_id} {direction.value}")

    retx, fresh = [], []  # retransmissions; new data at a CQI that carries bits
    for r in requests:
        if r.retx_rbs > 0:
            retx.append(r)
        elif r.cqi >= 1:  # a request with no backlog needs, and gets, no block
            fresh.append(r)

    sizes = table.tbs_sizes(rb_capacity_re, num_rbs)
    available = num_rbs
    ordered: list[tuple[object, int, int]] = []  # (request, rb count, bits)
    if retx:  # only after a NACK
        retx.sort(key=_by_node)
        for request in retx:
            if request.retx_rbs <= available:
                ordered.append((request, request.retx_rbs, sizes[request.cqi][request.retx_rbs]))
                available -= request.retx_rbs

    if len(fresh) == 1:  # a lone requester takes what it needs, up to what is left
        request = fresh[0]
        count = min(bisect_left(sizes[request.cqi], request.backlog_bits), available)
        if sizes[request.cqi][count] >= 8:
            ordered.append((request, count, sizes[request.cqi][count]))
    elif fresh:
        fresh.sort(key=_by_node)
        need = [bisect_left(sizes[r.cqi], r.backlog_bits) for r in fresh]
        while True:
            # whole rounds up to each need, smallest first; one past the band is never met
            level, left = 0, len(need)  # blocks each open requester holds; how many are open
            for target in sorted(need):  # never below level, and equal to it changes nothing
                rounds = min(target - level, available // left)
                level += rounds
                available -= rounds * left
                if level < target:
                    break
                left -= 1
            dropped = None
            for request, n in zip(fresh, need):
                count = min(n, level)
                if n > level and available:  # the partial last round: lower node ids first
                    count += 1
                    available -= 1
                bits = sizes[request.cqi][count]
                if bits >= 8:
                    ordered.append((request, count, bits))
                elif count:
                    dropped = request
            if dropped is None:
                break
            i = fresh.index(dropped)  # it drops out, and the rest are dealt the blocks again
            del fresh[i], need[i]
            ordered = [grant for grant in ordered if grant[0].retx_rbs]
            available = num_rbs - sum(count for _, count, _ in ordered)

    blocks: list[TransportBlock] = []
    next_rb = 0  # each grant's run starts where the previous one ended
    for request, count, bits in ordered:
        blocks.append(TransportBlock(request, range(next_rb, next_rb + count), bits))
        next_rb += count
    return blocks


# ---------------------------------------------------------------------------
# HARQ (stop-and-wait processes, unicast only)

class HarqOutcome:
    """What :func:`harq_on_feedback` tells the caller to do; compare with ``is``."""

    RELEASED = "released"
    RETRANSMIT = "retransmit"
    DROPPED = "dropped"


class HarqProcess:
    __slots__ = ("process_id", "pool", "busy", "tb", "tx_count", "_awaiting_retx")

    def __init__(self, process_id: int, pool: HarqPool) -> None:
        self.process_id, self.pool = process_id, pool  # the pool counts waiting processes
        self.busy = self._awaiting_retx = False
        self.tb: TransportBlock | None = None  # the block it sent, which a retransmission repeats
        self.tx_count = 0

    @property
    def awaiting_retx(self) -> bool:
        return self._awaiting_retx

    @awaiting_retx.setter
    def awaiting_retx(self, value: bool) -> None:
        self.pool.waiting += value - self._awaiting_retx
        self._awaiting_retx = value


class HarqPool:
    """Per-link set of stop-and-wait processes.

    Process k is made only when processes 0..k-1 are all busy, so
    ``processes`` holds the ones made so far; one not yet made is idle.
    Multicast transmissions never allocate a process: with no single
    feedback source, each transport block is sent exactly once.
    """

    __slots__ = ("num_processes", "processes", "busy", "waiting")

    def __init__(self, num_processes: int) -> None:
        self.num_processes = num_processes
        self.processes: list[HarqProcess] = []
        # ``busy`` and ``waiting`` (for a retransmission) count processes,
        # so that no question scans them
        self.busy = self.waiting = 0

    def allocate(self) -> HarqProcess | None:
        """Claim the lowest-numbered idle process, or None if all busy."""
        for process in self.processes:
            if not process.busy:
                break
        else:  # every process made so far is busy: make the next, if there is one
            if len(self.processes) == self.num_processes:
                return None
            process = HarqProcess(len(self.processes), self)
            self.processes.append(process)
        process.busy = True
        self.busy += 1
        return process

    def has_idle(self) -> bool:
        return self.busy < self.num_processes

    def release(self, process: HarqProcess) -> None:
        self.busy -= process.busy
        process.busy = False
        process.tb = None
        process.tx_count = 0
        if process._awaiting_retx:  # skip the setter unless it was waiting
            process.awaiting_retx = False

    def pending_retx(self) -> HarqProcess | None:
        """Lowest-numbered process waiting for a retransmission grant, if any.

        Several can wait at once when a retransmission is refused a full
        band while a later block of the link is NACKed; the lowest-numbered
        one is served first, even if another was NACKed before it.
        """
        if self.waiting:
            for process in self.processes:
                if process.busy and process.awaiting_retx:
                    return process


def harq_on_feedback(process: HarqProcess, ack: bool, max_retx: int) -> HarqOutcome:
    """Advance one process on ACK/NACK.

    ``tx_count`` counts transmissions already performed, so a NACK
    after the initial attempt allows up to ``max_retx`` further tries.
    The caller releases the process on RELEASED/DROPPED and requests a
    grant as large as ``process.tb`` on RETRANSMIT.
    """
    if not process.busy:
        raise ValueError(f"feedback for idle process {process.process_id}")
    if ack:
        return HarqOutcome.RELEASED
    if process.tx_count <= max_retx:
        process.awaiting_retx = True
        return HarqOutcome.RETRANSMIT
    return HarqOutcome.DROPPED


# ---------------------------------------------------------------------------
# PHY

class TransportBlock:
    """One grant, from the scheduler to HARQ feedback.

    ``schedule_band`` sets the request, a contiguous run of blocks and
    the bits it carries.  The rest stays unset until the engine issues the
    grant: it adds the payload (``chunks``) and its ``cqi``, the air
    interface's fields (``tx_id``, ``direction``, ``tx_power_dbm`` and
    ``tti``) and, on a unicast link, the HARQ process keeping it (``harq``);
    the binder books it as its entry.
    """

    __slots__ = ("request", "rbs", "tbs_bits", "tx_id", "direction",
                 "tx_power_dbm", "tti", "cqi", "chunks", "harq")

    def __init__(self, request: object, rbs: range, tbs_bits: int) -> None:
        self.request, self.rbs, self.tbs_bits = request, rbs, tbs_bits


class ReceptionResult:
    __slots__ = ("decoded", "mean_sinr_db")

    def __init__(self, decoded: bool, mean_sinr_db: float) -> None:
        self.decoded, self.mean_sinr_db = decoded, mean_sinr_db


def phy_send(binder: Binder, tb: TransportBlock) -> TransportBlock:
    """Put a transport block on the air by booking its blocks."""
    return binder.record_allocation(tb)


def phy_receive(channel: ChannelModel, tb: TransportBlock,
                rx_id: int) -> ReceptionResult:
    """Attempt reception of a transport block that :func:`phy_send` booked.

    The binder books a resource block at most once per band and TTI, so no
    other transmission shares one with ``tb`` and its SINR is noise-limited.
    Decoding is all-or-nothing on the mean SINR.
    """
    mean_db = channel.noise_limited_mean_db(tb.tx_id, rx_id, tb.tti,
                                            tb.tx_power_dbm, len(tb.rbs))
    return ReceptionResult(decode(mean_db, tb.cqi, channel.table), mean_db)
