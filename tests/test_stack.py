"""PDCP classification, RLC segmentation, AMC, scheduling and HARQ."""

from bisect import bisect_left
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from d2dsim import (CqiTable, Direction, HarqOutcome, HarqPool, Mode,
                    PacketAssembler, PacketDescriptor, RlcTxQueue, TransportBlock,
                    amc_tbs, harq_on_feedback, pdcp_classify, rbs_needed,
                    schedule_band)
from d2dsim.stack import ReceptionResult, RlcChunk

TABLE = CqiTable.default()


def _packet(pid=1, size_bits=4000, **kw):
    defaults = dict(packet_id=pid, flow_id=0, src_id=1, dst_id=2,
                    group_address=None, size_bits=size_bits, created_tti=0)
    defaults.update(kw)
    return PacketDescriptor(**defaults)


def test_stack_objects_keep_their_fields_in_slots():
    # the TTI loop builds and reads these per packet, chunk or grant: no __dict__
    pool = HarqPool(1)
    objects = [_packet(), RlcChunk(_packet(), 8, True), RlcTxQueue(), PacketAssembler(),
               pool, pool.allocate(), TransportBlock(None, range(1), 0),
               ReceptionResult(True, 0.0)]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


# -- PDCP ---------------------------------------------------------------------

def test_classify_multicast_wins():
    assert pdcp_classify(False, True, None) is Direction.D2D_MULTI
    assert pdcp_classify(False, True, Mode.DM) is Direction.D2D_MULTI


def test_classify_infrastructure_endpoints():
    assert pdcp_classify(True, False, None) is Direction.DL
    assert pdcp_classify(False, False, None) is Direction.UL  # to the eNB: never peered


def test_classify_ue_pair_follows_peering_mode():
    assert pdcp_classify(False, False, Mode.DM) is Direction.D2D
    assert pdcp_classify(False, False, Mode.IM) is Direction.UL
    assert pdcp_classify(False, False, None) is Direction.UL


def test_direction_band_mapping():
    # sidelinks transmit in the uplink band and are booked as SL
    assert [(d.band, d.link) for d in Direction] == [
        ("DL", "DL"), ("UL", "UL"), ("UL", "SL"), ("UL", "SL")]


# -- RLC ------------------------------------------------------------------------

def test_backlog_bits_stays_a_property():
    # per-layer tracing wraps its getter, so it must remain a property
    assert isinstance(RlcTxQueue.__dict__["backlog_bits"], property)


_rlc_ops = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(1, 400)),
    st.tuples(st.just("fill"), st.integers(0, 5000)),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("flush_where"), st.integers(0, 2))), max_size=40)


@given(_rlc_ops)
def test_running_backlog_equals_the_queued_remainder(ops):
    queue = RlcTxQueue()
    for pid, (op, arg) in enumerate(ops):
        if op == "push":
            queue.push(_packet(pid, size_bits=8 * arg))
        elif op == "fill":
            queue.fill(arg)
        elif op == "flush":
            queue.flush()
        else:
            queue.flush_where(lambda packet: packet.packet_id % 3 == arg)
        assert queue.backlog_bits == sum(remaining for _, remaining in queue)


def test_fill_takes_whole_packets_then_one_fragment():
    queue = RlcTxQueue()
    queue.push(_packet(1, 800))
    queue.push(_packet(2, 800))
    queue.push(_packet(3, 800))
    chunks = queue.fill(2000)
    assert [(c.packet.packet_id, c.bits, c.last) for c in chunks] == [
        (1, 800, True), (2, 800, True), (3, 400, False)]
    assert queue.backlog_bits == 400  # the rest of packet 3 stays queued


def test_fill_fragments_on_byte_boundaries():
    queue = RlcTxQueue()
    queue.push(_packet(1, 800))
    chunks = queue.fill(101)  # 101 bits hold only 12 whole bytes
    assert chunks == [chunks[0]]
    assert chunks[0].bits == 96
    assert not chunks[0].last
    assert queue.backlog_bits == 800 - 96


def test_fill_continues_a_fragmented_packet():
    queue = RlcTxQueue()
    queue.push(_packet(1, 800))
    first = queue.fill(400)
    second = queue.fill(10_000)
    assert first[0].bits == 400 and not first[0].last
    assert second[0].bits == 400 and second[0].last
    assert queue.backlog_bits == 0


def test_fill_with_capacity_below_a_byte_takes_nothing():
    queue = RlcTxQueue()
    queue.push(_packet(1, 800))
    assert queue.fill(7) == []
    assert queue.backlog_bits == 800


def test_flush_returns_descriptors_once_each():
    queue = RlcTxQueue()
    queue.push(_packet(1, 800))
    queue.push(_packet(2, 800))
    queue.fill(400)  # packet 1 now partially sent
    flushed = queue.flush()
    assert [p.packet_id for p in flushed] == [1, 2]
    assert len(queue) == 0 and queue.backlog_bits == 0


def test_flush_where_is_selective():
    queue = RlcTxQueue()
    queue.push(_packet(1, 800, src_id=1))
    queue.push(_packet(2, 800, src_id=9))
    queue.push(_packet(3, 800, src_id=1))
    flushed = queue.flush_where(lambda p: p.src_id == 1)
    assert [p.packet_id for p in flushed] == [1, 3]
    assert queue.backlog_bits == 800


@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=20),
       st.integers(min_value=8, max_value=4000))
@example([1], 8)  # a byte of capacity carries a byte
def test_fill_conserves_bits_and_fragments_at_most_once(sizes_bytes, capacity):
    queue = RlcTxQueue()
    for i, size in enumerate(sizes_bytes):
        queue.push(_packet(i + 1, size * 8))
    total = queue.backlog_bits
    chunks = queue.fill(capacity)
    taken = sum(c.bits for c in chunks)
    assert taken == min(total, capacity // 8 * 8)  # every whole byte that data can use
    assert taken + queue.backlog_bits == total
    assert sum(1 for c in chunks if not c.last) <= 1
    if chunks:
        assert all(c.last for c in chunks[:-1])
        assert all(c.bits % 8 == 0 for c in chunks)


def test_assembler_completes_on_full_size():
    assembler = PacketAssembler()
    packet = _packet(1, 800)
    assert assembler.add(type("C", (), {"packet": packet, "bits": 400,
                                        "last": False})()) is None
    done = assembler.add(type("C", (), {"packet": packet, "bits": 400,
                                        "last": True})())
    assert done is packet
    # complete means every bit, not all but one
    assert assembler.add(type("C", (), {"packet": packet, "bits": 799,
                                        "last": True})()) is None


# -- AMC ---------------------------------------------------------------------------

def test_amc_tbs_oracle_values():
    # floor(n * 168 * efficiency)
    assert amc_tbs(7, 1, 168, TABLE) == 248
    assert amc_tbs(7, 17, 168, TABLE) == 4217
    assert amc_tbs(15, 1, 168, TABLE) == 933
    assert amc_tbs(1, 1, 168, TABLE) == 25
    assert amc_tbs(0, 10, 168, TABLE) == 0


def test_rbs_needed_oracle_values():
    assert rbs_needed(4000, 7, 168, TABLE) == 17
    assert rbs_needed(10_000, 7, 168, TABLE) == 41
    assert rbs_needed(8000, 3, 168, TABLE) == 127
    assert rbs_needed(8000, 15, 168, TABLE) == 9
    assert rbs_needed(1, 7, 168, TABLE) == 1
    assert rbs_needed(0, 7, 168, TABLE) == 0
    assert rbs_needed(4000, 0, 168, TABLE) is None


@pytest.mark.parametrize("bits", [-1, -1000, -10**6])
def test_a_negative_bit_count_needs_no_blocks(bits):
    # 0 blocks, not a negative count: without the guard, -1000 bits at CQI 5 read -6
    assert rbs_needed(bits, 5, 168, TABLE) == 0
    assert rbs_needed(bits, 0, 168, TABLE) is None


@given(st.integers(min_value=1, max_value=200_000),
       st.integers(min_value=1, max_value=15))
def test_rbs_needed_is_minimal(bits, cqi):
    n = rbs_needed(bits, cqi, 168, TABLE)
    assert amc_tbs(cqi, n, 168, TABLE) >= bits
    if n > 1:
        assert amc_tbs(cqi, n - 1, 168, TABLE) < bits


def test_rbs_needed_is_minimal_at_every_grant_size():
    # the guess bits / (cap * eff) rounds differently from amc_tbs's
    # (n * cap) * eff and can land a block too high
    assert rbs_needed(879, 2, 75, TABLE) == 50
    for cap in (75, 100, 230, 390):
        for cqi in range(1, 16):
            for n in range(1, 111):
                bits = amc_tbs(cqi, n, cap, TABLE)
                need = rbs_needed(bits, cqi, cap, TABLE)
                assert amc_tbs(cqi, need, cap, TABLE) >= bits, (cap, cqi, n)
                assert need == 1 or amc_tbs(cqi, need - 1, cap, TABLE) < bits, (cap, cqi, n)


@given(st.integers(1, 10_000), st.integers(1, 110), st.integers(1, 15),
       st.integers(1, 200_000))
def test_tbs_table_matches_amc_tbs_and_rbs_needed(cap, num_rbs, cqi, bits):
    sizes = TABLE.tbs_sizes(cap, num_rbs)
    assert TABLE.tbs_sizes(cap, num_rbs) is sizes  # built once
    assert len(sizes) == 16 and sizes[0] == (0,) * (num_rbs + 1)
    assert list(sizes[cqi]) == [amc_tbs(cqi, n, cap, TABLE) for n in range(num_rbs + 1)]
    assert bisect_left(sizes[cqi], bits) == min(rbs_needed(bits, cqi, cap, TABLE),
                                                num_rbs + 1)


# -- scheduler -----------------------------------------------------------------------

def _req(node, direction=Direction.UL, cqi=7, backlog=0, retx=0):
    return SimpleNamespace(node_id=node, direction=direction, cqi=cqi,
                           backlog_bits=backlog, retx_rbs=retx)


def test_single_request_gets_what_it_needs():
    grants = schedule_band([_req(1, backlog=4000)], 50, 168, TABLE)
    assert len(grants) == 1
    assert len(grants[0].rbs) == 17
    assert tuple(grants[0].rbs) == tuple(range(17))
    assert grants[0].tbs_bits == 4217


def test_round_robin_splits_scarce_blocks():
    grants = schedule_band([_req(1, backlog=50_000), _req(2, backlog=50_000)],
                           50, 168, TABLE)
    assert {g.request.node_id: len(g.rbs) for g in grants} == {1: 25, 2: 25}


def test_odd_remainder_goes_to_lower_node_id():
    grants = schedule_band([_req(1, backlog=50_000), _req(2, backlog=50_000)],
                           51, 168, TABLE)
    assert {g.request.node_id: len(g.rbs) for g in grants} == {1: 26, 2: 25}


def test_satisfied_requester_leaves_the_round_robin():
    # node 1 needs 2 blocks; node 2 absorbs everything left over
    grants = schedule_band([_req(1, backlog=300), _req(2, backlog=100_000)],
                           50, 168, TABLE)
    assert {g.request.node_id: len(g.rbs) for g in grants} == {1: 2, 2: 48}


def test_grants_are_contiguous_and_disjoint():
    grants = schedule_band([_req(1, backlog=900), _req(2, backlog=900),
                            _req(3, backlog=900)], 50, 168, TABLE)
    seen: list[int] = []
    for grant in grants:
        assert tuple(grant.rbs) == tuple(range(grant.rbs[0], grant.rbs[0] + len(grant.rbs)))
        seen.extend(grant.rbs)
    assert len(seen) == len(set(seen))


def test_retx_is_served_first_and_exactly():
    grants = schedule_band([_req(1, backlog=100_000), _req(2, retx=12)],
                           50, 168, TABLE)
    by_node = {g.request.node_id: g for g in grants}
    assert by_node[2].request.retx_rbs and len(by_node[2].rbs) == 12
    assert tuple(by_node[2].rbs) == tuple(range(12))  # placed before new data
    assert len(by_node[1].rbs) == 38


def test_retx_is_all_or_nothing():
    grants = schedule_band([_req(1, retx=30), _req(2, retx=30)], 50, 168, TABLE)
    assert [g.request.node_id for g in grants] == [1]
    assert len(grants[0].rbs) == 30


def test_cqi_zero_is_unschedulable():
    assert schedule_band([_req(1, cqi=0, backlog=4000)], 50, 168, TABLE) == []


def test_duplicate_node_direction_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        schedule_band([_req(1, backlog=10), _req(1, backlog=20)], 50, 168, TABLE)
    with pytest.raises(ValueError, match="^duplicate request for node 2 UL$"):  # the repeated one
        schedule_band([_req(1, backlog=10), _req(2, backlog=10), _req(2, backlog=20)],
                      50, 168, TABLE)


def test_same_node_may_request_two_directions():
    grants = schedule_band([_req(1, Direction.UL, backlog=300),
                            _req(1, Direction.D2D, backlog=300)], 50, 168, TABLE)
    assert len(grants) == 2


@given(st.lists(st.tuples(st.integers(0, 30), st.booleans(),
                          st.integers(1, 60_000)),
                max_size=10),
       st.integers(min_value=1, max_value=110))
def test_scheduler_never_overallocates(mix, num_rbs):
    requests = []
    seen = set()
    for node, is_retx, amount in mix:
        if node in seen:
            continue
        seen.add(node)
        if is_retx:
            requests.append(_req(node, retx=min(1 + amount % 64, num_rbs)))
        else:
            requests.append(_req(node, backlog=amount))
    grants = schedule_band(requests, num_rbs, 168, TABLE)
    used = [rb for g in grants for rb in g.rbs]
    assert len(used) == len(set(used))
    assert len(used) <= num_rbs
    assert all(0 <= rb < num_rbs for rb in used)
    for grant in grants:
        if grant.request.retx_rbs:
            assert len(grant.rbs) == grant.request.retx_rbs


def _slots(blocks):
    """Every slot of each transport block, in order, ``...`` where unset,
    for comparing lists."""
    return [tuple(getattr(tb, name, ...) for name in TransportBlock.__slots__) for tb in blocks]


def _reference_schedule_band(requests, num_rbs, rb_capacity_re, table):
    """Reference scheduler: deals fresh blocks one per requester per pass."""
    seen = set()
    for request in requests:
        key = (request.node_id, request.direction)
        if key in seen:
            raise ValueError(f"duplicate request for node {request.node_id} "
                             f"{request.direction.value}")
        seen.add(key)

    available = num_rbs
    ordered = []
    for request in sorted((r for r in requests if r.retx_rbs > 0),
                          key=lambda r: (r.node_id, r.direction.value)):
        if request.retx_rbs <= available:
            ordered.append((request, request.retx_rbs, True))
            available -= request.retx_rbs

    fresh = sorted((r for r in requests
                    if r.retx_rbs == 0 and r.backlog_bits > 0 and r.cqi >= 1),
                   key=lambda r: (r.node_id, r.direction.value))
    need = {id(r): rbs_needed(r.backlog_bits, r.cqi, rb_capacity_re, table)
            for r in fresh}
    while True:  # until no one is dealt a run under a byte
        left = available
        counts = {id(r): 0 for r in fresh}
        active = list(fresh)
        while left > 0 and active:
            for request in list(active):
                if left == 0:
                    break
                counts[id(request)] += 1
                left -= 1
                if counts[id(request)] >= need[id(request)]:
                    active.remove(request)
        short = [r for r in fresh if counts[id(r)]
                 and amc_tbs(r.cqi, counts[id(r)], rb_capacity_re, table) < 8]
        if not short:
            break
        fresh.remove(short[-1])  # the last such requester in node order
    for request in fresh:
        if counts[id(request)] > 0:
            ordered.append((request, counts[id(request)], False))

    grants = []
    next_rb = 0
    for request, count, is_retx in ordered:
        assert is_retx == (request.retx_rbs > 0)
        rbs = range(next_rb, next_rb + count)
        next_rb += count
        grants.append(TransportBlock(
            request=request, rbs=rbs,
            tbs_bits=amc_tbs(request.cqi, count, rb_capacity_re, table)))
    return grants


# (node, direction, cqi, backlog bits, retransmission blocks or 0 for new data)
_requesters = st.lists(
    st.tuples(st.integers(0, 11), st.sampled_from(list(Direction)),
              st.integers(0, 15), st.integers(0, 20_000),
              st.one_of(st.just(0), st.integers(1, 100))),
    min_size=1, max_size=12, unique_by=lambda t: (t[0], t[1]))


def _requests_of(requesters):
    return [_req(node, direction, cqi=cqi, backlog=backlog, retx=retx)
            for node, direction, cqi, backlog, retx in requesters]


@given(_requesters, st.integers(min_value=1, max_value=100))
@example([(0, Direction.UL, 7, 0, 10), (1, Direction.UL, 7, 4000, 0)], 10)  # no block left
def test_scheduler_matches_the_per_block_round_robin(requesters, num_rbs):
    requests = _requests_of(requesters)
    expected = _reference_schedule_band(requests, num_rbs, 168, TABLE)
    assert _slots(schedule_band(requests, num_rbs, 168, TABLE)) == _slots(expected)


@given(_requesters, st.integers(min_value=1, max_value=100), st.integers(1, 60))
@example([(0, Direction.UL, 15, 800, 0), (1, Direction.UL, 15, 800, 0)], 3, 1)
@example([(0, Direction.UL, 1, 800, 0), (1, Direction.UL, 15, 800, 0),
          (2, Direction.D2D, 7, 800, 0)], 50, 1)
def test_no_new_transmission_is_laid_out_a_run_under_a_byte(requesters, num_rbs, capacity):
    # below 53 resource elements a block can carry under 8 bits at CQI 1: such a
    # run goes to no one, and the blocks are dealt again among the other requesters
    requests = _requests_of(requesters)
    grants = schedule_band(requests, num_rbs, capacity, TABLE)
    assert _slots(grants) == _slots(_reference_schedule_band(requests, num_rbs, capacity, TABLE))
    assert all(g.tbs_bits >= 8 for g in grants if not g.request.retx_rbs)


def test_a_run_under_a_byte_is_dealt_to_the_next_requester():
    # one element per block: a CQI 15 block carries 5 bits, so two blocks are needed.
    # Three blocks dealt round-robin would leave node 1 with one; it gets none, and
    # node 0 takes all three
    grants = schedule_band([_req(0, cqi=15, backlog=800), _req(1, cqi=15, backlog=800)],
                           3, 1, TABLE)
    assert [(g.request.node_id, g.rbs, g.tbs_bits) for g in grants] == [(0, range(3), 16)]
    # a lone requester whose every block together carries under a byte gets nothing
    assert schedule_band([_req(0, cqi=1, backlog=800)], 50, 1, TABLE) == []


@given(_requesters, st.integers(min_value=1, max_value=100), st.data())
def test_scheduler_and_reference_reject_the_same_duplicates(requesters, num_rbs, data):
    requests = _requests_of(requesters)
    twin = data.draw(st.sampled_from(requests))
    requests.append(_req(twin.node_id, twin.direction, backlog=100))
    with pytest.raises(ValueError, match="duplicate") as expected:
        _reference_schedule_band(requests, num_rbs, 168, TABLE)
    with pytest.raises(ValueError) as raised:
        schedule_band(requests, num_rbs, 168, TABLE)
    assert str(raised.value) == str(expected.value)


# -- HARQ ----------------------------------------------------------------------------

def test_pool_allocates_lowest_idle():
    pool = HarqPool(4)
    assert pool.processes == []  # none is made before it is first needed
    first = pool.allocate()
    second = pool.allocate()
    assert (first.process_id, second.process_id) == (0, 1)
    assert (first.tb, second.tb) == (None, None)  # a fresh process holds no block
    pool.release(first)
    assert first.tb is None  # nor does a released one
    assert pool.allocate() is first
    assert pool.allocate().process_id == 2
    assert [p.process_id for p in pool.processes] == [0, 1, 2]


def test_pool_exhaustion_returns_none():
    pool = HarqPool(2)
    pool.allocate()
    pool.allocate()
    assert not pool.has_idle()
    assert pool.allocate() is None


def test_feedback_ack_releases():
    pool = HarqPool(2)
    process = pool.allocate()
    process.tx_count = 1
    assert harq_on_feedback(process, True, 3) is HarqOutcome.RELEASED


def test_feedback_nack_retransmits_until_limit():
    pool = HarqPool(2)
    process = pool.allocate()
    # transmissions 1..3 may be followed by a retransmission, the 4th not
    for tx_count in (1, 2, 3):
        process.tx_count = tx_count
        process.awaiting_retx = False
        assert harq_on_feedback(process, False, 3) is HarqOutcome.RETRANSMIT
        assert process.awaiting_retx
    process.tx_count = 4
    assert harq_on_feedback(process, False, 3) is HarqOutcome.DROPPED


def test_feedback_for_idle_process_is_an_error():
    pool = HarqPool(1)
    process = pool.allocate()
    pool.release(process)
    with pytest.raises(ValueError, match="idle"):
        harq_on_feedback(process, True, 3)


def test_pending_retx_reports_waiting_process():
    pool = HarqPool(3)
    process = pool.allocate()
    assert pool.pending_retx() is None
    process.tx_count = 1
    harq_on_feedback(process, False, 3)
    assert pool.pending_retx() is process
    pool.release(process)
    assert pool.pending_retx() is None


def test_pending_retx_serves_the_lowest_numbered_waiting_process():
    pool = HarqPool(3)
    first, second = pool.allocate(), pool.allocate()
    first.tx_count = second.tx_count = 1
    harq_on_feedback(second, False, 3)  # process 1 is NACKed first
    harq_on_feedback(first, False, 3)
    assert pool.pending_retx() is first
    pool.release(first)
    assert pool.pending_retx() is second


def test_max_retx_zero_drops_on_first_nack():
    pool = HarqPool(1)
    process = pool.allocate()
    process.tx_count = 1
    assert harq_on_feedback(process, False, 0) is HarqOutcome.DROPPED


@given(st.integers(1, 4), st.lists(st.tuples(
    st.sampled_from(["allocate", "ack", "nack", "retransmit", "clear", "switch"]),
    st.integers(0, 3)), max_size=40))
def test_pool_counts_answer_as_a_scan_of_its_processes(size, ops):
    """After any mix of allocations, feedback, retransmissions, direct flag
    writes and mode-switch releases, the counted answers equal a scan."""
    pool = HarqPool(size)
    for op, pick in ops:
        busy = [p for p in pool.processes if p.busy]
        process = busy[pick % len(busy)] if busy else None
        if op == "allocate":  # makes a process only when every one made is busy
            made = len(pool.processes)
            pool.allocate()
            assert len(pool.processes) == made + (len(busy) == made < size)
        elif op == "ack" and process is not None:
            pool.release(process)
        elif op == "nack" and process is not None:
            process.tx_count += 1
            if harq_on_feedback(process, False, 2) is HarqOutcome.DROPPED:
                pool.release(process)
        elif op == "retransmit" and pool.pending_retx() is not None:
            pool.pending_retx().awaiting_retx = False  # as the engine grants one
        elif op == "clear" and process is not None:
            process.awaiting_retx = False
        elif op == "switch":  # a mode switch releases every busy process
            for process in busy:
                pool.release(process)
        assert pool.pending_retx() is next(
            (p for p in pool.processes if p.busy and p.awaiting_retx), None)
        # a process not yet made counts as idle
        assert pool.has_idle() == (len(pool.processes) < size
                                   or any(not p.busy for p in pool.processes))
        assert [p.process_id for p in pool.processes] == list(range(len(pool.processes)))
        assert pool.waiting == sum(p.awaiting_retx for p in pool.processes)
        assert pool.busy == sum(p.busy for p in pool.processes)
