"""Node registry, allocation ledger and membership oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from d2dsim import Binder, LinkDirection, RbConflict, TransportBlock


@pytest.fixture
def binder():
    b = Binder(num_rbs=50)
    b.register_node("eNodeB", is_enb=True)
    b.register_node("ueA", position=(10.0, 0.0))
    b.register_node("ueB", position=(20.0, 5.0))
    return b


def _book(binder, tti, tx_id, direction, rbs, power_dbm):
    """Book one transmission as the PHY does: the transport block is the entry."""
    return binder.record_allocation(TransportBlock(
        None, rbs, tx_id=tx_id, link_direction=direction, tx_power_dbm=power_dbm, tti=tti))


def test_dense_ids_in_registration_order(binder):
    assert [r.node_id for r in binder.records] == [0, 1, 2]
    assert binder.id_of("ueB") == 2
    assert binder.record(1).position == (10.0, 0.0)
    assert binder.enb_id() == 0
    assert binder.node_count == 3


def test_duplicate_name_rejected(binder):
    with pytest.raises(ValueError, match="already registered"):
        binder.register_node("ueA")


def test_allocation_recorded_and_queryable(binder):
    entry = _book(binder, 5, 1, LinkDirection.UL, (0, 1, 2), 26.0)
    assert entry.rbs == (0, 1, 2)
    assert binder.allocations(5) == (entry,)
    assert binder.allocations(6) == ()
    assert binder.allocated_rbs(5, LinkDirection.UL) == {0, 1, 2}


def test_same_direction_double_booking_raises(binder):
    _book(binder, 5, 1, LinkDirection.UL, (0, 1, 2), 26.0)
    with pytest.raises(RbConflict, match="rb \\[2\\]"):
        _book(binder, 5, 2, LinkDirection.UL, (2, 3), 26.0)
    assert binder.conflict_count == 1


def test_sidelink_may_reuse_uplink_blocks(binder):
    # SL shares the UL band; overlapping grants are reuse, not conflict
    _book(binder, 5, 1, LinkDirection.UL, (0, 1), 26.0)
    _book(binder, 5, 2, LinkDirection.SL, (0, 1), 20.0)
    assert len(binder.allocations(5)) == 2


def test_two_sidelinks_may_share_blocks(binder):
    _book(binder, 5, 1, LinkDirection.SL, (4,), 20.0)
    _book(binder, 5, 2, LinkDirection.SL, (4,), 20.0)
    assert len(binder.allocations(5)) == 2


def test_downlink_band_is_separate(binder):
    # the same index in DL and UL is two different physical blocks
    _book(binder, 5, 0, LinkDirection.DL, (7,), 46.0)
    _book(binder, 5, 1, LinkDirection.UL, (7,), 26.0)
    with pytest.raises(RbConflict):
        _book(binder, 5, 0, LinkDirection.DL, (7,), 46.0)


def test_rb_index_bounds(binder):
    with pytest.raises(ValueError, match="outside"):
        _book(binder, 0, 1, LinkDirection.UL, (50,), 26.0)
    with pytest.raises(ValueError, match="outside"):
        _book(binder, 0, 1, LinkDirection.UL, (-1,), 26.0)


def test_duplicate_rb_within_grant(binder):
    with pytest.raises(RbConflict, match="duplicate"):
        _book(binder, 0, 1, LinkDirection.UL, (3, 3), 26.0)


def test_out_of_range_block_named_in_grant_order(binder):
    with pytest.raises(ValueError, match=r"rb index 50 outside 0\.\.49"):
        _book(binder, 0, 1, LinkDirection.UL, (3, 50, -1), 26.0)
    with pytest.raises(ValueError, match=r"rb index -2 outside 0\.\.49"):
        _book(binder, 0, 1, LinkDirection.SL, (5, -2, 60), 20.0)
    # range is checked before duplicates
    with pytest.raises(ValueError, match="rb index 50 outside"):
        _book(binder, 0, 1, LinkDirection.UL, (50, 50), 26.0)
    assert binder.allocations(0) == ()
    assert binder.allocated_rbs(0, LinkDirection.UL) == set()


def test_unsorted_non_contiguous_grants(binder):
    entry = _book(binder, 0, 1, LinkDirection.UL, (9, 2, 30), 26.0)
    assert entry.rbs == (9, 2, 30)
    assert binder.allocated_rbs(0, LinkDirection.UL) == {2, 9, 30}
    with pytest.raises(RbConflict, match="duplicate rb in grant \\(7, 2, 7\\)"):
        _book(binder, 0, 2, LinkDirection.UL, (7, 2, 7), 26.0)
    with pytest.raises(RbConflict, match="rb \\[30\\] already granted in UL"):
        _book(binder, 0, 2, LinkDirection.UL, (31, 30, 0), 26.0)
    assert _book(binder, 0, 2, LinkDirection.UL, (31, 0, 29), 26.0)
    assert binder.check_conservation(0) == []


def _record_allocation_reference(binder, rbs):
    """The per-block loop the range and duplicate checks replace."""
    for rb in rbs:
        if not 0 <= rb < binder.num_rbs:
            raise ValueError(f"rb index {rb} outside 0..{binder.num_rbs - 1}")
    if len(set(rbs)) != len(rbs):
        raise RbConflict(f"duplicate rb in grant {rbs}")


@given(st.lists(st.integers(-3, 8), max_size=6), st.booleans())
def test_grant_checks_match_per_block_loop(blocks, run):
    # a scheduled grant is a run: the same blocks' count from the first one
    rbs = range(blocks[0], blocks[0] + len(blocks)) if run and blocks else tuple(blocks)

    def outcome(call):
        try:
            call()
        except (ValueError, RbConflict) as exc:
            return type(exc), str(exc)
        return None

    reference = Binder(num_rbs=6)
    expected = outcome(lambda: _record_allocation_reference(reference, rbs))
    binder = Binder(num_rbs=6)
    assert outcome(lambda: _book(binder, 0, 1, LinkDirection.SL, rbs, 20.0)) == expected
    assert len(binder.allocations(0)) == (expected is None)


def test_interferers_filter_band_and_serving_node(binder):
    _book(binder, 5, 1, LinkDirection.UL, (0, 1), 26.0)
    _book(binder, 5, 2, LinkDirection.SL, (1, 2), 20.0)
    _book(binder, 5, 0, LinkDirection.DL, (1,), 46.0)
    hit = list(binder.interferers(5, 1, "UL", exclude_tx=1))
    assert [e.tx_id for e in hit] == [2]
    assert list(binder.interferers(5, 1, "DL", exclude_tx=9)) == [
        binder.allocations(5)[2]]
    assert list(binder.interferers(5, 4, "UL", exclude_tx=9)) == []


def test_sliding_window_drops_old_entries(binder):
    _book(binder, 5, 1, LinkDirection.UL, (0,), 26.0)
    _book(binder, 6, 1, LinkDirection.UL, (0,), 26.0)
    binder.advance(7)
    assert binder.allocations(5) == ()
    assert len(binder.allocations(6)) == 1  # one TTI back is still visible


def test_advance_keeps_occupancy_of_previous_tti(binder):
    _book(binder, 6, 1, LinkDirection.UL, (0,), 26.0)
    binder.advance(7)
    with pytest.raises(RbConflict):
        _book(binder, 6, 2, LinkDirection.UL, (0,), 26.0)


def test_conservation_audit_clean(binder):
    _book(binder, 5, 1, LinkDirection.UL, tuple(range(50)), 26.0)
    _book(binder, 5, 2, LinkDirection.SL, tuple(range(50)), 20.0)
    assert binder.check_conservation(5) == []


def test_group_membership(binder):
    binder.register_group("224.0.0.10")
    binder.add_member("224.0.0.10", 1)
    assert binder.is_member("224.0.0.10", 1)
    assert not binder.is_member("224.0.0.10", 2)
    assert not binder.is_member("224.0.0.99", 1)


@given(st.lists(st.tuples(st.sampled_from([LinkDirection.DL, LinkDirection.UL,
                                           LinkDirection.SL]),
                          st.integers(0, 24), st.integers(1, 12)),
                max_size=12))
def test_disjoint_grants_never_conflict(grants):
    """Whatever the direction mix, non-overlapping index ranges always book."""
    binder = Binder(num_rbs=200)
    binder.register_node("eNodeB", is_enb=True)
    binder.register_node("ue")
    cursor = {d: 0 for d in LinkDirection}
    for direction, _, width in grants:
        start = cursor[direction]
        if start + width > 200:
            continue
        cursor[direction] = start + width
        _book(binder, 3, 1, direction,
                                 tuple(range(start, start + width)), 20.0)
    assert binder.check_conservation(3) == []
    assert binder.conflict_count == 0


_bookings = st.lists(st.tuples(
    st.integers(0, 1), st.sampled_from(list(LinkDirection)), st.booleans(),
    st.lists(st.integers(-1, 8), max_size=5)), max_size=10)


@given(_bookings)
def test_overlap_mark_is_set_exactly_when_two_bookings_in_a_band_share_a_block(bookings):
    binder = Binder(num_rbs=8)
    for tti, direction, run, blocks in bookings:
        rbs = range(blocks[0], blocks[0] + len(blocks)) if run and blocks else tuple(blocks)
        try:
            _book(binder, tti, 1, direction, rbs, 20.0)
        except (ValueError, RbConflict):
            pass  # refused bookings hold no blocks
    for tti in (0, 1):
        for band in ("UL", "DL"):
            entries = binder.band_allocations(tti, band)
            shared = any(set(a.rbs) & set(b.rbs)
                         for i, a in enumerate(entries) for b in entries[:i])
            assert binder.band_overlaps(tti, band) == shared
