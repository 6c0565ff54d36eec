"""Allocation ledger: booking, conflicts, interferers and the audit."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from d2dsim import Binder, Direction, RbConflict, TransportBlock
from d2dsim.binder import _Band


@pytest.fixture
def binder():
    return Binder(num_rbs=50)


def _book(binder, tti, tx_id, direction, rbs, power_dbm):
    """Book one transmission as the PHY does: the transport block is the entry."""
    return binder.record_allocation(TransportBlock(
        None, rbs, tx_id=tx_id, direction=direction, tx_power_dbm=power_dbm, tti=tti))


def _allocated_rbs(binder, tti, direction):
    """Blocks the grants of one direction hold in one TTI."""
    return {rb for entry in binder.band_allocations(tti, direction.band)
            if entry.direction is direction for rb in entry.rbs}


def test_allocation_recorded_and_queryable(binder):
    entry = _book(binder, 5, 1, Direction.UL, range(0, 3), 26.0)
    assert entry.rbs == range(0, 3)
    assert binder.allocations(5) == (entry,)
    assert binder.allocations(6) == ()
    assert _allocated_rbs(binder, 5, Direction.UL) == {0, 1, 2}


def test_same_direction_double_booking_raises(binder):
    _book(binder, 5, 1, Direction.UL, range(0, 3), 26.0)
    with pytest.raises(RbConflict, match="rb \\[2\\]"):
        _book(binder, 5, 2, Direction.UL, range(2, 4), 26.0)


def test_sidelink_may_reuse_uplink_blocks(binder):
    # SL shares the UL band, so it may not: a block is booked once per band,
    # in either order
    ul = _book(binder, 5, 1, Direction.UL, range(0, 2), 26.0)
    with pytest.raises(RbConflict, match=r"rb \[1\] already granted in UL"):
        _book(binder, 5, 2, Direction.D2D, range(1, 3), 20.0)
    sl = _book(binder, 5, 2, Direction.D2D_MULTI, range(2, 4), 20.0)
    with pytest.raises(RbConflict, match=r"rb \[2, 3\] already granted in UL"):
        _book(binder, 5, 3, Direction.UL, range(2, 5), 26.0)
    assert binder.allocations(5) == (ul, sl)
    assert _book(binder, 5, 3, Direction.UL, range(4, 5), 26.0)


def test_two_sidelinks_may_share_blocks(binder):
    # they may not either
    sl = _book(binder, 5, 1, Direction.D2D, range(4, 5), 20.0)
    with pytest.raises(RbConflict, match=r"rb \[4\] already granted in UL"):
        _book(binder, 5, 2, Direction.D2D, range(4, 5), 20.0)
    assert binder.allocations(5) == (sl,)


def test_downlink_band_is_separate(binder):
    # the same index in DL and UL is two different physical blocks
    _book(binder, 5, 0, Direction.DL, range(7, 8), 46.0)
    _book(binder, 5, 1, Direction.UL, range(7, 8), 26.0)
    with pytest.raises(RbConflict):
        _book(binder, 5, 0, Direction.DL, range(7, 8), 46.0)


def test_rb_index_bounds(binder):
    with pytest.raises(ValueError, match=r"grant range\(50, 51\) is not a run of blocks in UL 0\.\.49"):
        _book(binder, 0, 1, Direction.UL, range(50, 51), 26.0)
    with pytest.raises(ValueError, match=r"grant range\(-1, 0\) is not a run of blocks in DL"):
        _book(binder, 0, 1, Direction.DL, range(-1, 0), 26.0)


def test_duplicate_rb_within_grant(binder):
    # a range cannot repeat a block; a block list that does is no grant
    with pytest.raises(ValueError, match=r"grant \(3, 3\) is not a run of blocks in UL"):
        _book(binder, 0, 1, Direction.UL, (3, 3), 26.0)
    assert binder.allocations(0) == ()


def test_out_of_range_block_named_in_grant_order(binder):
    with pytest.raises(ValueError, match=r"grant \(3, 50, -1\) is not a run of blocks in UL 0\.\.49"):
        _book(binder, 0, 1, Direction.UL, (3, 50, -1), 26.0)
    with pytest.raises(ValueError, match=r"grant range\(-2, 3\) is not a run of blocks in UL 0\.\.49"):
        _book(binder, 0, 1, Direction.D2D, range(-2, 3), 20.0)
    with pytest.raises(ValueError, match=r"grant range\(45, 51\) is not a run of blocks in DL 0\.\.49"):
        _book(binder, 0, 0, Direction.DL, range(45, 51), 46.0)
    assert binder.allocations(0) == ()
    assert _allocated_rbs(binder, 0, Direction.UL) == set()


def test_unsorted_non_contiguous_grants(binder):
    for rbs in ((9, 2, 30), [2, 3], range(0, 6, 2), range(5, 2), range(4, 1, -1)):
        with pytest.raises(ValueError, match="is not a run of blocks in UL"):
            _book(binder, 0, 1, Direction.UL, rbs, 26.0)
    assert binder.allocations(0) == ()
    entry = _book(binder, 0, 1, Direction.UL, range(29, 31), 26.0)
    assert _allocated_rbs(binder, 0, Direction.UL) == {29, 30}
    with pytest.raises(RbConflict, match="rb \\[30\\] already granted in UL"):
        _book(binder, 0, 2, Direction.UL, range(30, 33), 26.0)
    assert binder.allocations(0) == (entry,)
    assert _book(binder, 0, 2, Direction.UL, range(31, 33), 26.0)
    assert binder.check_conservation(0) == []


def _record_allocation_reference(binder, rbs, band):
    """The one grant shape, stated block by block: a step-1 range of at
    least one block, each inside the band."""
    shaped = type(rbs) is range and rbs.step == 1 and len(rbs) > 0
    if not shaped or any(not 0 <= rb < binder.num_rbs for rb in rbs):
        raise ValueError(f"grant {rbs!r} is not a run of blocks in {band} 0..{binder.num_rbs - 1}")


@given(st.lists(st.integers(-3, 8), max_size=6), st.booleans())
def test_grant_checks_match_per_block_loop(blocks, run):
    rbs = range(blocks[0], blocks[0] + len(blocks)) if run and blocks else tuple(blocks)

    def outcome(call):
        try:
            call()
        except (ValueError, RbConflict) as exc:
            return type(exc), str(exc)
        return None

    reference = Binder(num_rbs=6)
    expected = outcome(lambda: _record_allocation_reference(reference, rbs, "UL"))
    binder = Binder(num_rbs=6)
    assert outcome(lambda: _book(binder, 0, 1, Direction.D2D, rbs, 20.0)) == expected
    assert len(binder.allocations(0)) == (expected is None)


_grant_shapes = st.one_of(
    st.builds(range, st.integers(-2, 9), st.integers(-2, 9)),
    st.builds(range, st.integers(-2, 9), st.integers(-2, 9), st.sampled_from([-1, 2, 3])),
    st.lists(st.integers(-2, 9), max_size=4).map(tuple),
    st.lists(st.integers(-2, 9), max_size=4))


@given(st.lists(st.tuples(st.sampled_from(list(Direction)), _grant_shapes),
                max_size=10))
@example([(Direction.UL, (0, 1, 2)), (Direction.UL, [3, 4]),
          (Direction.D2D, range(0, 6, 2)), (Direction.DL, range(3, 3)),
          (Direction.DL, range(3, 1)), (Direction.UL, range(5, 9)),
          (Direction.D2D, range(-1, 2)), (Direction.UL, range(0, 8))])
def test_a_grant_books_exactly_when_it_is_one_run_in_the_band(bookings):
    """Any other shape raises ValueError naming the grant and band and books
    nothing; a run clashing with its band's blocks raises RbConflict."""
    binder = Binder(num_rbs=8)

    def ledger():
        return [binder.band_allocations(0, band) for band in ("UL", "DL")]

    for tx_id, (direction, rbs) in enumerate(bookings):
        before = ledger()
        run = type(rbs) is range and rbs.step == 1 and len(rbs) > 0 and set(rbs) <= set(range(8))
        clash = set(rbs) & {rb for entry in binder.band_allocations(0, direction.band)
                            for rb in entry.rbs}
        if not run:
            with pytest.raises(ValueError) as refused:
                _book(binder, 0, tx_id, direction, rbs, 20.0)
            assert f"grant {rbs!r} " in str(refused.value)
            assert f" in {direction.band} " in str(refused.value)
        elif clash:
            with pytest.raises(RbConflict):
                _book(binder, 0, tx_id, direction, rbs, 20.0)
        else:
            entry = _book(binder, 0, tx_id, direction, rbs, 20.0)
            assert binder.band_allocations(0, direction.band)[-1] is entry
            continue
        assert ledger() == before


def test_interferers_filter_band_and_serving_node(binder):
    ul = _book(binder, 5, 1, Direction.UL, range(0, 2), 26.0)
    sl = _book(binder, 5, 2, Direction.D2D, range(2, 4), 20.0)
    dl = _book(binder, 5, 0, Direction.DL, range(1, 2), 46.0)
    assert list(binder.interferers(5, 1, "UL", exclude_tx=9)) == [ul]
    assert list(binder.interferers(5, 1, "UL", exclude_tx=1)) == []
    assert list(binder.interferers(5, 2, "UL", exclude_tx=1)) == [sl]
    assert list(binder.interferers(5, 1, "DL", exclude_tx=9)) == [dl]
    assert list(binder.interferers(5, 4, "UL", exclude_tx=9)) == []


def test_sliding_window_drops_old_entries(binder):
    _book(binder, 5, 1, Direction.UL, range(0, 1), 26.0)
    _book(binder, 6, 1, Direction.UL, range(0, 1), 26.0)
    binder.advance(7)
    assert binder.allocations(5) == ()
    assert len(binder.allocations(6)) == 1  # one TTI back is still visible


def test_advance_keeps_occupancy_of_previous_tti(binder):
    _book(binder, 6, 1, Direction.UL, range(0, 1), 26.0)
    binder.advance(7)
    with pytest.raises(RbConflict):
        _book(binder, 6, 2, Direction.UL, range(0, 1), 26.0)


def test_conservation_audit_clean(binder):
    _book(binder, 5, 1, Direction.UL, range(0, 20), 26.0)
    _book(binder, 5, 2, Direction.D2D, range(20, 50), 20.0)
    _book(binder, 5, 0, Direction.DL, range(50), 46.0)
    assert binder.check_conservation(5) == []


def test_conservation_audit_reports_what_the_ledger_refuses(binder):
    # planted past record_allocation, which refuses both
    def entry(tx_id, direction, rbs):
        return TransportBlock(None, rbs, tx_id=tx_id, direction=direction, tti=5)
    binder._bands[5, "UL"] = _Band([entry(1, Direction.UL, range(0, 4)),
                                    entry(2, Direction.UL, range(3, 6)),
                                    entry(1, Direction.D2D, range(0, 4))])
    binder._bands[5, "DL"] = _Band([entry(0, Direction.DL, range(48, 52))])
    assert binder.check_conservation(5) == ["tti 5: duplicate grant in UL",
                                            "tti 5: DL rb index out of range"]


@given(st.lists(st.tuples(st.sampled_from([Direction.DL, Direction.UL,
                                           Direction.D2D]),
                          st.integers(0, 24), st.integers(1, 12)),
                max_size=12))
def test_disjoint_grants_never_conflict(grants):
    """Whatever the direction mix, runs laid side by side in a band always book."""
    binder = Binder(num_rbs=200)
    cursor = {"UL": 0, "DL": 0}
    for direction, _, width in grants:
        start = cursor[direction.band]
        if start + width > 200:
            continue
        cursor[direction.band] = start + width
        _book(binder, 3, 1, direction, range(start, start + width), 20.0)
    assert binder.check_conservation(3) == []


_bookings = st.lists(st.tuples(
    st.integers(0, 1), st.sampled_from(list(Direction)),
    st.integers(-1, 8), st.integers(0, 5)), max_size=10)


@given(_bookings)
@example([(0, Direction.UL, 0, 2), (0, Direction.D2D, 1, 2), (0, Direction.D2D_MULTI, 0, 1),
          (0, Direction.D2D, 2, 3), (0, Direction.UL, 4, 2), (0, Direction.DL, 0, 8)])
def test_each_band_holds_a_block_at_most_once_per_tti(bookings):
    """Whatever mix of bookings is tried, a refused one changes nothing, no
    band holds a block twice in a TTI, and every block left free still books."""
    binder = Binder(num_rbs=8)

    def ledger():
        return [binder.band_allocations(tti, band) for tti in (0, 1) for band in ("UL", "DL")]

    for tx_id, (tti, direction, start, width) in enumerate(bookings):
        before = ledger()
        try:
            _book(binder, tti, tx_id, direction, range(start, start + width), 20.0)
        except (ValueError, RbConflict):
            assert ledger() == before
    for tti in (0, 1):
        assert binder.check_conservation(tti) == []
        for band, direction in (("UL", Direction.D2D), ("DL", Direction.DL)):
            held = [rb for entry in binder.band_allocations(tti, band) for rb in entry.rbs]
            assert len(held) == len(set(held))
            for rb in sorted(set(range(8)) - set(held)):
                _book(binder, tti, 99, direction, range(rb, rb + 1), 20.0)
