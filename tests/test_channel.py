"""Propagation, SINR arithmetic and CQI mapping."""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from d2dsim import (Binder, ChannelModel, ChannelParams, CqiTable, Engine,
                    Direction, TransportBlock, decode, mean_sinr_db, parse_scenario,
                    path_loss_db, phy_receive)
from d2dsim.channel import dbm_to_mw, mw_to_dbm

ROOT = Path(__file__).resolve().parents[1]
TABLE = CqiTable.default()


def _book(binder, tti, tx_id, direction, rbs, power_dbm):
    """Book one transmission as the PHY does: the transport block is the entry."""
    return binder.record_allocation(TransportBlock(
        None, rbs, tx_id=tx_id, direction=direction, tx_power_dbm=power_dbm, tti=tti))

# official switching thresholds the packaged table must reproduce
THRESHOLDS = [-6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1,
              10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7]
EFFICIENCIES = [0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
                1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547]


def test_packaged_table_values():
    assert TABLE.max_cqi == 15
    for cqi in range(1, 16):
        assert TABLE.threshold_db(cqi) == THRESHOLDS[cqi - 1]
        assert TABLE.efficiencies[cqi] == EFFICIENCIES[cqi - 1]


def test_table_rejects_bad_cqi():
    with pytest.raises(ValueError):
        TABLE.threshold_db(0)


def test_table_file_errors(tmp_path):
    bad = tmp_path / "t.txt"
    bad.write_text("1 -6.7 0.15\n1 -4.7 0.23\n")
    with pytest.raises(ValueError, match="duplicate"):
        CqiTable.from_file(bad)
    bad.write_text("1 -6.7\n")
    with pytest.raises(ValueError, match="3 columns"):
        CqiTable.from_file(bad)
    bad.write_text("2 -6.7 0.15\n")
    with pytest.raises(ValueError, match="exactly 1..1"):
        CqiTable.from_file(bad)


@pytest.mark.parametrize("row", ["2 -4.7 -0.2", "2 -4.7 0.0", "2 -4.7 nan", "2 -4.7 inf",
                                 "2 nan 0.23", "2 inf 0.23", "2 -inf 0.23",
                                 "2 -4.7 1e305", "2 -4.7 1e-320"])
def test_table_rejects_a_row_no_grant_can_use(tmp_path, row):
    # such a row made rbs_needed loop forever, divide by zero or overflow
    # a float; it is refused on loading, before anything sizes a grant with it
    path = tmp_path / "t.txt"
    path.write_text(f"1 -6.7 0.15\n{row}\n3 -2.3 0.38\n")
    with pytest.raises(ValueError, match=r"^cqi 2: threshold .* must be finite and efficiency"):
        CqiTable.from_file(path)


def test_table_file_comments_and_blanks(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n\n1 -6.7 0.1523  # row comment\n2 -4.7 0.2344\n")
    table = CqiTable.from_file(path)
    assert table.max_cqi == 2
    assert table.efficiencies[2] == 0.2344


def test_sinr_to_cqi_boundaries():
    assert TABLE.sinr_to_cqi(-6.7) == 1  # meeting a threshold counts
    assert TABLE.sinr_to_cqi(-6.700001) == 0
    assert TABLE.sinr_to_cqi(5.9) == 7
    assert TABLE.sinr_to_cqi(8.099999) == 7
    assert TABLE.sinr_to_cqi(8.1) == 8
    assert TABLE.sinr_to_cqi(22.7) == 15
    assert TABLE.sinr_to_cqi(80.0) == 15


@given(st.floats(min_value=-40.0, max_value=60.0,
                 allow_nan=False, allow_infinity=False))
def test_sinr_to_cqi_matches_linear_scan(sinr):
    best = 0
    for cqi in range(1, 16):
        if THRESHOLDS[cqi - 1] <= sinr:
            best = cqi
    assert TABLE.sinr_to_cqi(sinr) == best


def test_decode_is_boundary_inclusive():
    assert decode(5.9, 7, TABLE)
    assert not decode(5.8999, 7, TABLE)
    assert decode(-6.7, 1, TABLE)


def test_path_loss_oracle_values():
    params = ChannelParams()
    # 40 + 35*log10(d) at the defaults
    assert path_loss_db(100.0, params) == pytest.approx(110.0)
    assert path_loss_db(1000.0, params) == pytest.approx(145.0)
    assert path_loss_db(1.0, params) == pytest.approx(40.0)


def test_path_loss_clamps_below_minimum_distance():
    params = ChannelParams(min_distance_m=1.0)
    assert path_loss_db(0.2, params) == path_loss_db(1.0, params)
    assert path_loss_db(0.0, params) == path_loss_db(1.0, params)


@given(st.floats(min_value=1.0, max_value=1e5),
       st.floats(min_value=1.0, max_value=1e5))
def test_path_loss_monotone_in_distance(d1, d2):
    params = ChannelParams()
    if d1 > d2:
        d1, d2 = d2, d1
    assert path_loss_db(d1, params) <= path_loss_db(d2, params)


def _sequential_mean_db(values_db):
    """The definition: the linear values added one by one from the left."""
    total = 0.0
    for value in values_db:
        total += dbm_to_mw(value)
    return mw_to_dbm(total / len(values_db))


def _compensated_sum(values, start=0):
    """Neumaier summation, which builtin ``sum`` uses for floats from Python 3.12."""
    total, compensation = float(start), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def test_mean_sinr_is_linear_domain():
    # mean of 0 dB and 10 dB is (1 + 10)/2 = 5.5 in linear terms
    assert mean_sinr_db([0.0, 10.0]) == pytest.approx(10 * math.log10(5.5))
    assert mean_sinr_db([7.0]) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        mean_sinr_db([])


def _model(shadowing=0.0, seed=1):
    binder = Binder(num_rbs=50)
    # eNodeB, ueA, ueB and ueC
    positions = [(0.0, 0.0), (100.0, 0.0), (104.0, 0.0), (100.0, 50.0)]
    params = ChannelParams(shadowing_std_dev_db=shadowing)
    return binder, ChannelModel(binder, positions, params, TABLE, seed)


def test_noise_limited_sinr_oracle():
    binder, model = _model()
    # ueA -> eNodeB at 26 dBm over 100 m: 26 - 110 - (-121.4 + 7) = 30.4 dB
    sinrs = model.sinr_per_rb_db(1, 0, tti=3, rbs=range(0, 2), tx_power_dbm=26.0,
                                 entries=binder.band_allocations(2, "UL"))
    assert sinrs == pytest.approx([30.4, 30.4])


def test_empty_queries_evaluate_no_blocks():
    binder, model = _model()
    _book(binder, 2, 3, Direction.D2D, range(0, 4), 26.0)
    for rbs in (range(0, 0), range(3, 3), range(3, 1)):
        assert model.sinr_per_rb_db(1, 0, tti=3, rbs=rbs, tx_power_dbm=26.0,
                                    entries=binder.band_allocations(2, "UL")) == []


def test_interference_lowers_sinr_only_on_shared_blocks():
    binder, model = _model()
    _book(binder, 2, 3, Direction.D2D, range(1, 2), 26.0)  # ueC transmits
    clean, hit = model.sinr_per_rb_db(1, 0, tti=3, rbs=range(0, 2), tx_power_dbm=26.0,
                                      entries=binder.band_allocations(2, "UL"))
    assert clean == pytest.approx(30.4)
    assert hit < clean
    # equal-power interferer 111.8 m from the receiver dominates noise:
    # SIR = 35*(log10(111.8) - log10(100)) is about 1.69 dB
    assert hit == pytest.approx(1.69, abs=0.01)


def test_receiving_node_own_transmission_excluded():
    binder, model = _model()
    # the receiver ueA itself holds the block in the band; a node cannot
    # interfere with its own reception from ueB
    _book(binder, 2, 1, Direction.UL, range(0, 1), 26.0)
    entries = binder.band_allocations(2, "UL")
    sinrs = model.sinr_per_rb_db(2, 1, tti=3, rbs=range(0, 1), tx_power_dbm=20.0,
                                 entries=entries)
    # 4 m sidelink at 20 dBm: 20 - (40 + 35*log10(4)) + 114.4 = 73.3 dB
    assert sinrs == pytest.approx([73.33], abs=0.01)
    assert sinrs == model.sinr_per_rb_db(2, 1, tti=3, rbs=range(0, 1), tx_power_dbm=20.0,
                                         entries=())


def test_shadowing_deterministic_per_link_and_tti():
    _, model = _model(shadowing=6.0)
    a = model.shadowing_db(1, 2, 10)
    assert model.shadowing_db(1, 2, 10) == a  # no cache, same draw
    assert model.shadowing_db(1, 2, 11) != a
    assert model.shadowing_db(2, 1, 10) != a  # directional
    _, same = _model(shadowing=6.0)
    assert same.shadowing_db(1, 2, 10) == a
    _, other = _model(shadowing=6.0, seed=2)
    assert other.shadowing_db(1, 2, 10) != a


def test_zero_shadowing_draws_nothing():
    _, model = _model(shadowing=0.0)
    assert model.shadowing_db(1, 2, 10) == 0.0


def test_wideband_cqi_oracle():
    _, model = _model()
    # 30.4 dB mean SINR lands on CQI 15
    assert model.wideband_cqi(1, 0, tti=5, tx_power_dbm=26.0,
                              direction=Direction.UL) == 15
    # 4 m sidelink at 20 dBm: 20 - (40 + 35*log10(4)) + 114.4 = 73.3 dB
    assert model.wideband_cqi(1, 2, tti=5, tx_power_dbm=20.0,
                              direction=Direction.D2D) == 15


def test_wideband_cqi_degrades_with_distance():
    positions = [(0.0, 0.0), (100.0, 0.0), (2500.0, 0.0)]  # eNodeB, near, far
    model = ChannelModel(Binder(num_rbs=50), positions, ChannelParams(), TABLE, 1)
    near = model.wideband_cqi(1, 0, tti=5, tx_power_dbm=26.0,
                              direction=Direction.UL)
    far = model.wideband_cqi(2, 0, tti=5, tx_power_dbm=26.0,
                             direction=Direction.UL)
    assert near > far
    # 2.5 km: 26 - (40 + 35*log10(2500)) + 114.4 = -18.5 dB, below CQI 1
    assert far == 0


def _noise_mw(params):
    return dbm_to_mw(params.thermal_noise_dbm_per_rb + params.noise_figure_db)


def _reference_sinrs(model, tx_id, rx_id, *, tti, ledger_tti, rbs, tx_power_dbm,
                     direction):
    """The definition: scan the ledger per block, recompute every loss."""
    rx_position = model.positions[rx_id]

    def received_mw(src_id, power_dbm):
        distance = math.dist(model.positions[src_id], rx_position)
        loss = (path_loss_db(distance, model.params)
                + model.shadowing_db(src_id, rx_id, tti))
        return dbm_to_mw(power_dbm - loss)

    signal_mw = received_mw(tx_id, tx_power_dbm)
    noise_mw = _noise_mw(model.params)
    out = []
    for rb in rbs:
        interference_mw = 0.0
        for entry in model.binder.interferers(ledger_tti, rb, direction.band, tx_id):
            if entry.tx_id != rx_id:
                interference_mw += received_mw(entry.tx_id, entry.tx_power_dbm)
        out.append(mw_to_dbm(signal_mw / (noise_mw + interference_mw)))
    return out


NUM_RBS = 6  # few blocks, so that grants fill the band and cover the queries
DIRECTIONS = [Direction.DL, Direction.UL, Direction.D2D]
_coordinate = st.floats(-300.0, 300.0, allow_nan=False)
_runs = st.integers(0, NUM_RBS - 1).flatmap(
    lambda start: st.integers(start + 1, NUM_RBS).map(lambda stop: range(start, stop)))


def _free_run(binder, tti, direction, rbs):
    """The first run of ``rbs`` that no grant in the direction's band holds yet."""
    held = {rb for entry in binder.band_allocations(tti, direction.band) for rb in entry.rbs}
    free = [rb for rb in rbs if rb not in held]
    if not free:
        return range(0)
    stop = free[0] + 1
    while stop in free:
        stop += 1
    return range(free[0], stop)


@st.composite
def _ledger_and_queries(draw):
    """Random nodes, a random two-TTI ledger and queries against it.

    Every grant is a run of blocks that keeps to blocks free in its band,
    as the binder demands.  Any node may book, the receiver included.
    """
    positions = draw(st.lists(st.tuples(_coordinate, _coordinate),
                              min_size=2, max_size=6))
    nodes = st.integers(0, len(positions) - 1)
    bookings = draw(st.lists(st.tuples(st.integers(0, 1), nodes,
                                       st.sampled_from(DIRECTIONS), _runs,
                                       st.floats(-10.0, 46.0)), max_size=12))
    queries = draw(st.lists(st.tuples(
        nodes, nodes, st.integers(0, 3), st.booleans(), _runs,
        st.floats(-10.0, 46.0), st.sampled_from(DIRECTIONS)), min_size=1, max_size=6))
    return positions, bookings, queries


@given(_ledger_and_queries(), st.sampled_from([0.0, 8.0]))
def test_sinr_per_rb_matches_per_block_reference(case, shadowing):
    positions, bookings, queries = case
    binder = Binder(num_rbs=NUM_RBS)
    for tti, tx_id, direction, rbs, power in bookings:
        rbs = _free_run(binder, tti, direction, rbs)
        if rbs:
            _book(binder, tti, tx_id, direction, rbs, power)
    model = ChannelModel(binder, positions, ChannelParams(shadowing_std_dev_db=shadowing),
                         TABLE, seed=5)
    for tx_id, rx_id, tti, probe, rbs, power, direction in queries:
        if tx_id == rx_id:
            continue
        # a reception reads its own TTI's ledger, a probe the one before
        ledger_tti = tti - 1 if probe else tti
        sinrs = model.sinr_per_rb_db(tx_id, rx_id, tti=tti, rbs=rbs, tx_power_dbm=power,
                                     entries=binder.band_allocations(ledger_tti, direction.band))
        assert sinrs == _reference_sinrs(model, tx_id, rx_id, tti=tti, ledger_tti=ledger_tti,
                                         rbs=rbs, tx_power_dbm=power, direction=direction)


@given(_ledger_and_queries(), st.sampled_from([0.0, 8.0]))
def test_reception_of_a_booked_block_matches_per_block_reference(case, shadowing):
    """A reception's mean SINR and decision equal those of the per-block
    reference, which scans the ledger for interferers on each block."""
    positions, bookings, _ = case
    binder = Binder(num_rbs=NUM_RBS)
    booked = []
    for tti, tx_id, direction, rbs, power in bookings:
        rbs = _free_run(binder, tti, direction, rbs)
        if rbs:
            booked.append(_book(binder, tti, tx_id, direction, rbs, power))
    model = ChannelModel(binder, positions, ChannelParams(shadowing_std_dev_db=shadowing),
                         TABLE, seed=5)
    for tb in booked:
        tb.cqi = 7
        for rx_id in range(len(positions)):
            if rx_id == tb.tx_id:
                continue
            expected = mean_sinr_db(_reference_sinrs(
                model, tb.tx_id, rx_id, tti=tb.tti, ledger_tti=tb.tti, rbs=tb.rbs,
                tx_power_dbm=tb.tx_power_dbm, direction=tb.direction))
            result = phy_receive(model, tb, rx_id)
            assert result.mean_sinr_db == expected
            assert result.decoded == decode(expected, 7, TABLE)


def test_link_losses_are_kept_for_two_ttis_only():
    binder, model = _model(shadowing=8.0)
    for tti in range(10):
        model.link_loss_db(1, 0, tti)
        model.link_loss_db(2, 0, tti)
    assert sorted(model._loss) == [8, 9]
    first = model.link_loss_db(1, 0, 3)  # too old to keep: computed afresh
    assert sorted(model._loss) == [8, 9]
    assert first == model.link_loss_db(1, 0, 3)


_coordinate = st.floats(-1000.0, 1000.0)


@given(st.tuples(_coordinate, _coordinate), st.tuples(_coordinate, _coordinate),
       st.floats(-20.0, 40.0), st.integers(1, 110), st.integers(0, 10_000))
def test_fixed_losses_and_means_equal_the_uncached_formulas(tx_at, rx_at, power, n, tti):
    params = ChannelParams()  # no shadowing
    model = ChannelModel(Binder(num_rbs=110), [tx_at, rx_at], params, TABLE, seed=1)
    loss = path_loss_db(math.dist(tx_at, rx_at), params) + model.shadowing_db(0, 1, tti)
    sinr = mw_to_dbm(dbm_to_mw(power - loss) / _noise_mw(params))
    for at in (tti, tti + 1, 0):  # the first query fills the memos, the others read them
        assert model.link_loss_db(0, 1, at) == loss
        assert model.noise_limited_mean_db(0, 1, at, power, n) == _sequential_mean_db([sinr] * n)
    assert model._noise_limited  # memoised


def test_means_add_from_the_left_whatever_sum_does(monkeypatch):
    monkeypatch.setattr("d2dsim.channel.sum", _compensated_sum, raising=False)
    rng = random.Random(0)
    for _ in range(200):
        values = [rng.uniform(-10.0, 40.0) for _ in range(rng.randint(1, 50))]
        assert mean_sinr_db(values) == _sequential_mean_db(values)
        equal = values[:1] * len(values)
        assert mean_sinr_db(equal) == _sequential_mean_db(equal)
    _, model = _model()
    for n in range(1, 51):
        sinrs = model.sinr_per_rb_db(1, 0, tti=3, rbs=range(n), tx_power_dbm=26.0,
                                     entries=())
        assert model.noise_limited_mean_db(1, 0, 3, 26.0, n) == _sequential_mean_db(sinrs)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["scenarios"]
    for rel, digests in sorted(golden.items()):
        metrics = Engine(parse_scenario((ROOT / rel).read_text())).run().metrics_csv()
        assert hashlib.sha256(metrics.encode()).hexdigest() == digests["metrics_sha256"], rel


@given(st.floats(-40.0, 60.0), st.integers(1, 100))
def test_mean_of_equal_values_is_bit_identical_to_general_formula(value, n):
    assert mean_sinr_db([value] * n) == _sequential_mean_db([value] * n)
    # one differing block takes the general path
    mixed = [value] * n + [value + 1.0]
    assert mean_sinr_db(mixed) == _sequential_mean_db(mixed)


# (transmitter, run, power) of interferers that each touch only one edge
# of the query's run of blocks 2..7, or none
_EDGE_INTERFERERS = [(2, range(7, 8), 20.0), (3, range(0, 3), 23.0), (4, range(8, 10), 23.0)]


@given(st.permutations(_EDGE_INTERFERERS), st.sampled_from([0.0, 8.0]), st.booleans())
def test_permuted_blocks_and_edge_interferers_match_reference(bookings, shadowing, probe):
    """The interferers' blocks are booked in any order."""
    binder = Binder(num_rbs=10)
    # eNodeB, ue, slA, slB and slC
    positions = [(0.0, 0.0), (100.0, 0.0), (0.0, 150.0), (60.0, 60.0), (-80.0, 20.0)]
    for tx_id, rbs, power in bookings:
        _book(binder, 4, tx_id, Direction.D2D, rbs, power)
    model = ChannelModel(binder, positions, ChannelParams(shadowing_std_dev_db=shadowing),
                         TABLE, seed=3)
    kwargs = dict(tti=5 if probe else 4, rbs=range(2, 8), tx_power_dbm=26.0)
    sinrs = model.sinr_per_rb_db(1, 0, **kwargs, entries=binder.band_allocations(4, "UL"))
    assert sinrs == _reference_sinrs(model, 1, 0, **kwargs, ledger_tti=4,
                                     direction=Direction.UL)
    edge_low, *middle, edge_high = sinrs  # blocks 2, 3..6 and 7
    assert middle == middle[:1] * 4
    assert edge_low < middle[0] and edge_high < middle[0]


def test_probe_on_kept_entries_matches_the_ledger_it_was_taken_from():
    binder, model = _model(shadowing=8.0)
    _book(binder, 4, 3, Direction.D2D, range(50), 26.0)
    kwargs = dict(tti=5, tx_power_dbm=26.0, direction=Direction.UL)
    then = model.wideband_cqi(1, 0, **kwargs)
    model.pin(5)
    binder.advance(9)  # the ledger drops TTI 4
    assert binder.band_allocations(4, "UL") == ()
    assert model.wideband_cqi(1, 0, **kwargs) == then
    model.pin(6)
    model.pin(7)  # a third pin releases TTI 5
    assert model.wideband_cqi(1, 0, **kwargs) > then  # without them: noise only


def test_pinned_link_losses_outlive_the_two_tti_window(monkeypatch):
    binder, model = _model(shadowing=8.0)
    draws = []
    shadowing_db = ChannelModel.shadowing_db
    monkeypatch.setattr(ChannelModel, "shadowing_db",
                        lambda self, *key: draws.append(key) or shadowing_db(self, *key))
    model.pin(2)
    loss = model.link_loss_db(1, 0, 2)
    for tti in range(3, 10):
        model.link_loss_db(2, 0, tti)
    assert sorted(model._loss) == [8, 9]
    assert model.link_loss_db(1, 0, 2) == loss
    assert draws.count((1, 0, 2)) == 1  # kept, not drawn again
    model.pin(5)
    model.pin(7)  # a third pin releases TTI 2
    assert model.link_loss_db(1, 0, 2) == loss
    assert draws.count((1, 0, 2)) == 2


@pytest.mark.parametrize("sigma", [0.5, 8.0, 30.0])
def test_shadowing_draw_is_the_first_value_of_gauss(sigma):
    # the draw spells out Random.gauss, whose output the stdlib does not
    # promise to keep, from the string seed and random() it does promise
    channel = ChannelModel(Binder(num_rbs=1), [], ChannelParams(shadowing_std_dev_db=sigma),
                           TABLE, seed=7)
    keys = [(tx, rx, tti) for tx in range(10) for rx in range(10) for tti in range(100)]
    assert [channel.shadowing_db(*key) for key in keys] == [
        random.Random(f"7:shadowing:{tx}:{rx}:{tti}").gauss(0.0, sigma) for tx, rx, tti in keys]
