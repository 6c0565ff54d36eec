"""Every record keeps the contract of the ``collections.namedtuple`` it
replaces: fields, defaults, ``repr``, tuple equality and hashing,
``_replace``, ``_asdict``, ``_make``, pickling, ``__match_args__`` and
unpacking, and no ``__dict__``.  Each reference below is the named tuple
the record was before it was written out in source."""

import copy
import pickle
from collections import namedtuple

import pytest

from d2dsim import (AmcMode, ChannelParams, Diagnostic, FlowConfig, ModeSelectionConfig,
                    ModeSwitchCommand, MulticastGroup, NodeConfig, Role, ScenarioConfig,
                    SimParams, SimulationResult, TraceRow, Transport)
from d2dsim.cli import SweepRow

REFERENCES = [
    (ChannelParams, "path_loss_exponent reference_loss_db shadowing_std_dev_db "
                    "noise_figure_db thermal_noise_dbm_per_rb min_distance_m",
     (3.5, 40.0, 0.0, 7.0, -121.4, 1.0)),
    (SimParams, "tti_count seed num_rbs rb_capacity_re cqi_report_period_ttis "
                "harq_max_retx harq_processes", (0, 1, 50, 168, 10, 3, 8)),
    (NodeConfig, "name role position_x position_y d2d_capable d2d_peer_addresses "
                 "ue_tx_power_dbm d2d_tx_power_dbm enable_d2d_cqi_reporting "
                 "use_preconfigured_tx_params d2d_cqi amc_mode",
     (Role.UE, 0.0, 0.0, False, (), 26.0, 20.0, False, False, None, AmcMode.AUTO)),
    (FlowConfig, "flow_id source_node dest_address packet_bytes period_ttis "
                 "start_tti transport start_jitter_ttis", (0, Transport.ONE_WAY, 0)),
    (MulticastGroup, "address member_pattern", ()),
    (ModeSelectionConfig, "enabled policy_name period_ttis",
     (False, "D2DModeSelectionBestCqi", 100)),
    (ScenarioConfig, "sim nodes flows channel mode_selection multicast_groups",
     (SimParams(), (), (), ChannelParams(), ModeSelectionConfig(), ())),
    (Diagnostic, "kind message node key", (None, None)),
    (TraceRow, "tti event src dst direction rbs sinr_db decoded", (0, None, None)),
    (SimulationResult, "run_metrics flow_metrics trace ledger_rows", ()),
    (ModeSwitchCommand, "src_id dst_id new_mode", ()),
    (SweepRow, "cqi max_distance_m rbs_per_packet", ()),
]


def _error(call) -> tuple[type, str]:
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("record, fields, defaults", REFERENCES,
                         ids=[record.__name__ for record, _, _ in REFERENCES])
def test_record_behaves_as_its_namedtuple(record, fields, defaults):
    reference = namedtuple(record.__name__, fields, defaults=defaults)
    assert record._fields == reference._fields
    assert record._field_defaults == reference._field_defaults
    assert record.__match_args__ == reference.__match_args__

    values = [f"v{i}" for i in range(len(reference._fields))]
    required = len(values) - len(defaults)
    for given in (values, values[:required]):  # every field, then the defaults
        item, expected = record(*given), reference(*given)
        assert type(item) is record
        assert repr(item) == repr(expected)
        assert item == expected == tuple(expected) and hash(item) == hash(tuple(expected))
        assert [getattr(item, name) for name in record._fields] == list(expected)
    assert record(**dict(zip(record._fields, values))) == tuple(values)
    with pytest.raises(TypeError):
        record(*values, "one too many")

    item, expected = record(*values), reference(*values)
    first = record._fields[0]
    assert item._replace(**{first: "new"}) == expected._replace(**{first: "new"})
    assert type(item._replace()) is record
    assert (_error(lambda: item._replace(missing=1))
            == _error(lambda: expected._replace(missing=1))
            == (ValueError, "Got unexpected field names: ['missing']"))
    assert item._asdict() == expected._asdict()
    assert record._make(iter(values)) == item and type(record._make(values)) is record
    assert (_error(lambda: record._make(values[:-1]))
            == _error(lambda: reference._make(values[:-1]))
            == (TypeError, f"Expected {len(values)} arguments, got {len(values) - 1}"))

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        thawed = pickle.loads(pickle.dumps(item, protocol))
        assert thawed == item and type(thawed) is record
    assert copy.copy(item) == copy.deepcopy(item) == item
    match item:
        case record(matched) if matched == values[0]:
            pass
        case _:
            pytest.fail(f"{item!r} does not match {record.__name__}({values[0]!r})")
    head, *rest = item
    assert [head, *rest] == values

    assert not hasattr(item, "__dict__")
    with pytest.raises(AttributeError):
        item.extra = 1
    with pytest.raises(AttributeError):
        setattr(item, first, "changed")
