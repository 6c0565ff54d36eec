"""Mode-selection policies, their registry and switch commands."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from d2dsim import (Mode, UnknownPolicyError, best_cqi_decide,
                    do_mode_selection, get_policy, policy_names,
                    register_policy)


def test_best_cqi_prefers_stronger_link():
    assert best_cqi_decide(10, 4) is Mode.DM
    assert best_cqi_decide(4, 10) is Mode.IM


def test_best_cqi_tie_stays_direct():
    assert best_cqi_decide(7, 7) is Mode.DM
    assert best_cqi_decide(0, 0) is Mode.DM


@given(st.integers(0, 15), st.integers(0, 15))
def test_best_cqi_matches_argmax_with_dm_tiebreak(sl, ul):
    expected = Mode.DM if sl >= ul else Mode.IM
    assert best_cqi_decide(sl, ul) is expected


def test_registry_lookup():
    assert get_policy("D2DModeSelectionBestCqi") is best_cqi_decide
    assert "D2DModeSelectionBestCqi" in policy_names()
    with pytest.raises(UnknownPolicyError, match="NoSuchPolicy"):
        get_policy("NoSuchPolicy")


def test_register_custom_policy():
    @register_policy("AlwaysInfrastructure")
    def always_im(sl_cqi, ul_cqi):
        return Mode.IM
    assert get_policy("AlwaysInfrastructure") is always_im


def test_do_mode_selection_emits_only_changes():
    modes = {(1, 2): Mode.DM, (3, 4): Mode.DM}
    cqis = {(1, 2): (7, 12), (3, 4): (9, 3)}
    commands = do_mode_selection(modes, best_cqi_decide,
                                 lambda s, d: cqis[(s, d)])
    assert len(commands) == 1
    command = commands[0]
    assert (command.src_id, command.dst_id) == (1, 2)
    assert command.new_mode is Mode.IM


def test_do_mode_selection_noop_when_settled():
    commands = do_mode_selection({(1, 2): Mode.IM}, best_cqi_decide,
                                 lambda s, d: (3, 12))
    assert commands == []

