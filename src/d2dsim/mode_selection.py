"""Sidelink mode selection: direct path versus infrastructure path.

Each D2D peering is unidirectional and carries its own mode.  In DM
(direct mode) the sender reaches its peer over the sidelink in one
hop; in IM (infrastructure mode) the same traffic is relayed by the
eNB as an ordinary uplink/downlink two-hop.  The eNB re-evaluates
modes periodically through a pluggable policy; a decision takes
effect one TTI after it is made, like a handover command, and data
already committed to the old path is lost.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum

from .binder import Record


class Mode(Enum):
    DM = "DM"
    IM = "IM"


class UnknownPolicyError(Exception):
    """Requested mode-selection policy was never registered."""


class ModeSwitchCommand(Record):
    __slots__ = ()

    def __new__(cls, src_id, dst_id, new_mode):
        return tuple.__new__(cls, (src_id, dst_id, new_mode))


# A policy is a Callable[[int, int], Mode]: it maps the sidelink and uplink
# channel quality of one peering to the mode the peering should use.
_POLICIES: dict[str, Callable[[int, int], Mode]] = {}


def register_policy(name: str) -> Callable:
    def wrap(fn: Callable[[int, int], Mode]) -> Callable[[int, int], Mode]:
        _POLICIES[name] = fn
        return fn
    return wrap


def get_policy(name: str) -> Callable[[int, int], Mode]:
    try:
        return _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise UnknownPolicyError(f"unknown policy {name!r} (known: {known})") from None


def policy_names() -> tuple[str, ...]:
    return tuple(sorted(_POLICIES))


@register_policy("D2DModeSelectionBestCqi")
def best_cqi_decide(sl_cqi: int, ul_cqi: int) -> Mode:
    """Prefer the link with the better CQI; ties go to the direct path."""
    return Mode.DM if sl_cqi >= ul_cqi else Mode.IM


def do_mode_selection(modes: dict[tuple[int, int], Mode], policy: Callable[[int, int], Mode],
                      cqi_lookup: Callable[[int, int], tuple[int, int]]
                      ) -> list[ModeSwitchCommand]:
    """Run one selection round over every peering, in ``modes`` order.

    ``modes`` maps each (sender, receiver) peering to its current mode;
    ``cqi_lookup(src, dst)`` supplies the (sidelink, uplink) CQI pair
    the eNB currently holds for that peering.  Only peerings whose
    desired mode differs from the current one produce a command.
    """
    commands: list[ModeSwitchCommand] = []
    for (src_id, dst_id), mode in modes.items():
        desired = policy(*cqi_lookup(src_id, dst_id))
        if desired is not mode:
            commands.append(ModeSwitchCommand(src_id, dst_id, desired))
    return commands
