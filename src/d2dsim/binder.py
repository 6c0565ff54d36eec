"""Global resource oracle shared by every protocol layer.

The binder knows everything the network knows: which nodes exist and
where they are, which resource blocks each transmitter occupies in
each TTI, and who belongs to which multicast group.  Layers query it
instead of exchanging control messages, which keeps the simulation
honest about resource usage without modelling signalling traffic.

Spectrum layout is FDD: the downlink band is separate, while sidelink
grants share the uplink band.  Reuse of the same block by an uplink
and a sidelink transmission (or two sidelinks) is legal and shows up
as interference; granting one block twice in the same direction is a
bookkeeping bug and raises :class:`RbConflict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator


class LinkDirection(Enum):
    DL = "DL"
    UL = "UL"
    SL = "SL"

    __hash__ = object.__hash__  # identity, in C; see stack.Direction

    @property
    def band(self) -> str:
        """Spectrum partition this direction transmits in."""
        return "DL" if self is LinkDirection.DL else "UL"


class RbConflict(Exception):
    """Same resource block granted twice in one direction and TTI."""


@dataclass(frozen=True)
class NodeRecord:
    node_id: int
    name: str
    is_enb: bool
    position: tuple[float, float]


@dataclass(slots=True)
class AllocationEntry:
    tti: int
    tx_node_id: int
    direction: LinkDirection
    rbs: tuple[int, ...]
    tx_power_dbm: float


@dataclass
class Binder:
    """Node registry, per-TTI allocation ledger and group membership.

    The ledger is a sliding window: entries older than one TTI behind
    the last :meth:`advance` call are dropped, since receptions only
    ever look one TTI back.
    """

    num_rbs: int
    _records: list[NodeRecord] = field(default_factory=list)
    _ids: dict[str, int] = field(default_factory=dict)
    _ledger: dict[int, list[AllocationEntry]] = field(default_factory=dict)
    _by_band: dict[tuple[int, str], list[AllocationEntry]] = field(default_factory=dict)
    _occupied: dict[tuple[int, LinkDirection], set[int]] = field(default_factory=dict)
    _groups: dict[str, set[int]] = field(default_factory=dict)
    _conflict_count: int = 0

    # -- node registry ------------------------------------------------

    def register_node(self, name: str, *, is_enb: bool = False,
                      position: tuple[float, float] = (0.0, 0.0)) -> int:
        """Assign the next dense id to a node; names must be unique."""
        if name in self._ids:
            raise ValueError(f"node {name!r} already registered")
        node_id = len(self._records)
        self._records.append(NodeRecord(node_id, name, is_enb, position))
        self._ids[name] = node_id
        return node_id

    def record(self, node_id: int) -> NodeRecord:
        return self._records[node_id]

    def id_of(self, name: str) -> int:
        return self._ids[name]

    @property
    def node_count(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[NodeRecord, ...]:
        return tuple(self._records)

    def enb_id(self) -> int:
        for record in self._records:
            if record.is_enb:
                return record.node_id
        raise LookupError("no eNB registered")

    # -- allocation ledger --------------------------------------------

    def record_allocation(self, tti: int, tx_node_id: int, direction: LinkDirection,
                          rbs: tuple[int, ...], tx_power_dbm: float) -> AllocationEntry:
        """Book resource blocks for one transmission.

        Raises :class:`RbConflict` if an infrastructure direction (UL
        or DL) books a block twice in one TTI.  Sidelink overlap, with
        an uplink grant or another sidelink, is deliberate spatial
        reuse and shows up as interference instead.
        """
        if rbs and (min(rbs) < 0 or max(rbs) >= self.num_rbs):
            rb = next(rb for rb in rbs if not 0 <= rb < self.num_rbs)
            raise ValueError(f"rb index {rb} outside 0..{self.num_rbs - 1}")
        if len(set(rbs)) != len(rbs):
            raise RbConflict(f"duplicate rb in grant {rbs}")
        if direction is not LinkDirection.SL:
            occupied = self._occupied.setdefault((tti, direction), set())
            clash = occupied.intersection(rbs)
            if clash:
                self._conflict_count += 1
                raise RbConflict(
                    f"tti {tti}: rb {sorted(clash)} already granted "
                    f"in {direction.value}")
            occupied.update(rbs)
        entry = AllocationEntry(tti, tx_node_id, direction, tuple(rbs), tx_power_dbm)
        self._ledger.setdefault(tti, []).append(entry)
        self._by_band.setdefault((tti, direction.band), []).append(entry)
        return entry

    def allocations(self, tti: int) -> tuple[AllocationEntry, ...]:
        return tuple(self._ledger.get(tti, ()))

    def allocated_rbs(self, tti: int, direction: LinkDirection) -> set[int]:
        return set(self._occupied.get((tti, direction), ()))

    def band_allocations(self, tti: int, band: str) -> tuple[AllocationEntry, ...]:
        """One TTI's entries in one band, in booking order."""
        return tuple(self._by_band.get((tti, band), ()))

    def interferers(self, tti: int, rb: int, band: str,
                    exclude_tx: int) -> Iterator[AllocationEntry]:
        """Entries occupying ``rb`` in ``band`` at ``tti``, minus the serving one."""
        for entry in self._ledger.get(tti, ()):
            if entry.tx_node_id == exclude_tx:
                continue
            if entry.direction.band == band and rb in entry.rbs:
                yield entry

    def advance(self, tti: int) -> None:
        """Drop ledger state older than ``tti - 1``."""
        horizon = tti - 1
        for old in [t for t in self._ledger if t < horizon]:
            del self._ledger[old]
        for key in [k for k in self._occupied if k[0] < horizon]:
            del self._occupied[key]
        for key in [k for k in self._by_band if k[0] < horizon]:
            del self._by_band[key]

    def check_conservation(self, tti: int) -> list[str]:
        """Independent audit of one TTI's bookings.

        Recounts the ledger from scratch, ignoring the incremental
        occupancy sets: infrastructure directions must never book a
        block twice, and every index must be inside the band.
        """
        problems: list[str] = []
        per_direction: dict[LinkDirection, list[int]] = {}
        for entry in self._ledger.get(tti, ()):
            per_direction.setdefault(entry.direction, []).extend(entry.rbs)
        for direction, blocks in per_direction.items():
            if direction is not LinkDirection.SL and len(set(blocks)) != len(blocks):
                problems.append(f"tti {tti}: duplicate grant in {direction.value}")
            if blocks and (min(blocks) < 0 or max(blocks) >= self.num_rbs):
                problems.append(f"tti {tti}: {direction.value} rb index out of range")
        return problems

    @property
    def conflict_count(self) -> int:
        return self._conflict_count

    # -- multicast membership -----------------------------------------

    def register_group(self, address: str) -> None:
        self._groups.setdefault(address, set())

    def add_member(self, address: str, node_id: int) -> None:
        self._groups.setdefault(address, set()).add(node_id)

    def is_member(self, address: str, node_id: int) -> bool:
        return node_id in self._groups.get(address, ())

