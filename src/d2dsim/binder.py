"""Global resource ledger shared by every protocol layer.

The binder knows which resource blocks each transmitter occupies in
each TTI.  Layers query it instead of exchanging control messages,
which keeps the simulation honest about resource usage without
modelling signalling traffic.  Entries name their transmitter by node
id, the node's place in the scenario's ``sim.nodes``.

Spectrum layout is FDD: the downlink band is separate, while sidelink
grants share the uplink band.  A block is booked at most once per band
and TTI, sidelinks included; booking it twice is a bug and raises
:class:`RbConflict`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator


class Direction(Enum):
    """A transmission's direction, as every layer names it."""

    DL = "DL"
    UL = "UL"
    D2D = "D2D"
    D2D_MULTI = "D2D_MULTI"

    __hash__ = object.__hash__  # identity, in C; no set of these is iterated

    def __init__(self, value: str) -> None:
        self.band = "DL" if value == "DL" else "UL"  # spectrum partition it transmits in
        self.link = "SL" if value.startswith("D2D") else value  # as the ledger spells it


class RbConflict(Exception):
    """Same resource block granted twice in one band and TTI."""


class _Band(list):
    """One TTI's entries in one band, in booking order, with a bit mask of
    the blocks they hold (``used``)."""

    used = 0


class Binder:
    """Per-TTI allocation ledger.

    The ledger is a sliding window: entries older than one TTI behind
    the last :meth:`advance` call are dropped, since receptions only
    ever look one TTI back.  Entries are the PHY's transport blocks, or any
    record with ``tti``, ``tx_id``, ``direction``, ``tx_power_dbm`` and
    ``rbs``, a ``range`` of consecutive blocks: an SC-FDMA grant is one run.
    """

    __slots__ = ("num_rbs", "_bands")

    def __init__(self, num_rbs: int) -> None:
        self.num_rbs = num_rbs
        self._bands: dict[tuple[int, str], _Band] = {}

    def _mask(self, rbs, band: str) -> int:
        """Bit mask of a grant's blocks: a non-empty run of them in the band."""
        if type(rbs) is not range or rbs.step != 1 or not 0 <= rbs.start < rbs.stop <= self.num_rbs:
            raise ValueError(f"grant {rbs!r} is not a run of blocks in {band} 0..{self.num_rbs - 1}")
        return (1 << rbs.stop) - (1 << rbs.start)

    def record_allocation(self, entry):
        """Book one transmission's blocks, keeping ``entry`` as its ledger entry.

        ``entry.rbs`` must be a non-empty step-1 ``range`` inside the band,
        or ``ValueError`` is raised and nothing booked; :class:`RbConflict`,
        booking nothing, if any of its blocks is already booked in the
        band that TTI, whatever the directions.
        """
        name = entry.direction.band
        mask = self._mask(entry.rbs, name)
        key = (entry.tti, name)
        band = self._bands.get(key) or self._bands.setdefault(key, _Band())
        clash = band.used & mask
        if clash:
            blocks = [rb for rb in range(self.num_rbs) if clash >> rb & 1]
            raise RbConflict(f"tti {entry.tti}: rb {blocks} already granted in {name}")
        band.used |= mask
        band.append(entry)
        return entry

    def allocations(self, tti: int) -> tuple:
        """One TTI's entries: the UL band's, then the DL band's, each in booking order."""
        return self.band_allocations(tti, "UL") + self.band_allocations(tti, "DL")

    def band_allocations(self, tti: int, band: str) -> tuple:
        """One TTI's entries in one band, in booking order."""
        return tuple(self._bands.get((tti, band), ()))

    def interferers(self, tti: int, rb: int, band: str, exclude_tx: int) -> Iterator:
        """Entries occupying ``rb`` in ``band`` at ``tti``, minus the serving one.

        The engine never calls this.  It stays as the per-block statement of
        the ledger that the traced benchmark (``perfbench/tracer.py``) wraps
        by name and the tests' per-block SINR reference scans.
        """
        for entry in self.band_allocations(tti, band):
            if entry.tx_id != exclude_tx and rb in entry.rbs:
                yield entry

    def advance(self, tti: int) -> None:
        """Drop ledger state older than ``tti - 1``."""
        for key in [k for k in self._bands if k[0] < tti - 1]:
            del self._bands[key]

    def check_conservation(self, tti: int) -> list[str]:
        """Independent audit of one TTI's bookings.

        Recounts the ledger from scratch, ignoring the incremental
        occupancy masks: no band may hold a block twice, and every index
        must be inside the band.
        """
        problems: list[str] = []
        for band in ("UL", "DL"):
            blocks = [rb for entry in self.band_allocations(tti, band) for rb in entry.rbs]
            if len(set(blocks)) != len(blocks):
                problems.append(f"tti {tti}: duplicate grant in {band}")
            if blocks and (min(blocks) < 0 or max(blocks) >= self.num_rbs):
                problems.append(f"tti {tti}: {band} rb index out of range")
        return problems
