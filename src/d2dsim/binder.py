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

It also holds :class:`Record`, the base of the package's immutable
records, since the package loads this module first.
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's C field getter, or its fallback
from collections.abc import Iterator
from enum import Enum


class Record(tuple):
    """A tuple with named fields that behaves as a ``collections.namedtuple``
    but is written in source, so that defining one compiles nothing.

    A subclass sets ``__slots__ = ()`` and writes a ``__new__`` whose
    parameters after ``cls`` are its fields, with their defaults, returning
    ``tuple.__new__(cls, (<fields>))``.  From that signature it gets
    ``_fields``, ``_field_defaults``, ``__match_args__`` and a C getter per
    field; the rest of the ``namedtuple`` API comes from here.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        new = cls.__new__
        fields = new.__code__.co_varnames[1:new.__code__.co_argcount]
        defaults = new.__defaults__ or ()
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults):], defaults))
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable):
        """Make an instance from a sequence or iterable of every field."""
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **kwds):
        """A copy with the named fields replaced."""
        result = self._make(map(kwds.pop, self._fields, self))
        if kwds:
            raise ValueError(f"Got unexpected field names: {list(kwds)!r}")
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


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

    def record_allocation(self, entry):
        """Book one transmission's blocks, keeping ``entry`` as its ledger entry.

        ``entry.rbs`` must be a non-empty step-1 ``range`` inside the band,
        or ``ValueError`` is raised and nothing booked; :class:`RbConflict`,
        booking nothing, if any of its blocks is already booked in the
        band that TTI, whatever the directions.
        """
        name, rbs, num_rbs = entry.direction.band, entry.rbs, self.num_rbs
        if type(rbs) is not range or rbs.step != 1 or not 0 <= rbs.start < rbs.stop <= num_rbs:
            raise ValueError(f"grant {rbs!r} is not a run of blocks in {name} 0..{num_rbs - 1}")
        mask = (1 << rbs.stop) - (1 << rbs.start)
        key = (entry.tti, name)
        band = self._bands.get(key) or self._bands.setdefault(key, _Band())
        clash = band.used & mask
        if clash:
            blocks = [rb for rb in range(num_rbs) if clash >> rb & 1]
            raise RbConflict(f"tti {entry.tti}: rb {blocks} already granted in {name}")
        band.used |= mask
        band.append(entry)
        return entry

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
        must be inside the band.  Each entry's run (a step-1 ``range``) is
        ORed into a fresh mask, so a block held twice leaves fewer bits set
        than the runs' lengths add up to.
        """
        problems: list[str] = []
        for band in ("UL", "DL"):
            mask = total = low = 0  # bit 0 of ``mask`` is block ``low``
            for entry in self._bands.get((tti, band), ()):
                start, stop = entry.rbs.start, entry.rbs.stop
                if start < stop:  # an empty run holds no block
                    if start < low:  # rebase, since a shift may not be negative
                        mask, low = mask << low - start, start
                    mask |= (1 << stop - low) - (1 << start - low)
                    total += stop - start
            if mask.bit_count() < total:
                problems.append(f"tti {tti}: duplicate grant in {band}")
            if low < 0 or low + mask.bit_length() > self.num_rbs:
                problems.append(f"tti {tti}: {band} rb index out of range")
        return problems
