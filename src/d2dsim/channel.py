"""Radio channel: path loss, shadowing, SINR and CQI mapping.

The propagation model is log-distance path loss with optional
log-normal shadowing::

    loss_db = referenceLossDb + 10 * n * log10(max(d, minDistanceM)) + X

where ``X ~ N(0, shadowingStdDevDb)`` is drawn independently per
(transmitter, receiver, TTI) and is identical across resource blocks
within that TTI.  Decoding is a step function: a transport block is
received iff its mean SINR meets the switching threshold of the CQI
it was encoded with.
"""

from __future__ import annotations

import math
import operator
import os
import random
from bisect import bisect_right
from functools import reduce

from _random import Random as _MersenneTwister  # random.Random's C base

try:  # where random.py takes SHA-512 from: hashlib would load OpenSSL
    from _sha2 import sha512  # CPython 3.12 on
except ImportError:
    try:
        from _sha512 import sha512
    except ImportError:  # a build without the built-in module, as random.py allows
        from hashlib import sha512

from .binder import Binder, Direction, Record

PROBE_MEMO_SIZE = 64  # interference layouts a fixed channel keeps the CQI of


class ChannelParams(Record):
    __slots__ = ()

    def __new__(cls, path_loss_exponent=3.5, reference_loss_db=40.0, shadowing_std_dev_db=0.0,
                noise_figure_db=7.0, thermal_noise_dbm_per_rb=-121.4, min_distance_m=1.0):
        return tuple.__new__(cls, (path_loss_exponent, reference_loss_db, shadowing_std_dev_db,
                                   noise_figure_db, thermal_noise_dbm_per_rb, min_distance_m))


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    return 10.0 * math.log10(mw)


def path_loss_db(distance_m: float, params: ChannelParams) -> float:
    """Deterministic part of the link loss at a given distance."""
    d = max(distance_m, params.min_distance_m)
    return params.reference_loss_db + 10.0 * params.path_loss_exponent * math.log10(d)


def mean_sinr_db(sinr_values_db: list[float]) -> float:
    """Average per-block SINRs in the linear domain, back to dB, adding from the
    left (``sum`` compensates float rounding from Python 3.12 on)."""
    if not sinr_values_db:
        raise ValueError("no SINR samples")
    # blocks often share a value: convert each distinct one once, but
    # still add every block in order
    first, n = sinr_values_db[0], len(sinr_values_db)
    if sinr_values_db.count(first) == n:
        return mw_to_dbm(reduce(operator.add, [dbm_to_mw(first)] * n) / n)
    linear = {v: dbm_to_mw(v) for v in set(sinr_values_db)}
    return mw_to_dbm(reduce(operator.add, [linear[v] for v in sinr_values_db]) / n)


class CqiTable:
    """Switching thresholds and spectral efficiencies for CQI 1..15.

    ``sinr_to_cqi`` returns the largest CQI whose threshold the SINR
    meets, or 0 when even CQI 1 is out of reach.  Thresholds must be
    finite and strictly increasing, efficiencies in [0.001, 64] bits per
    resource element, so that no grant size overflows a float.
    """

    def __init__(self, thresholds_db: list[float], efficiencies: list[float]):
        if len(thresholds_db) != len(efficiencies):
            raise ValueError("threshold/efficiency length mismatch")
        if not thresholds_db:
            raise ValueError("empty table")
        for cqi, (threshold, efficiency) in enumerate(zip(thresholds_db, efficiencies), 1):
            if not (math.isfinite(threshold) and 0.001 <= efficiency <= 64.0):
                raise ValueError(f"cqi {cqi}: threshold {threshold!r} must be finite and "
                                 f"efficiency {efficiency!r} in [0.001, 64]")
        if any(b <= a for a, b in zip(thresholds_db, thresholds_db[1:])):
            raise ValueError("thresholds must be strictly increasing")
        self.thresholds_db = tuple(thresholds_db)  # of CQI 1, 2, ...
        # indexed by CQI, unchecked; CQI 0 carries nothing
        self.efficiencies = (0.0, *efficiencies)
        self._tbs: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

    @classmethod
    def from_file(cls, path) -> "CqiTable":
        """Load ``cqi threshold_db efficiency_bits_per_re`` rows."""
        rows: dict[int, tuple[float, float]] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.partition("#")[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
                cqi, threshold, efficiency = int(parts[0]), float(parts[1]), float(parts[2])
                if cqi in rows:
                    raise ValueError(f"{path}:{lineno}: duplicate cqi {cqi}")
                rows[cqi] = (threshold, efficiency)
        expected = list(range(1, len(rows) + 1))
        if sorted(rows) != expected:
            raise ValueError(f"{path}: cqi values must be exactly 1..{len(rows)}")
        ordered = [rows[c] for c in expected]
        return cls([t for t, _ in ordered], [e for _, e in ordered])

    @classmethod
    def default(cls) -> "CqiTable":
        return cls.from_file(os.path.join(os.path.dirname(__file__), "data", "cqi_table.txt"))

    @property
    def max_cqi(self) -> int:
        return len(self.thresholds_db)

    def sinr_to_cqi(self, sinr_db: float) -> int:
        return bisect_right(self.thresholds_db, sinr_db)

    def tbs_sizes(self, rb_capacity_re: int, num_rbs: int) -> tuple[tuple[int, ...], ...]:
        """:func:`amc_tbs` as ``[cqi][blocks]``, 0..num_rbs blocks, built once per pair."""
        key = (rb_capacity_re, num_rbs)
        sizes = self._tbs.get(key)
        if sizes is None:
            sizes = self._tbs[key] = tuple(
                tuple(amc_tbs(cqi, n, rb_capacity_re, self) for n in range(num_rbs + 1))
                for cqi in range(self.max_cqi + 1))
        return sizes


# CQIs are not range-checked here: they come from the table or a validated config

def amc_tbs(cqi: int, num_rbs: int, rb_capacity_re: int, table: CqiTable) -> int:
    """Transport block size in bits for a grant of ``num_rbs`` blocks; 0 at CQI 0."""
    return math.floor(num_rbs * rb_capacity_re * table.efficiencies[cqi])


def decode(mean_db: float, cqi: int, table: CqiTable) -> bool:
    """Step-function reception: succeeds iff the SINR supports the CQI (never at 0)."""
    return cqi >= 1 and mean_db >= table.thresholds_db[cqi - 1]


class ChannelModel:
    """Channel over fixed node positions and a binder's ledger.

    ``positions[node_id]`` is a node's ``(x, y)`` in metres.  Nodes do
    not move, so each link's path loss is memoised for the whole run;
    without shadowing it is the link's loss, and a reception's
    noise-limited mean SINR is memoised per (tx, rx, power, blocks) too.
    Shadowing draws are keyed by (seed, tx, rx, tti), so any query for
    the same link and TTI sees the same value; link losses are memoised
    only for the last two TTIs passed to :meth:`pin`, which also keeps
    the ledger entries a CQI measurement at that TTI reads (a report is
    measured when first read, up to a report period late).  Any other
    query draws afresh.
    """

    def __init__(self, binder: Binder, positions: list[tuple[float, float]],
                 params: ChannelParams, table: CqiTable, seed: int):
        self.binder = binder
        self.positions = positions
        self.params = params
        self.table = table
        self._fixed_loss = params.shadowing_std_dev_db == 0.0
        self._path_loss: dict[tuple[int, int], float] = {}
        # (tx, rx, power, blocks) -> noise-limited mean SINR, kept only at sigma = 0
        self._noise_limited: dict[tuple[int, int, float, int], float] = {}
        self._probes: dict[tuple, int] = {}
        # tti -> its link losses by (tx, rx) and the previous TTI's entries by band
        self._pinned: dict[int, dict] = {}
        self._noise_mw = dbm_to_mw(params.thermal_noise_dbm_per_rb + params.noise_figure_db)
        self._rng = random.Random()
        self._key_prefix = f"{seed}:shadowing:".encode()  # every draw's key starts so

    def shadowing_db(self, tx_id: int, rx_id: int, tti: int) -> float:
        """One draw of N(0, sigma) from a generator seeded by the draw's key.

        The draw is the first value ``random.Random(key).gauss(0.0, sigma)``
        returns, spelled out so that it rests only on ``seed`` with a string
        and ``random()``, which the standard library keeps reproducible
        across versions, and not on ``gauss``, which it does not.  The
        generator is seeded directly with the int ``Random.seed`` derives from
        the string key (random.py's version 2: the key's UTF-8 bytes followed
        by their SHA-512, read big-endian), as on CPython 3.10 to 3.13.
        """
        sigma = self.params.shadowing_std_dev_db
        key = self._key_prefix + b"%d:%d:%d" % (tx_id, rx_id, tti)
        rng = self._rng
        _MersenneTwister.seed(rng, int.from_bytes(key + sha512(key).digest(), "big"))
        angle = rng.random() * math.tau
        return 0.0 + math.cos(angle) * math.sqrt(-2.0 * math.log(1.0 - rng.random())) * sigma

    def pin(self, tti: int) -> None:
        """Keep ``tti``'s link losses and the previous TTI's ledger entries,
        which a CQI measurement at ``tti`` reads, until two later pins."""
        self._pinned[tti] = {
            band: self.binder.band_allocations(tti - 1, band) for band in ("UL", "DL")}
        if len(self._pinned) > 2:
            del self._pinned[min(self._pinned)]

    def link_loss_db(self, tx_id: int, rx_id: int, tti: int) -> float:
        key = (tx_id, rx_id)
        base = self._path_loss.get(key)
        if base is None:
            distance = math.dist(self.positions[tx_id], self.positions[rx_id])
            base = self._path_loss[key] = path_loss_db(distance, self.params)
        if self._fixed_loss:
            return base
        losses = self._pinned.get(tti)  # only a pinned TTI's are read again
        if losses is None:
            return base + self.shadowing_db(tx_id, rx_id, tti)
        loss = losses.get(key)
        if loss is None:
            loss = losses[key] = base + self.shadowing_db(tx_id, rx_id, tti)
        return loss

    def noise_limited_mean_db(self, tx_id: int, rx_id: int, tti: int,
                              tx_power_dbm: float, num_rbs: int) -> float:
        """Mean SINR of ``num_rbs`` blocks nothing interferes with."""
        key = (tx_id, rx_id, tx_power_dbm, num_rbs)
        mean = self._noise_limited.get(key)
        if mean is None:
            sinr = mw_to_dbm(dbm_to_mw(
                tx_power_dbm - self.link_loss_db(tx_id, rx_id, tti)) / self._noise_mw)
            mean = mean_sinr_db([sinr] * num_rbs)
            if self._fixed_loss:
                self._noise_limited[key] = mean
        return mean

    def sinr_per_rb_db(self, tx_id: int, rx_id: int, *, tti: int, rbs: range,
                       tx_power_dbm: float, entries: tuple) -> list[float]:
        """Per-block SINR at the receiver against one band's ledger entries.

        ``rbs`` is a run of blocks (a step-1 ``range``, empty gives ``[]``),
        as is every entry's; ``entries`` are one TTI's bookings in the band,
        which hold each block at most once.  ``tti`` keys the shadowing draw.
        A block an entry holds sees that transmitter's received power as
        interference, unless it is the transmitter or the receiver itself (a
        node cannot receive while it transmits on the block); every other
        block is noise-limited.
        """
        signal_mw = dbm_to_mw(tx_power_dbm - self.link_loss_db(tx_id, rx_id, tti))
        noise_mw = self._noise_mw
        low, high = rbs.start, max(rbs.start, rbs.stop)  # range(3, 1) holds no block
        out = [mw_to_dbm(signal_mw / noise_mw)] * (high - low)
        for entry in entries:
            if entry.tx_id == tx_id or entry.tx_id == rx_id:
                continue
            start, stop = max(entry.rbs.start, low), min(entry.rbs.stop, high)
            if start < stop:
                power_mw = dbm_to_mw(
                    entry.tx_power_dbm - self.link_loss_db(entry.tx_id, rx_id, tti))
                out[start - low:stop - low] = (
                    [mw_to_dbm(signal_mw / (noise_mw + power_mw))] * (stop - start))
        return out

    def wideband_cqi(self, tx_id: int, rx_id: int, *, tti: int,
                     tx_power_dbm: float, direction: Direction) -> int:
        """CQI a receiver would report from a full-band measurement at ``tti``.

        Interference is taken from the previous TTI's ledger, the most
        recent one a measurement could have observed; if ``tti`` is
        pinned, from the entries kept when it was pinned.  Without shadowing the
        CQI is memoised by the link, its power and each interfering entry's
        transmitter, run and power, for the last ``PROBE_MEMO_SIZE`` (64) layouts.
        """
        pinned = self._pinned.get(tti)
        band = direction.band
        entries = pinned[band] if pinned else self.binder.band_allocations(tti - 1, band)
        key = self._fixed_loss and (tx_id, rx_id, tx_power_dbm, *[  # False: not memoised
            field for e in entries if e.tx_id != tx_id and e.tx_id != rx_id
            for field in (e.tx_id, e.rbs.start, e.rbs.stop, e.tx_power_dbm)])
        if key in self._probes:
            return self._probes[key]
        sinrs = self.sinr_per_rb_db(tx_id, rx_id, tti=tti, rbs=range(self.binder.num_rbs),
                                    tx_power_dbm=tx_power_dbm, entries=entries)
        cqi = self.table.sinr_to_cqi(mean_sinr_db(sinrs))
        if key:
            if len(self._probes) >= PROBE_MEMO_SIZE:
                del self._probes[next(iter(self._probes))]
            self._probes[key] = cqi
        return cqi
