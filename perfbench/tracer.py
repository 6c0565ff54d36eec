"""Per-layer spans and counts, recorded from outside d2dsim.

``Tracer.install`` wraps the public functions and methods of each
d2dsim module.  Functions that ``engine.py`` imports by name are
patched at ``d2dsim.engine.*``; methods are patched on their class.
A span records (name, start, end, parent span); counts are taken at
the same boundaries.  Everything stays in memory until ``layers``
summarises it and ``write_spans`` writes it out after the run.

A layer's self time is its span time minus the time its child spans
cover.  Spans nest strictly because d2dsim runs on one thread.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict

# Per-layer metrics a traced run reports, with their units.  The list
# in BENCHMARK.json must name exactly these plus ``trace.overhead_ratio``.
LAYER_METRICS: dict[str, str] = {
    "config.parse_s": "s",
    "engine.init_s": "s",
    "engine.self_s": "s",
    "engine.schedule_event.calls": "count",
    "channel.wideband_cqi.s": "s",
    "channel.wideband_cqi.calls": "count",
    "channel.sinr_per_rb_db.s": "s",
    "channel.sinr_per_rb_db.calls": "count",
    "channel.rbs_evaluated": "count",
    "channel.shadowing_draws": "count",
    "binder.interferers.s": "s",
    "binder.interferers.calls": "count",
    "binder.interferer_entries": "count",
    "phy.receive.interfered_ratio": "ratio",
    "channel.cqi_probe.interfered_ratio": "ratio",
    "binder.check_conservation.s": "s",
    "binder.audit_violations": "count",
    "binder.record_allocation.calls": "count",
    "pdcp.classify.calls": "count",
    "rlc.push.calls": "count",
    "rlc.fill.s": "s",
    "rlc.fill.calls": "count",
    "rlc.fragments": "count",
    "rlc.backlog_bits.s": "s",
    "rlc.backlog_bits.calls": "count",
    "rlc.assembler_add.calls": "count",
    "mac.schedule_band.s": "s",
    "mac.schedule_band.calls": "count",
    "mac.requests": "count",
    "mac.grants": "count",
    "mac.grant_ratio": "ratio",
    "harq.feedback.calls": "count",
    "harq.nacks": "count",
    "harq.retransmits": "count",
    "harq.drops": "count",
    "phy.send.calls": "count",
    "phy.receive.s": "s",
    "phy.receive.calls": "count",
    "phy.decode_failures": "count",
    "mode_selection.rounds": "count",
    "mode_selection.commands": "count",
}

# Which layer each span's self time belongs to, for the layer shares.
SPAN_LAYER = {
    "config.parse": "config",
    "engine.init": "engine",
    "engine.run": "engine",
    "channel.wideband_cqi": "channel",
    "channel.sinr_per_rb_db": "channel",
    "binder.interferers": "binder",
    "binder.check_conservation": "binder",
    "rlc.fill": "stack",
    "rlc.backlog_bits": "stack",
    "mac.schedule_band": "stack",
    "phy.receive": "stack",
    "mode_selection": "mode_selection",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._interfered: set[int] = set()  # SINR spans that saw an interferer

    # -- recording -------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, *args, **kwargs)`` counts."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            spans.append(None)
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def counted(self, name: str, fn, after=None):
        """Wrap ``fn`` to count its calls as ``<name>.calls``."""
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch the modules of the imported ``d2dsim`` package."""
        from d2dsim import binder, channel, engine, stack
        counts = self.counts

        def on_interferers(entries, *args, **kwargs):
            counts["binder.interferer_entries"] += len(entries)
            if entries and self._open:
                self._interfered.add(self._open[-1])

        def interferers(binder_self, *args, **kwargs):
            # consume the generator inside the span so its scan is timed
            return list(original_interferers(binder_self, *args, **kwargs))

        def on_sinr(result, *args, rbs, **kwargs):
            counts["channel.rbs_evaluated"] += len(rbs)

        def on_shadowing(result, channel_self, *args):
            if channel_self.params.shadowing_std_dev_db != 0.0:
                counts["channel.shadowing_draws"] += 1

        def on_fill(chunks, *args):
            counts["rlc.fragments"] += sum(1 for chunk in chunks if not chunk.last)

        def on_schedule(grants, requests, *args):
            counts["mac.requests"] += len(requests)
            counts["mac.grants"] += len(grants)

        def on_feedback(outcome, process, ack, max_retx):
            counts["harq.nacks"] += not ack
            counts["harq.retransmits"] += outcome is stack.HarqOutcome.RETRANSMIT
            counts["harq.drops"] += outcome is stack.HarqOutcome.DROPPED

        def on_receive(result, *args):
            counts["phy.decode_failures"] += not result.decoded

        def on_audit(problems, *args):
            counts["binder.audit_violations"] += len(problems)

        def on_mode_selection(commands, *args):
            counts["mode_selection.rounds"] += 1
            counts["mode_selection.commands"] += len(commands)

        original_interferers = binder.Binder.interferers
        Binder, Channel = binder.Binder, channel.ChannelModel
        Binder.interferers = self.timed("binder.interferers", interferers,
                                        on_interferers)
        Binder.check_conservation = self.timed(
            "binder.check_conservation", Binder.check_conservation, on_audit)
        Binder.record_allocation = self.counted(
            "binder.record_allocation", Binder.record_allocation)
        Channel.wideband_cqi = self.timed("channel.wideband_cqi",
                                          Channel.wideband_cqi)
        Channel.sinr_per_rb_db = self.timed("channel.sinr_per_rb_db",
                                            Channel.sinr_per_rb_db, on_sinr)
        Channel.shadowing_db = self.counted("channel.shadowing_db",
                                            Channel.shadowing_db, on_shadowing)
        stack.RlcTxQueue.push = self.counted("rlc.push", stack.RlcTxQueue.push)
        stack.RlcTxQueue.fill = self.timed("rlc.fill", stack.RlcTxQueue.fill,
                                           on_fill)
        stack.RlcTxQueue.backlog_bits = property(self.timed(
            "rlc.backlog_bits", stack.RlcTxQueue.backlog_bits.fget))
        stack.PacketAssembler.add = self.counted("rlc.assembler_add",
                                                 stack.PacketAssembler.add)
        engine.Engine.run = self.timed("engine.run", engine.Engine.run)
        engine.Engine.schedule_event = self.counted(
            "engine.schedule_event", engine.Engine.schedule_event)
        engine.pdcp_classify = self.counted("pdcp.classify", engine.pdcp_classify)
        engine.schedule_band = self.timed("mac.schedule_band",
                                          engine.schedule_band, on_schedule)
        engine.harq_on_feedback = self.counted(
            "harq.feedback", engine.harq_on_feedback, on_feedback)
        engine.phy_send = self.counted("phy.send", engine.phy_send)
        engine.phy_receive = self.timed("phy.receive", engine.phy_receive,
                                        on_receive)
        engine.do_mode_selection = self.timed(
            "mode_selection", engine.do_mode_selection, on_mode_selection)

    # -- summaries ---------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered[index]
        return dict(totals)

    def _interfered_ratio(self, parent_name: str) -> float:
        evaluated = interfered = 0
        for index, (name, _, _, parent) in enumerate(self.spans):
            if (name == "channel.sinr_per_rb_db" and parent >= 0
                    and self.spans[parent][0] == parent_name):
                evaluated += 1
                interfered += index in self._interfered
        return interfered / evaluated if evaluated else 0.0

    def layers(self) -> tuple[dict[str, float], dict[str, float]]:
        """(per-layer metrics, self-time share of each layer)."""
        totals = self.span_totals()
        values: dict[str, float] = {}
        for name, unit in LAYER_METRICS.items():
            if name.endswith(".calls"):
                span = totals.get(name[:-len(".calls")], {})
                values[name] = self.counts[name] or span.get("calls", 0)
            elif unit == "s":  # "<span>.s" or "<span>_s"
                values[name] = totals.get(name[:-2], {}).get("s", 0.0)
            else:
                values[name] = self.counts[name]
        values["engine.self_s"] = totals.get("engine.run", {}).get("self_s", 0.0)
        values["phy.receive.interfered_ratio"] = self._interfered_ratio("phy.receive")
        values["channel.cqi_probe.interfered_ratio"] = self._interfered_ratio(
            "channel.wideband_cqi")
        values["mac.grant_ratio"] = (values["mac.grants"] / values["mac.requests"]
                                     if values["mac.requests"] else 0.0)

        by_layer: Counter[str] = Counter()
        for name, entry in totals.items():
            by_layer[SPAN_LAYER[name]] += entry["self_s"]
        whole = sum(by_layer.values())
        shares = {layer: by_layer[layer] / whole for layer in sorted(by_layer)}
        return values, shares

    def write_spans(self, path, run_id: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("run_id,span_id,name,start_s,end_s,parent_span_id\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{run_id},{index},{name},{start:.9f},{end:.9f},{parent}\n")
