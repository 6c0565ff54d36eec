"""Command-line front end.

``d2dsim run`` simulates a scenario file and emits metrics (and
optionally an event trace and a resource-ledger dump) as CSV.
``d2dsim sweep-cqi`` explores the fixed-CQI trade-off between range
and resource cost without running a simulation, ``d2dsim
compare-modes`` runs the same scenario once per sidelink mode, and
``d2dsim validate`` just parses and checks a scenario.
"""

from __future__ import annotations

import argparse
import math
import sys

from .binder import Record
from .channel import ChannelParams, CqiTable, decode, path_loss_db
from .config import POSITION_LIMIT_M, ScenarioConfig, ScenarioError, load_scenario, validate
from .engine import run_scenario
from .mode_selection import Mode
from .stack import rbs_needed


class SweepRequiresDeterministicChannel(Exception):
    """Range sweeps are closed-form only without shadowing."""


class UsageError(Exception):
    """A command-line option has a value the command cannot use."""


class SweepRow(Record):
    __slots__ = ()

    def __new__(cls, cqi, max_distance_m, rbs_per_packet):  # rbs_per_packet None at CQI 0
        return tuple.__new__(cls, (cqi, max_distance_m, rbs_per_packet))


def max_decode_distance(cqi: int, tx_power_dbm: float, params: ChannelParams,
                        table: CqiTable, *, tolerance_m: float = 1e-3) -> float:
    """Largest distance at which a noise-limited transmission decodes.

    Found by bisection over the actual decode predicate rather than by
    inverting the loss formula, so it stays honest if the propagation
    model changes.  Returns 0.0 when even the minimum distance fails, and
    infinity when it decodes as far apart as two nodes can be placed.
    """
    if params.shadowing_std_dev_db != 0.0:
        raise SweepRequiresDeterministicChannel(
            "set channel.shadowingStdDevDb = 0 to sweep")
    noise_dbm = params.thermal_noise_dbm_per_rb + params.noise_figure_db

    def decodes(distance: float) -> bool:
        snr_db = tx_power_dbm - path_loss_db(distance, params) - noise_dbm
        return decode(snr_db, cqi, table)

    low = params.min_distance_m
    if not decodes(low):
        return 0.0
    if decodes(math.hypot(2 * POSITION_LIMIT_M, 2 * POSITION_LIMIT_M)):
        return math.inf
    high = low  # decoding gets worse with distance, so this ends
    while decodes(high):
        low, high = high, high * 2
    while high - low > tolerance_m:
        mid = (low + high) / 2
        if decodes(mid):
            low = mid
        else:
            high = mid
    return low


def sweep_cqi_range(cqis: list[int], tx_power_dbm: float, packet_bytes: int,
                    rb_capacity_re: int, params: ChannelParams,
                    table: CqiTable) -> list[SweepRow]:
    """Reachable distance and per-packet cost of each fixed CQI."""
    return [SweepRow(cqi, max_decode_distance(cqi, tx_power_dbm, params, table),
                     rbs_needed(packet_bytes * 8, cqi, rb_capacity_re, table))
            for cqi in cqis]


def compare_modes(config: ScenarioConfig) -> dict[str, "SimulationResult"]:
    """Run a scenario once per sidelink mode with selection pinned off."""
    pinned = config._replace(mode_selection=config.mode_selection._replace(enabled=False))
    return {mode.value: run_scenario(pinned, initial_mode=mode)
            for mode in (Mode.DM, Mode.IM)}


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_scenario(path: str) -> ScenarioConfig:
    """Load a scenario file; one that cannot be read is a scenario problem."""
    try:
        return load_scenario(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None


def _load(args: argparse.Namespace) -> ScenarioConfig:
    """Read the scenario and apply any command-line overrides."""
    config = _read_scenario(args.scenario)
    overrides = {name: value for name, value in (("seed", args.seed), ("tti_count", args.ttis))
                 if value is not None}
    if overrides:
        config = config._replace(sim=config.sim._replace(**overrides))
        if problems := validate(config):
            raise UsageError("invalid override: " + "; ".join(map(str, problems)))
    return config


def _parse_cqis(text: str, table: CqiTable) -> list[int]:
    try:
        cqis = [int(token) for token in text.split(",")]
    except ValueError:
        raise UsageError(f"--cqis {text!r}: expected comma-separated integers") from None
    for cqi in cqis:
        if not 1 <= cqi <= table.max_cqi:
            raise UsageError(f"--cqis: cqi {cqi} outside 1..{table.max_cqi}")
    return cqis


def _cmd_run(args: argparse.Namespace) -> None:
    config = _load(args)
    initial = Mode(args.initial_mode) if args.initial_mode else None
    result = run_scenario(config, trace=args.trace is not None,
                          ledger_dump=args.ledger is not None,
                          initial_mode=initial)
    _write(args.metrics, result.metrics_csv())
    if args.trace is not None:
        _write(args.trace, result.trace_csv())
    if args.ledger is not None:
        _write(args.ledger, result.ledger_csv())


def _cmd_sweep(args: argparse.Namespace) -> None:
    config = _read_scenario(args.scenario)
    flow = next((f for f in config.flows if f.flow_id == args.flow), None)
    if flow is None:
        raise UsageError(f"no flow[{args.flow}] in scenario")
    sender = config.node_by_name(flow.source_node)
    table = CqiTable.default()
    rows = sweep_cqi_range(_parse_cqis(args.cqis, table), sender.d2d_tx_power_dbm,
                           flow.packet_bytes, config.sim.rb_capacity_re,
                           config.channel, table)
    lines = ["cqi,max_distance_m,rbs_per_packet"]
    for row in rows:
        lines.append(f"{row.cqi},{row.max_distance_m:.3f},{row.rbs_per_packet}")
    _write(args.out, "\n".join(lines) + "\n")


def _cmd_compare(args: argparse.Namespace) -> None:
    results = compare_modes(_load(args))
    lines = ["mode,scope,flow_id,metric,value"]
    for mode, result in results.items():
        for line in result.metrics_csv().splitlines()[1:]:
            lines.append(f"{mode},{line}")
    _write(args.out, "\n".join(lines) + "\n")


def _cmd_validate(args: argparse.Namespace) -> None:
    config = _read_scenario(args.scenario)
    print(f"ok: {len(config.nodes)} nodes, {len(config.flows)} flows, "
          f"{config.sim.tti_count} TTIs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dsim",
        description="System-level simulator of an LTE-A cell with D2D sidelinks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario file")
    run.add_argument("scenario")
    run.add_argument("--metrics", default="-", help="metrics CSV path (default stdout)")
    run.add_argument("--trace", help="also write an event trace CSV")
    run.add_argument("--ledger", help="also write a per-TTI resource allocation CSV")
    run.add_argument("--initial-mode", choices=["DM", "IM"],
                     help="starting mode for every D2D peering")
    run.add_argument("--seed", type=int, help="override sim.seed")
    run.add_argument("--ttis", type=int, help="override sim.ttiCount")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep-cqi", help="range/cost trade-off of fixed CQI values")
    sweep.add_argument("scenario")
    sweep.add_argument("--cqis", default="3,7,11,15",
                       help="comma-separated CQI list")
    sweep.add_argument("--flow", type=int, default=0,
                       help="flow whose sender and packet size set the sweep")
    sweep.add_argument("--out", default="-")
    sweep.set_defaults(func=_cmd_sweep)

    compare = sub.add_parser(
        "compare-modes", help="same scenario under DM and IM peering")
    compare.add_argument("scenario")
    compare.add_argument("--out", default="-")
    compare.add_argument("--seed", type=int, help="override sim.seed")
    compare.add_argument("--ttis", type=int, help="override sim.ttiCount")
    compare.set_defaults(func=_cmd_compare)

    validate = sub.add_parser("validate", help="parse and check a scenario")
    validate.add_argument("scenario")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit 0 on success, 1 on a scenario problem, 2 on a runtime or output error."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SweepRequiresDeterministicChannel, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
