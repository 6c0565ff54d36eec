"""Scenario file parsing, validation and canonical serialization.

The scenario dialect is a line-oriented INI-style format::

    <scope>.<key> = <value>       # assignment, '#' starts a comment
    [multicast]                   # at most one section, holding
    <address> = "<member pattern>"

Scopes select what an assignment applies to:

* ``sim.<key>`` and ``channel.<key>`` set global run parameters.
* ``flow[<id>].<key>`` declares/configures a traffic flow.
* every other scope is a node pattern.  A node pattern is matched
  against the names declared by ``sim.nodes``: a chain containing
  ``**`` matches every node; otherwise a single leading ``*`` segment
  (network scope) is dropped and the next segment is the pattern, with
  any further segments (``nic``, ``phy``, ...) accepted for
  compatibility with the source material's style but carrying no
  meaning.  Within a pattern segment ``*`` matches any run of
  characters, so ``ueD2D*[*]`` matches ``ueD2DTx[0]``.

Later lines override earlier ones for the same resolved key.  Unknown
keys are errors, not warnings.  All transmit powers are in dBm.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Collection
from enum import Enum

from .binder import Record
from .channel import ChannelParams
from .mode_selection import policy_names

RESERVED_SCOPES = frozenset({"sim", "channel", "flow", "multicast"})

_PATTERN_BAD_CHARS = set(' \t."=#')


def _is_node_name(name: str) -> bool:
    """True for an ASCII ``[A-Za-z_][A-Za-z0-9_]*`` word, optionally indexed
    ``[<n>]`` by decimal digits (``str.isdecimal``, as a regex's ``\\d``)."""
    word, bracket, index = name.partition("[")
    if bracket and not (index.endswith("]") and index[:-1].isdecimal()):
        return False
    word = word.replace("_", "a")
    return word.isascii() and word.isalnum() and not word[0].isdigit()


def _flow_scope_id(segment: str) -> int | None:
    """The id of a ``flow[<n>]`` scope segment, else None."""
    digits = segment[5:-1]
    if segment.startswith("flow[") and segment.endswith("]") and digits.isdecimal():
        return int(digits)


class ScenarioError(Exception):
    """Base class for scenario file problems."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioSyntaxError(ScenarioError):
    """Line is not a valid assignment or section header."""


class UnknownKeyError(ScenarioError):
    """Assignment uses a key that is not part of the dialect."""


class UnresolvedNodeReferenceError(ScenarioError):
    """A literal node name does not resolve to a declared node."""


class MalformedPatternError(ScenarioError):
    """Node pattern is empty or contains forbidden characters."""


class ConstraintViolationError(ScenarioError):
    """One or more config invariants are broken."""

    def __init__(self, diagnostics: list["Diagnostic"], line: int | None = None):
        self.diagnostics = diagnostics
        super().__init__(f"invalid scenario: {'; '.join(map(str, diagnostics))}", line)


class Diagnostic(Record):
    """One validation finding, naming the offending key and node.

    ``kind`` is "ConstraintViolation" or "UnresolvedNodeReference"; ``node``
    and ``key`` are None where the finding names none.
    """

    __slots__ = ()

    def __new__(cls, kind, message, node=None, key=None):
        return tuple.__new__(cls, (kind, message, node, key))

    def __str__(self) -> str:
        where = ""
        if self.node is not None:
            where += f" node={self.node}"
        if self.key is not None:
            where += f" key={self.key}"
        return f"{self.kind}:{where} {self.message}"


class Role(Enum):
    ENB = "eNB"
    UE = "UE"


class Transport(Enum):
    ONE_WAY = "oneWay"
    REQUEST_RESPONSE = "requestResponse"


class AmcMode(Enum):
    AUTO = "auto"
    D2D = "D2D"  # sidelink-aware AMC, meaningful on the eNB only


class SimParams(Record):
    __slots__ = ()

    def __new__(cls, tti_count=0, seed=1, num_rbs=50, rb_capacity_re=168,
                cqi_report_period_ttis=10, harq_max_retx=3, harq_processes=8):
        return tuple.__new__(cls, (tti_count, seed, num_rbs, rb_capacity_re,
                                   cqi_report_period_ttis, harq_max_retx, harq_processes))


class NodeConfig(Record):
    __slots__ = ()

    # d2d_peer_addresses is a tuple of node names; d2d_cqi is None unless set
    def __new__(cls, name, role=Role.UE, position_x=0.0, position_y=0.0, d2d_capable=False,
                d2d_peer_addresses=(), ue_tx_power_dbm=26.0, d2d_tx_power_dbm=20.0,
                enable_d2d_cqi_reporting=False, use_preconfigured_tx_params=False,
                d2d_cqi=None, amc_mode=AmcMode.AUTO):
        return tuple.__new__(cls, (name, role, position_x, position_y, d2d_capable,
                                   d2d_peer_addresses, ue_tx_power_dbm, d2d_tx_power_dbm,
                                   enable_d2d_cqi_reporting, use_preconfigured_tx_params,
                                   d2d_cqi, amc_mode))


class FlowConfig(Record):
    __slots__ = ()

    # dest_address is a node name or a multicast literal
    def __new__(cls, flow_id, source_node, dest_address, packet_bytes, period_ttis,
                start_tti=0, transport=Transport.ONE_WAY, start_jitter_ttis=0):
        return tuple.__new__(cls, (flow_id, source_node, dest_address, packet_bytes,
                                   period_ttis, start_tti, transport, start_jitter_ttis))


class MulticastGroup(Record):
    __slots__ = ()

    def __new__(cls, address, member_pattern):
        return tuple.__new__(cls, (address, member_pattern))


class ModeSelectionConfig(Record):
    __slots__ = ()

    def __new__(cls, enabled=False, policy_name="D2DModeSelectionBestCqi", period_ttis=100):
        return tuple.__new__(cls, (enabled, policy_name, period_ttis))


class ScenarioConfig(Record):
    """A parsed scenario: nodes, flows and multicast groups are tuples of records."""

    __slots__ = ()

    def __new__(cls, sim=SimParams(), nodes=(), flows=(), channel=ChannelParams(),
                mode_selection=ModeSelectionConfig(), multicast_groups=()):
        return tuple.__new__(cls, (sim, nodes, flows, channel, mode_selection,
                                   multicast_groups))

    def node_by_name(self, name: str) -> NodeConfig:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)


def is_multicast_address(value: str) -> bool:
    """True for a dotted-quad literal of ASCII digits whose first octet is in 224..239."""
    parts = value.split(".")
    if len(parts) != 4 or not all(p.isascii() and p.isdecimal() for p in parts):
        return False
    octets = [int(p) for p in parts]
    return 224 <= octets[0] <= 239 and all(o <= 255 for o in octets)


def resolve_pattern(pattern: str, names: Collection[str]) -> set[str]:
    """Expand a node pattern against declared names.

    ``*`` matches any run of characters, so ``ueD2D[*]`` matches any
    index and ``**`` matches every name.  The result is a set, so the
    match is order-independent.
    """
    if not pattern:
        raise MalformedPatternError("empty pattern")
    bad = _PATTERN_BAD_CHARS.intersection(pattern)
    if bad:
        raise MalformedPatternError(
            f"pattern {pattern!r} contains forbidden character {sorted(bad)[0]!r}")
    if "*" not in pattern:  # a literal matches itself alone
        return {pattern} if pattern in names else set()
    regex = re.compile(".*".join(re.escape(part) for part in pattern.split("*")) + r"\Z")
    return {name for name in names if regex.match(name)}


# ---------------------------------------------------------------------------
# key tables, one per scope: file key -> (attribute, converter, range or None)

def _range(low: float, high: float = math.inf, open_below: bool = False) -> tuple:
    """Range of a key's value, closed unless open_below; a key with no upper
    bound leaves high infinite and reads "must be >= low"."""
    return low, high, open_below


def _to_bool(token: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ValueError(f"expected true/false, got {token!r}")


def _to_name_list(token: str) -> tuple[str, ...]:
    return tuple(token.split())


def _to_enum(kind: type[Enum], key: str) -> Callable[[str], Enum]:
    def convert(token: str) -> Enum:
        try:
            return kind(token)
        except ValueError:
            raise ValueError(f"{key} must be {' or '.join(m.value for m in kind)}, "
                             f"got {token!r}") from None
    return convert


POSITION_LIMIT_M = 1e5  # nodes sit in the square of this half-width

# The float ranges keep every dB <-> mW conversion finite and nonzero;
# numRbs and harqProcesses size per-block and per-process lists, and
# rbCapacityRe and packetBytes keep bit counts convertible to float.
# sim.nodes is read before the tables apply, since it names the nodes.
_SIM_KEYS = {
    "ttiCount": ("tti_count", int, _range(0)),
    "seed": ("seed", int, None),
    "numRbs": ("num_rbs", int, _range(1, 110)),
    "rbCapacityRe": ("rb_capacity_re", int, _range(1, 10_000)),
    "cqiReportPeriodTtis": ("cqi_report_period_ttis", int, _range(1)),
    "harqMaxRetx": ("harq_max_retx", int, _range(0)),
    "harqProcesses": ("harq_processes", int, _range(1, 16)),
}

_CHANNEL_KEYS = {
    "pathLossExponent": ("path_loss_exponent", float, _range(0, 10, open_below=True)),
    "referenceLossDb": ("reference_loss_db", float, _range(0, 200)),
    "shadowingStdDevDb": ("shadowing_std_dev_db", float, _range(0, 30)),
    "noiseFigureDb": ("noise_figure_db", float, _range(0, 30)),
    "thermalNoiseDbmPerRb": ("thermal_noise_dbm_per_rb", float, _range(-200, 0)),
    "minDistanceM": ("min_distance_m", float, _range(0.001, 1e5)),
}

_NODE_KEYS = {
    "role": ("role", _to_enum(Role, "role"), None),
    "positionX": ("position_x", float, _range(-POSITION_LIMIT_M, POSITION_LIMIT_M)),
    "positionY": ("position_y", float, _range(-POSITION_LIMIT_M, POSITION_LIMIT_M)),
    "d2dCapable": ("d2d_capable", _to_bool, None),
    "d2dPeerAddresses": ("d2d_peer_addresses", _to_name_list, None),
    "ueTxPowerDbm": ("ue_tx_power_dbm", float, _range(-50, 50)),
    "d2dTxPowerDbm": ("d2d_tx_power_dbm", float, _range(-50, 50)),
    "enableD2DCqiReporting": ("enable_d2d_cqi_reporting", _to_bool, None),
    "usePreconfiguredTxParams": ("use_preconfigured_tx_params", _to_bool, None),
    "d2dCqi": ("d2d_cqi", int, _range(1, 15)),
    "amcMode": ("amc_mode", _to_enum(AmcMode, "amcMode"), None),
}

# a node line may also spell the two powers without their unit
_NODE_LOOKUP = {**_NODE_KEYS, "ueTxPower": _NODE_KEYS["ueTxPowerDbm"],
                "d2dTxPower": _NODE_KEYS["d2dTxPowerDbm"]}

# mode-selection knobs live on the eNB node, as in the source material
_MODE_SELECTION_KEYS = {
    "d2dModeSelection": ("enabled", _to_bool, None),
    "d2dModeSelectionType": ("policy_name", str, None),
    "d2dModeSelectionPeriod": ("period_ttis", int, _range(1)),
}

_FLOW_KEYS = {
    "sourceNode": ("source_node", str, None),
    "destAddress": ("dest_address", str, None),
    "packetBytes": ("packet_bytes", int, _range(1, 10_000_000)),
    "periodTtis": ("period_ttis", int, _range(1)),
    "startTti": ("start_tti", int, _range(0)),
    "transport": ("transport", _to_enum(Transport, "transport"), None),
    "startJitterTtis": ("start_jitter_ttis", int, _range(0)),
}

_REQUIRED_FLOW_KEYS = ("sourceNode", "destAddress", "packetBytes", "periodTtis")

# per table, (key, attr, low, high, open_below) of each key with a range
_SIM_RANGES, _CHANNEL_RANGES, _NODE_RANGES, _MODE_SELECTION_RANGES, _FLOW_RANGES = (
    tuple((key, attr, *bounds) for key, (attr, _, bounds) in table.items() if bounds)
    for table in (_SIM_KEYS, _CHANNEL_KEYS, _NODE_KEYS, _MODE_SELECTION_KEYS, _FLOW_KEYS))


# ---------------------------------------------------------------------------
# parsing

def _scan(text: str) -> tuple[list[tuple], list[tuple[str, str]], str]:
    """Split the file into ``(line, scope, key, value)`` assignments, ``scope``
    being the tuple of dotted segments before the key, [multicast]-section
    ``(address, member pattern)`` pairs and the last ``sim.nodes`` value."""
    main: list[tuple] = []
    multicast: list[tuple[str, str]] = []
    scopes: dict[str, tuple[str, ...]] = {}  # scope text -> its segments, split once
    in_multicast, nodes = False, ""
    for lineno, stripped in enumerate(map(str.strip, text.splitlines()), start=1):
        if stripped[:1] in "#[":  # a blank line, a comment or a section header
            if stripped[:1] != "[":
                continue
            header = stripped.partition("#")[0].rstrip()
            if header != "[multicast]":
                raise ScenarioSyntaxError(
                    f"unknown section {header!r} (only [multicast] is supported)", lineno)
            if in_multicast:
                raise ScenarioSyntaxError("duplicate [multicast] section", lineno)
            in_multicast = True
            continue
        lhs, equals, value = stripped.partition("=")
        if not equals:
            raise ScenarioSyntaxError(f"expected <scope>.<key> = <value>: {stripped!r}", lineno)
        value = value.strip()
        if value[:1] == '"':
            value, quote, rest = value[1:].partition('"')
            if not quote:
                raise ScenarioSyntaxError("unterminated string", lineno)
            if (rest := rest.strip())[:1] not in "#":
                raise ScenarioSyntaxError(f"trailing characters after string: {rest!r}", lineno)
        elif not (value := value.partition("#")[0].rstrip()):
            raise ScenarioSyntaxError("missing value", lineno)
        if in_multicast:
            multicast.append((lhs.strip(), value))
            continue
        scope_text, dot, key = lhs.rpartition(".")
        key = key.strip()
        scope = scopes.get(scope_text)
        if scope is None or not key:  # a new scope is split and checked once
            scope = scopes[scope_text] = tuple(part.strip() for part in scope_text.split("."))
            if not (dot and key and all(scope)):
                raise ScenarioSyntaxError(
                    f"expected <scope>.<key> = <value>: {stripped!r}", lineno)
        if key == "nodes" and scope == ("sim",):
            nodes = value  # read before any node line is resolved
        else:
            main.append((lineno, scope, key, value))
    return main, multicast, nodes


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text into a fully resolved, validated config.

    Wildcard assignments are expanded against the names declared by
    ``sim.nodes``; later lines override earlier ones for the same
    resolved key.  Raises a subclass of :class:`ScenarioError` on any
    problem; the error message carries the offending line number where
    one exists.
    """
    main, multicast, nodes = _scan(text)
    declared = _to_name_list(nodes)

    sim_values: dict[str, object] = {}
    channel_values: dict[str, object] = {}
    flow_values: dict[int, dict[str, object]] = {}
    # validate checks the names; a repeated one shares its values here
    node_values: dict[str, dict[str, object]] = {name: {} for name in declared}
    ms_values: dict[str, dict[str, object]] = {}  # by node, once it sets one
    ms_lines: dict[tuple[str, str], int] = {}  # (node, key) -> line of its last assignment
    # scope -> (key table, value dicts it writes, node names), resolved at its first line
    resolved: dict[tuple[str, ...], tuple] = {}

    for line, scope, key, value in main:
        entry = resolved.get(scope)
        if entry is None:
            if scope == ("sim",):
                entry = _SIM_KEYS, [sim_values], ()
            elif scope == ("channel",):
                entry = _CHANNEL_KEYS, [channel_values], ()
            elif len(scope) == 1 and (flow_id := _flow_scope_id(scope[0])) is not None:
                entry = _FLOW_KEYS, [flow_values.setdefault(flow_id, {})], ()
            else:
                # '**' anywhere matches every node; a leading '*' is the network wildcard
                pattern = ("**" if "**" in scope else
                           scope[1] if scope[0] == "*" and len(scope) > 1 else scope[0])
                try:
                    matched = resolve_pattern(pattern, node_values)
                except MalformedPatternError as exc:
                    raise MalformedPatternError(str(exc), line) from None
                if not matched and "*" not in pattern:
                    raise UnresolvedNodeReferenceError(
                        f"{pattern!r} does not name a declared node", line)
                entry = _NODE_LOOKUP, [node_values[name] for name in matched], matched
            resolved[scope] = entry
        table, targets, matched = entry
        spec = table.get(key)
        if spec is None:
            if table is not _NODE_LOOKUP or key not in _MODE_SELECTION_KEYS:
                raise UnknownKeyError(f"unknown key {key!r}", line)
            spec = _MODE_SELECTION_KEYS[key]
            targets = [ms_values.setdefault(name, {}) for name in matched]
            ms_lines.update(((name, key), line) for name in matched)
        try:
            value = spec[1](value)
        except ValueError as exc:
            raise ConstraintViolationError(
                [Diagnostic("ConstraintViolation", f"bad value for {key}: {exc}", key=key)],
                line) from None
        attr = spec[0]
        for values in targets:
            values[attr] = value

    nodes = tuple(NodeConfig(name=name, **node_values[name]) for name in declared)
    for node in nodes:  # mode selection is read from the eNB alone
        if node.name in ms_values and node.role is not Role.ENB:
            key = next(key for key in _MODE_SELECTION_KEYS if (node.name, key) in ms_lines)
            raise ConstraintViolationError([Diagnostic(
                "ConstraintViolation", f"{key} applies only to the eNB", node.name, key)],
                ms_lines[node.name, key])
    mode_selection = ModeSelectionConfig(
        **next((ms_values.get(node.name, {}) for node in nodes if node.role is Role.ENB), {}))

    missing = [Diagnostic("ConstraintViolation", f"flow[{flow_id}] is missing {key}", key=key)
               for flow_id, values in sorted(flow_values.items())
               for key in _REQUIRED_FLOW_KEYS if _FLOW_KEYS[key][0] not in values]
    if missing:
        raise ConstraintViolationError(missing)
    flows = tuple(FlowConfig(flow_id=flow_id, **values)
                  for flow_id, values in sorted(flow_values.items()))

    groups = {address: MulticastGroup(address, pattern)
              for address, pattern in multicast}  # a repeated address keeps its place

    config = ScenarioConfig(
        sim=SimParams(**sim_values), nodes=nodes, flows=flows,
        channel=ChannelParams(**channel_values), mode_selection=mode_selection,
        multicast_groups=tuple(groups.values()))

    if diagnostics := validate(config):
        if any(d.kind == "UnresolvedNodeReference" for d in diagnostics):
            raise UnresolvedNodeReferenceError("; ".join(map(str, diagnostics)))
        raise ConstraintViolationError(diagnostics)
    return config


def load_scenario(path) -> ScenarioConfig:
    """Read and parse a scenario file."""
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# validation

def validate(config: ScenarioConfig) -> list[Diagnostic]:
    """Check every config invariant; an empty list means the config is sound."""
    out: list[Diagnostic] = []

    def bad(message: str, node: str | None = None, key: str | None = None):
        out.append(Diagnostic("ConstraintViolation", message, node=node, key=key))

    def unresolved(message: str, node: str | None = None, key: str | None = None):
        out.append(Diagnostic("UnresolvedNodeReference", message, node=node, key=key))

    def bounded(keys: tuple, obj, node: str | None = None, where: str | None = None):
        for key, attr, low, high, open_below in keys:
            value = getattr(obj, attr)
            if value is None or low < value < high:  # strictly inside: finite and in range
                continue
            if isinstance(value, float) and not math.isfinite(value):
                bad(f"{key} must be finite", node=node, key=where or key)
            elif not low <= value <= high or (open_below and value == low):
                span = (f">= {low:g}" if high == math.inf else
                        f"in {'(' if open_below else '['}{low:g}, {high:g}]")
                bad(f"{key} must be {span}", node=node, key=where or key)

    bounded(_SIM_RANGES, config.sim)
    bounded(_CHANNEL_RANGES, config.channel)

    names = {node.name for node in config.nodes}
    for node in config.nodes:
        if not _is_node_name(node.name):
            bad(f"invalid node name {node.name!r}", node=node.name)
        elif node.name.split("[")[0] in RESERVED_SCOPES:
            bad(f"node name {node.name!r} is reserved", node=node.name)
    if len(names) != len(config.nodes):
        bad("duplicate node name in sim.nodes", key="nodes")
    enbs = [node for node in config.nodes if node.role is Role.ENB]
    if len(enbs) != 1:
        bad(f"exactly one eNB required, found {len(enbs)}", key="role")
    enb = enbs[0] if enbs else None

    for node in config.nodes:
        bounded(_NODE_RANGES, node, node=node.name)
        if node.d2d_peer_addresses and not node.d2d_capable:
            bad("d2dPeerAddresses set on a node that is not d2dCapable",
                node=node.name, key="d2dPeerAddresses")
        if node.d2d_peer_addresses and node.role is Role.ENB:
            bad("the eNB lists D2D peers; peerings run UE to UE",
                node=node.name, key="d2dPeerAddresses")
        for peer in node.d2d_peer_addresses:
            if peer not in names:
                unresolved(f"unknown peer {peer!r}", node=node.name, key="d2dPeerAddresses")
            elif peer == node.name:
                bad("node lists itself as a peer", node=node.name, key="d2dPeerAddresses")
            elif any(peer == e.name for e in enbs):
                bad(f"peer {peer!r} is the eNB; peerings run UE to UE",
                    node=node.name, key="d2dPeerAddresses")
        if node.amc_mode is not AmcMode.AUTO and node.role is not Role.ENB:
            bad("amcMode applies only to the eNB", node=node.name, key="amcMode")
        if node.use_preconfigured_tx_params and node.role is Role.UE and node.d2d_cqi is None:
            bad("usePreconfiguredTxParams requires d2dCqi", node=node.name, key="d2dCqi")
        if node.d2d_peer_addresses and not (
                node.use_preconfigured_tx_params or node.enable_d2d_cqi_reporting):
            bad("sidelink sender needs usePreconfiguredTxParams or enableD2DCqiReporting",
                node=node.name, key="usePreconfiguredTxParams")

    group_addresses = set()
    for group in config.multicast_groups:
        if not is_multicast_address(group.address):
            bad(f"{group.address!r} is not a multicast address (224..239)",
                key=group.address)
        if group.address in group_addresses:
            bad("duplicate multicast address", key=group.address)
        group_addresses.add(group.address)
        try:
            resolve_pattern(group.member_pattern, names)
        except MalformedPatternError as exc:
            bad(str(exc), key=group.address)

    d2d_in_use = any(node.d2d_capable and node.role is Role.UE for node in config.nodes)
    if d2d_in_use and enb is not None:
        if not enb.d2d_capable:
            bad("D2D-capable UEs require a d2dCapable eNB", node=enb.name, key="d2dCapable")
        if enb.amc_mode is not AmcMode.D2D:
            bad('D2D-capable UEs require eNB amcMode = "D2D"', node=enb.name, key="amcMode")

    seen_flow_ids = set()
    for flow in config.flows:
        fid = f"flow[{flow.flow_id}]"
        if flow.flow_id in seen_flow_ids:
            bad("duplicate flow id", key=fid)
        seen_flow_ids.add(flow.flow_id)
        bounded(_FLOW_RANGES, flow, where=fid)
        if flow.source_node not in names:
            unresolved(f"unknown source node {flow.source_node!r}", key=fid)
        dest_is_group = flow.dest_address in group_addresses
        if not dest_is_group and flow.dest_address not in names:
            if is_multicast_address(flow.dest_address):
                unresolved(f"undeclared multicast group {flow.dest_address!r}", key=fid)
            else:
                unresolved(f"unknown destination {flow.dest_address!r}", key=fid)
        if dest_is_group:
            if flow.transport is Transport.REQUEST_RESPONSE:
                bad("requestResponse flows need a unicast destination", key=fid)
            if flow.source_node in names:
                sender = config.node_by_name(flow.source_node)
                if sender.role is Role.ENB:
                    bad("one-to-many flows must originate at a UE", key=fid)
                elif not sender.use_preconfigured_tx_params:
                    bad("one-to-many senders must use preconfigured CQI",
                        node=sender.name, key="usePreconfiguredTxParams")
        if flow.dest_address == flow.source_node:
            bad("flow source and destination are the same node", key=fid)

    ms = config.mode_selection
    if ms.enabled:
        bounded(_MODE_SELECTION_RANGES, ms)
    if ms.enabled and ms.policy_name not in policy_names():
        bad(f"unknown d2dModeSelectionType {ms.policy_name!r} "
            f"(known: {', '.join(policy_names())})", key="d2dModeSelectionType")

    return out


# ---------------------------------------------------------------------------
# canonical serialization

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, Enum):
        return f'"{value.value}"'
    if isinstance(value, tuple):
        return '"' + " ".join(value) + '"'
    return f'"{value}"'


def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a config in canonical form; re-parsing yields an equal config."""
    lines: list[str] = []

    def assign(scope: str, table: dict, obj) -> None:
        for key, (attr, _, _) in table.items():
            value = getattr(obj, attr)
            if value is not None:
                lines.append(f"{scope}.{key} = {_format_value(value)}")

    assign("sim", _SIM_KEYS, config.sim)
    lines.append(f"sim.nodes = {_format_value(tuple(n.name for n in config.nodes))}")
    assign("channel", _CHANNEL_KEYS, config.channel)
    for node in config.nodes:
        assign(node.name, _NODE_KEYS, node)
        if node.role is Role.ENB:
            assign(node.name, _MODE_SELECTION_KEYS, config.mode_selection)
    for flow in config.flows:
        assign(f"flow[{flow.flow_id}]", _FLOW_KEYS, flow)

    if config.multicast_groups:
        lines.append("[multicast]")
        for group in config.multicast_groups:
            lines.append(f'{group.address} = "{group.member_pattern}"')
    return "\n".join(lines) + "\n"
