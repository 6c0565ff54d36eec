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
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable

from .channel import ChannelParams
from .mode_selection import policy_names

RESERVED_SCOPES = frozenset({"sim", "channel", "flow", "multicast"})

_NODE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\[\d+\])?\Z")
_FLOW_SCOPE_RE = re.compile(r"flow\[(\d+)\]\Z")
_PATTERN_BAD_CHARS = set(' \t."=#')


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
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid scenario: {summary}", line)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, naming the offending key and node."""

    kind: str  # "ConstraintViolation" or "UnresolvedNodeReference"
    message: str
    node: str | None = None
    key: str | None = None

    def __str__(self) -> str:
        where = ""
        if self.node is not None:
            where += f" node={self.node}"
        if self.key is not None:
            where += f" key={self.key}"
        return f"{self.kind}:{where} {self.message}".replace(":  ", ": ")


class Role(Enum):
    ENB = "eNB"
    UE = "UE"


class Transport(Enum):
    ONE_WAY = "oneWay"
    REQUEST_RESPONSE = "requestResponse"


@dataclass(frozen=True)
class SimParams:
    tti_count: int = 0
    seed: int = 1
    num_rbs: int = 50
    rb_capacity_re: int = 168
    cqi_report_period_ttis: int = 10
    harq_max_retx: int = 3
    harq_processes: int = 8


@dataclass(frozen=True)
class NodeConfig:
    name: str
    role: Role = Role.UE
    position_x: float = 0.0
    position_y: float = 0.0
    d2d_capable: bool = False
    d2d_peer_addresses: tuple[str, ...] = ()
    ue_tx_power_dbm: float = 26.0
    d2d_tx_power_dbm: float = 20.0
    enable_d2d_cqi_reporting: bool = False
    use_preconfigured_tx_params: bool = False
    d2d_cqi: int | None = None
    amc_mode: str = "auto"  # "D2D" enables sidelink-aware AMC at the eNB


@dataclass(frozen=True)
class FlowConfig:
    flow_id: int
    source_node: str
    dest_address: str  # node name or multicast literal
    packet_bytes: int
    period_ttis: int
    start_tti: int = 0
    transport: Transport = Transport.ONE_WAY
    start_jitter_ttis: int = 0


@dataclass(frozen=True)
class MulticastGroup:
    address: str
    member_pattern: str


@dataclass(frozen=True)
class ModeSelectionConfig:
    enabled: bool = False
    policy_name: str = "D2DModeSelectionBestCqi"
    period_ttis: int = 100


@dataclass(frozen=True)
class ScenarioConfig:
    sim: SimParams = field(default_factory=SimParams)
    nodes: tuple[NodeConfig, ...] = ()
    flows: tuple[FlowConfig, ...] = ()
    channel: ChannelParams = field(default_factory=ChannelParams)
    mode_selection: ModeSelectionConfig = field(default_factory=ModeSelectionConfig)
    multicast_groups: tuple[MulticastGroup, ...] = ()

    def node_by_name(self, name: str) -> NodeConfig:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    @property
    def enb(self) -> NodeConfig:
        for node in self.nodes:
            if node.role is Role.ENB:
                return node
        raise LookupError("no eNB declared")


def is_multicast_address(value: str) -> bool:
    """True for a dotted-quad literal whose first octet is in 224..239."""
    parts = value.split(".")
    if len(parts) != 4 or not all(p.isdigit() for p in parts):
        return False
    octets = [int(p) for p in parts]
    return 224 <= octets[0] <= 239 and all(o <= 255 for o in octets)


def resolve_pattern(pattern: str, names: Iterable[str]) -> set[str]:
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
    regex = re.compile(".*".join(re.escape(part) for part in pattern.split("*")) + r"\Z")
    return {name for name in names if regex.match(name)}


# ---------------------------------------------------------------------------
# key registry: file key -> (attribute, converter)

def _to_bool(token: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ValueError(f"expected true/false, got {token!r}")


def _to_int(token: str) -> int:
    return int(token, 10)


def _to_float(token: str) -> float:
    return float(token)


def _to_name_list(token: str) -> tuple[str, ...]:
    return tuple(token.split())


def _to_role(token: str) -> Role:
    try:
        return Role(token)
    except ValueError:
        raise ValueError(f"role must be eNB or UE, got {token!r}") from None


def _to_transport(token: str) -> Transport:
    try:
        return Transport(token)
    except ValueError:
        raise ValueError(
            f"transport must be oneWay or requestResponse, got {token!r}") from None


_SIM_KEYS: dict[str, tuple[str, Callable]] = {
    "ttiCount": ("tti_count", _to_int),
    "seed": ("seed", _to_int),
    "numRbs": ("num_rbs", _to_int),
    "rbCapacityRe": ("rb_capacity_re", _to_int),
    "cqiReportPeriodTtis": ("cqi_report_period_ttis", _to_int),
    "harqMaxRetx": ("harq_max_retx", _to_int),
    "harqProcesses": ("harq_processes", _to_int),
    "nodes": ("nodes", _to_name_list),
}

_CHANNEL_KEYS: dict[str, tuple[str, Callable]] = {
    "pathLossExponent": ("path_loss_exponent", _to_float),
    "referenceLossDb": ("reference_loss_db", _to_float),
    "shadowingStdDevDb": ("shadowing_std_dev_db", _to_float),
    "noiseFigureDb": ("noise_figure_db", _to_float),
    "thermalNoiseDbmPerRb": ("thermal_noise_dbm_per_rb", _to_float),
    "minDistanceM": ("min_distance_m", _to_float),
}

_NODE_KEYS: dict[str, tuple[str, Callable]] = {
    "role": ("role", _to_role),
    "positionX": ("position_x", _to_float),
    "positionY": ("position_y", _to_float),
    "d2dCapable": ("d2d_capable", _to_bool),
    "d2dPeerAddresses": ("d2d_peer_addresses", _to_name_list),
    "ueTxPowerDbm": ("ue_tx_power_dbm", _to_float),
    "d2dTxPowerDbm": ("d2d_tx_power_dbm", _to_float),
    "enableD2DCqiReporting": ("enable_d2d_cqi_reporting", _to_bool),
    "usePreconfiguredTxParams": ("use_preconfigured_tx_params", _to_bool),
    "d2dCqi": ("d2d_cqi", _to_int),
    "amcMode": ("amc_mode", str),
    # mode-selection knobs live on the eNB node, as in the source material
    "d2dModeSelection": ("_ms_enabled", _to_bool),
    "d2dModeSelectionType": ("_ms_policy", str),
    "d2dModeSelectionPeriod": ("_ms_period", _to_int),
}

_NODE_KEY_ALIASES = {"ueTxPower": "ueTxPowerDbm", "d2dTxPower": "d2dTxPowerDbm"}

_FLOW_KEYS: dict[str, tuple[str, Callable]] = {
    "sourceNode": ("source_node", str),
    "destAddress": ("dest_address", str),
    "packetBytes": ("packet_bytes", _to_int),
    "periodTtis": ("period_ttis", _to_int),
    "startTti": ("start_tti", _to_int),
    "transport": ("transport", _to_transport),
    "startJitterTtis": ("start_jitter_ttis", _to_int),
}

_REQUIRED_FLOW_KEYS = ("sourceNode", "destAddress", "packetBytes", "periodTtis")

POSITION_LIMIT_M = 1e5  # nodes sit in the square of this half-width

# Ranges of the bounded keys, closed but for pathLossExponent's lower end.
# The float ranges keep every dB <-> mW conversion finite and nonzero;
# numRbs and harqProcesses size per-block and per-process lists, and
# rbCapacityRe and packetBytes keep bit counts convertible to float.
_RANGES: dict[str, tuple[float, float]] = {
    "numRbs": (1, 110), "harqProcesses": (1, 16),
    "rbCapacityRe": (1, 10_000), "packetBytes": (1, 10_000_000),
    "pathLossExponent": (0, 10), "referenceLossDb": (0, 200),
    "shadowingStdDevDb": (0, 30), "noiseFigureDb": (0, 30),
    "thermalNoiseDbmPerRb": (-200, 0), "minDistanceM": (0.001, 1e5),
    "positionX": (-POSITION_LIMIT_M, POSITION_LIMIT_M),
    "positionY": (-POSITION_LIMIT_M, POSITION_LIMIT_M),
    "ueTxPowerDbm": (-50, 50), "d2dTxPowerDbm": (-50, 50),
}
_OPEN_BELOW = frozenset({"pathLossExponent"})


# ---------------------------------------------------------------------------
# parsing

@dataclass
class _Assignment:
    line: int
    scope: list[str]
    key: str
    value: str


def _split_value(raw: str, line: int) -> str:
    """Strip quotes and inline comments from the right-hand side."""
    raw = raw.strip()
    if raw.startswith('"'):
        end = raw.find('"', 1)
        if end < 0:
            raise ScenarioSyntaxError("unterminated string", line)
        rest = raw[end + 1:].strip()
        if rest and not rest.startswith("#"):
            raise ScenarioSyntaxError(f"trailing characters after string: {rest!r}", line)
        return raw[1:end]
    hash_pos = raw.find("#")
    if hash_pos >= 0:
        raw = raw[:hash_pos].strip()
    if not raw:
        raise ScenarioSyntaxError("missing value", line)
    return raw


def _scan(text: str) -> tuple[list[_Assignment], list[_Assignment]]:
    """Split the file into main-section and [multicast]-section assignments."""
    main: list[_Assignment] = []
    multicast: list[_Assignment] = []
    in_multicast = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if stripped.rstrip() != "[multicast]":
                raise ScenarioSyntaxError(
                    f"unknown section {stripped!r} (only [multicast] is supported)", lineno)
            if in_multicast:
                raise ScenarioSyntaxError("duplicate [multicast] section", lineno)
            in_multicast = True
            continue
        if "=" not in stripped:
            raise ScenarioSyntaxError(f"expected <scope>.<key> = <value>: {stripped!r}", lineno)
        lhs, rhs = stripped.split("=", 1)
        value = _split_value(rhs, lineno)
        if in_multicast:
            multicast.append(_Assignment(lineno, [], lhs.strip(), value))
            continue
        segments = [seg.strip() for seg in lhs.strip().split(".")]
        if len(segments) < 2 or any(not seg for seg in segments):
            raise ScenarioSyntaxError(
                f"expected <scope>.<key> = <value>: {stripped!r}", lineno)
        main.append(_Assignment(lineno, segments[:-1], segments[-1], value))
    return main, multicast


def _node_pattern(scope: list[str]) -> str:
    """Reduce a scope chain to its node pattern segment."""
    if "**" in scope:
        return "**"
    chain = scope
    if chain[0] == "*" and len(chain) > 1:
        chain = chain[1:]  # leading '*' is the network wildcard
    return chain[0]


def _convert(registry: dict[str, tuple[str, Callable]], assignment: _Assignment,
             *, aliases: dict[str, str] | None = None) -> tuple[str, object]:
    key = assignment.key
    if aliases:
        key = aliases.get(key, key)
    if key not in registry:
        raise UnknownKeyError(f"unknown key {assignment.key!r}", assignment.line)
    attr, conv = registry[key]
    try:
        return attr, conv(assignment.value)
    except ValueError as exc:
        raise ConstraintViolationError(
            [Diagnostic("ConstraintViolation", f"bad value for {assignment.key}: {exc}",
                        key=assignment.key)],
            assignment.line) from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text into a fully resolved, validated config.

    Wildcard assignments are expanded against the names declared by
    ``sim.nodes``; later lines override earlier ones for the same
    resolved key.  Raises a subclass of :class:`ScenarioError` on any
    problem; the error message carries the offending line number where
    one exists.
    """
    main, multicast = _scan(text)

    sim_values: dict[str, object] = {}
    channel_values: dict[str, object] = {}
    node_values: dict[str, dict[str, object]] = {}
    flow_values: dict[int, dict[str, object]] = {}
    declared: tuple[str, ...] = ()

    # sim.nodes must be known before node-scoped lines can be expanded
    for assignment in main:
        if assignment.scope == ["sim"] and assignment.key == "nodes":
            _, declared = _convert(_SIM_KEYS, assignment)
    for name in declared:
        if not _NODE_NAME_RE.match(name):
            raise ConstraintViolationError(
                [Diagnostic("ConstraintViolation", f"invalid node name {name!r}", node=name)])
        if name.split("[")[0] in RESERVED_SCOPES:
            raise ConstraintViolationError(
                [Diagnostic("ConstraintViolation", f"node name {name!r} is reserved", node=name)])
    if len(set(declared)) != len(declared):
        raise ConstraintViolationError(
            [Diagnostic("ConstraintViolation", "duplicate node name in sim.nodes", key="nodes")])
    node_values = {name: {} for name in declared}

    for assignment in main:
        scope = assignment.scope
        if scope == ["sim"]:
            attr, value = _convert(_SIM_KEYS, assignment)
            sim_values[attr] = value
        elif scope == ["channel"]:
            attr, value = _convert(_CHANNEL_KEYS, assignment)
            channel_values[attr] = value
        elif (m := _FLOW_SCOPE_RE.match(scope[0])) and len(scope) == 1:
            attr, value = _convert(_FLOW_KEYS, assignment)
            flow_values.setdefault(int(m.group(1)), {})[attr] = value
        else:
            pattern = _node_pattern(scope)
            try:
                matched = resolve_pattern(pattern, declared)
            except MalformedPatternError as exc:
                raise MalformedPatternError(str(exc), assignment.line) from None
            if not matched and "*" not in pattern:
                raise UnresolvedNodeReferenceError(
                    f"{pattern!r} does not name a declared node", assignment.line)
            attr, value = _convert(_NODE_KEYS, assignment, aliases=_NODE_KEY_ALIASES)
            for name in matched:
                node_values[name][attr] = value

    sim = SimParams(**{k: v for k, v in sim_values.items() if k != "nodes"})
    channel = ChannelParams(**channel_values)

    nodes = []
    ms_values: dict[str, object] = {}
    for name in declared:
        values = node_values[name]
        ms = {k: values.pop(k) for k in ("_ms_enabled", "_ms_policy", "_ms_period")
              if k in values}
        node = NodeConfig(name=name, **values)
        if node.role is Role.ENB:
            ms_values = ms
        nodes.append(node)
    mode_selection = ModeSelectionConfig(
        enabled=ms_values.get("_ms_enabled", False),
        policy_name=ms_values.get("_ms_policy", "D2DModeSelectionBestCqi"),
        period_ttis=ms_values.get("_ms_period", 100),
    )

    flows = []
    missing: list[Diagnostic] = []
    for flow_id in sorted(flow_values):
        values = flow_values[flow_id]
        for req in _REQUIRED_FLOW_KEYS:
            attr = _FLOW_KEYS[req][0]
            if attr not in values:
                missing.append(Diagnostic(
                    "ConstraintViolation", f"flow[{flow_id}] is missing {req}", key=req))
        if not missing:
            flows.append(FlowConfig(flow_id=flow_id, **values))
    if missing:
        raise ConstraintViolationError(missing)

    groups: dict[str, MulticastGroup] = {}
    for assignment in multicast:
        address = assignment.key
        groups[address] = MulticastGroup(address=address, member_pattern=assignment.value)

    config = ScenarioConfig(
        sim=sim, nodes=tuple(nodes), flows=tuple(flows), channel=channel,
        mode_selection=mode_selection, multicast_groups=tuple(groups.values()))

    diagnostics = validate(config)
    if diagnostics:
        if any(d.kind == "UnresolvedNodeReference" for d in diagnostics):
            raise UnresolvedNodeReferenceError(
                "; ".join(str(d) for d in diagnostics))
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

    def bounded(key: str, value: float, node: str | None = None, where: str | None = None):
        low, high = _RANGES[key]
        open_below = key in _OPEN_BELOW
        if isinstance(value, float) and not math.isfinite(value):
            bad(f"{key} must be finite", node=node, key=where or key)
        elif not low <= value <= high or (open_below and value == low):
            bad(f"{key} must be in {'(' if open_below else '['}{low:g}, {high:g}]",
                node=node, key=where or key)

    sim = config.sim
    if sim.tti_count < 0:
        bad("ttiCount must be >= 0", key="ttiCount")
    bounded("numRbs", sim.num_rbs)
    bounded("rbCapacityRe", sim.rb_capacity_re)
    if sim.cqi_report_period_ttis < 1:
        bad("cqiReportPeriodTtis must be >= 1", key="cqiReportPeriodTtis")
    if sim.harq_max_retx < 0:
        bad("harqMaxRetx must be >= 0", key="harqMaxRetx")
    bounded("harqProcesses", sim.harq_processes)

    ch = config.channel
    for key, (attr, _) in _CHANNEL_KEYS.items():
        bounded(key, getattr(ch, attr))

    names = {node.name for node in config.nodes}
    enbs = [node for node in config.nodes if node.role is Role.ENB]
    if len(enbs) != 1:
        bad(f"exactly one eNB required, found {len(enbs)}", key="role")
    enb = enbs[0] if enbs else None

    for node in config.nodes:
        for key, (attr, convert) in _NODE_KEYS.items():
            if convert is _to_float:
                bounded(key, getattr(node, attr), node=node.name)
        if node.d2d_peer_addresses and not node.d2d_capable:
            bad("d2dPeerAddresses set on a node that is not d2dCapable",
                node=node.name, key="d2dPeerAddresses")
        for peer in node.d2d_peer_addresses:
            if peer not in names:
                unresolved(f"unknown peer {peer!r}", node=node.name, key="d2dPeerAddresses")
            elif peer == node.name:
                bad("node lists itself as a peer", node=node.name, key="d2dPeerAddresses")
        if node.use_preconfigured_tx_params and node.role is Role.UE and node.d2d_cqi is None:
            bad("usePreconfiguredTxParams requires d2dCqi", node=node.name, key="d2dCqi")
        if node.d2d_cqi is not None and not 1 <= node.d2d_cqi <= 15:
            bad("d2dCqi must be in 1..15", node=node.name, key="d2dCqi")
        if node.d2d_peer_addresses and not (
                node.use_preconfigured_tx_params or node.enable_d2d_cqi_reporting):
            bad("sidelink sender needs usePreconfiguredTxParams or enableD2DCqiReporting",
                node=node.name, key="usePreconfiguredTxParams")

    group_addresses = set()
    for group in config.multicast_groups:
        if not is_multicast_address(group.address):
            bad(f"{group.address!r} is not a multicast address (224..239)",
                key=group.address)
        group_addresses.add(group.address)
        try:
            resolve_pattern(group.member_pattern, names)
        except MalformedPatternError as exc:
            bad(str(exc), key=group.address)

    d2d_in_use = any(node.d2d_capable and node.role is Role.UE for node in config.nodes)
    if d2d_in_use and enb is not None:
        if not enb.d2d_capable:
            bad("D2D-capable UEs require a d2dCapable eNB", node=enb.name, key="d2dCapable")
        if enb.amc_mode != "D2D":
            bad('D2D-capable UEs require eNB amcMode = "D2D"', node=enb.name, key="amcMode")

    seen_flow_ids = set()
    for flow in config.flows:
        fid = f"flow[{flow.flow_id}]"
        if flow.flow_id in seen_flow_ids:
            bad("duplicate flow id", key=fid)
        seen_flow_ids.add(flow.flow_id)
        bounded("packetBytes", flow.packet_bytes, where=fid)
        if flow.period_ttis < 1:
            bad("periodTtis must be >= 1", key=fid)
        if flow.start_tti < 0:
            bad("startTti must be >= 0", key=fid)
        if flow.start_jitter_ttis < 0:
            bad("startJitterTtis must be >= 0", key=fid)
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
    if ms.enabled and ms.period_ttis < 1:
        bad("d2dModeSelectionPeriod must be >= 1", key="d2dModeSelectionPeriod")
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
    attr_to_key = lambda spec: {attr: key for key, (attr, _) in spec.items()}

    sim_keys = attr_to_key(_SIM_KEYS)
    for f in fields(SimParams):
        lines.append(f"sim.{sim_keys[f.name]} = {_format_value(getattr(config.sim, f.name))}")
    lines.append(f"sim.nodes = {_format_value(tuple(n.name for n in config.nodes))}")

    channel_keys = attr_to_key(_CHANNEL_KEYS)
    for f in fields(ChannelParams):
        lines.append(
            f"channel.{channel_keys[f.name]} = {_format_value(getattr(config.channel, f.name))}")

    node_keys = attr_to_key(_NODE_KEYS)
    for node in config.nodes:
        for f in fields(NodeConfig):
            if f.name == "name":
                continue
            value = getattr(node, f.name)
            if value is None:
                continue
            lines.append(f"{node.name}.{node_keys[f.name]} = {_format_value(value)}")
        if node.role is Role.ENB:
            ms = config.mode_selection
            lines.append(f"{node.name}.d2dModeSelection = {_format_value(ms.enabled)}")
            lines.append(f"{node.name}.d2dModeSelectionType = {_format_value(ms.policy_name)}")
            lines.append(f"{node.name}.d2dModeSelectionPeriod = {_format_value(ms.period_ttis)}")

    flow_keys = attr_to_key(_FLOW_KEYS)
    for flow in config.flows:
        for f in fields(FlowConfig):
            if f.name == "flow_id":
                continue
            lines.append(
                f"flow[{flow.flow_id}].{flow_keys[f.name]} = "
                f"{_format_value(getattr(flow, f.name))}")

    if config.multicast_groups:
        lines.append("[multicast]")
        for group in config.multicast_groups:
            lines.append(f'{group.address} = "{group.member_pattern}"')
    return "\n".join(lines) + "\n"
