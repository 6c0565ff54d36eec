"""Scenario grammar, validation and canonical serialization."""

import fnmatch
import hashlib
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d2dsim.config
from d2dsim import (ConstraintViolationError, MalformedPatternError, NodeConfig, Role,
                    ScenarioSyntaxError, Transport, UnknownKeyError,
                    UnresolvedNodeReferenceError, is_multicast_address,
                    load_scenario, parse_scenario, resolve_pattern,
                    serialize_scenario, validate)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

BASE = """
sim.ttiCount = 100
sim.nodes = "eNodeB ueD2DTx[0] ueD2DRx[0]"
eNodeB.role = "eNB"
eNodeB.d2dCapable = true
eNodeB.amcMode = "D2D"
ueD2DTx[0].d2dCapable = true
ueD2DTx[0].d2dPeerAddresses = "ueD2DRx[0]"
ueD2DTx[0].usePreconfiguredTxParams = true
ueD2DTx[0].d2dCqi = 7
ueD2DRx[0].d2dCapable = true
flow[0].sourceNode = "ueD2DTx[0]"
flow[0].destAddress = "ueD2DRx[0]"
flow[0].packetBytes = 500
flow[0].periodTtis = 10
"""


def test_parse_minimal_scenario():
    config = parse_scenario(BASE)
    assert config.sim.tti_count == 100
    assert [n.name for n in config.nodes] == ["eNodeB", "ueD2DTx[0]", "ueD2DRx[0]"]
    assert config.node_by_name("eNodeB").role is Role.ENB
    tx = config.node_by_name("ueD2DTx[0]")
    assert tx.d2d_peer_addresses == ("ueD2DRx[0]",)
    assert tx.d2d_cqi == 7
    assert config.flows[0].packet_bytes == 500
    assert config.flows[0].transport is Transport.ONE_WAY


def test_defaults_applied():
    config = parse_scenario(BASE)
    assert config.sim.num_rbs == 50
    assert config.sim.rb_capacity_re == 168
    assert config.sim.harq_max_retx == 3
    assert config.sim.harq_processes == 8
    assert config.channel.path_loss_exponent == 3.5
    assert config.channel.shadowing_std_dev_db == 0.0
    tx = config.node_by_name("ueD2DTx[0]")
    assert tx.ue_tx_power_dbm == 26.0
    assert tx.d2d_tx_power_dbm == 20.0
    assert config.mode_selection.enabled is False
    assert config.mode_selection.policy_name == "D2DModeSelectionBestCqi"


def test_comments_and_inline_comments():
    text = BASE + """
# a full-line comment
sim.seed = 7  # an inline comment
ueD2DRx[0].positionX = 3.5 # trailing
"""
    config = parse_scenario(text)
    assert config.sim.seed == 7
    assert config.node_by_name("ueD2DRx[0]").position_x == 3.5


def test_hash_inside_quotes_is_not_a_comment():
    # '#' only starts a comment outside quoted strings
    text = BASE.replace('flow[0].destAddress = "ueD2DRx[0]"',
                        'flow[0].destAddress = "ueD2DRx[0]" # to the peer')
    assert parse_scenario(text).flows[0].dest_address == "ueD2DRx[0]"


def test_later_lines_override_earlier():
    config = parse_scenario(BASE + "\nsim.ttiCount = 250\n")
    assert config.sim.tti_count == 250


def test_power_key_aliases():
    text = BASE + """
ueD2DTx[0].ueTxPower = 24.0
ueD2DTx[0].d2dTxPower = 18.5
"""
    tx = parse_scenario(text).node_by_name("ueD2DTx[0]")
    assert tx.ue_tx_power_dbm == 24.0
    assert tx.d2d_tx_power_dbm == 18.5


def test_wildcard_scope_chain_styles():
    # the network-level '*' and trailing module segments are tolerated
    text = BASE + """
*.ueD2DTx[0].positionX = 11.0
*.ueD2DRx[0].nic.phy.positionY = 22.0
**.d2dTxPower = 19.0
"""
    config = parse_scenario(text)
    assert config.node_by_name("ueD2DTx[0]").position_x == 11.0
    assert config.node_by_name("ueD2DRx[0]").position_y == 22.0
    assert all(n.d2d_tx_power_dbm == 19.0 for n in config.nodes)


def test_pattern_matches_indexed_family():
    text = BASE.replace('sim.nodes = "eNodeB ueD2DTx[0] ueD2DRx[0]"',
                        'sim.nodes = "eNodeB ueD2DTx[0] ueD2DRx[0] ueD2DRx[1]"')
    text += '*.ueD2DRx[*].positionX = 77.0\nueD2DRx[1].d2dCapable = true\n'
    config = parse_scenario(text)
    assert config.node_by_name("ueD2DRx[0]").position_x == 77.0
    assert config.node_by_name("ueD2DRx[1]").position_x == 77.0
    assert config.node_by_name("ueD2DTx[0]").position_x == 0.0


def test_declaration_order_does_not_matter():
    # node assignments may precede the sim.nodes line
    lines = BASE.strip().splitlines()
    reordered = "\n".join(lines[2:] + lines[:2])
    assert parse_scenario(reordered) == parse_scenario(BASE)


# -- errors -----------------------------------------------------------------

def test_syntax_error_carries_line_number():
    with pytest.raises(ScenarioSyntaxError, match="line 2"):
        parse_scenario("sim.ttiCount = 5\nnot an assignment\n")


def test_unterminated_string():
    with pytest.raises(ScenarioSyntaxError, match="unterminated"):
        parse_scenario('sim.nodes = "eNodeB\n')


def test_unknown_key_rejected():
    with pytest.raises(UnknownKeyError, match="frequencyGhz"):
        parse_scenario(BASE + "sim.frequencyGhz = 2\n")


def test_unknown_node_key_rejected():
    with pytest.raises(UnknownKeyError, match="txQueueLen"):
        parse_scenario(BASE + "ueD2DTx[0].txQueueLen = 9\n")


def test_literal_unknown_node_scope_rejected():
    with pytest.raises(UnresolvedNodeReferenceError, match="ueGhost"):
        parse_scenario(BASE + "ueGhost.positionX = 1.0\n")


def test_wildcard_matching_nothing_is_silent():
    # a pattern is a filter, not a reference; no matches is not an error
    config = parse_scenario(BASE + "*.ueZ*.positionX = 5.0\n")
    assert all(n.position_x == 0.0 for n in config.nodes)


def test_unknown_flow_destination():
    bad = BASE.replace('flow[0].destAddress = "ueD2DRx[0]"',
                       'flow[0].destAddress = "ueNope[3]"')
    with pytest.raises(UnresolvedNodeReferenceError, match="ueNope"):
        parse_scenario(bad)


def test_unknown_peer():
    bad = BASE.replace('ueD2DTx[0].d2dPeerAddresses = "ueD2DRx[0]"',
                       'ueD2DTx[0].d2dPeerAddresses = "ueD2DRx[9]"')
    with pytest.raises(UnresolvedNodeReferenceError, match="ueD2DRx"):
        parse_scenario(bad)


def test_self_peering_rejected():
    bad = BASE.replace('ueD2DTx[0].d2dPeerAddresses = "ueD2DRx[0]"',
                       'ueD2DTx[0].d2dPeerAddresses = "ueD2DRx[0] ueD2DTx[0]"')
    with pytest.raises(ConstraintViolationError, match="lists itself as a peer"):
        parse_scenario(bad)


def test_unsection_header_rejected():
    with pytest.raises(ScenarioSyntaxError, match="\\[general\\]"):
        parse_scenario("[general]\nsim.ttiCount = 1\n")


@pytest.mark.parametrize("node, peers", [("ueD2DTx[0]", "ueD2DRx[0] eNodeB"),
                                         ("eNodeB", "ueD2DTx[0]")],
                         ids=["enb_as_peer", "peers_on_enb"])
def test_peerings_with_the_enb_rejected(node, peers):
    # D2D runs UE to UE: the eNB is neither a peer nor a node with peers
    config = parse_scenario(BASE)
    nodes = tuple(n._replace(d2d_peer_addresses=tuple(peers.split()),
                             enable_d2d_cqi_reporting=True) if n.name == node else n
                  for n in config.nodes)
    diagnostics = validate(config._replace(nodes=nodes))
    assert [(d.node, d.key) for d in diagnostics] == [(node, "d2dPeerAddresses")]
    assert "UE to UE" in diagnostics[0].message


def test_two_enbs_rejected():
    with pytest.raises(ConstraintViolationError, match="exactly one eNB"):
        parse_scenario(BASE + 'ueD2DRx[0].role = "eNB"\n')


def test_validate_rejects_a_repeated_node_name():
    # a node's id is its place in sim.nodes: a repeated name would merge two
    config = load_scenario(SCENARIOS / "one_to_many.ini")
    diagnostics = validate(config._replace(nodes=config.nodes + (config.nodes[-1],)))
    assert [(d.kind, d.key) for d in diagnostics] == [("ConstraintViolation", "nodes")]
    with pytest.raises(ConstraintViolationError, match="duplicate node name"):
        parse_scenario(BASE.replace('"eNodeB ueD2DTx[0] ueD2DRx[0]"',
                                    '"eNodeB ueD2DTx[0] ueD2DRx[0] ueD2DRx[0]"'))


@pytest.mark.parametrize("name, message", [("ue.x", "invalid node name"),
                                           ("ue x", "invalid node name"),
                                           ("sim", "is reserved"),
                                           ("flow[3]", "is reserved")])
def test_validate_checks_node_names(name, message):
    config = parse_scenario(BASE)
    renamed = config._replace(nodes=config.nodes + (config.nodes[-1]._replace(name=name),))
    diagnostics = validate(renamed)
    assert [(d.node, message in d.message) for d in diagnostics] == [(name, True)]
    if " " not in name:  # one token in sim.nodes
        with pytest.raises(ConstraintViolationError, match=message):
            parse_scenario(BASE.replace('ueD2DRx[0]"', f'ueD2DRx[0] {name}"', 1))


def test_missing_flow_key_rejected():
    with pytest.raises(ConstraintViolationError, match="periodTtis"):
        parse_scenario(BASE + 'flow[1].sourceNode = "ueD2DRx[0]"\n'
                       'flow[1].destAddress = "eNodeB"\n'
                       'flow[1].packetBytes = 10\n')


def test_preconfigured_requires_cqi():
    bad = BASE.replace("ueD2DTx[0].d2dCqi = 7\n", "")
    with pytest.raises(ConstraintViolationError, match="d2dCqi"):
        parse_scenario(bad)


def test_d2d_cqi_range():
    with pytest.raises(ConstraintViolationError, match="1..15"):
        parse_scenario(BASE + "ueD2DTx[0].d2dCqi = 16\n")


def test_sidelink_sender_needs_a_cqi_source():
    bad = BASE.replace("ueD2DTx[0].usePreconfiguredTxParams = true\n", "")
    bad = bad.replace("ueD2DTx[0].d2dCqi = 7\n", "")
    with pytest.raises(ConstraintViolationError,
                       match="usePreconfiguredTxParams or enableD2DCqiReporting"):
        parse_scenario(bad)


def test_d2d_requires_enb_amc_mode():
    bad = BASE.replace('eNodeB.amcMode = "D2D"\n', "")
    with pytest.raises(ConstraintViolationError, match="amcMode"):
        parse_scenario(bad)


def test_peers_only_on_d2d_capable_nodes():
    bad = BASE.replace("ueD2DTx[0].d2dCapable = true\n", "")
    with pytest.raises(ConstraintViolationError, match="d2dCapable"):
        parse_scenario(bad)


def test_multicast_flow_requires_preconfigured_sender():
    text = BASE + """
flow[1].sourceNode = "ueD2DRx[0]"
flow[1].destAddress = "224.0.0.10"
flow[1].packetBytes = 100
flow[1].periodTtis = 5
[multicast]
224.0.0.10 = "ueD2D*"
"""
    with pytest.raises(ConstraintViolationError, match="preconfigured"):
        parse_scenario(text)


def test_multicast_flow_from_the_enb_rejected():
    text = BASE + """
flow[1].sourceNode = "eNodeB"
flow[1].destAddress = "224.0.0.10"
flow[1].packetBytes = 100
flow[1].periodTtis = 5
[multicast]
224.0.0.10 = "ueD2D*"
"""
    with pytest.raises(ConstraintViolationError, match="originate at a UE") as err:
        parse_scenario(text)
    assert err.value.diagnostics[0].key == "flow[1]"


def test_multicast_address_range_checked():
    text = BASE + '[multicast]\n192.168.0.1 = "ueD2D*"\n'
    with pytest.raises(ConstraintViolationError, match="224..239"):
        parse_scenario(text)


def test_validate_rejects_a_repeated_multicast_address():
    # parsing keeps the last pattern of a repeated address; a config must
    # hold one group per address for its text to parse back to it
    config = load_scenario(SCENARIOS / "one_to_many.ini")
    group = config.multicast_groups[0]
    twice = config._replace(multicast_groups=(group, group._replace(member_pattern="ueBystander[*]")))
    assert [(d.key, d.message) for d in validate(twice)] == [
        ("224.0.0.10", "duplicate multicast address")]
    text = serialize_scenario(config) + '224.0.0.10 = "ueBystander[*]"\n'
    assert parse_scenario(text).multicast_groups == (twice.multicast_groups[1],)


def test_request_response_needs_unicast_destination():
    text = BASE + """
ueD2DTx[0].d2dCqi = 7
flow[1].sourceNode = "ueD2DTx[0]"
flow[1].destAddress = "224.0.0.9"
flow[1].packetBytes = 64
flow[1].periodTtis = 4
flow[1].transport = "requestResponse"
[multicast]
224.0.0.9 = "ueD2DRx[*]"
"""
    with pytest.raises(ConstraintViolationError, match="unicast"):
        parse_scenario(text)


def test_diagnostics_name_node_and_key():
    bad = BASE + "ueD2DTx[0].d2dCqi = 0\n"
    with pytest.raises(ConstraintViolationError) as err:
        parse_scenario(bad)
    diag = err.value.diagnostics[0]
    assert diag.node == "ueD2DTx[0]"
    assert diag.key == "d2dCqi"


# -- patterns ----------------------------------------------------------------

NAMES = ["eNodeB", "ueD2DTx[0]", "ueD2DRx[0]", "ueD2DRx[1]", "ueCell[12]"]


def test_resolve_pattern_basics():
    assert resolve_pattern("ueD2DRx[*]", NAMES) == {"ueD2DRx[0]", "ueD2DRx[1]"}
    assert resolve_pattern("ueD2D*", NAMES) == {"ueD2DTx[0]", "ueD2DRx[0]",
                                                "ueD2DRx[1]"}
    assert resolve_pattern("**", NAMES) == set(NAMES)
    assert resolve_pattern("eNodeB", NAMES) == {"eNodeB"}
    assert resolve_pattern("ue*[1]", NAMES) == {"ueD2DRx[1]"}


def test_resolve_pattern_is_anchored():
    # brackets are literal and the match covers the whole name
    assert resolve_pattern("ueCell[1]", NAMES) == set()
    assert resolve_pattern("ueD2DRx", NAMES) == set()


@pytest.mark.parametrize("pattern", ["", "  ", "ue.D2D", 'ue"x', "a=b", "ue #"])
def test_malformed_patterns_rejected(pattern):
    with pytest.raises(MalformedPatternError):
        resolve_pattern(pattern, NAMES)


@given(st.lists(st.sampled_from(NAMES), unique=True))
def test_literal_pattern_matches_exactly_itself(names):
    for name in names:
        matched = resolve_pattern(name.replace("[", "[").replace("]", "]"), names)
        assert matched == {name}


_names = st.builds(lambda stem, index: stem if index is None else f"{stem}[{index}]",
                   st.text("uxeB_", min_size=1, max_size=4), st.none() | st.integers(0, 12))
_wildcards = st.lists(st.text("uxe_[]01", max_size=3), min_size=2, max_size=4).map("*".join)


@given(st.lists(_names, min_size=1, max_size=8, unique=True), st.data())
def test_resolve_pattern_equals_a_regex_reference(names, data):
    """Literal or wildcard, a pattern matches what its anchored regex matches."""
    pattern = data.draw(st.sampled_from(names) | _names | _wildcards)
    regex = re.compile(".*".join(map(re.escape, pattern.split("*"))) + r"\Z")
    assert resolve_pattern(pattern, names) == {name for name in names if regex.match(name)}


def test_literal_node_lines_compile_no_regex(monkeypatch):
    # a pattern without '*' is looked up, not compiled and matched
    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(d2dsim.config.re, "compile",
                        lambda *args: compiled.append(args) or compile_(*args))
    assert parse_scenario(BASE).node_by_name("ueD2DTx[0]").d2d_cqi == 7
    assert compiled == []


# -- each scope is resolved once, each line still applied in order ---------------

_MEMO_NODES = ["eNodeB", "ueA[0]", "ueA[1]", "ueB[0]", "ueC"]
# literal, wildcard, network-'*' and '**' scopes, some with trailing segments;
# flow[0] and flow[00] are two scopes of one flow
_MEMO_SCOPES = _MEMO_NODES + ["ue*", "ueA[*]", "*[0]", "*", "**", "*.ueA[*]", "*.ueC",
                              "ueA[1].nic.phy", "**.nic", "sim", "channel", "flow[0]",
                              "flow[00]"]
# key -> (attribute, values it may take) per kind of scope; ueTxPower is an alias
_MEMO_KEYS = {
    "node": {"positionX": ("position_x", range(-900, 900)),
             "positionY": ("position_y", range(-900, 900)),
             "ueTxPower": ("ue_tx_power_dbm", range(-50, 51)),
             "ueTxPowerDbm": ("ue_tx_power_dbm", range(-50, 51)),
             "d2dTxPowerDbm": ("d2d_tx_power_dbm", range(-50, 51))},
    "sim": {"numRbs": ("num_rbs", range(1, 111)), "seed": ("seed", range(100))},
    "channel": {"noiseFigureDb": ("noise_figure_db", range(31))},
    "flow": {"packetBytes": ("packet_bytes", range(1, 5000)),
             "periodTtis": ("period_ttis", range(1, 50))},
}
_MEMO_HEAD = f"""sim.nodes = "{' '.join(_MEMO_NODES)}"
eNodeB.role = "eNB"
flow[0].sourceNode = "ueA[0]"
flow[0].destAddress = "eNodeB"
flow[0].packetBytes = 100
flow[0].periodTtis = 10
"""


def _memo_kind(scope: str) -> str:
    return {"sim": "sim", "channel": "channel"}.get(scope, "flow" if "flow" in scope else "node")


def _memo_reference_nodes(scope: str) -> list[str]:
    """The nodes a scope names, matched with fnmatch as the README reads it."""
    segments = scope.split(".")
    if "**" in segments:
        return _MEMO_NODES
    pattern = segments[1] if segments[0] == "*" and len(segments) > 1 else segments[0]
    pattern = pattern.replace("[", "[[]")  # a bracket is literal, not a set
    return [name for name in _MEMO_NODES if fnmatch.fnmatchcase(name, pattern)]


@st.composite
def _memo_lines(draw):
    lines = []
    for scope in draw(st.lists(st.sampled_from(_MEMO_SCOPES), max_size=30)):
        key = draw(st.sampled_from(sorted(_MEMO_KEYS[_memo_kind(scope)])))
        value = draw(st.sampled_from(_MEMO_KEYS[_memo_kind(scope)][key][1]))
        lines.append((scope, key, value))
    return lines


@given(_memo_lines(), st.data())
def test_interleaved_scopes_apply_every_line_in_order(lines, data):
    # each scope is resolved at its first line and reused; every line still
    # writes, in order, to each node, flow or table its scope names
    text = _MEMO_HEAD + "".join(f"{scope}.{key} = {value}\n" for scope, key, value in lines)
    expected = {"sim": {}, "channel": {}, "flow": {"source_node": "ueA[0]",
                                                   "dest_address": "eNodeB",
                                                   "packet_bytes": 100, "period_ttis": 10}}
    expected.update({name: {} for name in _MEMO_NODES})
    for scope, key, value in lines:  # the naive way: resolve every line afresh
        kind = _memo_kind(scope)
        attr = _MEMO_KEYS[kind][key][0]
        for target in (_memo_reference_nodes(scope) if kind == "node" else [kind]):
            expected[target][attr] = value
    config = parse_scenario(text)
    assert config.sim == config.sim._replace(**expected["sim"])
    assert config.channel == config.channel._replace(**expected["channel"])
    assert [flow._asdict() for flow in config.flows] == [
        {**config.flows[0]._asdict(), "flow_id": 0, **expected["flow"]}]
    assert config.nodes == tuple(
        NodeConfig(name, **expected[name], **({"role": Role.ENB} if name == "eNodeB" else {}))
        for name in _MEMO_NODES)
    # a bad value on a scope seen before is reported at its own line
    if lines:
        scope, key, _ = data.draw(st.sampled_from(lines))
        with pytest.raises(ConstraintViolationError) as raised:
            parse_scenario(text + f"{scope}.{key} = oops\n")
        assert raised.value.line == _MEMO_HEAD.count("\n") + len(lines) + 1


def test_an_unresolved_scope_fails_at_its_first_line():
    text = BASE + "ueX[0].positionX = 1\nueX[0].positionX = 2\n"
    with pytest.raises(UnresolvedNodeReferenceError) as raised:
        parse_scenario(text)
    assert raised.value.line == BASE.count("\n") + 1
    with pytest.raises(MalformedPatternError) as raised:  # likewise a malformed one
        parse_scenario(BASE + "ue\tx.positionX = 1\nue\tx.positionX = 2\n")
    assert raised.value.line == BASE.count("\n") + 1


def test_is_multicast_address():
    assert is_multicast_address("224.0.0.1")
    assert is_multicast_address("239.255.255.255")
    assert not is_multicast_address("223.0.0.1")
    assert not is_multicast_address("240.0.0.1")
    assert not is_multicast_address("224.0.0")
    assert not is_multicast_address("ueD2DRx[0]")


@pytest.mark.parametrize("line, error, message", [
    ('224.0.0.\u00b2 = "ueD2D[*]"\n', ConstraintViolationError, "not a multicast address"),
    ('flow[1].sourceNode = "ueD2D[0]"\nflow[1].destAddress = "224.0.0.\u00b2"\n'
     'flow[1].packetBytes = 10\nflow[1].periodTtis = 5\n',
     UnresolvedNodeReferenceError, "unknown destination"),
])
def test_superscript_digit_in_a_multicast_address_is_a_scenario_error(line, error, message):
    assert not is_multicast_address("224.0.0.\u00b2")  # a digit int() refuses is no octet
    text = (SCENARIOS / "one_to_many.ini").read_text()
    if line.startswith("flow"):  # before the [multicast] section
        text = text.replace("[multicast]", line + "[multicast]")
    else:
        text += line
    with pytest.raises(error, match=message):
        parse_scenario(text)


def test_a_non_ascii_digit_does_not_spell_a_second_group_of_one_address():
    # ARABIC-INDIC DIGIT THREE is decimal, and int() reads it as 3
    assert not is_multicast_address("224.0.0.\u0663")
    text = ((SCENARIOS / "one_to_many.ini").read_text()
            + '224.0.0.3 = "ueD2D*"\n224.0.0.\u0663 = "ueD2D*"\n')
    with pytest.raises(ConstraintViolationError, match="'224.0.0.\u0663' is not a multicast"):
        parse_scenario(text)


# the expressions the string checks replace, anchored as .match(...) was
_NODE_NAME_REF = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\[\d+\])?\Z")
_FLOW_SCOPE_REF = re.compile(r"flow\[(\d+)\]\Z")
_SCOPE_TEXT = st.text(string.ascii_letters + string.digits + "_[]\n\u0663\uff11\u00b2",
                      max_size=8)
_INDEX_TEXT = st.text("09\u0663\uff11\u00b2", max_size=3) | _SCOPE_TEXT


@settings(max_examples=500)
@given(_SCOPE_TEXT | st.builds("flow[{}]".format, _INDEX_TEXT)
       | st.builds("{}[{}]".format, st.sampled_from(["ue_D2D", "_1", "1a"]) | _SCOPE_TEXT,
                   _INDEX_TEXT))
def test_string_checks_accept_what_the_regexes_accepted(text):
    assert d2dsim.config._is_node_name(text) == bool(_NODE_NAME_REF.match(text))
    match = _FLOW_SCOPE_REF.match(text)
    assert d2dsim.config._flow_scope_id(text) == (int(match[1]) if match else None)


# -- serialization -------------------------------------------------------------

FULL = BASE + """
sim.seed = 11
channel.shadowingStdDevDb = 4.0
eNodeB.d2dModeSelection = true
eNodeB.d2dModeSelectionPeriod = 200
ueD2DRx[0].positionX = 12.25
flow[0].transport = "requestResponse"
flow[0].startJitterTtis = 3
flow[1].sourceNode = "ueD2DTx[0]"
flow[1].destAddress = "224.0.0.10"
flow[1].packetBytes = 80
flow[1].periodTtis = 4
[multicast]
224.0.0.10 = "ueD2DRx[*]"
"""


def test_section_header_may_carry_a_comment():
    text = FULL.replace("[multicast]", "[multicast]   # groups")
    assert parse_scenario(text) == parse_scenario(FULL)


def test_serialize_round_trip():
    config = parse_scenario(FULL)
    text = serialize_scenario(config)
    assert parse_scenario(text) == config


def test_serialize_is_canonical():
    config = parse_scenario(FULL)
    once = serialize_scenario(config)
    assert serialize_scenario(parse_scenario(once)) == once


# the canonical text is what a run manifest hashes, so its line order and
# value formats are part of the interface, not only its round trip
@pytest.mark.parametrize("name, digest", [
    ("one_to_one.ini", "78aa812554093081a47ab8fdb905c85ef70baafe69412d73c5007a8f73a03320"),
    ("one_to_many.ini", "f3fee386fb933d0ecc9c5c2e3409cf1f72a2b70d92110c92c143c19732d4d127")])
def test_canonical_text_of_shipped_scenarios_is_pinned(name, digest):
    text = serialize_scenario(load_scenario(SCENARIOS / name))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_every_canonical_key_is_documented():
    readme = (SCENARIOS.parent / "README.md").read_text()
    keys = {line.split(" = ")[0].split(".")[-1]
            for line in serialize_scenario(parse_scenario(BASE)).splitlines()}
    assert sorted(key for key in keys if f"`{key}`" not in readme) == []


def _documented(key: str, readme: str) -> str:
    """The README's words on ``key``: its table row, else its sentence."""
    rows = [line for line in readme.splitlines() if line.startswith(f"| `{key}`")
            or line.startswith("| `") and f", `{key}`" in line.split("|")[1]]
    if rows:
        return rows[0]
    return readme[readme.index(f"`{key}`"):].split(")")[0]


def test_every_range_is_the_documented_one():
    # the ranges are part of the interface: each one the README states is
    # the one validate checks, bounds included
    readme = (SCENARIOS.parent / "README.md").read_text()
    tables = (d2dsim.config._SIM_RANGES, d2dsim.config._CHANNEL_RANGES,
              d2dsim.config._NODE_RANGES, d2dsim.config._MODE_SELECTION_RANGES,
              d2dsim.config._FLOW_RANGES)
    ranged = [row for table in tables for row in table]
    assert len(ranged) == 22

    def number(value: float) -> str:
        return str(int(value)) if float(value).is_integer() else str(value)

    for key, _, low, high, open_below in ranged:
        if high == float("inf"):
            words = f"at least {number(low)}"
        elif open_below:
            words = f"above {number(low)} and at most {number(high)}"
        else:
            words = f"{number(low)} to {number(high)}"
        assert words in _documented(key, readme), key


def test_validate_returns_empty_for_sound_config():
    assert validate(parse_scenario(FULL)) == []
