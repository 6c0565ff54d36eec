"""Deterministic system-level simulator of an LTE-A cell with D2D sidelinks."""

from .binder import Binder, Direction, RbConflict
from .channel import (ChannelModel, ChannelParams, CqiTable, amc_tbs, decode,
                      mean_sinr_db, path_loss_db)
from .config import (AmcMode, ConstraintViolationError, Diagnostic, FlowConfig,
                     MalformedPatternError, ModeSelectionConfig, MulticastGroup,
                     NodeConfig, Role, ScenarioConfig, ScenarioError,
                     ScenarioSyntaxError, SimParams, Transport, UnknownKeyError,
                     UnresolvedNodeReferenceError, is_multicast_address,
                     load_scenario, parse_scenario, resolve_pattern,
                     serialize_scenario, validate)
from .engine import (Engine, Phase, SimulationResult, TraceRow, rng_stream,
                     run_scenario)
from .mode_selection import (Mode, ModeSwitchCommand, UnknownPolicyError,
                             best_cqi_decide, do_mode_selection, get_policy,
                             policy_names, register_policy)
from .stack import (HarqOutcome, HarqPool, HarqProcess, PacketAssembler,
                    PacketDescriptor, RlcChunk, RlcTxQueue, TransportBlock,
                    harq_on_feedback, pdcp_classify, phy_receive, phy_send,
                    rbs_needed, schedule_band)

__version__ = "0.1.0"
