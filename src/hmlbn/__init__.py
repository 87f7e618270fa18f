"""Hierarchical mobility label based network: a deterministic discrete-event
simulator of the control plane (LER/ALER/AMRR), the MPLS label-stack data
plane over segmented LSPs, and the triangular-routing penalty model."""

from .errors import HmlbnError, ScenarioInvalid
from .messages import (
    ControlMessage,
    MessageKind,
    MobilePrefix,
    MobilityBinding,
    UpdateMode,
    UpdateType,
    canonical_decode,
    canonical_encode,
    control_message,
)
from .scenario import Scenario, load_scenario, parse_scenario, validate_scenario
from .simulator import Simulation, run_scenario
from .topology import NetworkGraph, build_topology, compute_infrastructure_lsps
from .trace import Metrics

__version__ = "0.1.0"

__all__ = [
    "ControlMessage",
    "HmlbnError",
    "MessageKind",
    "Metrics",
    "MobilePrefix",
    "MobilityBinding",
    "NetworkGraph",
    "Scenario",
    "ScenarioInvalid",
    "Simulation",
    "UpdateMode",
    "UpdateType",
    "build_topology",
    "canonical_decode",
    "canonical_encode",
    "compute_infrastructure_lsps",
    "control_message",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
    "validate_scenario",
]
