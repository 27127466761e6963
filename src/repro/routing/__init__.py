"""Routing substrate: directed network model, SPF/ECMP engine, failures."""

from repro.routing.arcs import Arc
from repro.routing.backend import (
    VALID_BACKENDS,
    backend_availability,
    resolve_backend,
    validate_backend,
)
from repro.routing.engine import (
    ClassRouting,
    PathDelayReuse,
    RoutingEngine,
)
from repro.routing.incremental import IncrementalRouter, ScenarioRouting
from repro.routing.failures import NORMAL, FailureModel, FailureScenario
from repro.routing.network import Network
from repro.routing.state import NetworkState

__all__ = [
    "Arc",
    "ClassRouting",
    "FailureModel",
    "FailureScenario",
    "IncrementalRouter",
    "NORMAL",
    "Network",
    "NetworkState",
    "PathDelayReuse",
    "RoutingEngine",
    "ScenarioRouting",
    "VALID_BACKENDS",
    "backend_availability",
    "resolve_backend",
    "validate_backend",
]
