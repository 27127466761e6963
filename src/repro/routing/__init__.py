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
from repro.routing.failures import (
    NORMAL,
    FailureModel,
    FailureScenario,
    FailureSet,
    dual_link_failures,
    single_arc_failures,
    single_failures,
    single_link_failures,
    single_node_failures,
)
from repro.routing.network import Network
from repro.routing.state import NetworkState

__all__ = [
    "Arc",
    "ClassRouting",
    "FailureModel",
    "FailureScenario",
    "FailureSet",
    "IncrementalRouter",
    "NORMAL",
    "Network",
    "NetworkState",
    "PathDelayReuse",
    "RoutingEngine",
    "ScenarioRouting",
    "VALID_BACKENDS",
    "backend_availability",
    "dual_link_failures",
    "resolve_backend",
    "validate_backend",
    "single_arc_failures",
    "single_failures",
    "single_link_failures",
    "single_node_failures",
]
