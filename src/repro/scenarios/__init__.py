"""The unified scenario subsystem: failures × traffic variants.

One :class:`Scenario` composes a topology perturbation (failed arcs,
removed nodes: a :class:`~repro.routing.failures.FailureScenario`) with
an optional :class:`TrafficVariant` (gravity rescale, Gaussian
fluctuation, hot-spot surge).  A :class:`ScenarioSet` is the one
scenario collection every evaluation layer speaks — see
:meth:`repro.core.evaluation.DtrEvaluator.evaluate_scenarios` — and
:mod:`repro.scenarios.generators` is the one place that enumerates
them: the paper's single link, arc and node failures, SRLGs, k-link
failures, regional failures, traffic surges and failure×surge cross
products.
"""

from repro.scenarios.generators import (
    DEFAULT_MAX_SCENARIOS,
    DEFAULT_SURGE_COUNT,
    FAMILIES,
    build_scenarios,
    cross,
    gaussian_surges,
    gravity_rescales,
    hotspot_surges,
    k_link_failures,
    legacy_failures,
    node_failures,
    regional_failures,
    scenario_family,
    srlg_failures,
)
from repro.scenarios.scenario import (
    NORMAL_SCENARIO,
    Scenario,
    ScenarioSet,
    as_scenario,
)
from repro.scenarios.variants import (
    GaussianSurge,
    GravityRescale,
    HotspotSurge,
    TrafficVariant,
)

__all__ = [
    "DEFAULT_MAX_SCENARIOS",
    "DEFAULT_SURGE_COUNT",
    "FAMILIES",
    "GaussianSurge",
    "GravityRescale",
    "HotspotSurge",
    "NORMAL_SCENARIO",
    "Scenario",
    "ScenarioSet",
    "TrafficVariant",
    "as_scenario",
    "build_scenarios",
    "cross",
    "gaussian_surges",
    "gravity_rescales",
    "hotspot_surges",
    "k_link_failures",
    "legacy_failures",
    "node_failures",
    "regional_failures",
    "scenario_family",
    "srlg_failures",
]
