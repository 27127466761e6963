"""Topology-failure primitives: which arcs disappear, which traffic goes.

The paper optimizes against *all single link failures* (Section III) and
additionally evaluates *single node failures* (Section V-F), where a node
failure "triggers the failure of all its links as well as the removal of
all the traffic it originates".  We also remove traffic destined to the
failed node, since it is undeliverable (policy documented in
docs/DESIGN.md).

This module holds only the topology primitive of the scenario subsystem
(:mod:`repro.scenarios`): a :class:`FailureScenario` is the topology
half of a composed :class:`~repro.scenarios.Scenario`, and it is what
the routing layer (:class:`~repro.routing.engine.RoutingEngine`,
:class:`~repro.routing.incremental.IncrementalRouter`) takes.  Every
enumeration — the paper's single link, arc and node failures, SRLGs,
k-link, regional and traffic families — lives in
:mod:`repro.scenarios.generators` and returns a
:class:`~repro.scenarios.ScenarioSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.routing.network import Network


class FailureModel(Enum):
    """Granularity at which link failures are enumerated.

    ``LINK`` fails a physical fiber: both directed arcs of a bidirectional
    pair.  ``ARC`` fails a single directed arc.  Experiment presets use
    ``LINK``; the sampling machinery works with either.
    """

    LINK = "link"
    ARC = "arc"


@dataclass(frozen=True)
class FailureScenario:
    """One failure: a set of dead arcs plus nodes whose traffic vanishes.

    Attributes:
        failed_arcs: arc ids removed from the topology.
        removed_nodes: nodes whose originated and destined traffic is
            dropped (non-empty only for node failures).
        label: stable identifier used in experiment output, e.g.
            ``"link:4"`` or ``"node:7"``.
    """

    failed_arcs: tuple[int, ...]
    removed_nodes: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "failed_arcs", tuple(sorted(set(self.failed_arcs)))
        )
        object.__setattr__(
            self, "removed_nodes", tuple(sorted(set(self.removed_nodes)))
        )

    @property
    def is_normal(self) -> bool:
        """True for the failure-free scenario."""
        return not self.failed_arcs and not self.removed_nodes


NORMAL = FailureScenario(failed_arcs=(), label="normal")
"""The failure-free scenario."""


def disabled_arc_mask(network: Network, scenario: FailureScenario) -> np.ndarray:
    """Boolean per-arc mask, True where the arc is dead under ``scenario``."""
    mask = np.zeros(network.num_arcs, dtype=bool)
    if scenario.failed_arcs:
        mask[list(scenario.failed_arcs)] = True
    return mask
