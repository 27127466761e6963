"""Cost evaluation for k-class MTR instances.

Same pipeline as the DTR evaluator — per-class SPF/ECMP routing, shared
FIFO load superposition, per-class costs — but producing a
:class:`~repro.mtr.cost_vector.CostVector` of ``k`` components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DelayModelParams
from repro.core.delay import arc_delays
from repro.mtr.classes import CostModel, MtrInstance
from repro.mtr.cost_vector import CostVector
from repro.mtr.weights import MtrWeightSetting
from repro.routing.engine import RoutingEngine
from repro.routing.failures import NORMAL, FailureScenario
from repro.routing.network import Network
from repro.scenarios.scenario import ScenarioSet


@dataclass(frozen=True)
class MtrEvaluation:
    """Outcome of one (setting, scenario) MTR evaluation.

    Attributes:
        scenario: the failure scenario evaluated.
        cost: the k-component lexicographic cost.
        class_loads: ``(k, num_arcs)`` per-class arc loads.
        total_loads: per-arc loads across classes.
        utilization: per-arc total utilization.
    """

    scenario: FailureScenario
    cost: CostVector
    class_loads: np.ndarray
    total_loads: np.ndarray
    utilization: np.ndarray


@dataclass(frozen=True)
class MtrFailureEvaluation:
    """Per-scenario MTR evaluations plus the compounded cost."""

    evaluations: tuple[MtrEvaluation, ...]

    def __len__(self) -> int:
        return len(self.evaluations)

    @property
    def total_cost(self) -> CostVector:
        """Component-wise sum over scenarios."""
        return CostVector.total([e.cost for e in self.evaluations])


class MtrEvaluator:
    """Cost oracle for one (network, MTR instance) pair.

    Args:
        network: the topology.
        instance: the traffic classes.
        delay_params: Eq. (1) constants.
        delay_mode: ECMP path-delay aggregation for SLA classes.
    """

    def __init__(
        self,
        network: Network,
        instance: MtrInstance,
        delay_params: DelayModelParams = DelayModelParams(),
        delay_mode: str = "worst",
    ) -> None:
        if instance.num_nodes != network.num_nodes:
            raise ValueError("instance and network dimensions differ")
        self._network = network
        self._instance = instance
        self._delay_params = delay_params
        self._delay_mode = delay_mode
        self._engine = RoutingEngine(network)

    @property
    def network(self) -> Network:
        """The evaluated topology."""
        return self._network

    @property
    def instance(self) -> MtrInstance:
        """The evaluated traffic classes."""
        return self._instance

    @property
    def num_classes(self) -> int:
        """Number of classes ``k``."""
        return self._instance.num_classes

    # ------------------------------------------------------------------
    def evaluate(
        self,
        setting: MtrWeightSetting,
        scenario: FailureScenario = NORMAL,
    ) -> MtrEvaluation:
        """Cost vector of one weight setting under one scenario."""
        if setting.num_classes != self._instance.num_classes:
            raise ValueError("setting class count does not match instance")
        if setting.num_arcs != self._network.num_arcs:
            raise ValueError("setting does not match the network")

        routings = [
            self._engine.route_class(
                setting.class_weights(i), cls.matrix.values, scenario
            )
            for i, cls in enumerate(self._instance.classes)
        ]
        class_loads = np.stack([r.loads for r in routings])
        total = class_loads.sum(axis=0)
        delays = arc_delays(
            total,
            self._network.capacity,
            self._network.prop_delay,
            self._delay_params,
        )

        costs = []
        for i, cls in enumerate(self._instance.classes):
            if cls.cost_model is CostModel.SLA:
                pair_delays = self._engine.path_delays(
                    routings[i], delays, mode=self._delay_mode
                )
            else:
                pair_delays = None
            costs.append(
                cls.cost(
                    pair_delays,
                    total,
                    self._network.capacity,
                    class_loads[i],
                )
            )
        return MtrEvaluation(
            scenario=scenario,
            cost=CostVector(tuple(costs)),
            class_loads=class_loads,
            total_loads=total,
            utilization=total / self._network.capacity,
        )

    def evaluate_normal(self, setting: MtrWeightSetting) -> MtrEvaluation:
        """Cost under the failure-free scenario."""
        return self.evaluate(setting, NORMAL)

    def evaluate_failures(
        self, setting: MtrWeightSetting, failures: ScenarioSet
    ) -> MtrFailureEvaluation:
        """Costs across the topology failures of a scenario set.

        MTR classes carry their own fixed demand matrices, so a set with
        traffic variants is refused rather than silently evaluated on
        base traffic.
        """
        if any(s.variant is not None for s in failures):
            raise ValueError(
                "MTR evaluation covers topology failures only; the "
                "scenario set carries traffic variants"
            )
        return MtrFailureEvaluation(
            tuple(self.evaluate(setting, s.failure) for s in failures)
        )
