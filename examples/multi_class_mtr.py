#!/usr/bin/env python3
"""Beyond DTR: robust routing for three traffic classes (MTR).

The paper studies two routings (DTR) as "the most basic setting" of
Multi-Topology Routing.  This example exercises the k-class
generalization in :mod:`repro.mtr`: a voice class (25 ms SLA), a video
class (60 ms SLA) and a bulk class (congestion cost), each routed on its
own weight topology, jointly optimized for robustness to link failures.

Run:
    python examples/multi_class_mtr.py
"""

import numpy as np

from repro.analysis import render_table
from repro.config import (
    OptimizerConfig,
    SamplingParams,
    SearchParams,
    SlaParams,
    WeightParams,
)
from repro.mtr import (
    CostModel,
    MtrClass,
    MtrEvaluator,
    MtrInstance,
    MtrOptimizer,
)
from repro.scenarios import legacy_failures
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import gravity_matrix

SEED = 5


def main() -> None:
    rng = np.random.default_rng(SEED)
    network = scale_to_diameter(rand_topology(12, 5.0, rng), 0.025)

    # three classes: strict voice, looser video, elastic bulk
    volume = 2.5e9
    instance = MtrInstance(
        classes=(
            MtrClass(
                name="voice",
                matrix=gravity_matrix(12, rng, 0.15 * volume, name="voice"),
                cost_model=CostModel.SLA,
                priority=0,
                sla=SlaParams(theta=0.025),
            ),
            MtrClass(
                name="video",
                matrix=gravity_matrix(12, rng, 0.25 * volume, name="video"),
                cost_model=CostModel.SLA,
                priority=1,
                sla=SlaParams(theta=0.060),
            ),
            MtrClass(
                name="bulk",
                matrix=gravity_matrix(12, rng, 0.60 * volume, name="bulk"),
                cost_model=CostModel.LOAD,
                priority=2,
            ),
        )
    )
    print(
        f"instance: {network} with classes "
        f"{[c.name for c in instance.classes]}"
    )

    config = OptimizerConfig(
        weights=WeightParams(w_max=20),
        search=SearchParams(
            phase1_diversification_interval=5,
            phase1_diversifications=2,
            phase2_diversification_interval=3,
            phase2_diversifications=1,
            arcs_per_iteration_fraction=0.4,
            round_iteration_cap_factor=4,
            max_iterations=200,
        ),
        sampling=SamplingParams(
            tau=2, min_samples_per_link=3, max_extra_samples=800
        ),
        critical_fraction=0.15,
    )
    evaluator = MtrEvaluator(network, instance, config.delay)
    optimizer = MtrOptimizer(
        evaluator, config, rng=np.random.default_rng(SEED)
    )
    result = optimizer.run()

    print(f"\nregular normal cost : {result.regular_cost}")
    print(f"robust  normal cost : {result.robust_normal_cost}")
    print(
        f"critical set        : {len(result.selection)} arcs "
        f"(per-class heads kept: {result.selection.kept})"
    )

    failures = legacy_failures(network)
    rows = []
    for name, setting in (
        ("regular", result.regular_setting),
        ("robust", result.robust_setting),
    ):
        evaluation = evaluator.evaluate_failures(setting, failures)
        totals = evaluation.total_cost.values
        rows.append(
            {
                "routing": name,
                "sum voice cost (failures)": totals[0],
                "sum video cost (failures)": totals[1],
                "sum bulk cost (failures)": totals[2],
            }
        )
    print()
    print(
        render_table(
            rows, title="compounded costs over all single link failures"
        )
    )


if __name__ == "__main__":
    main()
