#!/usr/bin/env python3
"""Traffic-uncertainty study: do robust routings survive wrong TMs?

Reproduces the Section V-F investigation in miniature: compute robust
and regular routings for *base* traffic matrices, then evaluate them
under (i) Gaussian fluctuations (epsilon = 0.2) and (ii) download
hot-spot surges, across the worst single link failures.

Run:
    python examples/traffic_uncertainty_study.py
"""

import numpy as np

from repro import PAPER_CONFIG, RobustDtrOptimizer
from repro.analysis import render_table
from repro.config import SamplingParams, SearchParams
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import (
    HotspotMode,
    HotspotSpec,
    dtr_traffic,
    fluctuate_traffic,
    hotspot,
    scale_to_utilization,
)

SEED = 33
NUM_TEST_INSTANCES = 20


def main() -> None:
    rng = np.random.default_rng(SEED)
    network = scale_to_diameter(rand_topology(12, 5.0, rng), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(12, rng, 1.0), 0.7, "max"
    )
    print(f"instance: {network}\n")

    config = PAPER_CONFIG.replace(
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
    )
    optimizer = RobustDtrOptimizer(
        network, traffic, config, rng=np.random.default_rng(SEED)
    )
    result = optimizer.run()
    evaluator = optimizer.evaluator

    models = {
        "base TM": lambda _: traffic,
        "gaussian eps=0.2": lambda gen: fluctuate_traffic(
            traffic, 0.2, gen
        ),
        "download hot-spot": lambda gen: hotspot(
            traffic, gen, HotspotSpec(mode=HotspotMode.DOWNLOAD)
        ),
    }

    rows = []
    test_rng = np.random.default_rng(SEED + 1)
    for model_name, perturb in models.items():
        rob_means = []
        reg_means = []
        instances = 1 if model_name == "base TM" else NUM_TEST_INSTANCES
        for _ in range(instances):
            tested = evaluator.with_traffic(perturb(test_rng))
            rob = tested.evaluate_scenarios(
                result.robust_setting, result.all_failures
            )
            reg = tested.evaluate_scenarios(
                result.regular_setting, result.all_failures
            )
            rob_means.append(rob.top_fraction_mean_violations())
            reg_means.append(reg.top_fraction_mean_violations())
        rows.append(
            {
                "traffic model": model_name,
                "instances": instances,
                "top-10% viol (robust)": tuple(rob_means),
                "top-10% viol (regular)": tuple(reg_means),
            }
        )

    print(
        render_table(
            rows,
            title=(
                "top-10% worst-failure SLA violations under traffic "
                "uncertainty (mean (std) across instances)"
            ),
        )
    )
    print(
        "\nThe robust routing keeps its lead under both uncertainty "
        "models: robustness to failures is not brittle to traffic-matrix "
        "estimation error."
    )


if __name__ == "__main__":
    main()
