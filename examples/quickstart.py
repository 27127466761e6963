#!/usr/bin/env python3
"""Quickstart: robust DTR optimization on a small random topology.

Builds a 12-node random backbone, generates two-class gravity traffic,
runs the paper's two-phase optimizer, and compares the resulting robust
routing against the performance-only routing under every single link
failure.

Run:
    python examples/quickstart.py
"""

import numpy as np

from repro import PAPER_CONFIG, RobustDtrOptimizer
from repro.analysis import render_table
from repro.config import SamplingParams, SearchParams
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

SEED = 42


def build_instance():
    """A 12-node RandTopo carrying gravity traffic at 43 % mean load."""
    rng = np.random.default_rng(SEED)
    network = rand_topology(num_nodes=12, mean_degree=5.0, rng=rng)
    # scale propagation delays so the best-case diameter matches the
    # 25 ms SLA bound (Section V-A1)
    network = scale_to_diameter(network, PAPER_CONFIG.sla.theta)
    traffic = dtr_traffic(network.num_nodes, rng, total_volume=1.0)
    traffic = scale_to_utilization(network, traffic, 0.43, "mean")
    return network, traffic


def main() -> None:
    network, traffic = build_instance()
    print(f"instance: {network} carrying {traffic.total:.3g} bps total\n")

    # a laptop-scale search budget; PAPER_CONFIG holds the full schedule
    config = PAPER_CONFIG.replace(
        search=SearchParams(
            phase1_diversification_interval=6,
            phase1_diversifications=2,
            phase2_diversification_interval=4,
            phase2_diversifications=1,
            arcs_per_iteration_fraction=0.5,
            round_iteration_cap_factor=4,
            max_iterations=300,
        ),
        sampling=SamplingParams(
            tau=2, min_samples_per_link=3, max_extra_samples=1000
        ),
    )

    optimizer = RobustDtrOptimizer(
        network, traffic, config, rng=np.random.default_rng(SEED)
    )
    result = optimizer.run()

    print(
        f"phase 1 ({result.phase1_seconds:.1f}s): best normal cost "
        f"{result.phase1.best_cost}"
    )
    print(
        f"phase 2 ({result.phase2_seconds:.1f}s): critical set "
        f"|Ec| = {len(result.phase1.critical_arcs)} of "
        f"{network.num_arcs} arcs\n"
    )

    evaluator = optimizer.evaluator
    rows = []
    for name, setting in (
        ("regular (no robust)", result.regular_setting),
        ("robust", result.robust_setting),
    ):
        evaluation = evaluator.evaluate_scenarios(
            setting, result.all_failures
        )
        normal = evaluator.evaluate_normal(setting)
        rows.append(
            {
                "routing": name,
                "normal SLA violations": normal.sla.violations,
                "avg violations / failure": evaluation.mean_violations(),
                "top-10% failures": (
                    evaluation.top_fraction_mean_violations()
                ),
                "normal Phi": normal.cost.phi,
            }
        )
    print(render_table(rows, title="all single link failures"))


if __name__ == "__main__":
    main()
