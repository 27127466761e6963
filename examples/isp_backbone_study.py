#!/usr/bin/env python3
"""ISP backbone study: robust routing on the 16-node North-American net.

Reproduces the paper's ISP column in miniature: optimize DTR weights on
the 16-node, 70-arc backbone, report per-failure SLA violations for the
robust and regular routings, and name the physical links the criticality
analysis deems most important.

Run:
    python examples/isp_backbone_study.py
"""

import numpy as np

from repro import PAPER_CONFIG, RobustDtrOptimizer
from repro.analysis import render_table, sparkline
from repro.config import SamplingParams, SearchParams
from repro.topology import isp_topology
from repro.topology.isp import isp_city_names
from repro.traffic import dtr_traffic, scale_to_utilization

SEED = 7


def main() -> None:
    network = isp_topology()
    cities = isp_city_names()
    rng = np.random.default_rng(SEED)
    traffic = scale_to_utilization(
        network, dtr_traffic(network.num_nodes, rng, 1.0), 0.43, "mean"
    )
    print(f"instance: {network} ({network.num_links} physical links)")

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
            tau=2, min_samples_per_link=3, max_extra_samples=1200
        ),
        # 15 % of 70 arcs is only ~10 links; on small networks a larger
        # critical set is needed for accuracy (paper, Section IV-E1)
        critical_fraction=0.3,
    )
    optimizer = RobustDtrOptimizer(
        network, traffic, config, rng=np.random.default_rng(SEED)
    )
    result = optimizer.run()

    # name the critical links
    print("\nmost critical links (per Eq. 8-9 + Algorithm 1):")
    seen = set()
    for arc_id in result.phase1.critical_arcs:
        arc = network.arcs[arc_id]
        link = tuple(sorted((arc.src, arc.dst)))
        if link in seen:
            continue
        seen.add(link)
        print(f"  {cities[link[0]]} <-> {cities[link[1]]}")

    evaluator = optimizer.evaluator
    rob = evaluator.evaluate_scenarios(
        result.robust_setting, result.all_failures
    )
    reg = evaluator.evaluate_scenarios(
        result.regular_setting, result.all_failures
    )

    print("\nper-failure SLA violations (one char per failed link):")
    print(f"  robust    |{sparkline(rob.violations.astype(float))}|")
    print(f"  regular   |{sparkline(reg.violations.astype(float))}|")

    rows = [
        {
            "routing": "robust",
            "avg violations": rob.mean_violations(),
            "top-10%": rob.top_fraction_mean_violations(),
            "worst failure": int(rob.violations.max()),
        },
        {
            "routing": "regular",
            "avg violations": reg.mean_violations(),
            "top-10%": reg.top_fraction_mean_violations(),
            "worst failure": int(reg.violations.max()),
        },
    ]
    print()
    print(render_table(rows, title="all single link failures"))

    worst = int(np.argmax(reg.violations))
    scenario = result.all_failures[worst]
    arc = network.arcs[scenario.failed_arcs[0]]
    print(
        f"\nworst regular-routing failure: "
        f"{cities[arc.src]} <-> {cities[arc.dst]} "
        f"({reg.violations[worst]} violations; robust suffers "
        f"{rob.violations[worst]})"
    )


if __name__ == "__main__":
    main()
