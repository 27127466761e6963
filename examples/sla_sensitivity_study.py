#!/usr/bin/env python3
"""SLA-bound sensitivity: is a looser SLA a substitute for robustness?

Reproduces the Section V-E investigation in miniature: sweep the SLA
bound over {25, 45, 100} ms on a RandTopo whose propagation diameter is
pinned to 25 ms, and measure (i) SLA violations across failures for the
regular routing, (ii) how the end-to-end delay distribution drifts
toward the bound, and (iii) what robust optimization adds at each bound.

The paper's counter-intuitive finding — relaxing the bound does NOT
reduce failure violations under regular optimization — emerges from the
delay distribution: flows drift up to whatever bound is offered.

Run:
    python examples/sla_sensitivity_study.py
"""

import dataclasses

import numpy as np

from repro import PAPER_CONFIG, RobustDtrOptimizer
from repro.analysis import render_table, sorted_pair_delays_ms, sparkline
from repro.config import SamplingParams, SearchParams
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

SEED = 21
BOUNDS_MS = (25.0, 45.0, 100.0)


def build_instance():
    rng = np.random.default_rng(SEED)
    network = scale_to_diameter(
        rand_topology(12, 5.0, rng), 0.025
    )  # diameter pinned at 25 ms regardless of the SLA bound
    traffic = scale_to_utilization(
        network, dtr_traffic(12, rng, 1.0), 0.43, "mean"
    )
    return network, traffic


def search_config(theta_s: float):
    return PAPER_CONFIG.replace(
        sla=dataclasses.replace(PAPER_CONFIG.sla, theta=theta_s),
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


def main() -> None:
    network, traffic = build_instance()
    print(f"instance: {network}, diameter fixed at 25 ms\n")

    rows = []
    for bound_ms in BOUNDS_MS:
        config = search_config(bound_ms / 1e3)
        optimizer = RobustDtrOptimizer(
            network, traffic, config, rng=np.random.default_rng(SEED)
        )
        result = optimizer.run()
        evaluator = optimizer.evaluator

        reg = evaluator.evaluate_scenarios(
            result.regular_setting, result.all_failures
        )
        rob = evaluator.evaluate_scenarios(
            result.robust_setting, result.all_failures
        )
        delays = sorted_pair_delays_ms(
            evaluator.evaluate_normal(result.regular_setting)
        )
        print(
            f"theta={bound_ms:5.0f}ms  sorted pair delays "
            f"|{sparkline(delays)}| p90={delays[int(0.9 * len(delays))]:.1f}ms"
        )
        rows.append(
            {
                "SLA bound (ms)": bound_ms,
                "avg viol (regular)": reg.mean_violations(),
                "avg viol (robust)": rob.mean_violations(),
                "p90 delay (ms)": float(delays[int(0.9 * len(delays))]),
                "max delay (ms)": float(delays.max()),
            }
        )

    print()
    print(
        render_table(
            rows,
            title="failure violations and delay drift vs SLA bound",
        )
    )
    print(
        "\nNote how the delay distribution stretches toward each bound "
        "(no failure-tolerance margin is banked), so regular-routing "
        "violations do not vanish; robust optimization helps at every "
        "bound."
    )


if __name__ == "__main__":
    main()
