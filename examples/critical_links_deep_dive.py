#!/usr/bin/env python3
"""Critical-link deep dive: how the paper's selector differs from priors.

Walks through the machinery of Section IV on one instance:

1. run Phase 1 and show the per-arc failure-cost distributions that the
   criticality definition (mean minus left-tail mean) is built from;
2. show the rank-convergence index that gates Phase 1b;
3. run Algorithm 1 and compare its pick against the three prior-art
   selectors (random, load-based, fluctuation-based) by overlap and by
   realized robustness.

Run:
    python examples/critical_links_deep_dive.py
"""

import numpy as np

from repro import PAPER_CONFIG
from repro.analysis import render_table
from repro.config import SamplingParams, SearchParams
from repro.core import DtrEvaluator
from repro.core.baselines import (
    fluctuation_critical_arcs,
    load_based_critical_arcs,
    optimize_with_critical_arcs,
    random_critical_arcs,
)
from repro.core.phase1 import run_phase1
from repro.core.selection import select_critical_links
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

SEED = 11


def main() -> None:
    rng = np.random.default_rng(SEED)
    network = scale_to_diameter(rand_topology(12, 5.0, rng), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(12, rng, 1.0), 0.43, "mean"
    )
    config = PAPER_CONFIG.replace(
        search=SearchParams(
            phase1_diversification_interval=6,
            phase1_diversifications=2,
            phase2_diversification_interval=3,
            phase2_diversifications=1,
            arcs_per_iteration_fraction=0.5,
            round_iteration_cap_factor=4,
            max_iterations=250,
        ),
        sampling=SamplingParams(
            tau=2, min_samples_per_link=4, max_extra_samples=1500
        ),
        critical_fraction=0.15,
    )
    evaluator = DtrEvaluator(network, traffic, config)
    phase1 = run_phase1(evaluator, np.random.default_rng(SEED))
    estimate = phase1.estimate
    store = phase1.store

    print(f"instance: {network}")
    print(
        f"phase 1: cost {phase1.best_cost}, {store.total_samples} "
        f"failure-cost samples ({phase1.extra_samples} from phase 1b), "
        f"ranks converged: {phase1.rank_converged}\n"
    )

    # 1. distribution widths behind the criticality values
    order = np.argsort(-estimate.rho_lam)[:5]
    rows = []
    for arc_id in order:
        samples = store.lam_samples(int(arc_id))
        arc = network.arcs[int(arc_id)]
        rows.append(
            {
                "arc": f"{arc.src}->{arc.dst}",
                "samples": samples.size,
                "mean lam": float(samples.mean()),
                "left-tail lam": float(estimate.tail_lam[arc_id]),
                "criticality rho_lam": float(estimate.rho_lam[arc_id]),
            }
        )
    print(render_table(rows, title="most delay-critical arcs (Eq. 8)"))

    # 2. Algorithm 1
    target = max(1, round(0.15 * network.num_arcs))
    selection = select_critical_links(estimate, target)
    print(
        f"\nAlgorithm 1: kept n1={selection.kept_lam} delay-ranked and "
        f"n2={selection.kept_phi} throughput-ranked arcs "
        f"(|Ec|={len(selection)}, residual errors "
        f"{selection.residual_error_lam:.3g}/"
        f"{selection.residual_error_phi:.3g})\n"
    )

    # 3. compare selectors by realized robustness
    from repro.scenarios import legacy_failures

    all_failures = legacy_failures(network)
    selectors = {
        "paper (Algorithm 1)": selection.critical_arcs,
        "random [24]": random_critical_arcs(
            network, target, np.random.default_rng(1)
        ),
        "load-based [10]": load_based_critical_arcs(
            evaluator, phase1.best_setting, target
        ),
        "fluctuation [23]": fluctuation_critical_arcs(store, target),
    }
    rows = []
    paper_set = set(selection.critical_arcs)
    for name, arcs in selectors.items():
        phase2 = optimize_with_critical_arcs(
            evaluator, phase1, arcs, np.random.default_rng(2)
        )
        evaluation = evaluator.evaluate_scenarios(
            phase2.best_setting, all_failures
        )
        rows.append(
            {
                "selector": name,
                "overlap with paper": f"{len(paper_set & set(arcs))}/{target}",
                "avg viol (all failures)": evaluation.mean_violations(),
                "top-10%": evaluation.top_fraction_mean_violations(),
            }
        )
    print(render_table(rows, title="selector comparison (same budget)"))


if __name__ == "__main__":
    main()
