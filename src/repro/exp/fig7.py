"""Fig. 7: robustness against node failures (Section V-F).

Three routings are compared: regular ("No Robust"), link-failure-robust
(this paper's Phase 2) and node-failure-robust (Phase 2 targeting all
single node failures, the "exhaustive" comparator).

Panels (a)/(b): per-node-failure SLA violations and throughput cost —
the node-optimized routing wins, but the link-robust routing still vastly
outperforms the oblivious one.  Panels (c)/(d): the reverse check on the
top-10 % link failures — node-optimized routing can perform poorly there,
so node-robustness is no substitute for link-robustness.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.series import FigureData, Series
from repro.core.baselines import node_failure_optimize
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    instance_rng,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset
from repro.scenarios.generators import node_failures


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Fig. 7 (all four panels)."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    instance = make_instance(
        "rand",
        nodes,
        6.0,
        seed=seed,
        target_utilization=0.80,
        utilization_statistic="max",
    )
    outcome = run_arms(instance, preset.config, seed=seed)
    evaluator = evaluator_for(instance, preset.config)
    rng = instance_rng(instance.seed, 42)
    node_robust = node_failure_optimize(evaluator, outcome.phase1, rng)

    node_set = node_failures(instance.network)
    settings = {
        "Robust (node failure)": node_robust.best_setting,
        "Robust (link failure)": outcome.robust_setting,
        "No Robust": outcome.regular_setting,
    }

    result = ExperimentResult(
        experiment_id="fig7",
        title="Performance under node failures vs link failures",
        preset=preset.name,
        context={
            "topology": instance.label,
            "node scenarios": len(node_set),
            "link scenarios": len(outcome.all_failures),
        },
    )

    # Panels (a) and (b): node-failure scenarios, sorted by violations.
    node_series_v = []
    node_series_p = []
    phi_peak = 1e-12
    evaluations = {}
    for name, setting in settings.items():
        evaluation = evaluator.evaluate_scenarios(setting, node_set)
        evaluations[name] = evaluation
        phi_peak = max(phi_peak, evaluation.phi_values.max())
    for name, evaluation in evaluations.items():
        order = np.argsort(-evaluation.violations, kind="stable")
        node_series_v.append(
            Series(name, evaluation.violations[order].astype(float))
        )
        node_series_p.append(
            Series(name, evaluation.phi_values[order] / phi_peak)
        )
        result.rows.append(
            {
                "routing": name,
                "scenario set": "node failures",
                "mean violations": float(evaluation.violations.mean()),
                "top-10%": evaluation.top_fraction_mean_violations(),
            }
        )
    result.figures.append(
        FigureData(
            figure_id="fig7a",
            xlabel="sorted failure node id",
            ylabel="SLA violations",
            series=tuple(node_series_v),
        )
    )
    result.figures.append(
        FigureData(
            figure_id="fig7b",
            xlabel="sorted failure node id",
            ylabel="throughput-sensitive traffic cost (normalized)",
            series=tuple(node_series_p),
        )
    )

    # Panels (c) and (d): top-10% link failures, node-robust vs link-robust.
    link_eval_link = evaluator.evaluate_scenarios(
        outcome.robust_setting, outcome.all_failures
    )
    link_eval_node = evaluator.evaluate_scenarios(
        node_robust.best_setting, outcome.all_failures
    )
    k = max(1, round(0.1 * len(outcome.all_failures)))
    order = np.argsort(-link_eval_node.violations, kind="stable")[:k]
    phi_peak_link = max(
        link_eval_link.phi_values.max(),
        link_eval_node.phi_values.max(),
        1e-12,
    )
    result.figures.append(
        FigureData(
            figure_id="fig7c",
            xlabel="sorted top-10% failure link id",
            ylabel="SLA violations",
            series=(
                Series(
                    "Robust (node failure)",
                    link_eval_node.violations[order].astype(float),
                ),
                Series(
                    "Robust (link failure)",
                    link_eval_link.violations[order].astype(float),
                ),
            ),
        )
    )
    result.figures.append(
        FigureData(
            figure_id="fig7d",
            xlabel="sorted top-10% failure link id",
            ylabel="throughput-sensitive traffic cost (normalized)",
            series=(
                Series(
                    "Robust (node failure)",
                    link_eval_node.phi_values[order] / phi_peak_link,
                ),
                Series(
                    "Robust (link failure)",
                    link_eval_link.phi_values[order] / phi_peak_link,
                ),
            ),
        )
    )
    for name, evaluation in (
        ("Robust (node failure)", link_eval_node),
        ("Robust (link failure)", link_eval_link),
    ):
        result.rows.append(
            {
                "routing": name,
                "scenario set": "link failures",
                "mean violations": float(evaluation.violations.mean()),
                "top-10%": evaluation.top_fraction_mean_violations(),
            }
        )
    return result
