"""Table II: SLA violations across topologies, robust vs regular.

The headline robustness comparison: average and worst-top-10 % SLA
violations across all single link failures for the robust routing ("R")
and the regular, failure-oblivious routing ("NR"), plus the price paid —
the normal-condition throughput-cost degradation (bounded by chi = 20 %).
"""

from __future__ import annotations

from repro.analysis.metrics import (
    SlaViolationStats,
    phi_degradation_percent,
)
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset
from repro.exp.table1 import TABLE1_TOPOLOGIES


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Table II."""
    preset = get_preset(preset)
    result = ExperimentResult(
        experiment_id="table2",
        title="Number of SLA violations across topologies (R vs NR)",
        preset=preset.name,
        context={
            "repeats": preset.repeats,
            "target mean utilization": 0.43,
            "chi": preset.config.sampling.chi,
            "|Ec|/|E|": preset.config.critical_fraction,
        },
    )
    for kind, paper_nodes, degree in TABLE1_TOPOLOGIES:
        nodes = (
            paper_nodes if kind == "isp" else preset.scaled_nodes(paper_nodes)
        )
        robust_mean: list[float] = []
        regular_mean: list[float] = []
        robust_top: list[float] = []
        regular_top: list[float] = []
        degradation: list[float] = []
        label = ""
        for repeat in range(preset.repeats):
            instance = make_instance(kind, nodes, degree, seed=seed + repeat)
            label = instance.label
            outcome = run_arms(instance, preset.config, seed=seed + repeat)
            evaluator = evaluator_for(instance, preset.config)
            rob = SlaViolationStats.from_failures(
                evaluator.evaluate_scenarios(
                    outcome.robust_setting, outcome.all_failures
                )
            )
            reg = SlaViolationStats.from_failures(
                evaluator.evaluate_scenarios(
                    outcome.regular_setting, outcome.all_failures
                )
            )
            robust_mean.append(rob.mean)
            regular_mean.append(reg.mean)
            robust_top.append(rob.top10_mean)
            regular_top.append(reg.top10_mean)
            degradation.append(
                phi_degradation_percent(
                    evaluator.evaluate_normal(outcome.robust_setting),
                    evaluator.evaluate_normal(outcome.regular_setting),
                )
            )
        result.rows.append(
            {
                "topology": label,
                "avg SLA viol (R)": tuple(robust_mean),
                "avg SLA viol (NR)": tuple(regular_mean),
                "top-10% (R)": tuple(robust_top),
                "top-10% (NR)": tuple(regular_top),
                "phi degradation %": tuple(degradation),
            }
        )
    return result
