"""Table IV: SLA violations in 30-node RandTopo for different mean degrees.

The symmetric sweep to Table III: node count fixed, mean degree in
{4, 6, 8}.  Higher degree means more path diversity, which robust
optimization converts into fewer violations.
"""

from __future__ import annotations

from repro.analysis.metrics import SlaViolationStats
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset

#: Mean node degrees of the sweep.
TABLE4_DEGREES: tuple[float, ...] = (4.0, 6.0, 8.0)

#: Paper node count.
TABLE4_NODES = 30


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Table IV."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(TABLE4_NODES)
    result = ExperimentResult(
        experiment_id="table4",
        title="SLA violations in RandTopo (different mean degrees)",
        preset=preset.name,
        context={
            "nodes": nodes,
            "repeats": preset.repeats,
            "target mean utilization": 0.43,
        },
    )
    for degree in TABLE4_DEGREES:
        robust_mean: list[float] = []
        regular_mean: list[float] = []
        robust_top: list[float] = []
        regular_top: list[float] = []
        label = ""
        for repeat in range(preset.repeats):
            instance = make_instance(
                "rand", nodes, degree, seed=seed + repeat
            )
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
        result.rows.append(
            {
                "mean degree": degree,
                "topology": label,
                "avg (R)": tuple(robust_mean),
                "avg (NR)": tuple(regular_mean),
                "top-10% (R)": tuple(robust_top),
                "top-10% (NR)": tuple(regular_top),
            }
        )
    return result
