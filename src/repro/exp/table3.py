"""Table III: SLA violations in RandTopo for different network sizes.

The paper grows RandTopo from 30 to 100 nodes at fixed mean degree 5 and
finds that the benefits of robust optimization persist or increase with
size (more nodes, more path diversity — and more chances for regular
optimization to take locally bad re-routing decisions).
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

#: Paper node counts for the size sweep.
TABLE3_SIZES: tuple[int, ...] = (30, 50, 100)

#: Mean node degree held fixed across sizes.
TABLE3_DEGREE = 5.0


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Table III."""
    preset = get_preset(preset)
    result = ExperimentResult(
        experiment_id="table3",
        title="SLA violations in RandTopo (different network sizes)",
        preset=preset.name,
        context={
            "mean degree": TABLE3_DEGREE,
            "repeats": preset.repeats,
            "target mean utilization": 0.43,
        },
    )
    for paper_nodes in TABLE3_SIZES:
        nodes = preset.scaled_nodes(paper_nodes)
        robust_mean: list[float] = []
        regular_mean: list[float] = []
        robust_top: list[float] = []
        regular_top: list[float] = []
        label = ""
        for repeat in range(preset.repeats):
            instance = make_instance(
                "rand", nodes, TABLE3_DEGREE, seed=seed + repeat
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
                "size": label,
                "avg (R)": tuple(robust_mean),
                "avg (NR)": tuple(regular_mean),
                "top-10% (R)": tuple(robust_top),
                "top-10% (NR)": tuple(regular_top),
            }
        )
    return result
