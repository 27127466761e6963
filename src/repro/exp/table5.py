"""Table V: SLA violations as a function of the SLA bound.

The counter-intuitive result of Section V-E: relaxing the SLA bound does
*not* substitute for robust optimization — under regular optimization a
looser bound often yields *more* violations (flows drift up to the new
bound and link utilization rises; Fig. 5b/5d), while robust optimization
keeps violations near zero throughout.  The propagation diameter is held
fixed at 25 ms (footnote 14) while theta sweeps {25, 30, 45, 60, 100} ms.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.metrics import SlaViolationStats
from repro.analysis.utilization import (
    average_link_utilization,
    average_pair_max_utilization,
)
from repro.exp.common import (
    DEFAULT_THETA,
    ExperimentResult,
    evaluator_for,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset

#: The SLA bounds swept (seconds).
TABLE5_BOUNDS: tuple[float, ...] = (0.025, 0.030, 0.045, 0.060, 0.100)


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Table V."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    result = ExperimentResult(
        experiment_id="table5",
        title="SLA violations in RandTopo as a function of the SLA bound",
        preset=preset.name,
        context={
            "nodes": nodes,
            "repeats": preset.repeats,
            "diameter fixed at": f"{DEFAULT_THETA * 1e3:.0f} ms",
        },
    )
    for theta in TABLE5_BOUNDS:
        reg_viol: list[float] = []
        rob_viol: list[float] = []
        reg_util: list[float] = []
        rob_util: list[float] = []
        reg_max_util: list[float] = []
        rob_max_util: list[float] = []
        for repeat in range(preset.repeats):
            instance = make_instance(
                "rand",
                nodes,
                6.0,
                seed=seed + repeat,
                theta=DEFAULT_THETA,  # diameter stays matched to 25 ms
            )
            config = preset.config.replace(
                sla=dataclasses.replace(preset.config.sla, theta=theta)
            )
            outcome = run_arms(instance, config, seed=seed + repeat)
            evaluator = evaluator_for(instance, config)
            reg_fail = evaluator.evaluate_scenarios(
                outcome.regular_setting, outcome.all_failures
            )
            rob_fail = evaluator.evaluate_scenarios(
                outcome.robust_setting, outcome.all_failures
            )
            reg_viol.append(SlaViolationStats.from_failures(reg_fail).mean)
            rob_viol.append(SlaViolationStats.from_failures(rob_fail).mean)
            reg_normal = evaluator.evaluate_normal(outcome.regular_setting)
            rob_normal = evaluator.evaluate_normal(outcome.robust_setting)
            reg_util.append(average_link_utilization(reg_normal))
            rob_util.append(average_link_utilization(rob_normal))
            reg_max_util.append(
                average_pair_max_utilization(
                    evaluator, outcome.regular_setting
                )
            )
            rob_max_util.append(
                average_pair_max_utilization(
                    evaluator, outcome.robust_setting
                )
            )
        result.rows.append(
            {
                "SLA bound (ms)": theta * 1e3,
                "avg viol (NR)": tuple(reg_viol),
                "avg viol (R)": tuple(rob_viol),
                "avg util (NR)": tuple(reg_util),
                "avg util (R)": tuple(rob_util),
                "avg max util (NR)": tuple(reg_max_util),
                "avg max util (R)": tuple(rob_max_util),
            }
        )
    return result
