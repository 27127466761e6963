"""Fig. 5a: SLA violations at medium and high network load.

Robust vs regular routing on a RandTopo loaded to maximum link
utilization 0.74 (medium) and 0.90 (high).  At high load the paper
enlarges the critical set to ``|Ec|/|E| = 0.25`` for accuracy; violations
rise for everyone (delay margins shrink), but robust optimization keeps
its lead.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.series import FigureData, Series
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset

#: (label, max-utilization target, |Ec|/|E|) per load level.
LOAD_LEVELS: tuple[tuple[str, float, float | None], ...] = (
    ("Max util=0.74", 0.74, None),
    ("Max util=0.90", 0.90, 0.25),
)


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Fig. 5a."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    result = ExperimentResult(
        experiment_id="fig5a",
        title="SLA violations in medium- and highly-loaded networks",
        preset=preset.name,
        context={"nodes": nodes},
    )
    series: list[Series] = []
    for label, max_util, fraction in LOAD_LEVELS:
        instance = make_instance(
            "rand",
            nodes,
            6.0,
            seed=seed,
            target_utilization=max_util,
            utilization_statistic="max",
        )
        outcome = run_arms(
            instance, preset.config, seed=seed, critical_fraction=fraction
        )
        evaluator = evaluator_for(instance, preset.config)
        rob = evaluator.evaluate_scenarios(
            outcome.robust_setting, outcome.all_failures
        )
        reg = evaluator.evaluate_scenarios(
            outcome.regular_setting, outcome.all_failures
        )
        rob_sorted = np.sort(rob.violations.astype(float))[::-1]
        reg_sorted = np.sort(reg.violations.astype(float))[::-1]
        series.append(Series(f"Robust ({label})", rob_sorted))
        series.append(Series(f"No Robust ({label})", reg_sorted))
        result.rows.append(
            {
                "load": label,
                "avg viol (R)": float(rob.violations.mean()),
                "avg viol (NR)": float(reg.violations.mean()),
                "top-10% (R)": rob.top_fraction_mean_violations(),
                "top-10% (NR)": reg.top_fraction_mean_violations(),
            }
        )
    result.figures.append(
        FigureData(
            figure_id="fig5a",
            xlabel="sorted failure link id",
            ylabel="SLA violations",
            series=tuple(series),
        )
    )
    return result
