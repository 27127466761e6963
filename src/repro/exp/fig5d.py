"""Fig. 5d: max utilization of delay-carrying links vs the SLA bound.

Under regular optimization in RandTopo, for each single link failure the
maximum utilization among links carrying delay-sensitive traffic is
plotted for SLA bounds 30 ms and 100 ms.  The looser bound admits longer
delay paths, raising link loads — the mechanism behind Table V's "more
violations with a looser bound" result.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.series import FigureData, Series
from repro.analysis.utilization import max_delay_carrying_utilization
from repro.core.phase1 import run_phase1
from repro.exp.common import (
    DEFAULT_THETA,
    ExperimentResult,
    evaluator_for,
    instance_rng,
    make_instance,
)
from repro.exp.presets import Preset, get_preset
from repro.routing.failures import FailureModel
from repro.scenarios.generators import legacy_failures

#: SLA bounds compared (seconds).
FIG5D_BOUNDS: tuple[float, ...] = (0.030, 0.100)


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Fig. 5d."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    instance = make_instance(
        "rand", nodes, 6.0, seed=seed, theta=DEFAULT_THETA
    )
    failures = legacy_failures(instance.network, FailureModel.LINK)
    result = ExperimentResult(
        experiment_id="fig5d",
        title="Max utilization of links carrying delay traffic (regular opt.)",
        preset=preset.name,
        context={"topology": instance.label},
    )
    series = []
    for theta in FIG5D_BOUNDS:
        config = preset.config.replace(
            sla=dataclasses.replace(preset.config.sla, theta=theta)
        )
        evaluator = evaluator_for(instance, config)
        phase1 = run_phase1(evaluator, instance_rng(instance.seed, 34))
        values = np.asarray(
            [
                max_delay_carrying_utilization(
                    evaluator, phase1.best_setting, scenario.failure
                )
                for scenario in failures
            ]
        )
        label = f"SLA bound={theta * 1e3:.0f}ms"
        series.append(Series(label, values))
        result.rows.append(
            {
                "bound (ms)": theta * 1e3,
                "mean max util": float(values.mean()),
                "peak max util": float(values.max()),
            }
        )
    result.figures.append(
        FigureData(
            figure_id="fig5d",
            xlabel="failure link id",
            ylabel="max util of links carrying delay traffic",
            series=tuple(series),
        )
    )
    return result
