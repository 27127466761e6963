"""Footnote 16: robustness to simultaneous two-link failures.

The paper notes that link-failure-robust routings also outperform
regular routings under "other types of failure patterns, e.g., multiple
link failures" — robustness to single failures is not bought with
fragility elsewhere.  This experiment evaluates (no re-optimization) the
robust and regular routings across a sample of dual-link failures.

The dual-link sample is the ``k = 2`` case of the scenario subsystem's
:func:`repro.scenarios.k_link_failures` generator (its enumeration and
sampling digests are pinned by tests); ``repro-exp scenarios
--scenarios multi3`` extends the same sweep to higher simultaneity.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.series import FigureData, Series
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    instance_rng,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset
from repro.scenarios import k_link_failures


def run(
    preset: "str | Preset" = "quick",
    seed: int = 0,
    max_scenarios: int = 60,
) -> ExperimentResult:
    """Evaluate single-failure-robust routing under dual-link failures."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    instance = make_instance("rand", nodes, 6.0, seed=seed)
    outcome = run_arms(instance, preset.config, seed=seed)
    evaluator = evaluator_for(instance, preset.config)

    failures = k_link_failures(
        instance.network,
        k=2,
        max_scenarios=max_scenarios,
        rng=instance_rng(instance.seed, 60),
    )
    rob = evaluator.evaluate_scenarios(outcome.robust_setting, failures)
    reg = evaluator.evaluate_scenarios(outcome.regular_setting, failures)

    result = ExperimentResult(
        experiment_id="multi_failure",
        title="Dual-link failures: single-failure robustness transfers",
        preset=preset.name,
        context={
            "topology": instance.label,
            "dual-link scenarios": len(failures),
        },
    )
    result.figures.append(
        FigureData(
            figure_id="multi_failure",
            xlabel="sorted dual-failure id",
            ylabel="SLA violations",
            series=(
                Series(
                    "Robust (single-link)",
                    np.sort(rob.violations.astype(float))[::-1],
                ),
                Series(
                    "No Robust",
                    np.sort(reg.violations.astype(float))[::-1],
                ),
            ),
        )
    )
    result.rows.append(
        {
            "routing": "Robust (single-link)",
            "avg violations": rob.mean_violations(),
            "top-10%": rob.top_fraction_mean_violations(),
        }
    )
    result.rows.append(
        {
            "routing": "No Robust",
            "avg violations": reg.mean_violations(),
            "top-10%": reg.top_fraction_mean_violations(),
        }
    )
    return result
