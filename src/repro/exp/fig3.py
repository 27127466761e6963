"""Fig. 3: per-failure performance with and without robust optimization.

Panel (a): number of SLA violations for each single link failure; panel
(b): throughput-sensitive traffic cost per failure (normalized by the
series peak, as the paper's plot is).  Robust optimization should crush
the violation spikes and also shave the worst throughput-cost failures.
"""

from __future__ import annotations

from repro.analysis.series import FigureData, Series
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Fig. 3 (both panels)."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    instance = make_instance("rand", nodes, 6.0, seed=seed)
    outcome = run_arms(instance, preset.config, seed=seed)
    evaluator = evaluator_for(instance, preset.config)

    rob = evaluator.evaluate_scenarios(
        outcome.robust_setting, outcome.all_failures
    )
    reg = evaluator.evaluate_scenarios(
        outcome.regular_setting, outcome.all_failures
    )

    result = ExperimentResult(
        experiment_id="fig3",
        title="Network performance with and without robust optimization",
        preset=preset.name,
        context={
            "topology": instance.label,
            "failure scenarios": len(outcome.all_failures),
        },
    )
    result.figures.append(
        FigureData(
            figure_id="fig3a",
            xlabel="failure link id",
            ylabel="SLA violations",
            series=(
                Series("Robust", rob.violations.astype(float)),
                Series("No Robust", reg.violations.astype(float)),
            ),
        )
    )
    # Normalize both Phi series by the common peak so the two curves are
    # comparable, mirroring the paper's [0.2, 1] plot range.
    peak = max(rob.phi_values.max(), reg.phi_values.max(), 1e-12)
    result.figures.append(
        FigureData(
            figure_id="fig3b",
            xlabel="failure link id",
            ylabel="throughput-sensitive traffic cost (normalized)",
            series=(
                Series("Robust", rob.phi_values / peak),
                Series("No Robust", reg.phi_values / peak),
            ),
        )
    )
    result.rows.append(
        {
            "series": "Robust",
            "mean violations": float(rob.violations.mean()),
            "worst violations": int(rob.violations.max()),
            "mean phi (norm)": float((rob.phi_values / peak).mean()),
        }
    )
    result.rows.append(
        {
            "series": "No Robust",
            "mean violations": float(reg.violations.mean()),
            "worst violations": int(reg.violations.max()),
            "mean phi (norm)": float((reg.phi_values / peak).mean()),
        }
    )
    return result
