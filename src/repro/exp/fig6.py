"""Fig. 6: sensitivity to traffic uncertainty (Section V-F).

Routings are computed on *base* traffic matrices and evaluated on
*perturbed* ones:

* panels (a)/(b) — Gaussian random fluctuation (ε = 0.2) on an instance
  loaded to 0.90 maximum utilization;
* panels (c)/(d) — the download hot-spot incident model (10 % servers,
  50 % clients, surge factors U[2, 6]) at 0.74 maximum utilization.

For the top-10 % worst failures the mean SLA violations and
throughput-cost are reported for "Robust (perturbed)", "No Robust
(perturbed)" and the "Robust (base)" reference.  The paper's conclusion:
robustness to failures survives traffic uncertainty.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.series import FigureData, Series
from repro.core.weights import WeightSetting
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    instance_rng,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset
from repro.scenarios import ScenarioSet
from repro.traffic.uncertainty import (
    HotspotMode,
    HotspotSpec,
    fluctuate_traffic,
    hotspot,
)

#: Gaussian fluctuation magnitude (paper: 0.2).
EPSILON = 0.2


def _top_failures(
    evaluator, setting: WeightSetting, failures: ScenarioSet, fraction=0.1
) -> list:
    """The worst ``fraction`` of failure scenarios for a setting."""
    evaluation = evaluator.evaluate_scenarios(setting, failures)
    order = np.argsort(-evaluation.violations, kind="stable")
    k = max(1, round(fraction * len(failures)))
    return [failures[int(i)] for i in order[:k]]


def _mean_series_over_instances(
    evaluators, setting: WeightSetting, scenarios
) -> tuple[np.ndarray, np.ndarray]:
    """Mean violations and Phi per scenario across perturbed instances."""
    viols = np.zeros((len(evaluators), len(scenarios)))
    phis = np.zeros_like(viols)
    for i, evaluator in enumerate(evaluators):
        for j, scenario in enumerate(scenarios):
            outcome = evaluator.evaluate(setting, scenario)
            viols[i, j] = outcome.sla.violations
            phis[i, j] = outcome.cost.phi
    return viols.mean(axis=0), phis.mean(axis=0)


def _panel_pair(
    result: ExperimentResult,
    preset,
    seed: int,
    model: str,
    max_util: float,
    fig_ids: tuple[str, str],
) -> None:
    """Build one uncertainty model's (violations, Phi) panel pair."""
    nodes = preset.scaled_nodes(30)
    instance = make_instance(
        "rand",
        nodes,
        6.0,
        seed=seed,
        target_utilization=max_util,
        utilization_statistic="max",
    )
    outcome = run_arms(instance, preset.config, seed=seed)
    evaluator = evaluator_for(instance, preset.config)

    rng = instance_rng(instance.seed, 40 if model == "fluctuation" else 41)
    perturbed = []
    for _ in range(preset.uncertainty_instances):
        if model == "fluctuation":
            traffic = fluctuate_traffic(instance.traffic, EPSILON, rng)
        else:
            traffic = hotspot(
                instance.traffic,
                rng,
                HotspotSpec(mode=HotspotMode.DOWNLOAD),
            )
        perturbed.append(evaluator.with_traffic(traffic))

    scenarios = _top_failures(
        evaluator, outcome.regular_setting, outcome.all_failures
    )
    rob_v, rob_p = _mean_series_over_instances(
        perturbed, outcome.robust_setting, scenarios
    )
    reg_v, reg_p = _mean_series_over_instances(
        perturbed, outcome.regular_setting, scenarios
    )
    base_v = np.asarray(
        [
            evaluator.evaluate(outcome.robust_setting, s).sla.violations
            for s in scenarios
        ],
        dtype=float,
    )
    base_p = np.asarray(
        [
            evaluator.evaluate(outcome.robust_setting, s).cost.phi
            for s in scenarios
        ]
    )

    phi_peak = max(rob_p.max(), reg_p.max(), base_p.max(), 1e-12)
    result.figures.append(
        FigureData(
            figure_id=fig_ids[0],
            xlabel="sorted top-10% failure link id",
            ylabel="SLA violations",
            series=(
                Series("Robust (Perturbed TM)", rob_v),
                Series("No Robust (Perturbed TM)", reg_v),
                Series("Robust (Base TM)", base_v),
            ),
        )
    )
    result.figures.append(
        FigureData(
            figure_id=fig_ids[1],
            xlabel="sorted top-10% failure link id",
            ylabel="throughput-sensitive traffic cost (normalized)",
            series=(
                Series("Robust (Perturbed TM)", rob_p / phi_peak),
                Series("No Robust (Perturbed TM)", reg_p / phi_peak),
                Series("Robust (Base TM)", base_p / phi_peak),
            ),
        )
    )
    result.rows.append(
        {
            "model": model,
            "max util": max_util,
            "mean viol R(pert)": float(rob_v.mean()),
            "mean viol NR(pert)": float(reg_v.mean()),
            "mean viol R(base)": float(base_v.mean()),
        }
    )


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate Fig. 6 (all four panels)."""
    preset = get_preset(preset)
    result = ExperimentResult(
        experiment_id="fig6",
        title="Sensitivity of robust routing to traffic uncertainty",
        preset=preset.name,
        context={
            "epsilon": EPSILON,
            "testing instances": preset.uncertainty_instances,
        },
    )
    _panel_pair(
        result, preset, seed, "fluctuation", 0.90, ("fig6a", "fig6b")
    )
    _panel_pair(
        result, preset, seed, "hotspot", 0.74, ("fig6c", "fig6d")
    )
    return result
