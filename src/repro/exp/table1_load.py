"""Section IV-E1's load sweep: critical-search accuracy at high load.

The paper repeats the Table I accuracy comparison on a RandTopo loaded to
0.9 maximum utilization and finds that slightly larger critical sets
(~20-25 % instead of 10-15 %) are needed to keep ``beta_crt`` close to
``beta_full`` — queueing-delay sensitivity at high load amplifies the
cost of omitting links.
"""

from __future__ import annotations

from repro.analysis.metrics import beta_metric, phi_gap_percent
from repro.core.baselines import (
    full_search_optimize,
    optimize_with_critical_arcs,
)
from repro.core.phase1 import run_phase1
from repro.core.selection import select_critical_links
from repro.exp.common import (
    ExperimentResult,
    evaluator_for,
    instance_rng,
    make_instance,
)
from repro.exp.presets import Preset, get_preset
from repro.routing.failures import FailureModel
from repro.scenarios.generators import legacy_failures

#: The critical-set fractions swept at high load.
HIGH_LOAD_FRACTIONS: tuple[float, ...] = (0.10, 0.20, 0.25)


def run(
    preset: "str | Preset" = "quick",
    seed: int = 0,
    max_utilization: float = 0.9,
) -> ExperimentResult:
    """Regenerate the Section IV-E1 high-load accuracy sweep."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    result = ExperimentResult(
        experiment_id="table1_load",
        title="Critical-search accuracy under high network load",
        preset=preset.name,
        context={
            "topology": "RandTopo",
            "max utilization target": max_utilization,
            "repeats": preset.repeats,
        },
    )
    beta_full: list[float] = []
    beta_crt: dict[float, list[float]] = {f: [] for f in HIGH_LOAD_FRACTIONS}
    beta_phi: dict[float, list[float]] = {f: [] for f in HIGH_LOAD_FRACTIONS}
    label = ""
    for repeat in range(preset.repeats):
        instance = make_instance(
            "rand",
            nodes,
            6.0,
            seed=seed + repeat,
            target_utilization=max_utilization,
            utilization_statistic="max",
        )
        label = instance.label
        evaluator = evaluator_for(instance, preset.config)
        rng = instance_rng(instance.seed, 31)
        phase1 = run_phase1(evaluator, rng)
        all_failures = legacy_failures(instance.network, FailureModel.LINK)
        full = full_search_optimize(evaluator, phase1, rng)
        full_eval = evaluator.evaluate_scenarios(
            full.best_setting, all_failures
        )
        beta_full.append(beta_metric(full_eval))
        for fraction in HIGH_LOAD_FRACTIONS:
            target = max(1, round(fraction * instance.network.num_arcs))
            selection = select_critical_links(phase1.estimate, target)
            crt = optimize_with_critical_arcs(
                evaluator, phase1, selection.critical_arcs, rng
            )
            crt_eval = evaluator.evaluate_scenarios(
                crt.best_setting, all_failures
            )
            beta_crt[fraction].append(beta_metric(crt_eval))
            beta_phi[fraction].append(phi_gap_percent(crt_eval, full_eval))
    for fraction in HIGH_LOAD_FRACTIONS:
        result.rows.append(
            {
                "topology": label,
                "|Ec|/|E|": f"{fraction:.0%}",
                "beta_full": tuple(beta_full),
                "beta_crt": tuple(beta_crt[fraction]),
                "beta_phi_pct": tuple(beta_phi[fraction]),
            }
        )
    return result
