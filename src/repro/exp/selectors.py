"""Section IV-C: the paper's selector vs the three prior-art selectors.

The paper motivates its criticality methodology by the failure of the
earlier schemes — random (Yuan [24]), load-based (Fortz [10]) and
threshold/fluctuation-based (Sridharan [23]) — in the DTR setting.  This
experiment gives all four the same Phase-1 information and Phase-2
budget and compares the realized robustness across *all* failures.
"""

from __future__ import annotations

from repro.analysis.metrics import beta_metric
from repro.core.baselines import (
    fluctuation_critical_arcs,
    load_based_critical_arcs,
    optimize_with_critical_arcs,
    random_critical_arcs,
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


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Compare critical-link selectors at equal budget."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    result = ExperimentResult(
        experiment_id="selectors",
        title="Critical-link selectors: paper vs prior art (Sec. IV-C)",
        preset=preset.name,
        context={
            "|Ec|/|E|": preset.config.critical_fraction,
            "repeats": preset.repeats,
        },
    )
    metrics: dict[str, list[float]] = {}
    label = ""
    for repeat in range(preset.repeats):
        instance = make_instance("rand", nodes, 6.0, seed=seed + repeat)
        label = instance.label
        evaluator = evaluator_for(instance, preset.config)
        rng = instance_rng(instance.seed, 61)
        phase1 = run_phase1(evaluator, rng)
        target = max(
            1,
            round(
                preset.config.critical_fraction
                * instance.network.num_arcs
            ),
        )
        all_failures = legacy_failures(instance.network, FailureModel.LINK)
        selectors = {
            "paper (Algorithm 1)": select_critical_links(
                phase1.estimate, target
            ).critical_arcs,
            "random [24]": random_critical_arcs(
                instance.network, target, instance_rng(instance.seed, 62)
            ),
            "load-based [10]": load_based_critical_arcs(
                evaluator, phase1.best_setting, target
            ),
            "fluctuation [23]": fluctuation_critical_arcs(
                phase1.store, target
            ),
        }
        for name, arcs in selectors.items():
            phase2 = optimize_with_critical_arcs(
                evaluator, phase1, arcs, instance_rng(instance.seed, 63)
            )
            evaluation = evaluator.evaluate_scenarios(
                phase2.best_setting, all_failures
            )
            metrics.setdefault(name, []).append(beta_metric(evaluation))
    for name, values in metrics.items():
        result.rows.append(
            {
                "selector": name,
                "topology": label,
                "beta (avg SLA viol, all failures)": tuple(values),
            }
        )
    return result
