"""Ablations of the criticality methodology's design choices.

DESIGN.md calls out three knobs the paper fixes by judgment:

* the left-tail fraction (footnote 9: smallest 10 % of costs);
* the failure-emulation band ``q`` (0.7, trading emulation fidelity
  against sample volume);
* the weight universe ``w_max`` (search-space size vs granularity).

Each ablation re-runs Phase 1 + Algorithm 1 + Phase 2 with one knob
moved and reports realized robustness, holding everything else fixed.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.metrics import beta_metric
from repro.core.baselines import optimize_with_critical_arcs
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

#: (knob, values) ablated one at a time.
ABLATIONS: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("left_tail_fraction", (0.05, 0.10, 0.25)),
    ("q", (0.5, 0.7, 0.9)),
    ("w_max", (10, 20, 40)),
)


def _config_with(preset, knob: str, value):
    config = preset.config
    if knob == "left_tail_fraction":
        return config.replace(
            sampling=dataclasses.replace(
                config.sampling, left_tail_fraction=float(value)
            )
        )
    if knob == "q":
        return config.replace(
            weights=dataclasses.replace(config.weights, q=float(value))
        )
    if knob == "w_max":
        return config.replace(
            weights=dataclasses.replace(config.weights, w_max=int(value))
        )
    raise ValueError(f"unknown knob {knob!r}")


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Run all three ablations on one RandTopo instance."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    instance = make_instance("rand", nodes, 6.0, seed=seed)
    result = ExperimentResult(
        experiment_id="ablation",
        title="Methodology ablations: left tail, q, w_max",
        preset=preset.name,
        context={"topology": instance.label},
    )
    all_failures = legacy_failures(instance.network, FailureModel.LINK)
    for knob, values in ABLATIONS:
        for value in values:
            config = _config_with(preset, knob, value)
            evaluator = evaluator_for(instance, config)
            rng = instance_rng(instance.seed, 70)
            phase1 = run_phase1(evaluator, rng)
            target = max(
                1,
                round(
                    config.critical_fraction * instance.network.num_arcs
                ),
            )
            selection = select_critical_links(phase1.estimate, target)
            phase2 = optimize_with_critical_arcs(
                evaluator,
                phase1,
                selection.critical_arcs,
                instance_rng(instance.seed, 71),
            )
            evaluation = evaluator.evaluate_scenarios(
                phase2.best_setting, all_failures
            )
            result.rows.append(
                {
                    "knob": knob,
                    "value": value,
                    "|Ec|": len(selection),
                    "samples": phase1.store.total_samples,
                    "beta (avg viol)": beta_metric(evaluation),
                }
            )
    return result
