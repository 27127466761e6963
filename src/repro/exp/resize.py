"""Section V-B's NearTopo resizing question.

"An obvious question is whether robust optimization would fare better,
if links in the core of the network were resized ... by increasing the
capacity of those congested links so as to bring down their utilization
below 90 % under normal conditions.  After performing such link
resizing, the average number of SLA violations after failures decreases
as expected ... However, the marginal path diversity that is still the
rule in NearTopo implies that even then the benefits of robust
optimization remain limited."
"""

from __future__ import annotations

from repro.analysis.metrics import SlaViolationStats
from repro.core.optimizer import RobustDtrOptimizer
from repro.exp.common import (
    ExperimentResult,
    instance_rng,
    make_instance,
)
from repro.exp.presets import Preset, get_preset
from repro.routing.failures import FailureModel
from repro.topology.resizing import resize_congested_links


def run(
    preset: "str | Preset" = "quick", seed: int = 0
) -> ExperimentResult:
    """Regenerate the NearTopo resizing comparison."""
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    instance = make_instance("near", nodes, 6.0, seed=seed)
    result = ExperimentResult(
        experiment_id="resize",
        title="NearTopo before/after congested-core resizing (Sec. V-B)",
        preset=preset.name,
        context={"topology": instance.label},
    )

    variants = {"original": instance.network}
    # resize against the loads of a regular-optimized routing
    first = RobustDtrOptimizer(
        instance.network,
        instance.traffic,
        preset.config,
        failure_model=FailureModel.LINK,
        rng=instance_rng(instance.seed, 50),
    ).run()
    evaluator = first.phase1.best_evaluation
    resized_network, report = resize_congested_links(
        instance.network, evaluator.total_loads, utilization_target=0.9
    )
    variants["resized"] = resized_network
    result.context["links resized"] = report.num_resized
    result.context["max util before"] = report.max_utilization_before
    result.context["max util after"] = report.max_utilization_after

    for name, network in variants.items():
        if name == "original":
            outcome = first
        else:
            outcome = RobustDtrOptimizer(
                network,
                instance.traffic,
                preset.config,
                failure_model=FailureModel.LINK,
                rng=instance_rng(instance.seed, 51),
            ).run()
        from repro.core.evaluation import DtrEvaluator

        oracle = DtrEvaluator(network, instance.traffic, preset.config)
        rob = SlaViolationStats.from_failures(
            oracle.evaluate_scenarios(
                outcome.robust_setting, outcome.all_failures
            )
        )
        reg = SlaViolationStats.from_failures(
            oracle.evaluate_scenarios(
                outcome.regular_setting, outcome.all_failures
            )
        )
        result.rows.append(
            {
                "network": name,
                "avg viol (R)": rob.mean,
                "avg viol (NR)": reg.mean,
                "top-10% (R)": rob.top10_mean,
                "top-10% (NR)": reg.top10_mean,
            }
        )
    return result
