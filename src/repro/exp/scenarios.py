"""Composed scenario sweeps: robustness beyond single link failures.

The paper optimizes against single link failures and spot-checks node
failures, dual-link failures and traffic uncertainty separately.  This
experiment unifies all of them: routings optimized the paper's way
(robust vs regular arms) are evaluated — with no re-optimization —
across any :class:`~repro.scenarios.ScenarioSet` built from the
``--scenarios`` families (SRLGs, k-link, regional, node, surges, cross
products), reporting a per-family breakdown of SLA violations.

The run doubles as the scenario subsystem's CI parity gate: the robust
arm's sweep — computed by whatever evaluator the run was configured
with, sweep hosts included — is re-swept on a fresh serial evaluator
with incremental routing off (no deltas, no batch engine, no cache),
and every scenario's ``(Lambda, Phi, violations)`` must match bit for
bit (``RuntimeError`` otherwise), so a fast path that drifts fails the
smoke jobs loudly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.tables import scenario_kind_columns
from repro.config import OptimizerConfig
from repro.core.evaluation import DtrEvaluator, ScenarioCosts
from repro.core.weights import WeightSetting
from repro.exp.common import (
    ExperimentResult,
    Instance,
    evaluator_for,
    make_instance,
    run_arms,
)
from repro.exp.presets import Preset, get_preset
from repro.scenarios import ScenarioSet, build_scenarios

#: Families swept when the CLI does not specify ``--scenarios``.
DEFAULT_SPEC = "srlg,surge"


def assert_from_scratch_parity(
    instance: Instance,
    config: OptimizerConfig,
    setting: WeightSetting,
    scenarios: ScenarioSet,
    swept: ScenarioCosts,
) -> None:
    """Bit-exact gate: ``swept`` == a from-scratch sweep of ``scenarios``.

    ``swept`` is what the run produced for ``setting`` (through
    :func:`~repro.exp.common.evaluator_for`, so under ``--jobs`` or
    ``--hosts`` it holds the hosts' results).  The reference runs on a
    fresh serial :class:`DtrEvaluator` with incremental routing off.

    Raises:
        RuntimeError: naming the first scenario whose Lambda, Phi or
            violation count differs.
    """
    scratch = config.replace(
        execution=replace(config.execution, incremental_routing=False)
    )
    reference = DtrEvaluator(
        instance.network, instance.traffic, scratch
    ).evaluate_scenarios(setting, scenarios)
    if len(swept) != len(reference):
        raise RuntimeError(
            f"from-scratch parity violated: {len(swept)} swept outcomes "
            f"for {len(reference)} scenarios"
        )
    for scenario, got, want in zip(
        scenarios, swept.evaluations, reference.evaluations
    ):
        if (
            got.cost.lam != want.cost.lam
            or got.cost.phi != want.cost.phi
            or got.sla.violations != want.sla.violations
        ):
            raise RuntimeError(
                "from-scratch parity violated: the sweep diverged from "
                f"the from-scratch sweep at {scenario.label!r}"
            )


def _arm_row(name: str, costs: ScenarioCosts) -> dict[str, object]:
    row: dict[str, object] = {
        "routing": name,
        "avg violations": costs.mean_violations(),
        "top-10%": costs.top_fraction_mean_violations(),
    }
    row.update(scenario_kind_columns(costs))
    return row


def run(
    preset: "str | Preset" = "quick",
    seed: int = 0,
    scenarios: str = DEFAULT_SPEC,
) -> ExperimentResult:
    """Sweep robust vs regular routings across composed scenario families.

    Args:
        preset: execution-scale preset.
        seed: instance + scenario-sampling seed.
        scenarios: ``--scenarios`` spec (comma-separated families,
            ``x`` for failure×traffic cross products).
    """
    preset = get_preset(preset)
    nodes = preset.scaled_nodes(30)
    instance = make_instance("rand", nodes, 6.0, seed=seed)
    outcome = run_arms(instance, preset.config, seed=seed)
    evaluator = evaluator_for(instance, preset.config)

    scenario_set = build_scenarios(
        scenarios, instance.network, seed=instance.seed
    )
    rob = evaluator.evaluate_scenarios(
        outcome.robust_setting, scenario_set
    )
    reg = evaluator.evaluate_scenarios(
        outcome.regular_setting, scenario_set
    )
    assert_from_scratch_parity(
        instance, preset.config, outcome.robust_setting, scenario_set, rob
    )

    result = ExperimentResult(
        experiment_id="scenarios",
        title="Composed scenario sweep: robustness beyond single links",
        preset=preset.name,
        context={
            "topology": instance.label,
            "families": scenarios,
            "scenarios": len(scenario_set),
            "kinds": ", ".join(scenario_set.kinds()),
            "set digest": scenario_set.digest,
            "from-scratch parity": "exact",
        },
    )
    result.rows.append(_arm_row("Robust (single-link)", rob))
    result.rows.append(_arm_row("No Robust", reg))
    return result
