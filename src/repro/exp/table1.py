"""Table I: critical search vs full search across topologies.

For each topology family the full search (``Ec = E``) provides the
accuracy reference ``beta_full`` (mean SLA violations over all single
link failures); the critical search is then run with ``|Ec|/|E|`` in
{5 %, 10 %, 15 %} and reports ``beta_crt`` plus the relative throughput
cost gap ``beta_Phi``.
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

#: (kind, paper nodes, mean degree) for Table I's four topology columns.
TABLE1_TOPOLOGIES: tuple[tuple[str, int, float], ...] = (
    ("rand", 30, 6.0),
    ("near", 30, 6.0),
    ("pl", 30, 5.4),
    ("isp", 16, 4.375),
)

#: The critical-set fractions of Table I.
TABLE1_FRACTIONS: tuple[float, ...] = (0.05, 0.10, 0.15)


def run(
    preset: "str | Preset" = "quick",
    seed: int = 0,
    fractions: tuple[float, ...] = TABLE1_FRACTIONS,
) -> ExperimentResult:
    """Regenerate Table I.

    Args:
        preset: execution scale.
        seed: base seed; repeat ``r`` uses ``seed + r``.
        fractions: ``|Ec| / |E|`` values to sweep.

    Returns:
        Rows keyed by topology and fraction with ``beta_full``,
        ``beta_crt`` and ``beta_phi_pct`` cells (mean/std over repeats).
    """
    preset = get_preset(preset)
    result = ExperimentResult(
        experiment_id="table1",
        title="Critical vs. full search for different topologies",
        preset=preset.name,
        context={
            "repeats": preset.repeats,
            "target mean utilization": 0.43,
            "fractions": ", ".join(f"{f:.0%}" for f in fractions),
        },
    )
    for kind, paper_nodes, degree in TABLE1_TOPOLOGIES:
        nodes = (
            paper_nodes if kind == "isp" else preset.scaled_nodes(paper_nodes)
        )
        beta_full: list[float] = []
        beta_crt: dict[float, list[float]] = {f: [] for f in fractions}
        beta_phi: dict[float, list[float]] = {f: [] for f in fractions}
        label = ""
        mean_utils: list[float] = []
        for repeat in range(preset.repeats):
            instance = make_instance(
                kind, nodes, degree, seed=seed + repeat
            )
            label = instance.label
            evaluator = evaluator_for(instance, preset.config)
            rng = instance_rng(instance.seed, 30)
            phase1 = run_phase1(evaluator, rng)
            mean_utils.append(
                float(phase1.best_evaluation.utilization.mean())
            )
            all_failures = legacy_failures(
                instance.network, FailureModel.LINK
            )
            full = full_search_optimize(evaluator, phase1, rng)
            full_eval = evaluator.evaluate_scenarios(
                full.best_setting, all_failures
            )
            beta_full.append(beta_metric(full_eval))
            for fraction in fractions:
                target = max(
                    1, round(fraction * instance.network.num_arcs)
                )
                selection = select_critical_links(phase1.estimate, target)
                crt = optimize_with_critical_arcs(
                    evaluator, phase1, selection.critical_arcs, rng
                )
                crt_eval = evaluator.evaluate_scenarios(
                    crt.best_setting, all_failures
                )
                beta_crt[fraction].append(beta_metric(crt_eval))
                beta_phi[fraction].append(
                    phi_gap_percent(crt_eval, full_eval)
                )
        base = {
            "topology": label,
            "avg util": tuple(mean_utils),
            "beta_full": tuple(beta_full),
        }
        for fraction in fractions:
            row = dict(base)
            row["|Ec|/|E|"] = f"{fraction:.0%}"
            row["beta_crt"] = tuple(beta_crt[fraction])
            row["beta_phi_pct"] = tuple(beta_phi[fraction])
            result.rows.append(row)
    return result
