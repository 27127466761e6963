"""Regenerate ``digests.json``: the pinned outputs of the pinned seeds.

    PYTHONPATH=src python3 -m e2ebench.pin_digests

Pins, for the default seed and the held-out seed, the ``table2-quick``
digests (rendered table, weight vectors, cost pairs) and the per-request
digests of the first :data:`PINNED_REQUESTS` audit requests, which
``audit-rand30`` and ``audit-rand30-jobs2`` must both reproduce.  Every
pinned output is first checked against the from-scratch reference path.
Run it only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.config import OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.parallel import make_evaluator
from repro.exp.runner import run_experiment

from e2ebench.workload import (
    DIGESTS_FILE,
    WARMUP_REQUESTS,
    arm_store,
    audit_inputs,
    costs_digest,
    reference_config,
    table2_digests,
    table2_mismatches,
)

#: The default seed and the held-out seed.
PINNED_SEEDS = (0, 7)
#: Audit requests pinned per seed (runs use at most this many pins).
PINNED_REQUESTS = 256
#: Pinned requests also re-swept on the reference path.
REFERENCE_EVERY = 32


def pin_table2(seed: int, work_dir: Path) -> dict:
    with arm_store(work_dir) as arms:
        result = run_experiment("table2", preset="quick", seed=seed)
    problems = table2_mismatches(seed, result, arms)
    if problems:
        raise SystemExit(f"table2 seed {seed}: {problems}")
    return table2_digests(result, arms)


def pin_audit(seed: int) -> list[str]:
    instance, scenarios, settings = audit_inputs(
        seed, WARMUP_REQUESTS + PINNED_REQUESTS
    )
    timed = settings[WARMUP_REQUESTS:]
    evaluator = make_evaluator(
        instance.network, instance.traffic, OptimizerConfig()
    )
    reference = DtrEvaluator(
        instance.network, instance.traffic, reference_config()
    )
    digests = []
    for index, setting in enumerate(timed):
        digest = costs_digest(
            evaluator.evaluate_scenario_costs(setting, scenarios)
        )
        if index % REFERENCE_EVERY == 0 and digest != costs_digest(
            reference.evaluate_scenarios(setting, scenarios)
        ):
            raise SystemExit(f"audit seed {seed} request {index} disagrees")
        digests.append(digest)
    return digests


def main() -> int:
    pinned: dict = {"table2-quick": {}, "audit-rand30": {}}
    work_dir = DIGESTS_FILE.parent.parent / ".e2ebench"
    work_dir.mkdir(exist_ok=True)
    for seed in PINNED_SEEDS:
        pinned["table2-quick"][str(seed)] = pin_table2(seed, work_dir)
        pinned["audit-rand30"][str(seed)] = pin_audit(seed)
    DIGESTS_FILE.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
