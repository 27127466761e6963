"""Shared plumbing for baselines that swap the critical-link selector.

Every alternative selector plugs into the same robust pipeline: Phase 1
supplies the regular optimum and the acceptable pool; the selector picks
``Ec``; Phase 2 optimizes over the failures touching ``Ec``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.evaluation import DtrEvaluator
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import (
    Phase2Result,
    RobustConstraints,
    run_phase2,
)
from repro.routing.failures import FailureModel
from repro.scenarios.generators import legacy_failures


def optimize_with_critical_arcs(
    evaluator: DtrEvaluator,
    phase1: Phase1Result,
    critical_arcs: Sequence[int],
    rng: np.random.Generator,
    failure_model: FailureModel = FailureModel.LINK,
) -> Phase2Result:
    """Run Phase 2 against the failures touching an arbitrary arc set.

    Args:
        evaluator: the cost oracle.
        phase1: a completed Phase 1 (supplies optimum and starting pool).
        critical_arcs: the arc set standing in for ``Ec``.
        rng: random generator.
        failure_model: failure enumeration granularity.

    Returns:
        The Phase 2 result for this selector.
    """
    failures = legacy_failures(
        evaluator.network, failure_model
    ).restricted_to_arcs(critical_arcs)
    if len(failures) == 0:
        raise ValueError("critical arc set touches no failure scenario")
    constraints = RobustConstraints(
        lam_star=phase1.best_cost.lam,
        phi_star=phase1.best_cost.phi,
        chi=evaluator.config.sampling.chi,
    )
    return run_phase2(evaluator, failures, phase1.pool, constraints, rng)
