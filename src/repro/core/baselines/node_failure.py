"""Robust optimization targeting single *node* failures (Section V-F).

The paper compares its link-failure-robust routing against a routing
explicitly optimized for node failures, computed with "an essentially
exhaustive heuristic, which is computationally feasible ... because of
the smaller (linear) number of failure patterns": Phase 2 over all
single-node scenarios, no critical-set restriction.
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
from repro.scenarios.generators import node_failures


def node_failure_optimize(
    evaluator: DtrEvaluator,
    phase1: Phase1Result,
    rng: np.random.Generator,
    nodes: Sequence[int] | None = None,
) -> Phase2Result:
    """Run Phase 2 against all (or the given) single node failures."""
    failures = node_failures(evaluator.network, nodes)
    constraints = RobustConstraints(
        lam_star=phase1.best_cost.lam,
        phi_star=phase1.best_cost.phi,
        chi=evaluator.config.sampling.chi,
    )
    return run_phase2(evaluator, failures, phase1.pool, constraints, rng)
