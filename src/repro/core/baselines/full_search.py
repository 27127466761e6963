"""Full search: robust optimization with ``Ec = E`` (Section IV-E).

The brute-force comparator for the critical-link approach: Phase 2
evaluates *every* single failure for every candidate, making it the
accuracy gold standard (``beta_full``) at maximal computational cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import DtrEvaluator
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import Phase2Result, phase2_from
from repro.routing.failures import FailureModel
from repro.scenarios.generators import legacy_failures


def full_search_optimize(
    evaluator: DtrEvaluator,
    phase1: Phase1Result,
    rng: np.random.Generator,
    failure_model: FailureModel = FailureModel.LINK,
) -> Phase2Result:
    """Run Phase 2 over the complete single-failure set."""
    failures = legacy_failures(evaluator.network, failure_model)
    return phase2_from(evaluator, phase1, failures, rng)
