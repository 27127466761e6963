"""Core contribution: the robust DTR optimizer and its cost model."""

from repro.core.criticality import CriticalityEstimate, estimate_criticality
from repro.core.delay import arc_delays, queueing_delay_at
from repro.core.evaluation import (
    DtrEvaluator,
    ScenarioCosts,
    ScenarioEvaluation,
)
from repro.core.faults import (
    FaultInjected,
    FaultPlan,
    StageFault,
    TaskDelay,
    WorkerKill,
)
from repro.core.fortz import fortz_cost, fortz_link_cost
from repro.core.lexicographic import CostPair, relative_improvement
from repro.core.optimizer import RobustDtrOptimizer, RobustRoutingResult
from repro.core.parallel import (
    CacheStats,
    CachingDtrEvaluator,
    ParallelDtrEvaluator,
    RoutingCache,
    make_evaluator,
)
from repro.core.phase1 import Phase1Result, run_phase1
from repro.core.resilience import (
    ResilienceStats,
    RetryPolicy,
    global_stats,
    reset_global_stats,
)
from repro.core.phase2 import (
    Phase2Result,
    RobustConstraints,
    bounded_failure_cost,
    run_phase2,
)
from repro.core.sampling import CostSampleStore
from repro.core.selection import CriticalSelection, select_critical_links
from repro.core.sla import SlaOutcome, sla_outcome
from repro.core.weights import WeightSetting

__all__ = [
    "CacheStats",
    "CachingDtrEvaluator",
    "CostPair",
    "CostSampleStore",
    "CriticalSelection",
    "CriticalityEstimate",
    "DtrEvaluator",
    "FaultInjected",
    "FaultPlan",
    "ParallelDtrEvaluator",
    "ResilienceStats",
    "RetryPolicy",
    "RoutingCache",
    "Phase1Result",
    "Phase2Result",
    "RobustConstraints",
    "StageFault",
    "TaskDelay",
    "WorkerKill",
    "RobustDtrOptimizer",
    "RobustRoutingResult",
    "ScenarioCosts",
    "ScenarioEvaluation",
    "SlaOutcome",
    "WeightSetting",
    "arc_delays",
    "bounded_failure_cost",
    "estimate_criticality",
    "fortz_cost",
    "fortz_link_cost",
    "global_stats",
    "make_evaluator",
    "reset_global_stats",
    "queueing_delay_at",
    "relative_improvement",
    "run_phase1",
    "run_phase2",
    "select_critical_links",
    "sla_outcome",
]
