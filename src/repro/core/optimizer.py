"""The robust DTR optimizer: the paper's full two-phase pipeline.

:class:`RobustDtrOptimizer` wires together Phase 1 (regular optimization
and critical-link identification) and Phase 2 (robust optimization over
the critical failure scenarios) and returns both the *regular* and the
*robust* weight settings so experiments can compare them — exactly the
"R" vs "NR" columns of the paper's tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import PAPER_CONFIG, OptimizerConfig
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointManager,
    CheckpointMeta,
    config_fingerprint,
    execution_fingerprint,
    instance_fingerprint,
    resolve_resume,
)
from repro.core.evaluation import DtrEvaluator
from repro.core.parallel import make_evaluator
from repro.core.phase1 import Phase1Result, run_phase1
from repro.core.phase2 import Phase2Result, phase2_from
from repro.core.weights import WeightSetting
from repro.routing.failures import FailureModel
from repro.routing.network import Network
from repro.scenarios.generators import legacy_failures
from repro.scenarios.scenario import ScenarioSet
from repro.traffic.gravity import DtrTraffic


@dataclass(frozen=True)
class RobustRoutingResult:
    """Combined outcome of the two-phase optimization.

    Attributes:
        phase1: regular optimization + criticality outcome.
        phase2: robust optimization outcome.
        critical_failures: the scenarios Phase 2 optimized over.
        all_failures: the full scenario set of the run: the network's
            single-failure set (:func:`~repro.scenarios.legacy_failures`)
            by default, or the explicit ScenarioSet the optimizer was
            given.
        phase1_seconds: wall time of Phase 1.
        phase2_seconds: wall time of Phase 2.
    """

    phase1: Phase1Result
    phase2: Phase2Result
    critical_failures: ScenarioSet
    all_failures: ScenarioSet
    phase1_seconds: float
    phase2_seconds: float
    #: True on placeholder results returned for arms another shard owns
    #: (see :mod:`repro.exp.common`); real optimizer runs always set
    #: False.
    deferred: bool = False

    @property
    def regular_setting(self) -> WeightSetting:
        """The performance-only ("no robust") weight setting."""
        return self.phase1.best_setting

    @property
    def robust_setting(self) -> WeightSetting:
        """The robust weight setting."""
        return self.phase2.best_setting

    @property
    def critical_fraction_used(self) -> float:
        """``|Ec| / |E|`` actually realized."""
        total = len(self.phase1.estimate.rho_lam)
        return len(self.phase1.critical_arcs) / total


class RobustDtrOptimizer:
    """End-to-end robust DTR optimization for one problem instance.

    Args:
        network: the topology.
        traffic: the two-class traffic instance.
        config: parameters (defaults to the paper's values).  The
            ``config.execution`` block selects the evaluation engine:
            ``n_jobs > 1`` sweeps failure sets across local sweep hosts and
            ``routing_cache`` (off by default) reuses class routings
            across settings; both are bit-identical to the serial
            evaluator.
        failure_model: granularity of single-failure enumeration
            (physical link by default; per-arc available).  Ignored when
            ``scenarios`` is given.
        rng: random generator; pass a seeded one for reproducibility.
        scenarios: optimize robustness against this explicit
            :class:`~repro.scenarios.ScenarioSet` (SRLGs, k-link,
            regional, node, surge, cross products, ...) instead of the
            paper's single-failure enumeration.  An explicit set is
            swept in full — Phase 1's critical-link restriction only
            applies to the default single-failure set, whose per-link
            cost samples are what the criticality estimate measures.
    """

    def __init__(
        self,
        network: Network,
        traffic: DtrTraffic,
        config: OptimizerConfig = PAPER_CONFIG,
        failure_model: FailureModel = FailureModel.LINK,
        rng: np.random.Generator | None = None,
        scenarios: ScenarioSet | None = None,
    ) -> None:
        self._evaluator = make_evaluator(network, traffic, config)
        self._failure_model = failure_model
        self._rng = rng if rng is not None else np.random.default_rng()
        self._scenarios = scenarios

    @property
    def evaluator(self) -> DtrEvaluator:
        """The underlying cost oracle."""
        return self._evaluator

    def close(self) -> None:
        """Release the evaluator's execution resources (sweep hosts)."""
        self._evaluator.close()

    # ------------------------------------------------------------------
    def _checkpoint_meta(
        self,
        all_failures: ScenarioSet,
        critical_fraction: float | None,
        full_search: bool,
    ) -> CheckpointMeta:
        """The identity header binding checkpoints to this exact run."""
        config = self._evaluator.config
        return CheckpointMeta(
            version=CHECKPOINT_VERSION,
            stage="",
            ticks=0,
            scenario_digest=all_failures.digest,
            config_fingerprint=config_fingerprint(
                config,
                failure_model=self._failure_model,
                critical_fraction=critical_fraction,
                full_search=full_search,
            ),
            execution_fingerprint=execution_fingerprint(config.execution),
            instance_fingerprint=instance_fingerprint(
                self._evaluator.network, self._evaluator.traffic
            ),
        )

    def run(
        self,
        critical_fraction: float | None = None,
        full_search: bool = False,
        checkpoint: "str | Path | None" = None,
        resume_from: "str | Path | None" = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        interrupt_after: "int | None" = None,
    ) -> RobustRoutingResult:
        """Run Phases 1 and 2.

        Args:
            critical_fraction: override the configured ``|Ec| / |E|``.
            full_search: optimize over *all* single failures instead of
                the critical subset (the paper's brute-force comparator).
            checkpoint: write resumable snapshots to this file — every
                ``checkpoint_every`` loop boundaries and at the first
                boundary after SIGINT/SIGTERM, after which the run
                raises :class:`~repro.core.checkpoint.
                OptimizerInterrupted`.
            resume_from: resume from this checkpoint file if it exists
                (a missing file starts fresh; a checkpoint from an
                incompatible run raises :class:`~repro.core.checkpoint.
                CheckpointMismatchError`).  The resumed run's final
                weights and costs are bit-identical to an uninterrupted
                run.
            checkpoint_every: boundaries between periodic writes.
            interrupt_after: testing/CI hook — self-deliver a SIGTERM at
                the Nth boundary (requires ``checkpoint``).

        Returns:
            The combined result.
        """
        network = self._evaluator.network
        if self._scenarios is not None:
            all_failures = self._scenarios
        else:
            all_failures = legacy_failures(network, self._failure_model)

        meta = self._checkpoint_meta(
            all_failures, critical_fraction, full_search
        )
        restore = resolve_resume(resume_from, meta)
        if restore is not None and restore.get("stage") == "done":
            return restore["result"]
        manager: CheckpointManager | None = None
        if checkpoint is not None:
            manager = CheckpointManager(
                checkpoint,
                meta,
                every=checkpoint_every,
                interrupt_after=interrupt_after,
            )
        elif interrupt_after is not None:
            raise ValueError("interrupt_after requires checkpoint")

        try:
            if manager is not None:
                manager.install()
            return self._run_stages(
                all_failures,
                critical_fraction,
                full_search,
                manager,
                restore,
            )
        finally:
            if manager is not None:
                manager.uninstall()

    def _run_stages(
        self,
        all_failures: ScenarioSet,
        critical_fraction: float | None,
        full_search: bool,
        manager: "CheckpointManager | None",
        restore: "dict | None",
    ) -> RobustRoutingResult:
        """The pipeline body, optionally re-entering mid-stage."""
        stage = restore.get("stage") if restore else None
        if stage in (None, "phase1a", "phase1b"):
            t0 = time.perf_counter()
            phase1 = run_phase1(
                self._evaluator,
                self._rng,
                critical_fraction=critical_fraction,
                manager=manager,
                restore=restore,
            )
            phase1_seconds = time.perf_counter() - t0
        else:
            phase1 = restore["phase1"]
            phase1_seconds = restore["phase1_seconds"]
            self._rng.bit_generator.state = restore["rng_state"]

        if self._scenarios is not None:
            critical_failures = all_failures
        elif full_search:
            critical_failures = all_failures
        else:
            critical_failures = all_failures.restricted_to_arcs(
                phase1.critical_arcs
            )
        t1 = time.perf_counter()
        phase2 = phase2_from(
            self._evaluator,
            phase1,
            critical_failures,
            self._rng,
            manager=manager,
            context={
                "phase1": phase1,
                "phase1_seconds": phase1_seconds,
            },
            restore=restore if stage == "phase2" else None,
        )
        phase2_seconds = time.perf_counter() - t1
        result = RobustRoutingResult(
            phase1=phase1,
            phase2=phase2,
            critical_failures=critical_failures,
            all_failures=all_failures,
            phase1_seconds=phase1_seconds,
            phase2_seconds=phase2_seconds,
        )
        if manager is not None:
            manager.finalize(result)
        return result
