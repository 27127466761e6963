"""Parameter objects for the DTR robust-routing reproduction.

Every numeric constant from the paper lives here, in frozen dataclasses,
so experiments can state exactly which knobs they turn.  Defaults are the
values used in Sections IV-E and V of the paper:

* delay model (Eq. 1): packet size ``kappa`` = 1500 bytes, low-load
  threshold ``mu`` = 0.95, linearization point 0.99;
* SLA cost (Eq. 2): ``B1`` = 100, ``B2`` = 1, target bound ``theta`` = 25 ms;
* robust-optimization slack (Eq. 6): ``chi`` = 0.2;
* sampling (Section IV-D1): ``q`` = 0.7, ``z`` = 0.5, ``tau`` = 30,
  convergence threshold ``e`` = 2, left tail = smallest 10 % of samples;
* search schedule: Phase 1 diversification interval 100, ``P1`` = 20;
  Phase 2 interval 30, ``P2`` = 10; improvement cutoff ``c`` = 0.1 %.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.routing.backend import (
    parse_hosts,
    validate_backend,
    validate_resilience,
    validate_sweep_batching,
)


@dataclass(frozen=True)
class DelayModelParams:
    """Parameters of the link-delay model of Eq. (1).

    Attributes:
        packet_size_bits: average packet size ``kappa`` expressed in bits
            (paper: 1500 bytes = 12000 bits).
        low_load_threshold: utilization ``mu`` below which queueing delay
            is treated as zero (paper: 0.95 for backbone links).
        linearization_utilization: utilization beyond which the M/M/1 term
            ``x/(C-x)`` is replaced by its tangent line to avoid the
            singularity at ``x -> C`` (paper footnote 3: 0.99).
    """

    packet_size_bits: float = 1500 * 8
    low_load_threshold: float = 0.95
    linearization_utilization: float = 0.99

    def __post_init__(self) -> None:
        if self.packet_size_bits <= 0:
            raise ValueError("packet_size_bits must be positive")
        if not 0 < self.low_load_threshold <= self.linearization_utilization:
            raise ValueError(
                "need 0 < low_load_threshold <= linearization_utilization"
            )
        if self.linearization_utilization >= 1.0:
            raise ValueError("linearization_utilization must be < 1")


@dataclass(frozen=True)
class SlaParams:
    """Parameters of the SLA penalty of Eq. (2).

    Attributes:
        theta: end-to-end delay bound in seconds (paper: 25 ms, the
            approximate U.S. coast-to-coast propagation delay).
        b1: fixed penalty per violated SD pair (paper: 100).
        b2: penalty per second of delay in excess of ``theta`` (paper: 1,
            with delays measured in ms; we keep the paper's ms scale by
            expressing the excess in milliseconds).
        disconnect_excess_factor: a failure that disconnects an SD pair is
            charged as a violation whose excess is capped at
            ``disconnect_excess_factor * theta`` (policy choice documented
            in DESIGN.md; the paper does not specify).
    """

    theta: float = 0.025
    b1: float = 100.0
    b2: float = 1.0
    disconnect_excess_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.b1 < 0 or self.b2 < 0:
            raise ValueError("penalties must be non-negative")
        if self.disconnect_excess_factor <= 0:
            raise ValueError("disconnect_excess_factor must be positive")


@dataclass(frozen=True)
class WeightParams:
    """Link-weight universe for the local search.

    Attributes:
        w_min: smallest allowed weight (paper-style OSPF weights: 1).
        w_max: largest allowed weight; perturbations that push both class
            weights of an arc into ``[q * w_max, w_max]`` emulate a failure
            of that arc (Section IV-D1).  The default of 20 follows the
            Fortz–Thorup search convention — small weight universes make
            the local search far more effective than RFC-scale 65535.
        q: failure-emulation fraction (paper: 0.7).
    """

    w_min: int = 1
    w_max: int = 20
    q: float = 0.7

    def __post_init__(self) -> None:
        if self.w_min < 1 or self.w_max <= self.w_min:
            raise ValueError("need 1 <= w_min < w_max")
        if not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")

    @property
    def failure_emulation_floor(self) -> int:
        """Smallest weight counting as failure-like, ``ceil(q * w_max)``."""
        import math

        return math.ceil(self.q * self.w_max)


@dataclass(frozen=True)
class SamplingParams:
    """Cost-sample collection and convergence (Section IV-D1).

    Attributes:
        z: acceptance slack for the delay class; a sample is recorded when
            the pre-perturbation delay cost is within ``z * B1`` of the
            best cost found so far (paper: 0.5).
        chi: acceptance slack for the throughput class, shared with Eq. (6)
            (paper: 0.2).
        tau: average number of new samples per link between two rank
            re-evaluations (paper: 30).
        rank_convergence_threshold: ``e``; criticality ranks are converged
            when the gamma-weighted rank-change index of *both* classes is
            at most this value (paper: 2).
        left_tail_fraction: fraction of smallest costs forming the left
            tail of the failure-cost distribution (paper footnote 9: 0.1).
        min_samples_per_link: below this many samples a link's criticality
            estimate is considered unreliable and Phase 1b keeps sampling.
        max_extra_samples: hard cap on Phase 1b sample generation, so the
            reproduction terminates even on pathological instances.
    """

    z: float = 0.5
    chi: float = 0.2
    tau: int = 30
    rank_convergence_threshold: float = 2.0
    left_tail_fraction: float = 0.1
    min_samples_per_link: int = 8
    max_extra_samples: int = 20000

    def __post_init__(self) -> None:
        if not 0 <= self.z <= 1:
            raise ValueError("z must lie in [0, 1]")
        if self.chi < 0:
            raise ValueError("chi must be non-negative")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not 0 < self.left_tail_fraction <= 0.5:
            raise ValueError("left_tail_fraction must lie in (0, 0.5]")
        if self.min_samples_per_link < 2:
            raise ValueError("min_samples_per_link must be >= 2")


@dataclass(frozen=True)
class SearchParams:
    """Local-search schedule for Phases 1 and 2 (Sections IV-A, V-A3).

    Attributes:
        phase1_diversification_interval: iterations without improvement
            before Phase 1 restarts from a fresh random weight setting
            (paper: 100).
        phase1_diversifications: ``P1``, minimum number of diversifications
            whose improvements must all fall below ``improvement_cutoff``
            before Phase 1 stops (paper: 20).
        phase2_diversification_interval: Phase 2 counterpart (paper: 30).
        phase2_diversifications: ``P2`` (paper: 10).
        improvement_cutoff: the relative cost-improvement threshold ``c``
            (paper: 0.1 % = 0.001).
        arcs_per_iteration_fraction: fraction of arcs whose weights are
            perturbed during one local-search iteration; the paper sweeps
            all links each iteration (1.0).
        round_iteration_cap_factor: a diversification round is forcibly
            ended after ``interval * factor`` iterations even while small
            improvements keep trickling in (keeps the stop rule
            well-defined when the Phi landscape has long gentle slopes).
        max_iterations: global safety cap per phase so presets can bound
            wall-clock time.
    """

    phase1_diversification_interval: int = 100
    phase1_diversifications: int = 20
    phase2_diversification_interval: int = 30
    phase2_diversifications: int = 10
    improvement_cutoff: float = 0.001
    arcs_per_iteration_fraction: float = 1.0
    round_iteration_cap_factor: int = 10
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        for name in (
            "phase1_diversification_interval",
            "phase1_diversifications",
            "phase2_diversification_interval",
            "phase2_diversifications",
            "round_iteration_cap_factor",
            "max_iterations",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.improvement_cutoff < 0:
            raise ValueError("improvement_cutoff must be non-negative")
        if not 0 < self.arcs_per_iteration_fraction <= 1:
            raise ValueError("arcs_per_iteration_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class ExecutionParams:
    """How the cost oracle executes: fan-out and routing-cache knobs.

    These parameters never change *what* is computed — evaluations are
    bit-identical for every setting — only how fast it happens (see
    docs/PERFORMANCE.md).

    Attributes:
        n_jobs: local sweep hosts for scenario-sweep and normal-batch
            fan-out: N > 1 forks N host processes, each connected by a
            private socketpair (nothing listens on a port); 1 runs
            fully serial, 0 resolves to one host per available CPU.
        chunk_size: items per fan-out ticket; None cuts each host's
            shard into roughly four tickets.
        routing_cache: enable the incremental routing cache that reuses
            class routings across weight settings and scenarios (off by
            default: the routers already hold every NORMAL routing the
            search asks for again, rolled-back moves restore their
            routers' delta journals, and Phase-2 move trials reuse the
            incumbent's routing of every class their move provably
            cannot change, which leaves the cache nothing to answer).
        incremental_routing: answer single-arc weight moves and failure
            scenarios with the delta-rerouting core
            (:class:`repro.routing.incremental.IncrementalRouter`):
            only destinations the delta can affect are re-routed.
            Bit-identical to from-scratch routing; off switches every
            evaluation back to full recomputation (for A/B checks).
        routing_backend: kernel backend for routing propagations —
            ``"python"`` (per-destination pure-Python loops, fastest at
            backbone scale), ``"vector"`` (array-native destination
            batches, fastest on Rocketfuel-class instances) or
            ``"auto"`` (default: per-call choice from node/arc/
            destination counts; see ``repro.routing.backend``).
            Backends are bit-identical on integer-weight instances.
        sweep_batching: run scenario sweeps through the batch sweep
            engine (:mod:`repro.routing.sweep`): scenarios are grouped
            by structural footprint and their outstanding kernel work
            runs once per group instead of once per scenario.
            ``"auto"`` (default) batches every sweep of at least two
            scenarios, ``"off"`` keeps the per-scenario path.  Batching
            requires ``incremental_routing`` and a backend other than
            ``"python"``; either way results are bit-identical to the
            per-scenario path on integer-weight instances, and each
            sweep host batches its own slice the same way.
        max_retries: extra dispatch attempts per fan-out ticket after
            a host failure (crash, raise, timeout) before the ticket is
            quarantined to the serial in-process path; 0
            quarantines on first failure.  Like every execution knob
            this is cost-neutral: degraded tasks produce bit-identical
            results (see docs/RESILIENCE.md).
        retry_backoff: base seconds of exponential backoff between
            dispatch attempts (deterministic jitter; 0 retries
            immediately).
        task_timeout: per-ticket deadline in seconds; a ticket
            exceeding it counts as failed, and once the round has
            waited on every ticket, a host still holding one is
            retired as wedged (a local host is killed) and revived by
            pool recycling.  None disables.
        sweep_deadline: whole-sweep deadline in seconds; once
            exhausted the rest of the sweep degrades to the serial
            path so it still completes.  None disables.
        fault_plan: deterministic fault-injection plan
            (:class:`repro.core.faults.FaultPlan`) installed in the
            sweep hosts — chaos testing only; None (always, outside
            tests) injects nothing.
        hosts: remote sweep hosts, ``"host:port,host:port"``: running
            ``repro-exp serve-host`` servers reached over TCP (see
            :mod:`repro.core.distributed`).  Setting it fans sweeps out
            to those hosts in place of ``n_jobs`` local ones; same-box
            hosts are ``n_jobs``, so a host named ``local`` is refused.
            None (the default) uses no remote hosts.  Like every
            execution knob the host set never changes a computed bit,
            and it is excluded from checkpoint fingerprints so a run
            may resume under a different host set, or none.
    """

    n_jobs: int = 1
    chunk_size: int | None = None
    routing_cache: bool = False
    incremental_routing: bool = True
    routing_backend: str = "auto"
    sweep_batching: str = "auto"
    max_retries: int = 2
    retry_backoff: float = 0.05
    task_timeout: float | None = None
    sweep_deadline: float | None = None
    fault_plan: "object | None" = None
    hosts: str | None = None

    def __post_init__(self) -> None:
        if self.n_jobs < 0:
            raise ValueError("n_jobs must be >= 0 (0 = one per CPU)")
        if self.hosts is not None:
            parse_hosts(self.hosts)
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")
        validate_backend(self.routing_backend)
        validate_sweep_batching(self.sweep_batching)
        validate_resilience(
            self.max_retries,
            self.retry_backoff,
            self.task_timeout,
            self.sweep_deadline,
        )
        if self.fault_plan is not None:
            # Deferred import: repro.core pulls this module in during
            # its own initialization, and the default (None) plan —
            # every non-chaos construction — must not re-enter it.
            from repro.core.faults import FaultPlan

            if not isinstance(self.fault_plan, FaultPlan):
                raise ValueError(
                    "fault_plan must be a repro.core.faults.FaultPlan"
                )

    @property
    def resolved_jobs(self) -> int:
        """The effective worker count (``n_jobs=0`` means all CPUs)."""
        if self.n_jobs == 0:
            return os.cpu_count() or 1
        return self.n_jobs


@dataclass(frozen=True)
class OptimizerConfig:
    """Full configuration of the robust DTR optimizer.

    Bundles the four parameter groups plus the critical-set size target.

    Attributes:
        critical_fraction: ``|Ec| / |E|`` target for Phase 1c
            (paper default in Section V: 0.15).
        keep_acceptable_settings: how many acceptable weight settings from
            Phase 1 are retained as Phase 2 starting points.
        execution: parallelism and caching knobs (cost-neutral: they never
            change computed values).
    """

    delay: DelayModelParams = DelayModelParams()
    sla: SlaParams = SlaParams()
    weights: WeightParams = WeightParams()
    sampling: SamplingParams = SamplingParams()
    search: SearchParams = SearchParams()
    execution: ExecutionParams = ExecutionParams()
    critical_fraction: float = 0.15
    keep_acceptable_settings: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.critical_fraction <= 1:
            raise ValueError("critical_fraction must lie in (0, 1]")
        if self.keep_acceptable_settings < 1:
            raise ValueError("keep_acceptable_settings must be >= 1")

    def replace(self, **changes: object) -> "OptimizerConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)


PAPER_CONFIG = OptimizerConfig()
"""The configuration used throughout the paper's Section V."""
