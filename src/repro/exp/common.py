"""Shared experiment harness: instances, arms, and result rendering.

Every experiment module builds problem *instances* (topology + traffic)
via :func:`make_instance`, runs optimization *arms* (robust / regular /
baseline variants), and packages rows + figure series into an
:class:`ExperimentResult` that the benchmarks print and EXPERIMENTS.md
records.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.series import FigureData, render_series
from repro.analysis.tables import render_kv, render_table
from repro.config import OptimizerConfig
from repro.core.checkpoint import config_fingerprint
from repro.core.criticality import CriticalityEstimate
from repro.core.evaluation import (
    DtrEvaluator,
    ScenarioCosts,
    ScenarioEvaluation,
)
from repro.core.lexicographic import CostPair
from repro.core.local_search import RecordedSetting, SearchStats
from repro.core.optimizer import RobustDtrOptimizer, RobustRoutingResult
from repro.core.parallel import make_evaluator
from repro.core.resilience import global_stats
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import Phase2Result, RobustConstraints
from repro.core.sampling import CostSampleStore
from repro.core.selection import CriticalSelection
from repro.core.sla import SlaOutcome
from repro.core.weights import WeightSetting
from repro.routing.failures import NORMAL, FailureModel
from repro.routing.network import Network
from repro.scenarios.scenario import ScenarioSet
from repro.topology import (
    isp_topology,
    near_topology,
    powerlaw_topology,
    rand_topology,
    scale_to_diameter,
)
from repro.traffic import DtrTraffic, dtr_traffic, scale_to_utilization

#: Default SLA bound used by the paper (seconds).
DEFAULT_THETA = 0.025

#: Seed namespace separating topology/traffic/search randomness.
_TOPOLOGY_STREAM = 1
_TRAFFIC_STREAM = 2
_SEARCH_STREAM = 3


@dataclass(frozen=True)
class Instance:
    """One problem instance: a topology carrying scaled two-class traffic.

    Attributes:
        network: the topology (delays already scaled to the SLA bound).
        traffic: the two-class traffic, scaled to the target utilization.
        label: e.g. ``"RandTopo[30,180]"``.
        seed: the instance seed (controls topology and traffic draws).
    """

    network: Network
    traffic: DtrTraffic
    label: str
    seed: int


def instance_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one randomness stream of an instance."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def make_topology(
    kind: str,
    num_nodes: int,
    mean_degree: float,
    seed: int,
    theta: float = DEFAULT_THETA,
    diameter_fraction: float = 1.0,
) -> Network:
    """Build one of the paper's topology families, delay-scaled.

    Args:
        kind: ``"rand"``, ``"near"``, ``"pl"`` or ``"isp"``.
        num_nodes: node count (ignored for ``"isp"``).
        mean_degree: target mean degree (for ``"pl"`` the BA attachment
            count is ``round(mean_degree / 2)``; ignored for ``"isp"``).
        seed: topology randomness seed.
        theta: SLA bound the propagation diameter is scaled to.
        diameter_fraction: scale diameter to ``fraction * theta``.
    """
    rng = instance_rng(seed, _TOPOLOGY_STREAM)
    if kind == "rand":
        net = rand_topology(num_nodes, mean_degree, rng)
    elif kind == "near":
        net = near_topology(num_nodes, mean_degree, rng)
    elif kind == "pl":
        attachments = max(1, round(mean_degree / 2))
        net = powerlaw_topology(num_nodes, attachments, rng)
    elif kind == "isp":
        net = isp_topology()
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return scale_to_diameter(net, theta * diameter_fraction)


def make_instance(
    kind: str,
    num_nodes: int,
    mean_degree: float,
    seed: int,
    target_utilization: float = 0.43,
    utilization_statistic: str = "mean",
    theta: float = DEFAULT_THETA,
    delay_fraction: float = 0.3,
    diameter_fraction: float = 1.0,
) -> Instance:
    """Build a full problem instance (topology + scaled traffic)."""
    network = make_topology(
        kind, num_nodes, mean_degree, seed, theta, diameter_fraction
    )
    rng = instance_rng(seed, _TRAFFIC_STREAM)
    traffic = dtr_traffic(
        network.num_nodes, rng, 1.0, delay_fraction=delay_fraction
    )
    traffic = scale_to_utilization(
        network, traffic, target_utilization, utilization_statistic
    )
    label = f"{network.name}[{network.num_nodes},{network.num_arcs}]"
    return Instance(
        network=network, traffic=traffic, label=label, seed=seed
    )


# ----------------------------------------------------------------------
# arm sharding and artifact stores
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard of a deterministic arm partition.

    Arms are numbered by a per-experiment sequence counter; shard
    ``i/N`` (1-based on the command line) owns every arm whose sequence
    number satisfies ``seq % N == i - 1``.  The partition depends on
    nothing but call order, which every shard replays identically, so
    the split is deterministic and exhaustive.

    Attributes:
        index: 0-based shard index.
        count: total number of shards.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= self.index < self.count:
            raise ValueError("shard index out of range")

    @classmethod
    def parse(cls, spec: str) -> "ShardSpec":
        """Parse the CLI form ``"i/N"`` (1-based index)."""
        try:
            index_text, count_text = spec.split("/", 1)
            index, count = int(index_text), int(count_text)
        except ValueError:
            raise ValueError(
                f"invalid shard spec {spec!r}; expected i/N, e.g. 1/2"
            ) from None
        if not 1 <= index <= count:
            raise ValueError(
                f"shard index must lie in [1, {count}], got {index}"
            )
        return cls(index=index - 1, count=count)

    def owns(self, seq: int) -> bool:
        """Whether this shard computes arm ``seq``."""
        return seq % self.count == self.index


@dataclass
class ArmControl:
    """Per-run arm orchestration: sharding, artifacts, checkpoints.

    Installed (via :func:`set_arm_control`) around an experiment run by
    the CLI; :func:`run_arms` consults it to decide, per arm, whether to
    load a stored artifact, compute (with optional checkpointing), or
    defer to another shard.

    Attributes:
        shard: the partition this process computes (None = all arms).
        store: directory of per-arm result artifacts; present artifacts
            are loaded instead of recomputed, computed arms are saved
            (atomically), so a merge run over a populated store rebuilds
            the full table without optimizing anything.
        checkpoint_dir: directory for per-arm optimizer checkpoints.
        resume: resume each arm from its checkpoint when present.
        checkpoint_every: boundaries between periodic checkpoint writes.
        interrupt_after: testing hook forwarded to the optimizer.
        namespace: key prefix, normally the experiment id.
    """

    shard: ShardSpec | None = None
    store: Path | None = None
    checkpoint_dir: Path | None = None
    resume: bool = False
    checkpoint_every: int = 25
    interrupt_after: int | None = None
    namespace: str = "exp"
    #: Arm keys by outcome, for reporting (and CI assertions).
    computed: list[str] = field(default_factory=list)
    loaded: list[str] = field(default_factory=list)
    deferred: list[str] = field(default_factory=list)
    #: Arm keys whose sweeps degraded to the serial path (quarantine or
    #: deadline) — results are still bit-identical, but the operator
    #: should know which arms ran in failure-recovery mode.
    degraded: list[str] = field(default_factory=list)
    _seq: int = 0

    def next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def reset(self, namespace: str) -> None:
        """Start a new experiment's arm sequence."""
        self.namespace = namespace
        self._seq = 0


#: The active arm control, or None for plain in-process computation.
_ARM_CONTROL: ArmControl | None = None


def set_arm_control(control: ArmControl | None) -> ArmControl | None:
    """Install (or clear) the active arm control; returns the previous."""
    global _ARM_CONTROL
    previous = _ARM_CONTROL
    _ARM_CONTROL = control
    return previous


def _arm_key(
    control: ArmControl,
    seq: int,
    instance: Instance,
    config: OptimizerConfig,
    seed: int,
    critical_fraction: float | None,
    full_search: bool,
    scenarios: "ScenarioSet | None",
) -> str:
    """Stable identity of one arm: sequence plus a content hash.

    The hash covers everything that changes the computed result —
    instance identity, seeds, search configuration (via
    :func:`~repro.core.checkpoint.config_fingerprint`, which excludes
    the execution block so ``--jobs`` does not split stores) and the
    scenario set — so artifacts from a run with different parameters
    can never be silently merged.
    """
    content = hashlib.sha1()
    content.update(
        repr(
            (
                instance.label,
                instance.seed,
                seed,
                critical_fraction,
                full_search,
                scenarios.digest if scenarios is not None else None,
            )
        ).encode()
    )
    content.update(
        config_fingerprint(
            config,
            critical_fraction=critical_fraction,
            full_search=full_search,
        ).encode()
    )
    return f"{control.namespace}-{seq:03d}-{content.hexdigest()[:12]}"


def _deferred_stub(instance: Instance) -> RobustRoutingResult:
    """A placeholder result for an arm another shard owns.

    Carries uniform weights and zeroed costs so downstream rendering
    code runs without optimizing anything; ``deferred=True`` marks it.
    Merge runs never see stubs — they load the owning shard's artifact.
    """
    num_arcs = instance.network.num_arcs
    num_nodes = instance.network.num_nodes
    setting = WeightSetting.uniform(num_arcs)
    zeros = np.zeros(num_arcs)
    evaluation = ScenarioEvaluation(
        scenario=NORMAL,
        cost=CostPair(0.0, 0.0),
        sla=SlaOutcome(0.0, 0, 0, 0),
        loads_delay=zeros,
        loads_tput=zeros,
        arc_delay=zeros,
        pair_delays=np.zeros((num_nodes, num_nodes)),
        utilization=zeros,
    )
    phase1 = Phase1Result(
        best_setting=setting,
        best_cost=CostPair(0.0, 0.0),
        best_evaluation=evaluation,
        pool=(RecordedSetting(setting.copy(), CostPair(0.0, 0.0)),),
        store=CostSampleStore(num_arcs),
        estimate=CriticalityEstimate(
            rho_lam=zeros,
            rho_phi=zeros,
            tail_lam=zeros,
            tail_phi=zeros,
            sample_counts=np.zeros(num_arcs, dtype=int),
        ),
        selection=CriticalSelection((), 0, 0, 0.0, 0.0),
        stats=SearchStats(),
        extra_samples=0,
        rank_converged=True,
    )
    phase2 = Phase2Result(
        best_setting=setting.copy(),
        best_kfail=CostPair(0.0, 0.0),
        normal_cost=CostPair(0.0, 0.0),
        failure_evaluation=ScenarioCosts(()),
        constraints=RobustConstraints(0.0, 0.0, 0.0),
        stats=SearchStats(),
    )
    empty = ScenarioSet(())
    return RobustRoutingResult(
        phase1=phase1,
        phase2=phase2,
        critical_failures=empty,
        all_failures=empty,
        phase1_seconds=0.0,
        phase2_seconds=0.0,
        deferred=True,
    )


def _save_artifact(path: Path, result: RobustRoutingResult) -> None:
    """Write one arm artifact atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run_arms(
    instance: Instance,
    config: OptimizerConfig,
    seed: int,
    critical_fraction: float | None = None,
    full_search: bool = False,
    scenarios: "ScenarioSet | None" = None,
) -> RobustRoutingResult:
    """Run the two-phase optimizer on an instance (robust + regular arms).

    The optimizer's worker pool (if ``config.execution`` requests one) is
    torn down before returning so repeated arms don't accumulate pools.

    With an :class:`ArmControl` installed the call additionally takes
    part in the sharded/stored execution protocol: a stored artifact is
    loaded instead of recomputed, arms owned by other shards return a
    deferred stub, and computed arms checkpoint/resume through the
    optimizer and save their result artifact.  Results are bit-identical
    to the plain path — the control only decides *where* an arm runs.

    Args:
        instance: the problem instance.
        config: optimizer configuration.
        seed: search seed.
        critical_fraction: override the configured ``|Ec| / |E|``.
        full_search: optimize over all single failures (no restriction).
        scenarios: optimize robustness against this explicit
            :class:`~repro.scenarios.ScenarioSet` instead of the paper's
            single-link enumeration.
    """
    control = _ARM_CONTROL
    key = None
    if control is not None:
        seq = control.next_seq()
        key = _arm_key(
            control,
            seq,
            instance,
            config,
            seed,
            critical_fraction,
            full_search,
            scenarios,
        )
        if control.store is not None:
            artifact = control.store / f"{key}.pkl"
            if artifact.exists():
                with open(artifact, "rb") as handle:
                    result = pickle.load(handle)
                control.loaded.append(key)
                return result
        if control.shard is not None and not control.shard.owns(seq):
            control.deferred.append(key)
            return _deferred_stub(instance)

    rng = instance_rng(seed, _SEARCH_STREAM)
    optimizer = RobustDtrOptimizer(
        instance.network,
        instance.traffic,
        config,
        failure_model=FailureModel.LINK,
        rng=rng,
        scenarios=scenarios,
    )
    run_kwargs: dict[str, object] = {}
    if control is not None and control.checkpoint_dir is not None:
        checkpoint = control.checkpoint_dir / f"{key}.ckpt"
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        run_kwargs["checkpoint"] = checkpoint
        run_kwargs["checkpoint_every"] = control.checkpoint_every
        if control.resume:
            run_kwargs["resume_from"] = checkpoint
        if control.interrupt_after is not None:
            run_kwargs["interrupt_after"] = control.interrupt_after
    stats_before = global_stats()
    try:
        result = optimizer.run(
            critical_fraction=critical_fraction,
            full_search=full_search,
            **run_kwargs,
        )
    finally:
        optimizer.close()
    if control is not None:
        if control.store is not None:
            _save_artifact(control.store / f"{key}.pkl", result)
        control.computed.append(key)
        stats_after = global_stats()
        if (
            stats_after.quarantined_tasks > stats_before.quarantined_tasks
            or stats_after.deadline_degraded_tasks
            > stats_before.deadline_degraded_tasks
        ):
            control.degraded.append(key)
    return result


def evaluator_for(
    instance: Instance, config: OptimizerConfig
) -> DtrEvaluator:
    """A fresh cost oracle for an instance.

    Honors ``config.execution``: a parallel or caching evaluator is
    returned when configured (bit-identical results either way).
    """
    return make_evaluator(instance.network, instance.traffic, config)


@dataclass
class ExperimentResult:
    """Everything one experiment produced.

    Attributes:
        experiment_id: e.g. ``"table2"``.
        title: one-line description.
        preset: the preset name used.
        rows: table rows (dicts), ready for ``render_table``.
        figures: figure panels (sorted numeric series).
        context: run parameters worth recording.
    """

    experiment_id: str
    title: str
    preset: str
    rows: list[dict[str, object]] = field(default_factory=list)
    figures: list[FigureData] = field(default_factory=list)
    context: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Render the full experiment output as text."""
        parts = [f"== {self.experiment_id}: {self.title} "
                 f"(preset={self.preset}) =="]
        if self.context:
            parts.append(render_kv(self.context, "parameters:"))
        if self.rows:
            parts.append(render_table(self.rows))
        for figure in self.figures:
            parts.append(render_series(figure))
        return "\n\n".join(parts)

