"""Checkpoint/resume for the two-phase optimizer.

Rocketfuel-scale Phase-2 runs are hours long; an interruption used to
mean recomputing the world.  :class:`CheckpointManager` snapshots the
full optimizer state at safe loop boundaries — incumbent weights, the
acceptable pool, the sampling store, phase/iteration counters and the
generator's ``bit_generator`` state — so an interrupted run restarts
from the last boundary and finishes with **bit-identical** final weights
and costs (pinned by ``tests/core/test_checkpoint.py`` and the CI
resume-smoke job).

The invariant holds because checkpoints are only taken at outer-loop
iteration boundaries, where the search state is exactly the loop locals
plus the RNG state: restoring both and re-entering the loop replays the
identical draw/evaluate sequence.  Evaluations that exist only as reuse
hints (the incumbent's NORMAL evaluation) are recomputed on restore —
re-evaluation is bit-identical by the repo's evaluator-parity invariant,
so nothing downstream can diverge.

Compatibility is enforced, not assumed: every checkpoint records the
:class:`~repro.scenarios.ScenarioSet` digest, an
:class:`~repro.config.ExecutionParams` fingerprint, the result-affecting
config fingerprint and the instance (network + traffic) fingerprint.  A
resume whose run does not match **every** field raises
:class:`CheckpointMismatchError` instead of silently computing something
else.

Writes are atomic (temp file + ``os.replace`` in the target directory)
and happen every ``every`` boundaries, plus once more at the next
boundary after a SIGINT/SIGTERM — the handler only sets a flag, the
loop writes the snapshot and raises :class:`OptimizerInterrupted`, so a
kill can never tear a half-written state file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import signal
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.config import ExecutionParams, OptimizerConfig
from repro.routing.network import Network
from repro.traffic.gravity import DtrTraffic

#: On-disk checkpoint format version; bumped on incompatible layout
#: changes so stale files are refused instead of mis-unpickled.
CHECKPOINT_VERSION = 1

#: Default checkpoint period, in outer-loop iteration boundaries.
DEFAULT_CHECKPOINT_EVERY = 25

#: Stages a checkpoint can capture, in pipeline order.
STAGES = ("phase1a", "phase1b", "phase2", "done")


class CheckpointError(RuntimeError):
    """A checkpoint file could not be read or used."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different run configuration.

    Raised instead of silently resuming: the stored scenario digest,
    execution fingerprint, config fingerprint or instance fingerprint
    does not match the resuming run.  Re-run with the original flags, or
    delete the checkpoint to start fresh.
    """


class OptimizerInterrupted(RuntimeError):
    """The run stopped at a boundary after SIGINT/SIGTERM.

    Attributes:
        path: the checkpoint file holding the resumable state.
    """

    def __init__(self, path: "str | Path") -> None:
        super().__init__(
            f"optimizer interrupted; resumable checkpoint at {path}"
        )
        self.path = Path(path)


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def config_fingerprint(
    config: OptimizerConfig,
    failure_model: object = None,
    critical_fraction: "float | None" = None,
    full_search: bool = False,
) -> str:
    """Fingerprint of everything result-affecting about a run's config.

    Covers every config block except ``execution`` (fingerprinted
    separately) plus the run arguments that select the search target:
    the failure model, the critical-fraction override and the
    full-search flag.  Frozen-dataclass ``repr`` is deterministic, so
    the digest is process-stable.
    """
    parts = [
        repr(config.delay),
        repr(config.sla),
        repr(config.weights),
        repr(config.sampling),
        repr(config.search),
        repr(config.critical_fraction),
        repr(config.keep_acceptable_settings),
        repr(getattr(failure_model, "value", failure_model)),
        repr(critical_fraction),
        repr(full_search),
    ]
    return _sha1("|".join(parts))


#: Execution knobs excluded from the resume-compatibility fingerprint:
#: the resilience layer (retry budgets, deadlines, chaos plans) never
#: changes computed values, and the canonical recovery from a crashed
#: run is precisely "resume with *different* retry knobs".  The ``hosts``
#: spec is excluded for the same reason — a sweep is bit-identical under
#: any host set, and resuming a cluster run on different (or fewer)
#: machines, or on one box without hosts, must not be refused.
_RESILIENCE_KNOBS = frozenset(
    {
        "max_retries",
        "retry_backoff",
        "task_timeout",
        "sweep_deadline",
        "fault_plan",
        "hosts",
    }
)


def execution_fingerprint(execution: ExecutionParams) -> str:
    """Fingerprint of the execution knobs (``repr`` is deterministic).

    Resilience knobs are excluded (see :data:`_RESILIENCE_KNOBS`), so a
    run that crashed or degraded can be resumed under a stricter — or
    laxer — retry policy without tripping the compatibility check.
    """
    parts = [
        f"{f.name}={getattr(execution, f.name)!r}"
        for f in dataclasses.fields(execution)
        if f.name not in _RESILIENCE_KNOBS
    ]
    return _sha1("|".join(parts))


def instance_fingerprint(network: Network, traffic: DtrTraffic) -> str:
    """Content fingerprint of one problem instance (topology + traffic).

    Hashes the arc list (endpoints, capacities, propagation delays) and
    both demand matrices byte-exactly, so two runs resume-compatible by
    this fingerprint evaluate identical floats.
    """
    h = hashlib.sha1()
    h.update(f"{network.name}|{network.num_nodes}".encode())
    for arc in network.arcs:
        h.update(
            f"{arc.src}|{arc.dst}|{arc.capacity!r}|{arc.prop_delay!r}"
            .encode()
        )
    h.update(traffic.delay.values.tobytes())
    h.update(traffic.throughput.values.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class CheckpointMeta:
    """Identity header every checkpoint carries.

    Attributes:
        version: on-disk format version.
        stage: pipeline stage the payload captures (one of
            :data:`STAGES`).
        ticks: boundary counter at the time of the write (monotonic
            across stages; diagnostic only).
        scenario_digest: digest of the run's full scenario set.
        config_fingerprint: result-affecting config + run-args digest.
        execution_fingerprint: :class:`ExecutionParams` digest.
        instance_fingerprint: network + traffic content digest.
    """

    version: int
    stage: str
    ticks: int
    scenario_digest: str
    config_fingerprint: str
    execution_fingerprint: str
    instance_fingerprint: str

    def compatible_with(self, other: "CheckpointMeta") -> "list[str]":
        """Field names (besides stage/ticks) that differ from ``other``."""
        mismatched = []
        for name in (
            "version",
            "scenario_digest",
            "config_fingerprint",
            "execution_fingerprint",
            "instance_fingerprint",
        ):
            if getattr(self, name) != getattr(other, name):
                mismatched.append(name)
        return mismatched


@dataclass(frozen=True)
class OptimizerCheckpoint:
    """One snapshot: identity header plus the stage's pickled state."""

    meta: CheckpointMeta
    payload: dict


def save_checkpoint(
    path: "str | Path", checkpoint: OptimizerCheckpoint
) -> None:
    """Atomically write a checkpoint (temp file + rename, same dir)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path: "str | Path") -> OptimizerCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` naming ``path`` on a file that
    cannot be read and on one that does not decode (whatever
    ``pickle.load`` raised: a truncated write, foreign bytes), so a bad
    file stops a resume with a checkpoint error instead of a raw
    unpickling exception.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    except Exception as exc:  # noqa: BLE001 - any decode failure
        raise CheckpointError(
            f"cannot decode checkpoint {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(checkpoint, OptimizerCheckpoint):
        raise CheckpointError(f"{path} is not an optimizer checkpoint")
    if checkpoint.meta.version != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint {path} has format version "
            f"{checkpoint.meta.version}, expected {CHECKPOINT_VERSION}"
        )
    return checkpoint


class CheckpointManager:
    """Periodic + signal-driven checkpointing for one optimizer run.

    The optimizer calls :meth:`tick` at every safe boundary with the
    current stage name and a zero-argument callable producing the
    stage's state dict.  The manager writes a checkpoint every ``every``
    boundaries, and at the first boundary after a SIGINT/SIGTERM — then
    raises :class:`OptimizerInterrupted` so the run unwinds cleanly
    (worker pools shut down through the normal ``finally`` paths).

    Used as a context manager around the run: ``__enter__`` installs the
    signal handlers (main thread only; elsewhere signal-driven stops are
    simply unavailable), ``__exit__`` restores the previous handlers.

    Args:
        path: checkpoint file location.
        meta: identity header (stage/ticks fields are overwritten per
            write).
        every: boundaries between periodic writes.
        interrupt_after: testing/CI hook — deliver a real SIGTERM to
            this process at the Nth boundary, exercising the genuine
            signal path deterministically ("kill mid-iteration" without
            wall-clock races).
    """

    def __init__(
        self,
        path: "str | Path",
        meta: CheckpointMeta,
        every: int = DEFAULT_CHECKPOINT_EVERY,
        interrupt_after: "int | None" = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if interrupt_after is not None and interrupt_after < 1:
            raise ValueError("interrupt_after must be >= 1 when given")
        self._path = Path(path)
        self._meta = meta
        self._every = every
        self._interrupt_after = interrupt_after
        self._kill_sent = False
        self._ticks = 0
        self._writes = 0
        self._interrupted = False
        self._previous: dict[int, object] = {}

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The checkpoint file location."""
        return self._path

    @property
    def ticks(self) -> int:
        """Boundaries seen so far."""
        return self._ticks

    @property
    def writes(self) -> int:
        """Checkpoints written so far."""
        return self._writes

    @property
    def interrupted(self) -> bool:
        """Whether a stop signal is pending."""
        return self._interrupted

    # ------------------------------------------------------------------
    def _handle_signal(self, signum: int, frame: object) -> None:
        del frame
        self._interrupted = True

    def install(self) -> None:
        """Install SIGINT/SIGTERM handlers (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(
                    signum, self._handle_signal
                )
            except (ValueError, OSError):  # pragma: no cover
                pass

    def uninstall(self) -> None:
        """Restore the handlers saved by :meth:`install`."""
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()

    def __enter__(self) -> "CheckpointManager":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def tick(
        self, stage: str, payload_fn: Callable[[], dict]
    ) -> None:
        """One safe boundary: write if due, raise if interrupted.

        ``payload_fn`` is only called when a write actually happens, so
        the per-boundary cost of an idle manager is a counter bump.
        """
        self._ticks += 1
        if (
            self._interrupt_after is not None
            and not self._kill_sent
            and self._ticks >= self._interrupt_after
        ):
            # A real signal, delivered to ourselves: the handler and the
            # unwind below run exactly as they would under an external
            # kill, minus the wall-clock race.
            self._kill_sent = True
            os.kill(os.getpid(), signal.SIGTERM)
            if not self._previous:
                # No handler installed (non-main thread): the flag is
                # the best we can do.
                self._interrupted = True
        due = self._interrupted or (self._ticks % self._every == 0)
        if not due:
            return
        self.write(stage, payload_fn())
        if self._interrupted:
            raise OptimizerInterrupted(self._path)

    def write(self, stage: str, payload: dict) -> None:
        """Write one checkpoint unconditionally (atomic)."""
        if stage not in STAGES:
            raise ValueError(f"unknown checkpoint stage {stage!r}")
        meta = CheckpointMeta(
            version=self._meta.version,
            stage=stage,
            ticks=self._ticks,
            scenario_digest=self._meta.scenario_digest,
            config_fingerprint=self._meta.config_fingerprint,
            execution_fingerprint=self._meta.execution_fingerprint,
            instance_fingerprint=self._meta.instance_fingerprint,
        )
        save_checkpoint(self._path, OptimizerCheckpoint(meta, payload))
        self._writes += 1

    def finalize(self, result: object) -> None:
        """Record the finished run (stage ``"done"``).

        Resuming from a done checkpoint returns the stored result
        without recomputing anything, which makes re-running a completed
        shard idempotent.
        """
        self.write("done", {"stage": "done", "result": result})


def resolve_resume(
    path: "str | Path | None", meta: CheckpointMeta
) -> "dict | None":
    """Load and validate a resume payload, or None to start fresh.

    A missing file is not an error — ``--resume`` on the first run of a
    pipeline simply starts from scratch.  An existing checkpoint must
    match ``meta`` on every identity field or
    :class:`CheckpointMismatchError` is raised.

    Returns:
        The checkpoint payload dict (its ``"stage"`` key states where to
        re-enter), or None when there is nothing to resume.
    """
    if path is None:
        return None
    path = Path(path)
    if not path.exists():
        return None
    checkpoint = load_checkpoint(path)
    mismatched = checkpoint.meta.compatible_with(meta)
    if mismatched:
        details = ", ".join(
            f"{name}: checkpoint={getattr(checkpoint.meta, name)!r} "
            f"run={getattr(meta, name)!r}"
            for name in mismatched
        )
        raise CheckpointMismatchError(
            f"checkpoint {path} belongs to a different run ({details}); "
            "re-run with the original flags or delete the checkpoint"
        )
    return checkpoint.payload
