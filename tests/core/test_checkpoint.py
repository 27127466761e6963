"""Checkpoint/resume: roundtrip, bit-parity, and compatibility gates.

The headline invariant under test: interrupt an optimization anywhere,
resume from the checkpoint, and the final weights and costs are
bit-identical to a run that was never interrupted.
"""

from __future__ import annotations

import dataclasses
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import ExecutionParams
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointMismatchError,
    OptimizerCheckpoint,
    OptimizerInterrupted,
    config_fingerprint,
    load_checkpoint,
    resolve_resume,
    save_checkpoint,
)
from repro.core.optimizer import RobustDtrOptimizer
from repro.scenarios.generators import legacy_failures, srlg_failures


def make_optimizer(small_instance, tiny_config, seed=42, scenarios=None):
    network, traffic = small_instance
    return RobustDtrOptimizer(
        network,
        traffic,
        tiny_config,
        rng=np.random.default_rng(seed),
        scenarios=scenarios,
    )


def meta_for(optimizer, **kwargs):
    failures = legacy_failures(
        optimizer.evaluator.network, optimizer._failure_model
    )
    return optimizer._checkpoint_meta(
        failures,
        kwargs.get("critical_fraction"),
        kwargs.get("full_search", False),
    )


# ----------------------------------------------------------------------
# roundtrip
# ----------------------------------------------------------------------
def test_checkpoint_roundtrip(tmp_path, small_instance, tiny_config):
    optimizer = make_optimizer(small_instance, tiny_config)
    meta = meta_for(optimizer)
    path = tmp_path / "ck.pkl"
    rng = np.random.default_rng(7)
    payload = {
        "stage": "phase2",
        "rng_state": rng.bit_generator.state,
        "marker": 123,
    }
    manager = CheckpointManager(path, meta, every=1)
    manager.write("phase2", payload)
    loaded = load_checkpoint(path)
    assert loaded.meta.stage == "phase2"
    assert loaded.payload["marker"] == 123
    restored = np.random.default_rng(0)
    restored.bit_generator.state = loaded.payload["rng_state"]
    assert restored.random() == np.random.default_rng(7).random()


def test_checkpoint_readable_in_fresh_subprocess(
    tmp_path, small_instance, tiny_config
):
    """Checkpoints must not depend on in-process state: a brand-new
    interpreter must load them and see identical digests + RNG state."""
    optimizer = make_optimizer(small_instance, tiny_config)
    meta = meta_for(optimizer)
    path = tmp_path / "ck.pkl"
    rng = np.random.default_rng(99)
    expected_draw = np.random.default_rng(99).random()
    CheckpointManager(path, meta, every=1).write(
        "phase1a", {"stage": "phase1a", "rng_state": rng.bit_generator.state}
    )
    code = (
        "import sys, numpy as np\n"
        "from repro.core.checkpoint import load_checkpoint\n"
        f"ck = load_checkpoint({str(path)!r})\n"
        f"assert ck.meta.scenario_digest == {meta.scenario_digest!r}\n"
        f"assert ck.meta.config_fingerprint == {meta.config_fingerprint!r}\n"
        "rng = np.random.default_rng(0)\n"
        "rng.bit_generator.state = ck.payload['rng_state']\n"
        f"assert rng.random() == {expected_draw!r}\n"
        "print('subprocess ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parents[2]),
        env={
            "PYTHONPATH": str(
                Path(__file__).resolve().parents[2] / "src"
            ),
            "PATH": "/usr/bin:/bin",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "subprocess ok" in proc.stdout


def test_atomic_write_leaves_no_temp_files(
    tmp_path, small_instance, tiny_config
):
    optimizer = make_optimizer(small_instance, tiny_config)
    meta = meta_for(optimizer)
    path = tmp_path / "ck.pkl"
    manager = CheckpointManager(path, meta, every=1)
    for tick in range(3):
        manager.write("phase1a", {"stage": "phase1a", "tick": tick})
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []
    assert load_checkpoint(path).payload["tick"] == 2


# ----------------------------------------------------------------------
# resume == uninterrupted, bitwise
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("interrupt_after", [3, 12, 25])
def test_resume_matches_uninterrupted_bitwise(
    tmp_path, small_instance, tiny_config, interrupt_after
):
    """Interrupt at several depths (Phase 1a, Phase 1b/2 boundary, deep
    Phase 2); every resume must reproduce the uninterrupted result
    exactly — same weight bits, same costs, same evaluation counts."""
    reference = make_optimizer(small_instance, tiny_config).run()

    path = tmp_path / f"ck{interrupt_after}.pkl"
    optimizer = make_optimizer(small_instance, tiny_config)
    with pytest.raises(OptimizerInterrupted):
        optimizer.run(
            checkpoint=path,
            checkpoint_every=2,
            interrupt_after=interrupt_after,
        )
    assert path.exists()

    resumed = make_optimizer(small_instance, tiny_config, seed=0).run(
        checkpoint=path, resume_from=path, checkpoint_every=2
    )
    assert np.array_equal(
        resumed.robust_setting.delay, reference.robust_setting.delay
    )
    assert np.array_equal(
        resumed.robust_setting.tput, reference.robust_setting.tput
    )
    assert np.array_equal(
        resumed.regular_setting.delay, reference.regular_setting.delay
    )
    assert resumed.phase2.best_kfail == reference.phase2.best_kfail
    assert resumed.phase1.best_cost == reference.phase1.best_cost
    assert (
        resumed.phase2.stats.evaluations
        == reference.phase2.stats.evaluations
    )


@pytest.mark.slow
def test_double_interrupt_then_resume(tmp_path, small_instance, tiny_config):
    """Two successive interrupts (the second resuming the first) still
    land on the uninterrupted result."""
    reference = make_optimizer(small_instance, tiny_config).run()
    path = tmp_path / "ck.pkl"

    optimizer = make_optimizer(small_instance, tiny_config)
    with pytest.raises(OptimizerInterrupted):
        optimizer.run(checkpoint=path, checkpoint_every=2, interrupt_after=5)

    optimizer = make_optimizer(small_instance, tiny_config, seed=0)
    with pytest.raises(OptimizerInterrupted):
        optimizer.run(
            checkpoint=path,
            resume_from=path,
            checkpoint_every=2,
            interrupt_after=8,
        )

    resumed = make_optimizer(small_instance, tiny_config, seed=0).run(
        checkpoint=path, resume_from=path, checkpoint_every=2
    )
    assert np.array_equal(
        resumed.robust_setting.delay, reference.robust_setting.delay
    )
    assert np.array_equal(
        resumed.robust_setting.tput, reference.robust_setting.tput
    )
    assert resumed.phase2.best_kfail == reference.phase2.best_kfail


@pytest.mark.slow
def test_done_checkpoint_short_circuits(
    tmp_path, small_instance, tiny_config
):
    """A completed run's checkpoint stores the result; resuming returns
    it without recomputation (the RNG is untouched as witness)."""
    path = tmp_path / "ck.pkl"
    first = make_optimizer(small_instance, tiny_config).run(checkpoint=path)
    optimizer = make_optimizer(small_instance, tiny_config, seed=0)
    untouched = optimizer._rng.bit_generator.state
    again = optimizer.run(checkpoint=path, resume_from=path)
    assert again.phase2.best_kfail == first.phase2.best_kfail
    assert optimizer._rng.bit_generator.state == untouched


def test_missing_resume_file_starts_fresh(
    tmp_path, small_instance, tiny_config
):
    optimizer = make_optimizer(small_instance, tiny_config)
    meta = meta_for(optimizer)
    assert resolve_resume(tmp_path / "absent.pkl", meta) is None


# ----------------------------------------------------------------------
# compatibility gates
# ----------------------------------------------------------------------
def _write_checkpoint(path, optimizer):
    meta = meta_for(optimizer)
    CheckpointManager(path, meta, every=1).write(
        "phase1a", {"stage": "phase1a"}
    )
    return meta


def test_resume_refuses_different_scenarios(
    tmp_path, small_instance, tiny_config
):
    path = tmp_path / "ck.pkl"
    _write_checkpoint(path, make_optimizer(small_instance, tiny_config))
    network = small_instance[0]
    other = make_optimizer(
        small_instance,
        tiny_config,
        scenarios=srlg_failures(network, num_groups=3, seed=3),
    )
    meta = other._checkpoint_meta(other._scenarios, None, False)
    with pytest.raises(CheckpointMismatchError, match="scenario_digest"):
        resolve_resume(path, meta)


def test_resume_refuses_different_config(
    tmp_path, small_instance, tiny_config
):
    path = tmp_path / "ck.pkl"
    _write_checkpoint(path, make_optimizer(small_instance, tiny_config))
    changed = tiny_config.replace(
        search=dataclasses.replace(tiny_config.search, max_iterations=99)
    )
    other = make_optimizer(small_instance, changed)
    with pytest.raises(CheckpointMismatchError, match="config_fingerprint"):
        resolve_resume(path, meta_for(other))


def test_resume_refuses_different_execution(
    tmp_path, small_instance, tiny_config
):
    """Execution knobs are fingerprinted separately: results are
    bit-identical across engines, but counters and pool state are not,
    so resuming across an execution change is refused loudly."""
    path = tmp_path / "ck.pkl"
    _write_checkpoint(path, make_optimizer(small_instance, tiny_config))
    changed = tiny_config.replace(
        execution=dataclasses.replace(tiny_config.execution, n_jobs=2)
    )
    other = make_optimizer(small_instance, changed)
    with pytest.raises(
        CheckpointMismatchError, match="execution_fingerprint"
    ):
        resolve_resume(path, meta_for(other))


def test_resume_accepts_any_host_set(tmp_path, small_instance, tiny_config):
    """A checkpoint written with ``--hosts`` resumes on one box without
    hosts: the host set never changes a computed bit."""
    path = tmp_path / "ck.pkl"
    hosts = make_optimizer(
        small_instance,
        tiny_config.replace(
            execution=ExecutionParams(
                hosts="127.0.0.1:7777,127.0.0.1:7778"
            )
        ),
    )
    single = make_optimizer(
        small_instance, tiny_config.replace(execution=ExecutionParams())
    )
    try:
        _write_checkpoint(path, hosts)
        resumed = resolve_resume(path, meta_for(single))
    finally:
        hosts.close()
        single.close()
    assert resumed["stage"] == "phase1a"


def test_config_fingerprint_ignores_execution(tiny_config):
    """The search fingerprint must NOT change with execution knobs —
    arm artifacts from ``--jobs 2`` and serial runs are the same arm."""
    parallel = tiny_config.replace(
        execution=dataclasses.replace(tiny_config.execution, n_jobs=4)
    )
    assert config_fingerprint(tiny_config) == config_fingerprint(parallel)
    changed = tiny_config.replace(
        search=dataclasses.replace(tiny_config.search, max_iterations=31)
    )
    assert config_fingerprint(tiny_config) != config_fingerprint(changed)


def test_version_gate(tmp_path, small_instance, tiny_config):
    optimizer = make_optimizer(small_instance, tiny_config)
    meta = meta_for(optimizer)
    bad = dataclasses.replace(meta, version=999, stage="phase1a")
    path = tmp_path / "ck.pkl"
    save_checkpoint(path, OptimizerCheckpoint(bad, {"stage": "phase1a"}))
    with pytest.raises(CheckpointMismatchError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_undecodable_checkpoint_fails_closed(
    tmp_path, small_instance, tiny_config, damage
):
    """A torn or foreign file raises CheckpointError naming the path,
    not whatever the unpickler raised, also through resolve_resume."""
    optimizer = make_optimizer(small_instance, tiny_config)
    meta = meta_for(optimizer)
    path = tmp_path / "ck.pkl"
    CheckpointManager(path, meta, every=1).write(
        "phase1a", {"stage": "phase1a", "tick": 0}
    )
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[: len(data) // 2])
    else:
        path.write_bytes(b"\x80\x05 not a checkpoint \xff" * 8)
    for load in (load_checkpoint, lambda p: resolve_resume(p, meta)):
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load(path)


# ----------------------------------------------------------------------
# signals
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_real_sigterm_is_caught_and_checkpointed(
    tmp_path, small_instance, tiny_config
):
    """The interrupt_after hook delivers a *real* SIGTERM through the
    installed handler; previous handlers are restored afterwards."""
    previous = signal.getsignal(signal.SIGTERM)
    path = tmp_path / "ck.pkl"
    optimizer = make_optimizer(small_instance, tiny_config)
    with pytest.raises(OptimizerInterrupted) as excinfo:
        optimizer.run(checkpoint=path, checkpoint_every=3, interrupt_after=4)
    assert Path(excinfo.value.path) == path
    assert path.exists()
    assert signal.getsignal(signal.SIGTERM) == previous


def test_interrupt_after_requires_checkpoint(small_instance, tiny_config):
    optimizer = make_optimizer(small_instance, tiny_config)
    with pytest.raises(ValueError, match="interrupt_after"):
        optimizer.run(interrupt_after=3)
