"""Command-line experiment runner.

Usage::

    repro-exp --list
    repro-exp table2 --preset quick --seed 0
    repro-exp table2 --preset quick --jobs 4
    repro-exp scenarios --scenarios srlg,multi2,linkxsurge
    repro-exp serve-host --bind 0.0.0.0 --port 7777
    repro-exp table2 --hosts alpha:7777,beta:7777
    repro-exp all --preset default

Each experiment prints the table rows and figure series the corresponding
paper artifact reports.  ``--jobs N`` fans scenario sweeps out across
N forked local sweep hosts (0 = one per CPU) and ``--hosts`` across
running ``serve-host`` servers; results are bit-identical to serial
runs.  ``--scenarios`` selects the composed scenario families of the
``scenarios`` experiment (see :mod:`repro.scenarios.generators`).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
import time
from pathlib import Path
from typing import Callable

from repro.core.checkpoint import OptimizerInterrupted
from repro.core.resilience import global_stats, reset_global_stats
from repro.exp.common import (
    ArmControl,
    ExperimentResult,
    ShardSpec,
    set_arm_control,
)
from repro.exp.presets import Preset, get_preset
from repro.routing.backend import VALID_BACKENDS, VALID_SWEEP_BATCHING

#: Exit code of a run stopped by SIGINT/SIGTERM after writing its
#: checkpoint (EX_TEMPFAIL: rerun with ``--resume`` to continue).
EXIT_INTERRUPTED = 75

#: Exit code of a run that *completed with valid (bit-identical)
#: results* but only by degrading work to the serial path — tasks were
#: quarantined after exhausting retries, or a sweep deadline expired.
#: Plain retries that succeeded exit 0; hard failures raise (exit 1).
#: See docs/RESILIENCE.md for the full taxonomy.
EXIT_DEGRADED = 76

#: Registered experiment ids: paper artifacts in paper order, then the
#: supporting/extension experiments (Sections IV-C, V-B, V-F footnote 16,
#: and DESIGN.md's ablations).
EXPERIMENTS: tuple[str, ...] = (
    "table1",
    "table1_load",
    "timing",
    "table2",
    "fig3",
    "fig4",
    "table3",
    "table4",
    "fig5a",
    "fig5bc",
    "fig5d",
    "table5",
    "fig6",
    "fig7",
    "selectors",
    "resize",
    "diversity",
    "multi_failure",
    "scenarios",
    "ablation",
)


def load_experiment(
    experiment_id: str,
) -> Callable[..., ExperimentResult]:
    """Import an experiment module and return its ``run`` callable."""
    if experiment_id not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {', '.join(EXPERIMENTS)}"
        )
    module = importlib.import_module(f"repro.exp.{experiment_id}")
    return module.run


def _apply_execution_flags(
    preset: "str | Preset",
    jobs: int | None = None,
    backend: str | None = None,
    sweep_batch: str | None = None,
    max_retries: int | None = None,
    task_timeout: float | None = None,
    sweep_deadline: float | None = None,
    hosts: str | None = None,
) -> Preset:
    """The preset with the execution flags merged into its config.

    ``None`` keeps the preset's setting.  Raises ``ValueError`` — from
    ``ExecutionParams`` validation, the one place execution knobs are
    checked — when a value is unknown or the flags conflict.
    """
    resolved = get_preset(preset)
    overrides: dict[str, object] = {}
    if jobs is not None:
        overrides["n_jobs"] = jobs
    if backend is not None:
        overrides["routing_backend"] = backend
    if sweep_batch is not None:
        overrides["sweep_batching"] = sweep_batch
    if max_retries is not None:
        overrides["max_retries"] = max_retries
    if task_timeout is not None:
        overrides["task_timeout"] = task_timeout
    if sweep_deadline is not None:
        overrides["sweep_deadline"] = sweep_deadline
    if hosts is not None:
        overrides["hosts"] = hosts
    if not overrides:
        return resolved
    config = resolved.config.replace(
        execution=dataclasses.replace(resolved.config.execution, **overrides)
    )
    return dataclasses.replace(resolved, config=config)


def run_experiment(
    experiment_id: str,
    preset: str = "quick",
    seed: int = 0,
    jobs: int | None = None,
    backend: str | None = None,
    sweep_batch: str | None = None,
    scenarios: str | None = None,
    max_retries: int | None = None,
    task_timeout: float | None = None,
    sweep_deadline: float | None = None,
    hosts: str | None = None,
) -> ExperimentResult:
    """Run one experiment and return its result.

    Args:
        experiment_id: registered experiment id.
        preset: execution-scale preset name (or a Preset object).
        seed: base seed.
        jobs: local sweep hosts; None keeps the preset's setting, 0
            means one per CPU.
        backend: routing kernel backend (``auto``/``python``/
            ``vector``); None keeps the preset's setting.
            Execution-only: results are identical whichever backend
            runs.
        sweep_batch: scenario-axis sweep batching mode
            (``auto``/``off``); None keeps the preset's setting.
            Execution-only: sweeps are bit-identical either way.
        scenarios: scenario-family spec for the ``scenarios``
            experiment (e.g. ``"srlg,multi2,linkxsurge"``); None keeps
            its default.  Rejected for other experiments.
        max_retries: dispatch retries per parallel sweep task before
            quarantine; None keeps the preset's setting.  Execution-
            only, like every resilience knob: recovered and degraded
            runs stay bit-identical.
        task_timeout: per-task deadline in seconds; None keeps the
            preset's setting.
        sweep_deadline: whole-sweep deadline in seconds; None keeps
            the preset's setting.
        hosts: ``"host:port,host:port"`` endpoints of running
            ``serve-host`` servers; the hosts then own the sweep
            fan-out.  Execution-only: results are bit-identical to
            serial runs (see docs/PERFORMANCE.md, "Sweep fan-out").
    """
    resolved = _apply_execution_flags(
        preset,
        jobs=jobs,
        backend=backend,
        sweep_batch=sweep_batch,
        max_retries=max_retries,
        task_timeout=task_timeout,
        sweep_deadline=sweep_deadline,
        hosts=hosts,
    )
    kwargs: dict[str, object] = {}
    if scenarios is not None:
        if experiment_id != "scenarios":
            raise ValueError(
                "--scenarios only applies to the 'scenarios' experiment"
            )
        kwargs["scenarios"] = scenarios
    return load_experiment(experiment_id)(
        preset=resolved, seed=seed, **kwargs
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description=(
            "Regenerate the tables and figures of 'Balancing "
            "Performance, Robustness and Flexibility in Routing Systems'."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (or 'all'), or 'serve-host' to run a sweep host",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=("quick", "default", "paper"),
        help="execution scale (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "fan sweeps out to N forked local sweep hosts (0 = one per "
            "CPU; default: serial)"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=VALID_BACKENDS,
        help=(
            "routing kernel backend (default: the preset's, normally "
            "auto = size-adaptive; results are identical either way)"
        ),
    )
    parser.add_argument(
        "--sweep-batch",
        default=None,
        choices=VALID_SWEEP_BATCHING,
        help=(
            "scenario-axis sweep batching (default: the preset's, "
            "normally auto = batch multi-scenario sweeps; results are "
            "bit-identical either way)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help=(
            "dispatch retries per parallel sweep task before it is "
            "quarantined to the serial path (default: the preset's, "
            "normally 2; results are bit-identical either way)"
        ),
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-task deadline for parallel sweep tasks; a task "
            "exceeding it is retried on a recycled pool (default: none)"
        ),
    )
    parser.add_argument(
        "--sweep-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "whole-sweep deadline; once exhausted the rest of a sweep "
            f"degrades to the serial path and the run exits "
            f"{EXIT_DEGRADED} (default: none)"
        ),
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="SPEC",
        help=(
            "fan sweeps out to running 'repro-exp serve-host' servers "
            "('host:port,host:port'; same-box hosts are --jobs N); "
            "results are bit-identical to serial runs"
        ),
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1",
        metavar="ADDR",
        help=(
            "serve-host only: interface to listen on (default "
            "127.0.0.1; use 0.0.0.0 to serve other machines)"
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="serve-host only: TCP port (default 0 = ephemeral, printed)",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        metavar="SPEC",
        help=(
            "scenario families for the 'scenarios' experiment: a "
            "comma-separated list of "
            "link|arc|node|srlg|multi<k>|regional|surge|hotspot|rescale, "
            "with AxB for failure-x-traffic cross products "
            "(e.g. srlg,multi2,linkxsurge; default: srlg,surge)"
        ),
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="i/N",
        help=(
            "compute only every Nth optimization arm (1-based shard i "
            "of N); other arms return deferred placeholders.  Combine "
            "with --arm-store and a merge run to reassemble the full "
            "result bit-identically"
        ),
    )
    parser.add_argument(
        "--arm-store",
        default=None,
        metavar="DIR",
        help=(
            "directory of per-arm result artifacts: computed arms are "
            "saved there, present artifacts are loaded instead of "
            "recomputed (the merge mechanism for sharded runs)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "write per-arm optimizer checkpoints here (periodic and on "
            "SIGINT/SIGTERM); an interrupted run exits with code "
            f"{EXIT_INTERRUPTED}"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume each arm from its checkpoint in --checkpoint-dir "
            "when present (bit-identical to an uninterrupted run)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=25,
        metavar="K",
        help="iterations between periodic checkpoint writes (default 25)",
    )
    parser.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help=argparse.SUPPRESS,  # CI/testing hook: SIGTERM at tick N
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids"
    )
    args = parser.parse_args(argv)

    if args.experiment == "serve-host":
        if not 0 <= args.port < 65536:
            parser.error("--port must be in [0, 65535]")
        from repro.core.distributed import HostWorker

        worker = HostWorker(args.bind, args.port)
        print(
            f"[serve-host listening on {args.bind}:{worker.port}]",
            flush=True,
        )
        try:
            worker.serve_forever()
        except KeyboardInterrupt:
            pass
        return 0

    if args.hosts is not None and args.jobs is not None:
        parser.error(
            "--jobs and --hosts are mutually exclusive "
            "(hosts own the sweep fan-out)"
        )
    try:
        preset = _apply_execution_flags(
            args.preset,
            jobs=args.jobs,
            backend=args.backend,
            sweep_batch=args.sweep_batch,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            sweep_deadline=args.sweep_deadline,
            hosts=args.hosts,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.scenarios is not None and args.experiment != "scenarios":
        parser.error("--scenarios only applies to the 'scenarios' experiment")
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.interrupt_after is not None and args.checkpoint_dir is None:
        parser.error("--interrupt-after requires --checkpoint-dir")
    if args.checkpoint_every < 1:
        parser.error("--checkpoint-every must be >= 1")
    shard = None
    if args.shard is not None:
        try:
            shard = ShardSpec.parse(args.shard)
        except ValueError as exc:
            parser.error(str(exc))

    if args.list or not args.experiment:
        print("available experiments:")
        for experiment_id in EXPERIMENTS:
            print(f"  {experiment_id}")
        return 0

    control = None
    if (
        shard is not None
        or args.arm_store is not None
        or args.checkpoint_dir is not None
    ):
        control = ArmControl(
            shard=shard,
            store=Path(args.arm_store) if args.arm_store else None,
            checkpoint_dir=(
                Path(args.checkpoint_dir) if args.checkpoint_dir else None
            ),
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            interrupt_after=args.interrupt_after,
        )

    targets = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    previous = set_arm_control(control)
    reset_global_stats()
    try:
        for experiment_id in targets:
            if control is not None:
                control.reset(experiment_id)
            start = time.perf_counter()
            try:
                result = run_experiment(
                    experiment_id,
                    preset=preset,
                    seed=args.seed,
                    scenarios=args.scenarios,
                )
            except OptimizerInterrupted as interrupted:
                print(
                    f"[{experiment_id} interrupted; checkpoint saved to "
                    f"{interrupted.path}; rerun with --resume to continue]"
                )
                return EXIT_INTERRUPTED
            elapsed = time.perf_counter() - start
            print(result.render())
            if control is not None:
                print(
                    f"[arms: computed={len(control.computed)} "
                    f"loaded={len(control.loaded)} "
                    f"deferred={len(control.deferred)} "
                    f"degraded={len(control.degraded)}]"
                )
            print(f"\n[{experiment_id} finished in {elapsed:.1f}s]\n")
    finally:
        set_arm_control(previous)
    stats = global_stats()
    if stats.total_failures or stats.degraded:
        print(
            "[resilience: "
            + " ".join(
                f"{name}={value}"
                for name, value in stats.as_dict().items()
                if value
            )
            + "]"
        )
    if stats.degraded:
        # Results are valid and bit-identical, but part of the work ran
        # in failure-recovery mode — surface it without failing the run.
        return EXIT_DEGRADED
    return 0


if __name__ == "__main__":
    sys.exit(main())
