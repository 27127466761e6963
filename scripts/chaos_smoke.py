"""Chaos-parity smoke test: kill sweep hosts mid-sweep, compare bitwise.

CI drives this as one self-contained step against one small seeded
instance::

    python scripts/chaos_smoke.py
    python scripts/chaos_smoke.py --seed 3 --timeout-delay 2.0

The run sweeps the same seeded single-link failure set three times:

* **fault-free** across ``--jobs`` local sweep hosts (the reference),
* under an injected **worker SIGKILL** plan (a host kills itself
  mid-sweep; the supervisor respawns it and re-dispatches), and
* under an injected **task delay** plan with a per-task timeout (a
  wedged host trips the deadline and is retired and respawned).

It exits nonzero unless every chaos sweep is bit-identical to the
fault-free run, the resilience counters actually recorded the injected
damage (a silent pass would mean the faults never fired), and after
``close()`` no host process is alive and every host socket is closed.

Any divergence is a real bug in the supervision path, never tolerance
noise: the recovery contract is bitwise.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys

import numpy as np

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.faults import FaultPlan, TaskDelay, WorkerKill
from repro.core.parallel import ParallelDtrEvaluator
from repro.core.resilience import global_stats
from repro.core.weights import WeightSetting
from repro.routing.failures import single_link_failures
from repro.topology.isp import isp_topology
from repro.traffic import dtr_traffic, scale_to_utilization


def sweeps_identical(a, b) -> bool:
    """Bitwise cost/SLA/load equality of two failure sweeps."""
    if len(a) != len(b):
        return False
    return all(
        x.cost.lam == y.cost.lam
        and x.cost.phi == y.cost.phi
        and x.sla.violations == y.sla.violations
        and np.array_equal(x.loads_delay, y.loads_delay)
        and np.array_equal(x.loads_tput, y.loads_tput)
        for x, y in zip(a.evaluations, b.evaluations)
    )


def run_sweep(network, traffic, setting, failures, execution):
    """One supervised fan-out sweep; returns (result, stats, leaks).

    ``leaks`` lists what ``close()`` left behind: host sockets still
    open and host processes still alive.
    """
    with ParallelDtrEvaluator(
        network,
        traffic,
        OptimizerConfig().replace(execution=execution),
    ) as evaluator:
        result = evaluator.evaluate_failures(setting, failures)
        stats = evaluator.resilience_stats
        pool = evaluator._executor.pool
    leaks = [
        f"open socket of host {client.describe()}"
        for client in pool.clients
        if not client.closed
    ] + [
        f"live host process {child.pid}"
        for child in multiprocessing.active_children()
    ]
    return result, stats, leaks


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=2, help="local sweep hosts (default 2)"
    )
    parser.add_argument(
        "--timeout-delay",
        type=float,
        default=3.0,
        help="injected stall in seconds for the timeout scenario",
    )
    args = parser.parse_args(argv)

    network = isp_topology()
    rng = np.random.default_rng(11)
    traffic = scale_to_utilization(
        network, dtr_traffic(network.num_nodes, rng, 1.0), 0.43, "mean"
    )
    failures = single_link_failures(network)
    setting = WeightSetting.random(
        network.num_arcs,
        OptimizerConfig().weights,
        np.random.default_rng(args.seed + 23),
    )
    print(
        f"instance: {network.num_nodes} nodes, {network.num_arcs} arcs, "
        f"{len(failures)} failure scenarios; n_jobs={args.jobs}"
    )

    serial = DtrEvaluator(network, traffic, OptimizerConfig())
    reference = serial.evaluate_failures(setting, failures)

    scenarios = [
        (
            "fault-free",
            ExecutionParams(n_jobs=args.jobs),
            # nothing injected: every counter must stay zero
            lambda s: s.total_failures == 0 and not s.degraded,
        ),
        (
            "worker-kill",
            ExecutionParams(
                n_jobs=args.jobs,
                retry_backoff=0.0,
                fault_plan=FaultPlan(
                    faults=(WorkerKill(task=0),), seed=args.seed
                ),
            ),
            # the kill must have fired and been absorbed by a retry
            lambda s: s.worker_failures >= 1
            and s.retries >= 1
            and s.pool_rebuilds >= 1
            and s.host_respawns >= 1
            and not s.degraded,
        ),
        (
            "task-timeout",
            ExecutionParams(
                n_jobs=args.jobs,
                retry_backoff=0.0,
                task_timeout=max(0.25, args.timeout_delay / 4),
                fault_plan=FaultPlan(
                    faults=(
                        TaskDelay(task=0, seconds=args.timeout_delay),
                    ),
                    seed=args.seed,
                ),
            ),
            # the host still holding the stalled ticket was retired
            lambda s: s.timeouts >= 1
            and s.retries >= 1
            and s.host_respawns >= 1
            and not s.degraded,
        ),
    ]

    failed = False
    for name, execution, stats_ok in scenarios:
        result, stats, leaks = run_sweep(
            network, traffic, setting, failures, execution
        )
        parity = sweeps_identical(reference, result)
        counters = {
            k: v for k, v in stats.as_dict().items() if v
        } or "all zero"
        print(f"  {name:>12}: parity={parity}  counters={counters}")
        if not parity:
            print(
                f"FAIL: {name} sweep diverged from the serial reference",
                file=sys.stderr,
            )
            failed = True
        if not stats_ok(stats):
            print(
                f"FAIL: {name} resilience counters unexpected: "
                f"{stats.as_dict()}",
                file=sys.stderr,
            )
            failed = True
        if leaks:
            print(
                f"FAIL: {name} close() left behind: {leaks}",
                file=sys.stderr,
            )
            failed = True

    total = global_stats()
    print(
        "  process totals: "
        + " ".join(f"{k}={v}" for k, v in total.as_dict().items() if v)
    )
    if failed:
        return 1
    print(
        "chaos parity OK: every injected-fault sweep bit-identical "
        "to the fault-free run; no host process or socket leaked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
