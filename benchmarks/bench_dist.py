"""Distributed sweep benchmark: serial vs process-shm vs host pools.

Runs the same single-link failure sweep on a Rocketfuel-class PLTopo
instance through four executors —

* ``serial`` — the scenario-axis batched serial path,
* ``process-shm`` — shared-memory batched worker processes
  (``bench_sweep.py``'s best single-box arm),
* ``hosts-local:2`` / ``hosts-local:4`` — the distributed executor
  against forked localhost host pools (the same code path a
  ``host:port`` pool of real machines runs)

— and reports warm evaluations/sec, bytes-on-wire per task (the
distributed tickets, from the evaluator's transport accounting) next
to the published payload bytes, per-host busy/transfer counters, and a
strict bitwise parity gate across every arm (exit 1 on divergence).
Results land in ``BENCH_dist.json`` (shared ``bench_schema`` layout;
CI uploads it as an artifact)::

    python benchmarks/bench_dist.py                       # full report
    python benchmarks/bench_dist.py --nodes 40 --rounds 1   # CI smoke
    python benchmarks/bench_dist.py --hosts local:2,local:4

The parity gate always applies; ``--assert-dist-speedup`` additionally
fails the run when the best host arm lands below the bound over
serial — meaningful on dedicated hardware, deliberately not the
default because shared CI runners make wall-clock assertions flaky.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

import numpy as np
from bench_schema import bench_payload, write_payload

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.distributed import DistributedDtrEvaluator
from repro.core.evaluation import DtrEvaluator
from repro.core.parallel import ParallelDtrEvaluator
from repro.core.resilience import global_stats
from repro.core.weights import WeightSetting
from repro.routing.failures import single_link_failures
from repro.topology import powerlaw_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

#: BA attachments per arriving node (the paper's PLTopo density).
PL_ATTACHMENTS = 3


def build_instance(num_nodes: int, seed: int):
    """A seeded, delay- and utilization-scaled PLTopo instance."""
    rng = np.random.default_rng(seed)
    network = scale_to_diameter(
        powerlaw_topology(num_nodes, PL_ATTACHMENTS, rng), 0.025
    )
    traffic = scale_to_utilization(
        network, dtr_traffic(network.num_nodes, rng, 1.0), 0.43, "mean"
    )
    return network, traffic


def sweeps_identical(a, b) -> bool:
    """Bitwise cost/load equality of two sweeps."""
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


def arm_rate(evaluator, setting, scenarios, rounds: int, warmups: int):
    """Warm best-of-``rounds`` evaluations/sec plus the last sweep.

    Same methodology as ``bench_sweep.py``: untimed warmups bring host
    evaluators, routing caches and the publish-once epochs to steady
    state — the regime of Phase-2 ordered sweeps — before timing.
    """
    normal = evaluator.evaluate_normal(setting)
    sweep = None
    for _ in range(warmups):
        sweep = evaluator.evaluate_scenarios(
            setting, scenarios, reuse=normal
        )
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        start = time.perf_counter()
        sweep = evaluator.evaluate_scenarios(
            setting, scenarios, reuse=normal
        )
        best = min(best, time.perf_counter() - start)
    return len(scenarios) / best, sweep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--nodes",
        type=int,
        default=100,
        help="PLTopo node count (default 100)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="workers of the process-shm reference arm (default 2)",
    )
    parser.add_argument(
        "--hosts",
        default="local:2,local:4",
        help=(
            "comma-separated host-pool specs to benchmark, each a "
            "--hosts value (default local:2,local:4)"
        ),
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds (best-of)"
    )
    parser.add_argument(
        "--warmups",
        type=int,
        default=3,
        help="untimed warmup sweeps per arm (default 3)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        default="BENCH_dist.json",
        help="result JSON path (default BENCH_dist.json)",
    )
    parser.add_argument(
        "--assert-dist-speedup",
        type=float,
        default=None,
        help=(
            "exit 1 unless the best host arm reaches this factor over "
            "the batched serial path"
        ),
    )
    args = parser.parse_args(argv)

    network, traffic = build_instance(args.nodes, args.seed)
    failures = list(single_link_failures(network))
    setting = WeightSetting.random(
        network.num_arcs,
        OptimizerConfig().weights,
        np.random.default_rng(args.seed + 1),
    )
    host_specs = [s for s in args.hosts.split(",") if s]
    # "local:2,local:4" is two POOLS (split on comma), unlike the CLI's
    # --hosts where commas separate a single pool's endpoints.
    print(
        f"instance: {network.num_nodes} nodes, {network.num_arcs} arcs, "
        f"{len(failures)} failure scenarios; "
        f"shm jobs={args.jobs}; host pools: {', '.join(host_specs)}"
    )

    rates = {}
    sweeps = {}
    rows = []
    transports = {}
    host_reports = {}

    serial = DtrEvaluator(
        network,
        traffic,
        OptimizerConfig(execution=ExecutionParams(sweep_batching="auto")),
    )
    rates["serial"], sweeps["serial"] = arm_rate(
        serial, setting, failures, args.rounds, args.warmups
    )
    del serial

    with ParallelDtrEvaluator(
        network,
        traffic,
        OptimizerConfig(
            execution=ExecutionParams(
                n_jobs=args.jobs, sweep_batching="auto"
            )
        ),
    ) as shm:
        rates["process-shm"], sweeps["process-shm"] = arm_rate(
            shm, setting, failures, args.rounds, args.warmups
        )
        transports["process-shm"] = shm.transport_stats

    for spec in host_specs:
        arm = f"hosts-{spec}"
        with DistributedDtrEvaluator(
            network,
            traffic,
            OptimizerConfig(
                execution=ExecutionParams(hosts=spec, sweep_batching="auto")
            ),
        ) as dist:
            rates[arm], sweeps[arm] = arm_rate(
                dist, setting, failures, args.rounds, args.warmups
            )
            transports[arm] = dist.transport_stats
            host_reports[arm] = dist.host_report()

    arms = ["serial", "process-shm"] + [f"hosts-{s}" for s in host_specs]
    parity = all(
        sweeps_identical(sweeps["serial"], sweeps[arm]) for arm in arms[1:]
    )
    for arm in arms:
        stats = transports.get(arm)
        row = {
            "workload": "link-sweep",
            "arm": arm,
            "evals_per_sec": round(rates[arm], 2),
            "wire_bytes_per_task": (
                round(stats.bytes_per_task, 1) if stats else 0
            ),
            "payload_bytes": stats.payload_bytes if stats else 0,
            "result_bytes": stats.result_bytes if stats else 0,
        }
        rows.append(row)
        print(
            f"  {arm:>15}: {row['evals_per_sec']:>9.2f} evals/s  "
            f"wire/task {row['wire_bytes_per_task']:>8} B  "
            f"published {row['payload_bytes']:>9} B"
        )
    for arm, report in host_reports.items():
        for host in report:
            print(
                f"    {arm} {host['host']}: {host['tasks_done']} tasks, "
                f"{host['busy_seconds']:.3f}s busy, "
                f"{host['bytes_sent']}B out / {host['bytes_received']}B in"
            )

    best_arm = max(arms[2:], key=lambda a: rates[a]) if host_specs else None
    dist_speedup = rates[best_arm] / rates["serial"] if best_arm else 0.0
    if best_arm:
        print(
            f"  best host arm {best_arm}: {dist_speedup:.2f}x over "
            f"serial; parity={parity}"
        )

    payload = bench_payload(
        "dist",
        (
            "warm single-link failure sweeps through the batched serial "
            "path, shared-memory batched workers, and TCP host pools "
            "(forked localhost hosts; same code path as remote "
            "serve-host machines); bitwise parity gated"
        ),
        rows=rows,
        context={
            "nodes": network.num_nodes,
            "arcs": network.num_arcs,
            "scenarios": len(failures),
            "jobs": args.jobs,
            "host_pools": host_specs,
            "rounds": args.rounds,
            "warmups": args.warmups,
            "seed": args.seed,
            "attachments": PL_ATTACHMENTS,
            "dist_speedup_vs_serial": round(dist_speedup, 2),
            "parity": parity,
            "transport_stats": {
                arm: stats.as_dict() for arm, stats in transports.items()
            },
            "host_reports": host_reports,
            # Supervisor counters across every sweep of this run: all
            # zero on a healthy box; nonzero values flag that measured
            # rates include retry/degradation overhead.
            "resilience_stats": global_stats().as_dict(),
        },
    )
    write_payload(args.out, payload)

    failed = False
    if not parity:
        print(
            "FAIL: distributed sweep diverged from serial",
            file=sys.stderr,
        )
        failed = True
    if (
        args.assert_dist_speedup is not None
        and dist_speedup < args.assert_dist_speedup
    ):
        print(
            f"FAIL: dist speedup {dist_speedup:.2f}x < "
            f"{args.assert_dist_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
