"""Scenario sweep benchmark: serial per-scenario, serial batched and
``n_jobs=N`` sweep hosts, on the costs-only contract audits use.

Each request prices a fresh seeded weight setting (drawn before any
timing, so no memo can replay a result) across a
``build_scenarios("link,srlg,surge")`` set on a PLTopo instance — single
links, SRLGs and traffic surges, so every group kind of
``repro.routing.sweep.plan_sweep`` runs — through
``evaluate_scenario_costs``.  ``--nodes`` lists the instance sizes, one
row set each; the default, 30 and 100 nodes, falls on both sides of
``CLOSURE_MAX_NODES``, so the record shows batch groups repairing their
distances by the min-plus closure (30) and by the cone repair (100).
Every round sends one request to each arm:

* ``serial`` — the per-scenario serial path (``sweep_batching="off"``),
* ``serial-batched`` — the scenario-axis batch sweep engine,
* ``jobs-N`` — ``n_jobs=N`` local sweep hosts, for each N in ``--jobs``.

Arms alternate their order each round (the order reverses every
round), and the record reports each arm's median and quartiles of
evaluations/sec, next to the CPU count and load average of the box.
A strict bitwise parity gate across every arm, request and size exits
1 on divergence, before any record is written.  Results land in
``BENCH_sweep.json`` (shared ``bench_schema`` layout; CI uploads it as
an artifact)::

    python benchmarks/bench_sweep.py                          # full report
    python benchmarks/bench_sweep.py --nodes 40 --rounds 3    # CI smoke
    python benchmarks/bench_sweep.py --jobs 2,4
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

import numpy as np
from bench_schema import bench_payload, quartiles, write_payload

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.parallel import make_evaluator
from repro.core.resilience import global_stats
from repro.core.weights import WeightSetting
from repro.routing.backend import (
    CLOSURE_MAX_NODES,
    SWEEP_BATCH_MIN_SCENARIOS,
)
from repro.scenarios.generators import build_scenarios
from repro.topology import powerlaw_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

#: BA attachments per arriving node (the paper's PLTopo density).
PL_ATTACHMENTS = 3

#: Scenario families swept: one per ``plan_sweep`` group kind.
SCENARIOS = "link,srlg,surge"


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


def arm_configs(jobs: "list[int]") -> "dict[str, OptimizerConfig]":
    """Arm name -> evaluator configuration, in the base arm order."""
    arms = {
        "serial": ExecutionParams(sweep_batching="off"),
        "serial-batched": ExecutionParams(sweep_batching="auto"),
    }
    for n in jobs:
        arms[f"jobs-{n}"] = ExecutionParams(n_jobs=n)
    return {name: OptimizerConfig(execution=e) for name, e in arms.items()}


def costs_key(costs) -> "list[tuple]":
    """Everything a costs-only sweep returns, for bitwise comparison."""
    return [
        (e.cost.lam, e.cost.phi, e.sla.violations, e.sla.disconnected)
        for e in costs.evaluations
    ]


def bench_size(
    num_nodes: int, jobs: "list[int]", rounds: int, warmups: int, seed: int
) -> dict:
    """Time every arm on one PLTopo size; rows, dispatch stats, parity."""
    network, traffic = build_instance(num_nodes, seed)
    scenarios = build_scenarios(SCENARIOS, network, seed)
    rng = np.random.default_rng(seed + 1)
    settings = [
        WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        for _ in range(warmups + rounds)
    ]
    closure = network.num_nodes <= CLOSURE_MAX_NODES
    print(
        f"instance: {network.num_nodes} nodes, {network.num_arcs} arcs, "
        f"{len(scenarios)} scenarios ({SCENARIOS}); group repair: "
        f"{'closure' if closure else 'cone'}; jobs={jobs}; "
        f"{os.cpu_count()} CPUs"
    )

    configs = arm_configs(jobs)
    evaluators = {
        name: make_evaluator(network, traffic, config)
        for name, config in configs.items()
    }
    order = list(configs)
    rates: "dict[str, list[float]]" = {name: [] for name in order}
    parity = True
    try:
        for index, setting in enumerate(settings):
            timed = index >= warmups
            results = {}
            for name in order:
                gc.collect()
                start = time.perf_counter()
                costs = evaluators[name].evaluate_scenario_costs(
                    setting, scenarios
                )
                elapsed = time.perf_counter() - start
                results[name] = costs_key(costs)
                if timed:
                    rates[name].append(len(scenarios) / elapsed)
            reference = results["serial"]
            parity = parity and all(
                got == reference for got in results.values()
            )
            order.reverse()
        transports = {
            name: evaluator.transport_stats.as_dict()
            for name, evaluator in evaluators.items()
            if name.startswith("jobs-")
        }
        host_busy = {
            name: {
                str(host): round(seconds, 3)
                for host, seconds in sorted(
                    evaluator.worker_busy_seconds.items()
                )
            }
            for name, evaluator in evaluators.items()
            if name.startswith("jobs-")
        }
    finally:
        for evaluator in evaluators.values():
            evaluator.close()

    rows = []
    for name in configs:
        row = {
            "workload": f"costs-only:{SCENARIOS}",
            "nodes": network.num_nodes,
            "arcs": network.num_arcs,
            "scenarios": len(scenarios),
            "group_repair": "closure" if closure else "cone",
            "arm": name,
            "evals_per_sec": quartiles(rates[name]),
        }
        transport = transports.get(name)
        if transport:
            row["bytes_per_task"] = round(
                transport["task_bytes"] / max(1, transport["tasks"])
            )
        rows.append(row)
        stats = row["evals_per_sec"]
        print(
            f"  {name:>15}: {stats['median']:>9.2f} evals/s "
            f"[{stats['q1']:.2f}, {stats['q3']:.2f}]"
        )
    print(f"  parity={parity}")
    return {
        "rows": rows,
        "transport_stats": transports,
        "host_busy_seconds": host_busy,
        "parity": parity,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--nodes",
        default="30,100",
        help=(
            "comma-separated PLTopo node counts, one row set each "
            "(default 30,100: both sides of CLOSURE_MAX_NODES)"
        ),
    )
    parser.add_argument(
        "--jobs",
        default="2",
        help="comma-separated n_jobs values, one arm each (default 2)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=10,
        help="timed requests per arm (default 10)",
    )
    parser.add_argument(
        "--warmups",
        type=int,
        default=2,
        help="untimed requests per arm first (default 2)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        default="BENCH_sweep.json",
        help="result JSON path (default BENCH_sweep.json)",
    )
    args = parser.parse_args(argv)
    jobs = [int(n) for n in args.jobs.split(",") if n.strip()]
    sizes = [int(n) for n in args.nodes.split(",") if n.strip()]
    if any(n < 2 for n in jobs):
        parser.error("--jobs values must be >= 2")
    if not sizes or any(n < 2 for n in sizes):
        parser.error("--nodes needs node counts >= 2")
    if args.rounds < 1 or args.warmups < 0:
        parser.error("need --rounds >= 1 and --warmups >= 0")

    results = {
        str(n): bench_size(n, jobs, args.rounds, args.warmups, args.seed)
        for n in sizes
    }
    if not all(result["parity"] for result in results.values()):
        print("FAIL: an arm diverged from the serial sweep", file=sys.stderr)
        return 1

    payload = bench_payload(
        "sweep",
        (
            "costs-only sweeps of a fresh seeded setting per request "
            f"across {SCENARIOS} scenarios, one row set per PLTopo size: "
            "per-scenario serial, batched serial and n_jobs local sweep "
            "hosts, arms alternating each round; evals/s median and "
            "quartiles; bitwise parity gated"
        ),
        rows=[row for result in results.values() for row in result["rows"]],
        context={
            "nodes": sizes,
            "scenario_spec": SCENARIOS,
            "jobs": jobs,
            "rounds": args.rounds,
            "warmups": args.warmups,
            "seed": args.seed,
            "attachments": PL_ATTACHMENTS,
            "cpu_count": os.cpu_count(),
            "load_average": [round(x, 2) for x in os.getloadavg()],
            "sweep_batch_min_scenarios": SWEEP_BATCH_MIN_SCENARIOS,
            "closure_max_nodes": CLOSURE_MAX_NODES,
            "parity": True,
            # Measured dispatch accounting of the host arms, per size:
            # publishes and payload bytes (per-host epochs), ticket
            # bytes, result bytes and summed in-host busy seconds (per
            # host index).
            "transport_stats": {
                size: result["transport_stats"]
                for size, result in results.items()
            },
            "host_busy_seconds": {
                size: result["host_busy_seconds"]
                for size, result in results.items()
            },
            # Supervisor counters across every sweep of this run: all
            # zero on a healthy box; nonzero values flag that measured
            # rates include retry/degradation overhead.
            "resilience_stats": global_stats().as_dict(),
        },
    )
    write_payload(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
