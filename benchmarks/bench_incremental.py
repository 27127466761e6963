"""Incremental delta-rerouting benchmark: Phase-2 inner loop, on vs off.

Runs the *actual* seeded Phase-2 robust search (candidate moves through
the evaluator's trial seam, constraint checks, bounded failure sweeps
with pruning) with ``incremental_routing`` on and off, on the same
instance and seeds, and reports evaluations/sec for both, the speedup,
and a strict parity gate: every run must produce identical best
settings, costs and evaluation counts, and every full failure sweep
must be bit-identical.  A from-scratch-vs-incremental sweep
microbenchmark rides along.

Every arm is timed over ``--rounds`` rounds (default 5), each arm once
per round on a fresh evaluator, arms alternating their order each
round; the record reports each arm's median and quartiles of
evaluations/sec next to the CPU count, and speedups compare medians.
Results are written to ``BENCH_incremental.json`` so the perf
trajectory is tracked PR-over-PR (CI uploads it as an artifact)::

    python benchmarks/bench_incremental.py                  # full report
    python benchmarks/bench_incremental.py --iterations 3 --rounds 2
    python benchmarks/bench_incremental.py --assert-speedup 3.0

The parity gate always applies (exit 1 on divergence);
``--assert-speedup`` additionally fails the run when the median Phase-2
speedup lands below the bound — meaningful on dedicated hardware,
deliberately not the default because shared CI runners make wall-clock
assertions flaky.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

import numpy as np
from bench_schema import bench_payload, quartiles, write_payload

from repro.config import (
    ExecutionParams,
    OptimizerConfig,
    SamplingParams,
    SearchParams,
)
from repro.core.evaluation import DtrEvaluator
from repro.core.phase1 import run_phase1
from repro.core.phase2 import RobustConstraints, run_phase2
from repro.scenarios import legacy_failures
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization


def build_instance(num_nodes: int, degree: float, seed: int):
    """A seeded RandTopo instance at the paper's 43 % mean utilization."""
    rng = np.random.default_rng(seed)
    network = scale_to_diameter(rand_topology(num_nodes, degree, rng), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(num_nodes, rng, 1.0), 0.43, "mean"
    )
    return network, traffic


def config_for(iterations: int, incremental: bool) -> OptimizerConfig:
    """A compact seeded two-phase schedule with the knob set."""
    return OptimizerConfig(
        search=SearchParams(
            phase1_diversification_interval=5,
            phase1_diversifications=1,
            phase2_diversification_interval=4,
            phase2_diversifications=1,
            improvement_cutoff=0.01,
            round_iteration_cap_factor=2,
            arcs_per_iteration_fraction=0.5,
            max_iterations=iterations,
        ),
        sampling=SamplingParams(
            tau=2, min_samples_per_link=2, max_extra_samples=100
        ),
        execution=ExecutionParams(incremental_routing=incremental),
    )


def run_phase2_arm(network, traffic, config, failures, pool, constraints,
                   seed: int):
    """One timed Phase-2 run; returns (result, evaluations, seconds).

    Evaluations are the search's own count (``result.stats``), which
    includes the scenario costs a move trial takes verbatim from the
    incumbent without calling ``evaluate``.
    """
    evaluator = DtrEvaluator(network, traffic, config)
    gc.collect()
    start = time.perf_counter()
    result = run_phase2(
        evaluator,
        failures,
        pool,
        constraints,
        np.random.default_rng(seed),
    )
    elapsed = time.perf_counter() - start
    return result, result.stats.evaluations, elapsed


def sweep_arm(network, traffic, config, setting, failures):
    """One timed full failure sweep on a fresh evaluator; (rate, sweep)."""
    evaluator = DtrEvaluator(network, traffic, config)
    normal = evaluator.evaluate_normal(setting)
    gc.collect()
    start = time.perf_counter()
    sweep = evaluator.evaluate_scenarios(setting, failures, reuse=normal)
    return len(failures) / (time.perf_counter() - start), sweep


def sweeps_identical(a, b) -> bool:
    """Bitwise cost and load equality of two failure sweeps."""
    return all(
        x.cost.lam == y.cost.lam
        and x.cost.phi == y.cost.phi
        and np.array_equal(x.loads_delay, y.loads_delay)
        and np.array_equal(x.loads_tput, y.loads_tput)
        for x, y in zip(a.evaluations, b.evaluations)
    )


def arm_row(workload: str, rates: "dict[str, list[float]]", parity: bool,
            **extra) -> dict:
    """One record row: both arms' quartiles, the median speedup."""
    speedup = statistics.median(rates["incremental"]) / statistics.median(
        rates["scratch"]
    )
    return {
        "workload": workload,
        **extra,
        "scratch_evals_per_sec": quartiles(rates["scratch"]),
        "incremental_evals_per_sec": quartiles(rates["incremental"]),
        "speedup": round(speedup, 2),
        "parity": parity,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--nodes", type=int, default=30, help="topology size (default 30)"
    )
    parser.add_argument(
        "--degree", type=float, default=4.5, help="mean degree (default 4.5)"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=3,
        help="per-phase iteration cap of the seeded search (default 3)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="timed rounds, one run per arm each (default 5)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--out",
        default="BENCH_incremental.json",
        help="result JSON path (default BENCH_incremental.json)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help="exit 1 unless the Phase-2 speedup reaches this factor",
    )
    args = parser.parse_args(argv)

    network, traffic = build_instance(args.nodes, args.degree, args.seed)
    failures = legacy_failures(network)
    print(
        f"instance: {network.num_nodes} nodes, {network.num_arcs} arcs, "
        f"{len(failures)} failure scenarios"
    )

    # Phase 1 once (pinned invariant to the knob) for starts + constraints.
    config_on = config_for(args.iterations, incremental=True)
    config_off = config_for(args.iterations, incremental=False)
    p1 = run_phase1(
        DtrEvaluator(network, traffic, config_on),
        np.random.default_rng(args.seed + 1),
    )
    constraints = RobustConstraints(
        p1.best_cost.lam, p1.best_cost.phi, config_on.sampling.chi
    )

    # The Phase-2 inner loop and full sweeps, timed with the knob on and
    # off: one fresh evaluator per arm and round, arms alternating.
    configs = {"scratch": config_off, "incremental": config_on}
    order = list(configs)
    phase2_rates = {name: [] for name in configs}
    sweep_rates = {name: [] for name in configs}
    runs, sweeps = [], []
    for _ in range(args.rounds):
        for name in order:
            result, evals, seconds = run_phase2_arm(
                network, traffic, configs[name], failures, p1.pool,
                constraints, args.seed + 2,
            )
            phase2_rates[name].append(evals / seconds)
            runs.append((result, evals))
        setting = runs[0][0].best_setting
        for name in order:
            rate, sweep = sweep_arm(
                network, traffic, configs[name], setting, failures
            )
            sweep_rates[name].append(rate)
            sweeps.append(sweep)
        order.reverse()

    first, evals = runs[0]
    phase2_parity = all(
        result.best_kfail == first.best_kfail
        and result.normal_cost == first.normal_cost
        and result.best_setting == first.best_setting
        and result.stats == first.stats
        for result, _ in runs
    )
    sweep_parity = all(sweeps_identical(sweeps[0], s) for s in sweeps)
    rows = [
        arm_row("phase2", phase2_rates, phase2_parity, evaluations=evals),
        arm_row("sweep", sweep_rates, sweep_parity),
    ]

    for row in rows:
        print(f"{row['workload']} ({args.rounds} rounds, evaluations/s "
              "median [quartiles]):")
        for arm in ("scratch", "incremental"):
            stats = row[f"{arm}_evals_per_sec"]
            print(f"  {arm:>11}: {stats['median']:8.1f} "
                  f"[{stats['q1']:.1f}, {stats['q3']:.1f}]")
        print(f"  speedup:     {row['speedup']:8.2f}x")
    print(f"parity: phase2={phase2_parity} sweep={sweep_parity}")
    speedup = rows[0]["speedup"]

    payload = bench_payload(
        "incremental",
        (
            "seeded Phase-2 inner loop and full failure sweeps with "
            "incremental_routing on vs off, a fresh evaluator per arm and "
            "round, arms alternating; evals/s median and quartiles; "
            "bitwise parity gated"
        ),
        rows=rows,
        context={
            "nodes": network.num_nodes,
            "arcs": network.num_arcs,
            "scenarios": len(failures),
            "degree": args.degree,
            "seed": args.seed,
            "iterations": args.iterations,
            "rounds": args.rounds,
        },
    )
    write_payload(args.out, payload)

    if not (phase2_parity and sweep_parity):
        print("FAIL: incremental evaluation diverged from scratch",
              file=sys.stderr)
        return 1
    if args.assert_speedup and speedup < args.assert_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x < {args.assert_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
