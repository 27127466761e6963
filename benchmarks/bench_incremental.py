"""Incremental delta-rerouting benchmark: Phase-2 inner loop, on vs off.

Runs the *actual* seeded Phase-2 robust search (candidate moves,
constraint checks, bounded failure sweeps with pruning) twice — once
with ``incremental_routing`` on, once off — on the same instance and
seeds, and reports evaluations/sec for both, the speedup, and a strict
parity gate: the two runs must produce identical best settings, costs,
and evaluation counts, and a full failure sweep must be bit-identical.
A from-scratch-vs-incremental sweep microbenchmark rides along.

Results are written to ``BENCH_incremental.json`` so the perf
trajectory is tracked PR-over-PR (CI uploads it as an artifact)::

    python benchmarks/bench_incremental.py                  # full report
    python benchmarks/bench_incremental.py --iterations 3 --rounds 2
    python benchmarks/bench_incremental.py --assert-speedup 3.0

The parity gate always applies (exit 1 on divergence);
``--assert-speedup`` additionally fails the run when the Phase-2
speedup lands below the bound — meaningful on dedicated hardware,
deliberately not the default because shared CI runners make wall-clock
assertions flaky.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
from bench_schema import bench_payload, write_payload

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
    """One timed Phase-2 run; returns (result, evaluations, seconds)."""
    evaluator = DtrEvaluator(network, traffic, config)
    before = evaluator.num_evaluations
    start = time.perf_counter()
    result = run_phase2(
        evaluator,
        failures,
        pool,
        constraints,
        np.random.default_rng(seed),
    )
    elapsed = time.perf_counter() - start
    return result, evaluator.num_evaluations - before, elapsed


def sweep_rate(evaluator, setting, failures, rounds: int):
    """Best-of-``rounds`` evaluations/sec of a full failure sweep."""
    normal = evaluator.evaluate_normal(setting)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        evaluator.evaluate_scenarios(setting, failures, reuse=normal)
        best = min(best, time.perf_counter() - start)
    return len(failures) / best


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
        default=8,
        help="per-phase iteration cap of the seeded search (default 8)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="sweep timing rounds (best-of)"
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

    # The Phase-2 inner loop, timed with the knob on and off.
    result_on, evals_on, time_on = run_phase2_arm(
        network, traffic, config_on, failures, p1.pool, constraints,
        args.seed + 2,
    )
    result_off, evals_off, time_off = run_phase2_arm(
        network, traffic, config_off, failures, p1.pool, constraints,
        args.seed + 2,
    )
    rate_on = evals_on / time_on
    rate_off = evals_off / time_off
    speedup = rate_on / rate_off if rate_off else 0.0

    phase2_parity = (
        evals_on == evals_off
        and result_on.best_kfail == result_off.best_kfail
        and result_on.normal_cost == result_off.normal_cost
        and result_on.best_setting == result_off.best_setting
        and result_on.stats.evaluations == result_off.stats.evaluations
    )

    # Sweep microbenchmark + bit-level parity of every scenario cost.
    eval_on = DtrEvaluator(network, traffic, config_on)
    eval_off = DtrEvaluator(network, traffic, config_off)
    sweep_on = sweep_rate(
        eval_on, result_on.best_setting, failures, args.rounds
    )
    sweep_off = sweep_rate(
        eval_off, result_on.best_setting, failures, args.rounds
    )
    full_on = eval_on.evaluate_scenarios(result_on.best_setting, failures)
    full_off = eval_off.evaluate_scenarios(result_on.best_setting, failures)
    sweep_parity = all(
        a.cost.lam == b.cost.lam
        and a.cost.phi == b.cost.phi
        and np.array_equal(a.loads_delay, b.loads_delay)
        and np.array_equal(a.loads_tput, b.loads_tput)
        for a, b in zip(full_on.evaluations, full_off.evaluations)
    )

    print(f"phase-2 inner loop ({evals_on} evaluations):")
    print(f"  scratch:     {rate_off:8.0f} evaluations/s")
    print(f"  incremental: {rate_on:8.0f} evaluations/s")
    print(f"  speedup:     {speedup:8.2f}x")
    print(f"full failure sweep: {sweep_off:.0f} -> {sweep_on:.0f} "
          f"evaluations/s ({sweep_on / sweep_off:.2f}x)")
    print(f"parity: phase2={phase2_parity} sweep={sweep_parity}")

    payload = bench_payload(
        "incremental",
        (
            "seeded Phase-2 inner loop and full failure sweeps with "
            "incremental_routing on vs off, with bitwise parity gates"
        ),
        rows=[
            {
                "workload": "phase2",
                "evaluations": evals_on,
                "scratch_evals_per_sec": round(rate_off, 1),
                "incremental_evals_per_sec": round(rate_on, 1),
                "speedup": round(speedup, 2),
                "parity": phase2_parity,
            },
            {
                "workload": "sweep",
                "scratch_evals_per_sec": round(sweep_off, 1),
                "incremental_evals_per_sec": round(sweep_on, 1),
                "speedup": round(sweep_on / sweep_off, 2),
                "parity": sweep_parity,
            },
        ],
        context={
            "nodes": network.num_nodes,
            "arcs": network.num_arcs,
            "scenarios": len(failures),
            "degree": args.degree,
            "seed": args.seed,
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
