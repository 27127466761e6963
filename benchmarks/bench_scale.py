"""Size-adaptive backend benchmark: Rocketfuel-class failure sweeps.

Measures full failure-sweep evaluations/sec of the cost oracle under
each routing backend — ``python`` (the pure-Python stack: per-destination
heap Dijkstra + list-based propagation kernels, tuned for backbone
scale), ``vector`` (the array-native stack: batched scipy Dijkstra over
cached CSR views + level-scheduled batch kernels) and ``auto`` (the
size-adaptive dispatcher, the production default) — on
``powerlaw_topology`` instances at ~30/100/200/400 nodes plus the fixed
16-node ISP backbone.  Sweeps run from scratch
(``incremental_routing=False``) so the numbers measure raw
scenario-evaluation throughput of each stack; the delta-rerouting
speedups on top are tracked separately by ``bench_incremental.py``.

Two properties are recorded per size and written to
``BENCH_scale.json`` (CI uploads it as an artifact):

* **parity** — python and vector sweeps produce bit-identical costs,
  loads and pair delays (integer weights make every reuse rule exact);
  the gate always applies and exits 1 on divergence.
* **auto adaptivity** — ``auto`` is never slower than the better fixed
  backend by more than 10 % (it picks the python stack at backbone
  scale, the vector stack at Rocketfuel scale).

Usage::

    python benchmarks/bench_scale.py                     # full report
    python benchmarks/bench_scale.py --sizes 30 100 --rounds 1   # smoke
    python benchmarks/bench_scale.py --assert-speedup 3.0 --assert-auto

``--assert-speedup X`` additionally fails the run when the vector
backend's speedup over python lands below ``X`` on every >=200-node
sweep; ``--assert-auto`` turns the 10 % auto margin into a gate.  Both
are opt-in because shared CI runners make wall-clock assertions flaky.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
from bench_schema import bench_payload, write_payload

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.weights import WeightSetting
from repro.routing.backend import (
    VECTOR_CROSSOVER_WORK,
    VECTOR_PROPAGATION_CROSSOVER_WORK,
    resolve_backend,
)
from repro.scenarios import legacy_failures
from repro.topology import isp_topology, powerlaw_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

#: BA attachments per arriving node (the paper's PLTopo density).
PL_ATTACHMENTS = 3


def build_instance(family: str, num_nodes: int, seed: int):
    """A seeded, delay- and utilization-scaled instance."""
    rng = np.random.default_rng(seed)
    if family == "pl":
        network = powerlaw_topology(num_nodes, PL_ATTACHMENTS, rng)
    elif family == "isp":
        network = isp_topology()
    else:
        raise ValueError(f"unknown family {family!r}")
    network = scale_to_diameter(network, 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(network.num_nodes, rng, 1.0), 0.43, "mean"
    )
    return network, traffic


def scenario_budget(num_nodes: int, cap: int | None) -> int:
    """Scenarios per sweep: all of them at small sizes, bounded above.

    A full single-link sweep at 400 nodes is ~1200 scenarios; the
    python stack needs minutes for that, so large sizes time a bounded
    prefix (recorded in the JSON) — every scenario still runs through
    the parity gate arms identically.
    """
    if cap is not None:
        return cap
    return max(8, 2400 // num_nodes)


def config_for(backend: str) -> OptimizerConfig:
    return OptimizerConfig(
        execution=ExecutionParams(
            incremental_routing=False,
            routing_cache=False,
            routing_backend=backend,
        )
    )


def sweep_rate(network, traffic, setting, failures, backend: str,
               rounds: int) -> tuple[float, object]:
    """Best-of-``rounds`` evaluations/sec with a cold evaluator per round.

    Returns the rate and the last round's full sweep (for parity).
    """
    best = float("inf")
    sweep = None
    for _ in range(rounds):
        evaluator = DtrEvaluator(network, traffic, config_for(backend))
        normal = evaluator.evaluate_normal(setting)
        start = time.perf_counter()
        sweep = evaluator.evaluate_scenarios(setting, failures, reuse=normal)
        best = min(best, time.perf_counter() - start)
    return len(failures) / best, sweep


def sweeps_identical(a, b) -> bool:
    """Bitwise cost/load/delay equality of two failure sweeps."""
    if len(a) != len(b):
        return False
    return all(
        x.cost.lam == y.cost.lam
        and x.cost.phi == y.cost.phi
        and np.array_equal(x.loads_delay, y.loads_delay)
        and np.array_equal(x.loads_tput, y.loads_tput)
        # pair_delays carry NaN on the diagonal and demand-free columns.
        and np.array_equal(x.pair_delays, y.pair_delays, equal_nan=True)
        for x, y in zip(a.evaluations, b.evaluations)
    )


def bench_size(family: str, num_nodes: int, seed: int, rounds: int,
               cap: int | None) -> dict:
    network, traffic = build_instance(family, num_nodes, seed)
    failures = [s.failure for s in legacy_failures(network)]
    budget = min(len(failures), scenario_budget(network.num_nodes, cap))
    failures = failures[:budget]
    rng = np.random.default_rng(seed + 1)
    setting = WeightSetting.random(
        network.num_arcs, OptimizerConfig().weights, rng
    )

    backends = ["python", "vector", "auto"]
    rates = {}
    sweeps = {}
    for backend in backends:
        rates[backend], sweeps[backend] = sweep_rate(
            network, traffic, setting, failures, backend, rounds
        )
    parity = all(
        sweeps_identical(sweeps["python"], sweeps[backend])
        for backend in backends[1:]
    )

    destinations = network.num_nodes  # gravity demand reaches every node
    auto_choice = resolve_backend(
        "auto", network.num_nodes, network.num_arcs, destinations
    )
    best_fixed = max(rates["python"], rates["vector"])
    row = {
        "family": network.name,
        "nodes": network.num_nodes,
        "arcs": network.num_arcs,
        "scenarios": len(failures),
        "python_evals_per_sec": round(rates["python"], 2),
        "vector_evals_per_sec": round(rates["vector"], 2),
        "auto_evals_per_sec": round(rates["auto"], 2),
        "vector_speedup": round(rates["vector"] / rates["python"], 2),
        "auto_backend_choice": auto_choice,
        "auto_vs_best_fixed": round(rates["auto"] / best_fixed, 3),
        "parity": parity,
    }
    print(
        f"{row['family']:>7}[{row['nodes']:>3},{row['arcs']:>5}] "
        f"{row['scenarios']:>3} scenarios: "
        f"python {row['python_evals_per_sec']:>8.2f}/s  "
        f"vector {row['vector_evals_per_sec']:>8.2f}/s "
        f"({row['vector_speedup']:.2f}x)  "
        f"auto {row['auto_evals_per_sec']:>8.2f}/s "
        f"[{auto_choice}, {row['auto_vs_best_fixed']:.2f} of best]  "
        f"parity={parity}"
    )
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[30, 100, 200, 400],
        help="PLTopo node counts (default 30 100 200 400)",
    )
    parser.add_argument(
        "--skip-isp",
        action="store_true",
        help="skip the fixed 16-node ISP backbone row",
    )
    parser.add_argument(
        "--rounds", type=int, default=2, help="timing rounds (best-of)"
    )
    parser.add_argument(
        "--max-scenarios",
        type=int,
        default=None,
        help="scenarios per sweep (default: size-scaled budget)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        default="BENCH_scale.json",
        help="result JSON path (default BENCH_scale.json)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        help=(
            "exit 1 unless the vector speedup reaches this factor on "
            "every >=200-node sweep"
        ),
    )
    parser.add_argument(
        "--assert-auto",
        action="store_true",
        help="exit 1 if auto is >10%% slower than the better fixed backend",
    )
    args = parser.parse_args(argv)

    rows = []
    if not args.skip_isp:
        rows.append(
            bench_size("isp", 16, args.seed, args.rounds, args.max_scenarios)
        )
    for num_nodes in args.sizes:
        rows.append(
            bench_size(
                "pl", num_nodes, args.seed, args.rounds, args.max_scenarios
            )
        )

    payload = bench_payload(
        "scale",
        (
            "from-scratch failure sweeps (incremental_routing=False, "
            "routing_cache=False); delta-rerouting gains are tracked by "
            "BENCH_incremental.json"
        ),
        rows=rows,
        context={
            "crossover_work": {
                "route": VECTOR_CROSSOVER_WORK,
                "propagate": VECTOR_PROPAGATION_CROSSOVER_WORK,
            },
            "attachments": PL_ATTACHMENTS,
            "seed": args.seed,
        },
    )
    write_payload(args.out, payload)

    failed = False
    if not all(row["parity"] for row in rows):
        print("FAIL: backend parity violated", file=sys.stderr)
        failed = True
    if args.assert_speedup is not None:
        for row in rows:
            if row["nodes"] >= 200 and (
                row["vector_speedup"] < args.assert_speedup
            ):
                print(
                    f"FAIL: vector speedup {row['vector_speedup']}x < "
                    f"{args.assert_speedup}x at {row['nodes']} nodes",
                    file=sys.stderr,
                )
                failed = True
    if args.assert_auto:
        for row in rows:
            if row["auto_vs_best_fixed"] < 0.9:
                print(
                    f"FAIL: auto at {row['auto_vs_best_fixed']} of the "
                    f"best fixed backend at {row['nodes']} nodes",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
