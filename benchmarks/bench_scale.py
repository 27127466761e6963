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
  stack by more than 10 %, whatever mix of kernels it ran.  ``auto``
  resolves each kernel batch on its own (``resolve_backend`` per call,
  by the batch's work against the route and propagation crossovers),
  so one sweep can mix both stacks; and distance columns take the heap
  Dijkstra or scipy's by batch size alone.  Each row records that mix
  as ``auto_dispatch``, counted over one more untimed auto sweep:
  ``route:*`` and ``propagate:*`` are ``resolve_backend`` calls by kind
  and resolved stack, ``spf:*`` distance columns by implementation.

Every backend is timed over ``--rounds`` rounds (default 5), backends
alternating their order each round; in each round a backend's fresh
evaluator repeats the sweep until it has run for at least
:data:`MIN_ARM_SECONDS` (a single sweep takes well under a second at
the smaller sizes, too short to compare on a shared host), and its rate
is the scenarios swept over that time.  A row reports each backend's
median and quartiles of evaluations/sec next to the record's CPU count,
and the speedup, the auto margin and both gates compare medians.

Usage::

    python benchmarks/bench_scale.py                     # full report
    python benchmarks/bench_scale.py --sizes 30 100 --rounds 1   # smoke
    python benchmarks/bench_scale.py --assert-speedup 3.0 --assert-auto

``--assert-speedup X`` additionally fails the run when the vector
backend's speedup over python lands below ``X`` on every >=200-node
sweep; ``--assert-auto`` turns the 10 % auto margin into a gate: auto's
median against the better of the two fixed stacks' medians, whatever
mix auto dispatched.  Both are opt-in because shared CI runners make
wall-clock assertions flaky.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from collections import Counter

import numpy as np
from bench_schema import bench_payload, quartiles, write_payload

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.weights import WeightSetting
from repro.routing import engine, spf
from repro.routing.backend import (
    VECTOR_CROSSOVER_WORK,
    VECTOR_PROPAGATION_CROSSOVER_WORK,
)
from repro.scenarios import legacy_failures
from repro.topology import isp_topology, powerlaw_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization

#: BA attachments per arriving node (the paper's PLTopo density).
PL_ATTACHMENTS = 3

#: Seconds each backend's evaluator keeps re-sweeping in one round.
MIN_ARM_SECONDS = 1.0


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


def sweep_arm(network, traffic, setting, failures, backend: str):
    """One round of a backend on a fresh evaluator; (rate, last sweep).

    The sweep repeats until :data:`MIN_ARM_SECONDS` have passed (from
    scratch every time: no cache, memo or batch engine is on), and the
    rate is scenarios swept per second over the whole time.
    """
    evaluator = DtrEvaluator(network, traffic, config_for(backend))
    normal = evaluator.evaluate_normal(setting)
    gc.collect()
    swept = 0
    start = time.perf_counter()
    while True:
        sweep = evaluator.evaluate_scenarios(setting, failures, reuse=normal)
        swept += len(failures)
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_ARM_SECONDS:
            return swept / elapsed, sweep


def auto_dispatch(network, traffic, setting, failures) -> "dict[str, int]":
    """What ``auto`` ran in one sweep, as counts per ``kind:stack``.

    One untimed auto sweep runs with the engine's ``resolve_backend``
    reference (every kernel-batch decision) and both distance-column
    implementations wrapped in counters, so the timed arms pay nothing
    for the count.
    """
    counts: Counter = Counter()
    resolve, heap, batched = (
        engine.resolve_backend, spf._dijkstra_to, spf.dijkstra
    )

    def counted_resolve(backend, num_nodes, num_arcs, num_destinations,
                        kind="route"):
        stack = resolve(backend, num_nodes, num_arcs, num_destinations, kind)
        counts[f"{kind}:{stack}"] += 1
        return stack

    def counted_heap(*args):
        counts["spf:python"] += 1
        return heap(*args)

    def counted_batched(*args, indices, **kwargs):
        counts["spf:vector"] += len(indices)
        return batched(*args, indices=indices, **kwargs)

    evaluator = DtrEvaluator(network, traffic, config_for("auto"))
    normal = evaluator.evaluate_normal(setting)
    engine.resolve_backend = counted_resolve
    spf._dijkstra_to, spf.dijkstra = counted_heap, counted_batched
    try:
        evaluator.evaluate_scenarios(setting, failures, reuse=normal)
    finally:
        engine.resolve_backend = resolve
        spf._dijkstra_to, spf.dijkstra = heap, batched
    return dict(sorted(counts.items()))


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
    rates: "dict[str, list[float]]" = {backend: [] for backend in backends}
    order = list(backends)
    reference = None
    parity = True
    for _ in range(rounds):
        for backend in order:
            rate, sweep = sweep_arm(
                network, traffic, setting, failures, backend
            )
            rates[backend].append(rate)
            if reference is None:
                reference = sweep
            parity = parity and sweeps_identical(reference, sweep)
        order.reverse()
    median = {b: statistics.median(rates[b]) for b in backends}

    dispatch = auto_dispatch(network, traffic, setting, failures)
    best_fixed = max(median["python"], median["vector"])
    row = {
        "family": network.name,
        "nodes": network.num_nodes,
        "arcs": network.num_arcs,
        "scenarios": len(failures),
        **{f"{b}_evals_per_sec": quartiles(rates[b]) for b in backends},
        "vector_speedup": round(median["vector"] / median["python"], 2),
        "auto_dispatch": dispatch,
        "auto_vs_best_fixed": round(median["auto"] / best_fixed, 3),
        "parity": parity,
    }
    spread = "  ".join(
        f"{b} {median[b]:>8.2f}/s [{row[f'{b}_evals_per_sec']['q1']:.2f}, "
        f"{row[f'{b}_evals_per_sec']['q3']:.2f}]"
        for b in backends
    )
    mix = ", ".join(f"{key} {count}" for key, count in dispatch.items())
    print(
        f"{row['family']:>7}[{row['nodes']:>3},{row['arcs']:>5}] "
        f"{row['scenarios']:>3} scenarios: {spread}  "
        f"vector {row['vector_speedup']:.2f}x, auto [{mix}] "
        f"{row['auto_vs_best_fixed']:.2f} of best  parity={parity}"
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
        "--rounds",
        type=int,
        default=5,
        help="timed rounds, one sweep per backend each (default 5)",
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
        help=(
            "exit 1 if auto's median is >10%% below the better fixed "
            "stack's, whatever mix of stacks auto dispatched"
        ),
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
            "routing_cache=False), a fresh evaluator per backend and "
            "round re-sweeping for at least MIN_ARM_SECONDS, backends "
            "alternating; evals/s median and quartiles; delta-rerouting "
            "gains are tracked by BENCH_incremental.json"
        ),
        rows=rows,
        context={
            "rounds": args.rounds,
            "min_arm_seconds": MIN_ARM_SECONDS,
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
