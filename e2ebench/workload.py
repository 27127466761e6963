"""One workload of the end-to-end benchmark, in a fresh interpreter.

``run.py`` starts this module as a child process (``python3 -m
e2ebench.workload``, with ``src`` on ``PYTHONPATH``) and reads the JSON
object it prints as its last stdout line.  The child builds the
workload's inputs from the seed, sets up, runs the timed operations,
checks every output and reports its metrics -- all but ``setup_s``,
which ``run.py`` takes as the median over several children.

Clocks: ``--spawned-at`` is the parent's ``time.monotonic()`` just before
it started this process, and the child reports its own
``time.monotonic()`` at the first timed operation, so ``setup_s`` spans
interpreter start, imports, inputs, evaluator and pool construction and
warm-up.  Operations are timed with ``time.perf_counter()``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import statistics
import struct
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.core.parallel as parallel
import repro.exp.common as exp_common
import repro.exp.table2 as table2  # noqa: F401 - loaded before any tracing
import repro.scenarios.generators as generators
from repro.analysis.metrics import SlaViolationStats, phi_degradation_percent
from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.weights import WeightSetting
from repro.exp.presets import get_preset
from repro.exp.runner import run_experiment
from repro.exp.table1 import TABLE1_TOPOLOGIES
from repro.routing.backend import backend_availability

from e2ebench.stats import tail

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = ("table2-quick", "audit-rand30", "audit-rand30-jobs2")

#: The audit instance and scenario families (see README.md).
AUDIT_INSTANCE = ("rand", 30, 6.0)
AUDIT_SCENARIOS = "link,srlg,surge"
#: Randomness stream of the audit settings (streams 1-3 are the
#: instance's topology, traffic and search streams).
SETTINGS_STREAM = 4
#: Untimed requests before the window (their settings are not reused).
WARMUP_REQUESTS = 3
#: Settings drawn per run; a run that exhausts them ends its window early.
MAX_REQUESTS = 1024
#: Timed requests compared with the reference evaluator at every seed.
REFERENCE_CHECKS = 3
#: Audit memory is read after this many timed requests (or at the end of
#: a shorter window): caches and memos grow with use, so a fixed amount
#: of work keeps runs of faster and slower code comparable.
PEAK_RSS_AFTER = 32


def reference_config() -> OptimizerConfig:
    """The from-scratch evaluation path: no cache, batching or deltas."""
    return OptimizerConfig(
        execution=ExecutionParams(
            routing_cache=False,
            incremental_routing=False,
            routing_backend="python",
            sweep_batching="off",
        )
    )


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def audit_inputs(seed: int, count: int):
    """The audit instance, scenario set and ``count`` request settings."""
    kind, nodes, degree = AUDIT_INSTANCE
    instance = exp_common.make_instance(kind, nodes, degree, seed)
    scenarios = generators.build_scenarios(
        AUDIT_SCENARIOS, instance.network, seed
    )
    rng = exp_common.instance_rng(seed, SETTINGS_STREAM)
    params = OptimizerConfig().weights
    settings = [
        WeightSetting.random(instance.network.num_arcs, params, rng)
        for _ in range(count)
    ]
    return instance, scenarios, settings


def settings_digest(settings: "list[WeightSetting]") -> str:
    h = hashlib.sha256()
    for setting in settings:
        h.update(setting.delay.tobytes())
        h.update(setting.tput.tobytes())
    return h.hexdigest()


def costs_digest(costs) -> str:
    """sha256 of every scenario's (Lambda, Phi, violations), in order."""
    h = hashlib.sha256()
    for e in costs.evaluations:
        h.update(struct.pack("<ddq", e.cost.lam, e.cost.phi, e.sla.violations))
    return h.hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())


# ----------------------------------------------------------------------
# process tree and context
# ----------------------------------------------------------------------
def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces or parentheses: parse after it.
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def _vmhwm_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:  # exited meanwhile
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> tuple[float, int]:
    """Summed peak resident memory of this process and its descendants.

    Returns ``(megabytes, processes counted)``; read while a pool's
    workers are still alive.
    """
    pids = [os.getpid(), *_descendants(os.getpid())]
    return sum(_vmhwm_kb(pid) for pid in pids) / 1024.0, len(pids)


def versions() -> dict:
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backends": backend_availability(),
    }


# ----------------------------------------------------------------------
# table2-quick
# ----------------------------------------------------------------------
def table2_digests(result, arms) -> dict:
    """Digests of the rendered table, the weights and their cost pairs."""
    weights = hashlib.sha256()
    costs = hashlib.sha256()
    for arm in arms:
        for setting in (arm.robust_setting, arm.regular_setting):
            weights.update(setting.delay.tobytes())
            weights.update(setting.tput.tobytes())
        for pair in (
            arm.phase1.best_cost,
            arm.phase2.normal_cost,
            arm.phase2.best_kfail,
        ):
            costs.update(struct.pack("<dd", pair.lam, pair.phi))
    return {
        "table": hashlib.sha256(result.render().encode()).hexdigest(),
        "weights": weights.hexdigest(),
        "costs": costs.hexdigest(),
    }


def _exact(value) -> object:
    """A cost pair as its two full-precision floats (its repr rounds)."""
    return (value.lam, value.phi) if hasattr(value, "lam") else value


def table2_mismatches(seed: int, result, arms) -> list[str]:
    """Re-evaluate every arm's settings from scratch against the output.

    The search reports its settings' cost pairs and Table II prints SLA
    statistics of both settings over every single-link failure; a fresh
    from-scratch evaluator must reproduce all of them bit for bit.
    """
    preset = get_preset("quick")
    problems = []
    if len(arms) != len(TABLE1_TOPOLOGIES) or len(result.rows) != len(arms):
        return [f"expected {len(TABLE1_TOPOLOGIES)} arms, got {len(arms)}"]
    for (kind, paper_nodes, degree), arm, row in zip(
        TABLE1_TOPOLOGIES, arms, result.rows
    ):
        nodes = paper_nodes if kind == "isp" else preset.scaled_nodes(
            paper_nodes
        )
        instance = exp_common.make_instance(kind, nodes, degree, seed=seed)
        ref = DtrEvaluator(
            instance.network, instance.traffic, reference_config()
        )
        robust, regular = arm.robust_setting, arm.regular_setting
        robust_normal = ref.evaluate_normal(robust)
        regular_normal = ref.evaluate_normal(regular)
        rob = SlaViolationStats.from_failures(
            ref.evaluate_scenarios(robust, arm.all_failures)
        )
        reg = SlaViolationStats.from_failures(
            ref.evaluate_scenarios(regular, arm.all_failures)
        )
        expected = {
            "regular cost": (regular_normal.cost, arm.phase1.best_cost),
            "robust cost": (robust_normal.cost, arm.phase2.normal_cost),
            "robust kfail": (
                ref.evaluate_scenarios(
                    robust, arm.critical_failures
                ).total_cost,
                arm.phase2.best_kfail,
            ),
            "avg SLA viol (R)": ((rob.mean,), row["avg SLA viol (R)"]),
            "avg SLA viol (NR)": ((reg.mean,), row["avg SLA viol (NR)"]),
            "top-10% (R)": ((rob.top10_mean,), row["top-10% (R)"]),
            "top-10% (NR)": ((reg.top10_mean,), row["top-10% (NR)"]),
            "phi degradation %": (
                (phi_degradation_percent(robust_normal, regular_normal),),
                row["phi degradation %"],
            ),
        }
        for what, (fresh, reported) in expected.items():
            if fresh != reported:
                problems.append(
                    f"{instance.label} {what}: "
                    f"{_exact(reported)} != {_exact(fresh)}"
                )
    return problems


@contextmanager
def arm_store(work_dir: Path):
    """Collect the results of the ``run_arms`` calls made inside.

    Uses the CLI's ``--arm-store`` mechanism: every arm's result
    (weights, costs, phase statistics) is pickled into a scratch
    directory by the library itself, and read back -- in call order --
    when the block exits.
    """
    store = Path(tempfile.mkdtemp(prefix="arms-", dir=work_dir))
    control = exp_common.ArmControl(store=store, namespace="table2")
    arms: list = []
    previous = exp_common.set_arm_control(control)
    try:
        yield arms
    finally:
        exp_common.set_arm_control(previous)
        for key in control.computed:
            with open(store / f"{key}.pkl", "rb") as handle:  # ours
                arms.append(pickle.load(handle))
        shutil.rmtree(store)


def run_table2(args, probe) -> dict:
    """``run_experiment("table2", "quick", seed)``, serial, one call."""
    errors: list[str] = []
    result = None
    with arm_store(args.work_dir) as arms:
        out: dict = {"first_op": time.monotonic(), "ops": 1}
        if args.setup_only:
            return out
        if probe is not None:
            before = probe.counters()
        begin = time.perf_counter()
        try:
            result = run_experiment("table2", preset="quick", seed=args.seed)
        except Exception as exc:  # a failed operation, counted below
            errors.append(f"table2 raised {exc!r}")
        done = time.perf_counter()
        if probe is not None:
            out["layers"] = probe.metrics(
                (begin, done), before, probe.counters()
            )
        out["peak_rss_mb"], out["processes"] = peak_rss_mb()
    out["window_s"] = done - begin
    out["latencies_s"] = []
    if result is not None:
        out["latencies_s"] = [done - begin]
        out["wall_s"] = done - begin
        out["scenario_evals"] = sum(
            arm.phase1.stats.evaluations
            + arm.phase2.stats.evaluations
            + 2 * len(arm.all_failures)
            for arm in arms
        )
        errors += table2_mismatches(args.seed, result, arms)
        out["digests"] = table2_digests(result, arms)
        pinned = load_digests()["table2-quick"].get(str(args.seed))
        if pinned is not None and pinned != out["digests"]:
            errors.append(f"digests differ from the pinned seed {args.seed}")
    out["failed"] = 1 if errors else 0
    out["errors"] = errors
    return out


# ----------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------
def run_audit(args, probe) -> dict:
    """Closed loop, one client: one costs-only sweep per request."""
    jobs = 2 if args.workload.endswith("-jobs2") else 1
    instance, scenarios, settings = audit_inputs(
        args.seed, WARMUP_REQUESTS + MAX_REQUESTS
    )
    warmup, timed = settings[:WARMUP_REQUESTS], settings[WARMUP_REQUESTS:]
    if args.requests is not None:
        timed = timed[: args.requests]
    config = OptimizerConfig(execution=ExecutionParams(n_jobs=jobs))
    evaluator = parallel.make_evaluator(
        instance.network, instance.traffic, config
    )
    out: dict = {}
    try:
        for setting in warmup:
            evaluator.evaluate_scenario_costs(setting, scenarios)
        out["first_op"] = time.monotonic()
        if args.setup_only:
            return out
        memo_hits = evaluator.sweep_memo_stats.hits
        if probe is not None:
            before = probe.counters()
        latencies: list[float] = []
        results: list = []
        errors: list[str] = []
        window_start = time.perf_counter()
        deadline = (
            window_start + args.seconds if args.requests is None else None
        )
        for index, setting in enumerate(timed):
            if probe is not None:
                probe.tracer.request_id = index
            begin = time.perf_counter()
            try:
                costs = evaluator.evaluate_scenario_costs(setting, scenarios)
            except Exception as exc:  # a failed operation, counted below
                costs = None
                errors.append(f"request {index} raised {exc!r}")
            done = time.perf_counter()
            results.append(costs)
            if costs is not None:
                latencies.append(done - begin)
            if len(results) == PEAK_RSS_AFTER:
                out["peak_rss_mb"], out["processes"] = peak_rss_mb()
            if deadline is not None and done >= deadline:
                break
        window_end = time.perf_counter()
        if probe is not None:
            out["layers"] = probe.metrics(
                (window_start, window_end), before, probe.counters()
            )
        if "peak_rss_mb" not in out:
            out["peak_rss_mb"], out["processes"] = peak_rss_mb()
        if evaluator.sweep_memo_stats.hits != memo_hits:
            raise RuntimeError("the sweep memo answered a timed request")
    finally:
        evaluator.close()

    out["window_s"] = window_end - window_start
    out["latencies_s"] = latencies
    out["ops"] = len(results)
    out["scenarios"] = len(scenarios)
    out["scenario_evals"] = len(latencies) * len(scenarios)
    out["settings_digest"] = settings_digest(settings)
    out["scenarios_digest"] = scenarios.digest
    pinned = load_digests()["audit-rand30"].get(str(args.seed), [])
    # At every seed, a few requests are also re-swept on the from-scratch
    # path; at the pinned seeds every request has a pinned digest.
    reference = DtrEvaluator(
        instance.network, instance.traffic, reference_config()
    )
    count = len(results)
    sampled = sorted({0, count // 2, count - 1})[:REFERENCE_CHECKS]
    fresh = {
        i: costs_digest(reference.evaluate_scenarios(timed[i], scenarios))
        for i in sampled
        if results[i] is not None
    }
    failed = digest_gate(results, dict(enumerate(pinned)))
    failed.update(digest_gate(results, fresh))
    errors += [
        f"request {i}: {why}" for i, why in sorted(failed.items())
        if why != "raised"
    ]
    out["checked"] = {
        "pinned": min(len(pinned), count),
        "reference": len(fresh),
    }
    out["failed"] = len(failed)
    out["errors"] = errors
    return out


def digest_gate(results: list, expected: "dict[int, str]") -> "dict[int, str]":
    """Failed operations, index -> reason.

    ``results[i]`` is request ``i``'s sweep, or None if it raised;
    ``expected`` maps request indices to the digest the sweep must have.
    """
    failed = {i: "raised" for i, costs in enumerate(results) if costs is None}
    for i, want in expected.items():
        if i < len(results) and results[i] is not None:
            if costs_digest(results[i]) != want:
                failed[i] = "digest differs from the expected one"
    return failed


# ----------------------------------------------------------------------
def end_to_end(out: dict) -> "tuple[dict, dict]":
    """End-to-end metrics (all but ``setup_s``) and the raw figures.

    Latencies are normalized per scenario evaluation so that runs at
    different seeds -- different instances, scenario counts and search
    lengths -- measure the same quantity (see README.md).
    """
    latencies = out["latencies_s"]
    if not latencies:
        raise RuntimeError(
            "no operation completed: " + "; ".join(out["errors"])
        )
    per_op = out["scenario_evals"] / len(latencies)
    value, level, beyond = tail(latencies)
    median = statistics.median(latencies)
    metrics = {
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "scenarios_per_s": (out["scenario_evals"] / out["window_s"], "1/s"),
        "scenario_us.p50": (1e6 * median / per_op, "us"),
        "scenario_us.tail": (1e6 * value / per_op, "us"),
    }
    figures = {
        "op_ms.p50": 1e3 * median,
        "op_ms.tail": 1e3 * value,
        "tail_level": level,
        "tail_samples_beyond": beyond,
        "ops_timed": len(latencies),
        "scenario_evals_per_op": per_op,
    }
    return (
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        figures,
    )


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float, default=10.0)
    length.add_argument(
        "--requests", type=int, help="fixed request count (audits)"
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path, help="trace the run")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    probe = None
    if args.trace_out is not None:
        from e2ebench.layers import UNITS, LayerProbe  # traced runs only

        probe = LayerProbe()
        probe.install()
    try:
        run = run_table2 if args.workload == "table2-quick" else run_audit
        out = run(args, probe)
    finally:
        if probe is not None:
            probe.restore()
    out["setup_s"] = out["first_op"] - args.spawned_at
    if not args.setup_only:
        if probe is not None:
            probe.tracer.save(args.trace_out)
            layers = out.pop("layers")
            out["metrics"] = {
                name: {"value": layers[name], "unit": unit}
                for name, unit in UNITS.items()
                if name != "trace.overhead_s"
            }
        else:
            out["metrics"], out["figures"] = end_to_end(out)
        out["context"] = versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
