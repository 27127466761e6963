"""The layers a traced run wraps, and the per-layer metrics it reports.

Imported only by traced runs (``--trace 1``): untraced runs never load a
wrapper.  :class:`LayerProbe` wraps the public entry points of each
module named in README.md from the outside (no file under ``src/`` is
edited), registers the evaluators and incremental routers the run
creates so their own counters can be read, and turns the spans and
counters of one measured window into the per-layer metrics.

Worker processes of a parallel evaluator run unwrapped (see
:mod:`e2ebench.spans`); their work shows only through the counters the
parent evaluator already collects (transport, busy seconds, cache).
"""

from __future__ import annotations

import importlib
import pickle
import statistics
from collections import Counter

from e2ebench.spans import WRAPPER_MARK, Tracer, self_times

PACKAGE = "repro"

#: (module, function, span name) for module-level functions.
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("repro.exp.common", "make_instance", "setup.instance"),
    ("repro.scenarios.generators", "build_scenarios", "setup.scenarios"),
    ("repro.scenarios.generators", "legacy_failures", "setup.scenarios"),
    ("repro.exp.common", "run_arms", "exp.run_arms"),
    ("repro.core.phase1", "run_phase1a", "phase1.phase1a"),
    ("repro.core.phase1", "run_phase1b", "phase1.phase1b"),
    ("repro.core.phase2", "run_phase2", "phase2"),
    ("repro.core.phase2", "bounded_failure_cost", "phase2.bounded_sweep"),
    ("repro.core.sla", "sla_outcome", "cost.sla"),
    ("repro.core.fortz", "fortz_cost", "cost.fortz"),
    ("repro.core.delay", "arc_delays", "cost.arc_delays"),
    ("repro.routing.sweep", "plan_sweep", "sweep.plan"),
    ("repro.routing.sweep", "route_scenario_batch", "sweep.route_batch"),
    ("repro.routing.sweep", "flush_delay_batch", "sweep.delay_flush"),
    ("repro.routing.vectorized", "batch_propagate_loads", "kernels.loads"),
    ("repro.routing.vectorized", "batch_total_loads", "kernels.loads"),
    ("repro.routing.vectorized", "batch_propagate_worst_delay",
     "kernels.delay"),
    ("repro.routing.vectorized", "batch_propagate_mean_delay",
     "kernels.delay"),
    ("repro.routing.spf", "distance_columns", "spf.distance_columns"),
)

#: (module, class, method, span name) for methods.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.core.evaluation", "DtrEvaluator", "evaluate",
     "evaluation.evaluate"),
    ("repro.core.evaluation", "DtrEvaluator", "evaluate_move",
     "evaluation.evaluate_move"),
    ("repro.core.evaluation", "DtrEvaluator", "revert_move",
     "evaluation.revert_move"),
    ("repro.core.evaluation", "DtrEvaluator", "evaluate_normal_batch",
     "evaluation.evaluate_normal_batch"),
    ("repro.core.evaluation", "DtrEvaluator", "evaluate_scenarios",
     "evaluation.evaluate_scenarios"),
    ("repro.core.evaluation", "DtrEvaluator", "evaluate_scenario_costs",
     "evaluation.evaluate_scenario_costs"),
    ("repro.core.parallel", "ParallelDtrEvaluator", "evaluate_scenarios",
     "evaluation.evaluate_scenarios"),
    ("repro.core.parallel", "ParallelDtrEvaluator", "evaluate_normal_batch",
     "evaluation.evaluate_normal_batch"),
    ("repro.core.parallel", "RoutingCache", "get", "parallel.routing_cache"),
    ("repro.core.parallel", "RoutingCache", "put", "parallel.routing_cache"),
    ("repro.core.resilience", "SweepSupervisor", "run",
     "parallel.supervise"),
    ("repro.routing.incremental", "IncrementalRouter", "set_arc_weight",
     "incremental.set_arc_weight"),
    ("repro.routing.incremental", "IncrementalRouter", "route_scenario",
     "incremental.route_scenario"),
    ("repro.routing.engine", "RoutingEngine", "route_class",
     "engine.route_class"),
    ("repro.routing.engine", "RoutingEngine", "path_delays",
     "engine.path_delays"),
)

#: Classes whose instances the probe registers to read their counters,
#: with the probe attribute collecting them.
REGISTERED = (
    ("repro.core.evaluation", "DtrEvaluator", "evaluators"),
    ("repro.routing.incremental", "IncrementalRouter", "routers"),
)

#: Spans whose self time is the evaluator's own non-sweep work.
EVALUATOR_SPANS = (
    "evaluation.evaluate",
    "evaluation.evaluate_move",
    "evaluation.revert_move",
    "evaluation.evaluate_normal_batch",
)
#: Spans whose self time is the evaluator's own sweep orchestration.
SWEEP_SPANS = (
    "evaluation.evaluate_scenarios",
    "evaluation.evaluate_scenario_costs",
)

#: Metric -> span whose outermost calls' inclusive time it reports.
INCLUSIVE_SECONDS = {
    "phase1.phase1a_s": "phase1.phase1a",
    "phase1.phase1b_s": "phase1.phase1b",
    "phase2.s": "phase2",
    "evaluation.revert_move_s": "evaluation.revert_move",
    "cost.sla_s": "cost.sla",
    "cost.fortz_s": "cost.fortz",
    "cost.arc_delays_s": "cost.arc_delays",
    "parallel.parent_wait_s": "parallel.supervise",
    "incremental.set_arc_weight_s": "incremental.set_arc_weight",
    "incremental.route_scenario_s": "incremental.route_scenario",
    "engine.path_delays_s": "engine.path_delays",
    "engine.route_class_s": "engine.route_class",
    "sweep.plan_s": "sweep.plan",
    "sweep.route_batch_s": "sweep.route_batch",
    "sweep.delay_flush_s": "sweep.delay_flush",
    "kernels.loads_s": "kernels.loads",
    "kernels.delay_s": "kernels.delay",
}

#: Set-up metrics cover the whole traced process, not only the window.
SETUP_SECONDS = {
    "setup.instance_s": "setup.instance",
    "setup.scenarios_s": "setup.scenarios",
}

#: Every per-layer metric with its unit, in report order.
UNITS: dict[str, str] = {
    "phase1.phase1a_s": "s",
    "phase1.phase1b_s": "s",
    "phase1.phase1a_moves": "count",
    "phase1.accept_ratio": "ratio",
    "phase2.s": "s",
    "phase2.bounded_sweeps": "count",
    "phase2.prune_ratio": "ratio",
    "phase2.scenario_evals": "count",
    "evaluation.evaluate_move.calls": "count",
    "evaluation.evaluate_move.ms.p50": "ms",
    "evaluation.evaluate.calls": "count",
    "evaluation.evaluate.ms.p50": "ms",
    "evaluation.revert_move_s": "s",
    "evaluation.self_s": "s",
    "evaluation.sweep_self_s": "s",
    "evaluation.sweep_memo.lookups": "count",
    "evaluation.sweep_memo.hit_ratio": "ratio",
    "cost.sla_s": "s",
    "cost.fortz_s": "s",
    "cost.arc_delays_s": "s",
    "parallel.routing_cache_s": "s",
    "parallel.routing_cache.lookups": "count",
    "parallel.routing_cache.hit_ratio": "ratio",
    "parallel.tasks": "count",
    "parallel.task_bytes": "B",
    "parallel.payload_bytes": "B",
    "parallel.result_bytes": "B",
    "parallel.worker_busy_s": "s",
    "parallel.busy_imbalance": "ratio",
    "parallel.parent_wait_s": "s",
    "resilience.retries": "count",
    "resilience.quarantined": "count",
    "incremental.set_arc_weight_s": "s",
    "incremental.deltas": "count",
    "incremental.dests_per_delta": "ratio",
    "incremental.route_scenario_s": "s",
    "incremental.rebuilds": "count",
    "incremental.dests_reused_ratio": "ratio",
    "incremental.propagation_memo.lookups": "count",
    "incremental.propagation_memo.hit_ratio": "ratio",
    "engine.path_delays_s": "s",
    "engine.route_class_s": "s",
    "sweep.plan_s": "s",
    "sweep.route_batch_s": "s",
    "sweep.delay_flush_s": "s",
    "sweep.groups": "count",
    "kernels.loads_s": "s",
    "kernels.delay_s": "s",
    "spf.columns": "count",
    "setup.instance_s": "s",
    "setup.scenarios_s": "s",
    "trace.spans": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Wraps the layers, collects their counters, computes the metrics.

    Attributes:
        tracer: the span recorder.
        hooks: counts taken at wrapped boundaries (arguments and results).
        evaluators, routers: every instance created while installed.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.hooks: Counter = Counter()
        self.evaluators: list = []
        self.routers: list = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (importing its module first)."""
        import repro.exp.table2  # noqa: F401 - holds make_instance, run_arms

        tracer, hooks = self.tracer, self.hooks

        def next_request(args, kwargs):
            tracer.request_id += 1

        def phase1a_done(args, kwargs, result):
            # run_phase1a updates the SearchStats it is handed in place.
            hooks["phase1.accepted"] += args[3].accepted_moves

        def phase2_done(args, kwargs, result):
            hooks["phase2.evaluations"] += result.stats.evaluations

        def bounded_done(args, kwargs, result):
            hooks["phase2.pruned"] += result is None

        def planned(args, kwargs, result):
            hooks["sweep.groups"] += len(result.batch_groups) + len(
                result.variant_groups
            )

        def columns(args, kwargs):
            hooks["spf.columns"] += len(args[2])

        def delta_done(args, kwargs, result):
            hooks["incremental.dests_touched"] += result

        def supervised(args, kwargs, results):
            for item in results:
                if item[1] is not None:  # a worker's result, not the parent's
                    hooks["parallel.result_bytes"] += len(
                        pickle.dumps(item[0], protocol=5)
                    )

        function_hooks = {
            "make_instance": {"on_call": next_request},
            "run_phase1a": {"on_return": phase1a_done},
            "run_phase2": {"on_return": phase2_done},
            "bounded_failure_cost": {"on_return": bounded_done},
            "plan_sweep": {"on_return": planned},
            "distance_columns": {"on_call": columns},
        }
        method_hooks = {
            "set_arc_weight": {"on_return": delta_done},
            "run": {"on_return": supervised},
        }
        for module, name, span in FUNCTIONS:
            tracer.trace_function(
                _resolve(module, name),
                span,
                PACKAGE,
                **function_hooks.get(name, {}),
            )
        for module, cls_name, method, span in METHODS:
            tracer.trace_method(
                _resolve(module, cls_name),
                method,
                span,
                **method_hooks.get(method, {}),
            )
        for module, cls_name, sink in REGISTERED:
            self._register(_resolve(module, cls_name), getattr(self, sink))

    def _register(self, cls: type, sink: list) -> None:
        original = cls.__dict__["__init__"]

        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            sink.append(instance)

        setattr(init, WRAPPER_MARK, True)
        self.tracer.patch_method(cls, "__init__", init)

    def restore(self) -> None:
        """Unwrap everything."""
        self.tracer.restore()

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def counters(self) -> Counter:
        """Boundary counts plus the registered instances' own counters.

        Taken at both ends of the measured window; the metrics use the
        difference, so work done before the window (warm-up) is excluded.
        """
        total = Counter(self.hooks)
        for evaluator in self.evaluators:
            memo = evaluator.sweep_memo_stats
            total["memo.hits"] += memo.hits
            total["memo.lookups"] += memo.lookups
            cache = getattr(evaluator, "cache_stats", None)
            if cache is not None:
                total["cache.hits"] += cache.hits
                total["cache.lookups"] += cache.lookups
            transport = getattr(evaluator, "transport_stats", None)
            if transport is not None:
                total["parallel.tasks"] += transport.tasks
                total["parallel.task_bytes"] += transport.task_bytes
                total["parallel.payload_bytes"] += transport.payload_bytes
            busy = getattr(evaluator, "worker_busy_seconds", None) or {}
            for pid, seconds in busy.items():
                total[f"busy.{pid}"] += seconds
            resilience = evaluator.resilience_stats
            total["resilience.retries"] += resilience.retries
            total["resilience.quarantined"] += resilience.quarantined_tasks
        for router in self.routers:
            stats = router.stats
            total["incremental.rebuilds"] += stats.rebuilds
            total["dests.reused"] += stats.destinations_reused
            total["dests.recomputed"] += stats.destinations_recomputed
            # The propagation memo has no public view; its two counters
            # are plain attributes.
            memo = router._memo
            total["pmemo.hits"] += memo.hits
            total["pmemo.lookups"] += memo.hits + memo.misses
        return total

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(
        self,
        window: tuple[float, float],
        before: Counter,
        after: Counter,
    ) -> dict[str, float]:
        """Per-layer metrics of one window (``perf_counter`` bounds).

        Span metrics use the spans lying wholly inside the window;
        counter metrics use ``after - before``.  ``trace.overhead_s`` is
        left to the caller, which owns the untraced twin run.
        """
        t = self.tracer
        start, end, parent = t.start, t.end, t.parent
        names = [t.names[i] for i in t.name_id]
        own = self_times(start, end, parent)
        # Ancestor-name sets, interned per distinct call stack.
        stack_sets: list[frozenset] = [frozenset()]
        stack_index: dict[tuple[int, str], int] = {}
        stack_of = [0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                key = (stack_of[p], names[p])
                sid = stack_index.get(key)
                if sid is None:
                    sid = len(stack_sets)
                    stack_sets.append(stack_sets[key[0]] | {names[p]})
                    stack_index[key] = sid
                stack_of[i] = sid

        lo, hi = window
        inclusive: Counter = Counter()
        setup: Counter = Counter()
        self_total: Counter = Counter()
        calls: Counter = Counter()
        durations: dict[str, list[float]] = {}
        top_level = 0.0
        moves_1a = 0
        spans = 0
        for i, name in enumerate(names):
            duration = end[i] - start[i]
            outermost = name not in stack_sets[stack_of[i]]
            if outermost:
                setup[name] += duration
            if start[i] < lo or end[i] > hi:
                continue
            spans += 1
            self_total[name] += own[i]
            if outermost:
                inclusive[name] += duration
                calls[name] += 1
                durations.setdefault(name, []).append(duration)
            if parent[i] < 0:
                top_level += duration
            if (
                name == "evaluation.evaluate_move"
                and "phase1.phase1a" in stack_sets[stack_of[i]]
            ):
                moves_1a += 1

        delta = Counter(after)
        delta.subtract(before)
        busy = [v for k, v in delta.items() if k.startswith("busy.") and v]

        def p50_ms(name: str) -> float:
            values = durations.get(name)
            return 1e3 * statistics.median(values) if values else 0.0

        out: dict[str, float] = {
            metric: inclusive[span]
            for metric, span in INCLUSIVE_SECONDS.items()
        }
        out.update(
            {metric: setup[span] for metric, span in SETUP_SECONDS.items()}
        )
        deltas = calls["incremental.set_arc_weight"]
        out.update(
            {
                "phase1.phase1a_moves": moves_1a,
                "phase1.accept_ratio": _ratio(
                    delta["phase1.accepted"], moves_1a
                ),
                "phase2.bounded_sweeps": calls["phase2.bounded_sweep"],
                "phase2.prune_ratio": _ratio(
                    delta["phase2.pruned"], calls["phase2.bounded_sweep"]
                ),
                "phase2.scenario_evals": delta["phase2.evaluations"],
                "evaluation.evaluate_move.calls": calls[
                    "evaluation.evaluate_move"
                ],
                "evaluation.evaluate_move.ms.p50": p50_ms(
                    "evaluation.evaluate_move"
                ),
                "evaluation.evaluate.calls": calls["evaluation.evaluate"],
                "evaluation.evaluate.ms.p50": p50_ms("evaluation.evaluate"),
                "evaluation.self_s": sum(
                    self_total[n] for n in EVALUATOR_SPANS
                ),
                "evaluation.sweep_self_s": sum(
                    self_total[n] for n in SWEEP_SPANS
                ),
                "evaluation.sweep_memo.lookups": delta["memo.lookups"],
                "evaluation.sweep_memo.hit_ratio": _ratio(
                    delta["memo.hits"], delta["memo.lookups"]
                ),
                "parallel.routing_cache_s": self_total[
                    "parallel.routing_cache"
                ],
                "parallel.routing_cache.lookups": delta["cache.lookups"],
                "parallel.routing_cache.hit_ratio": _ratio(
                    delta["cache.hits"], delta["cache.lookups"]
                ),
                "parallel.tasks": delta["parallel.tasks"],
                "parallel.task_bytes": delta["parallel.task_bytes"],
                "parallel.payload_bytes": delta["parallel.payload_bytes"],
                "parallel.result_bytes": delta["parallel.result_bytes"],
                "parallel.worker_busy_s": sum(busy),
                "parallel.busy_imbalance": _ratio(
                    max(busy, default=0.0),
                    sum(busy) / len(busy) if busy else 0.0,
                ),
                "resilience.retries": delta["resilience.retries"],
                "resilience.quarantined": delta["resilience.quarantined"],
                "incremental.deltas": deltas,
                "incremental.dests_per_delta": _ratio(
                    delta["incremental.dests_touched"], deltas
                ),
                "incremental.rebuilds": delta["incremental.rebuilds"],
                "incremental.dests_reused_ratio": _ratio(
                    delta["dests.reused"],
                    delta["dests.reused"] + delta["dests.recomputed"],
                ),
                "incremental.propagation_memo.lookups": delta[
                    "pmemo.lookups"
                ],
                "incremental.propagation_memo.hit_ratio": _ratio(
                    delta["pmemo.hits"], delta["pmemo.lookups"]
                ),
                "sweep.groups": delta["sweep.groups"],
                "spf.columns": delta["spf.columns"],
                "trace.spans": spans,
                "trace.coverage": _ratio(top_level, hi - lo),
            }
        )
        return out
