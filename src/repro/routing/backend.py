"""Size-adaptive routing-backend selection.

Two implementations of the per-destination routing kernels coexist:

* ``"python"`` — the pure-Python propagation loops of
  :mod:`repro.routing.fastpath`.  At backbone scale (tens of nodes, a
  few hundred arcs) numpy call overhead dominates, so plain lists win
  by 3-6x there.
* ``"vector"`` — the array-native batch kernels of
  :mod:`repro.routing.vectorized`, which process a whole destination
  batch as 2D arrays (one argsort of the distance columns, masked
  scatter-adds along arcs).  Per-step numpy overhead is amortized over
  every destination, so this side wins once the instance is large —
  Rocketfuel-class ISP topologies at hundreds of nodes.

Both backends produce bit-identical results on integer-weight instances
(the parity tests pin this), so backend choice is purely an execution
knob.  ``"auto"`` picks per call from the *work measure* of the batch —
``num_destinations * (num_nodes + num_arcs)``, the element count the
propagation sweep actually touches — against crossovers calibrated by
``benchmarks/bench_scale.py`` (see ``BENCH_scale.json`` and the Scaling
section of docs/PERFORMANCE.md, which record the measurement).
"""

from __future__ import annotations

#: Recognized backend names.
VALID_BACKENDS = ("auto", "python", "vector")

#: Work measure (``destinations * (nodes + arcs)``) above which the
#: vector kernels take over a *full routing* (masks + propagation +
#: path-delay DP; the distance-column implementation dispatches
#: separately by batch size under ``auto``).  Calibrated with
#: ``benchmarks/bench_scale.py``: on the 16-node ISP backbone
#: (work ~ 1.4k) the python kernels win comfortably, on the 30-node
#: benchmark instance (30 nodes / 138 arcs, work ~ 5.0k) the
#: production workload — incremental delta sweeps — still favors them,
#: and from the 30-node PLTopo (work ~ 5.9k) upward the vector side
#: wins every measured sweep, by 4-5x at 200-400 nodes.  The constant
#: sits between those bracketing measurements.
VECTOR_CROSSOVER_WORK = 5_500

#: Crossover for *propagation-only* batches — every batch of columns
#: the load and path-delay drivers run, on the per-scenario and batch
#: sweep paths alike (``repro.routing.engine._vector_columns``) — where
#: no Dijkstra rides along to amortize: the batch kernels win much
#: earlier.  Calibrated head-to-head against the python loop on
#: powerlaw instances — the break-even sits between work ~ 2.8k
#: (python ahead) and ~ 5.5k (vector ahead) across 100-400 nodes.
VECTOR_PROPAGATION_CROSSOVER_WORK = 4_500

#: Node count up to which a batch sweep group whose failures leave at
#: least two scenarios needing new distance columns takes those columns
#: from one min-plus closure over the scenarios' stacked adjacency
#: matrices (:func:`repro.routing.incremental._closure_columns`) instead
#: of one Python cone repair per (scenario, destination) cell.  The
#: closure runs ``N`` numpy steps per chunk of scenarios, ``N³`` work per
#: scenario, against cone repairs whose count and size grow with ``N``
#: but shrink on denser graphs (more equal-cost alternatives): it wins
#: at backbone scale and loses as ``N`` grows.  Timed per scenario on
#: whole link + SRLG groups (2-vCPU Xeon), closure against cone repair:
#: 16-node ISP 19 vs 106 µs, 30-node RandTopo 102 vs 269 µs and
#: PLTopo 83 vs 203 µs; at 64 nodes RandTopo 679 vs 745 µs and PLTopo
#: 670 vs 606 µs (level); at 72 nodes PLTopo 766 vs 620 µs and at 100
#: nodes 1,898 vs 1,240 µs.  A group of one never takes the closure: it
#: cannot amortize the ``N`` steps.
CLOSURE_MAX_NODES = 64


def backend_availability() -> dict:
    """Which routing backends this environment can run, with versions.

    Recorded in the ``context`` block of every ``BENCH_*.json`` (via
    ``benchmarks/bench_schema.py``) so benchmark rows stay interpretable
    across machines.
    """
    info: dict = {"python": True, "vector": True}
    try:
        import numpy

        info["numpy_version"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        info["numpy_version"] = None
    return info


#: Recognized sweep-batching modes: ``"auto"`` batches every sweep of
#: at least :data:`SWEEP_BATCH_MIN_SCENARIOS` scenarios, ``"off"``
#: keeps the per-scenario path (the decision itself is
#: ``DtrEvaluator._use_sweep_batching``).
VALID_SWEEP_BATCHING = ("auto", "off")

#: Scenarios below which the scenario-axis batch sweep engine
#: (:mod:`repro.routing.sweep`) cannot amortize its planning pass under
#: ``auto``.  Calibrated with ``benchmarks/bench_sweep.py``
#: (``BENCH_sweep.json``): batching wins from a handful of scenarios up
#: on every measured instance — the 16-node ISP backbone included —
#: because the batched delay DP replaces one schedule build + kernel
#: invocation per scenario with one per group, so only degenerate
#: sweeps (a single scenario, where there is nothing to group) fall
#: back to the per-scenario path.
SWEEP_BATCH_MIN_SCENARIOS = 2


def validate_sweep_batching(mode: str) -> str:
    """Return ``mode`` if recognized, raise ``ValueError`` otherwise."""
    if mode not in VALID_SWEEP_BATCHING:
        raise ValueError(
            f"unknown sweep_batching mode {mode!r}; "
            f"choose from {', '.join(VALID_SWEEP_BATCHING)}"
        )
    return mode


def validate_resilience(
    max_retries: int,
    retry_backoff: float,
    task_timeout: "float | None",
    sweep_deadline: "float | None",
) -> None:
    """Validate the fault-tolerance knobs of ``ExecutionParams``.

    Raises ``ValueError`` on an invalid combination.  Lives beside the
    other execution-knob validators so ``repro.config`` has one home
    for how knobs are checked.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0 (0 disables retries)")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be >= 0 seconds")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError("task_timeout must be positive when given")
    if sweep_deadline is not None and sweep_deadline <= 0:
        raise ValueError("sweep_deadline must be positive when given")
    if (
        task_timeout is not None
        and sweep_deadline is not None
        and task_timeout > sweep_deadline
    ):
        raise ValueError(
            "task_timeout must not exceed sweep_deadline "
            "(a single task could consume the whole sweep budget)"
        )


def parse_hosts(spec: str) -> "tuple[tuple[str, int], ...]":
    """Parse a ``hosts=`` spec into TCP host endpoints.

    ``"host:port[,host:port...]"`` names already-running ``repro-exp
    serve-host`` servers; returns a tuple of ``(host, port)`` pairs in
    spec order (order is the shard order).  Same-box hosts are
    ``n_jobs`` (``--jobs``), not a spec: a host named ``local`` — the
    old host-count spelling — is refused.

    Raises ``ValueError`` on anything else, so a typo fails at
    configuration time instead of hanging in a connect loop.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError("hosts spec must be a non-empty string")
    spec = spec.strip()
    endpoints = []
    for part in spec.split(","):
        part = part.strip()
        host, sep, port_text = part.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"malformed hosts spec entry {part!r}: expected "
                "'host:port'"
            )
        if host == "local":
            raise ValueError(
                f"hosts spec entry {part!r}: same-box sweep hosts are "
                "n_jobs=N (--jobs N); hosts names 'host:port' endpoints"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"malformed hosts spec entry {part!r}: port must be "
                "an integer"
            ) from None
        if not 0 < port < 65536:
            raise ValueError(
                f"hosts spec entry {part!r}: port out of range"
            )
        endpoints.append((host, port))
    return tuple(endpoints)


def validate_backend(backend: str) -> str:
    """Return ``backend`` if recognized, raise ``ValueError`` otherwise."""
    if backend not in VALID_BACKENDS:
        raise ValueError(
            f"unknown routing backend {backend!r}; "
            f"choose from {', '.join(VALID_BACKENDS)}"
        )
    return backend


def resolve_backend(
    backend: str,
    num_nodes: int,
    num_arcs: int,
    num_destinations: int,
    kind: str = "route",
) -> str:
    """Resolve ``"auto"`` to a concrete backend for one kernel batch.

    Args:
        backend: requested backend (``"auto"``, ``"python"``,
            ``"vector"``).
        num_nodes: node count of the instance.
        num_arcs: arc count of the instance.
        num_destinations: destinations in the batch about to be
            processed (propagation work scales with all three).
        kind: ``"route"`` for a full routing (distance columns + masks
            + propagation), ``"propagate"`` for a propagation-only
            batch — each has its own calibrated crossover.

    Returns:
        ``"python"`` or ``"vector"``.
    """
    if backend != "auto":
        return validate_backend(backend)
    work = num_destinations * (num_nodes + num_arcs)
    threshold = (
        VECTOR_PROPAGATION_CROSSOVER_WORK
        if kind == "propagate"
        else VECTOR_CROSSOVER_WORK
    )
    return "vector" if work >= threshold else "python"
