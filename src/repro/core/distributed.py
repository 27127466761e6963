"""Multi-host distributed scenario sweeps over a TCP host pool.

:class:`~repro.core.parallel.ParallelDtrEvaluator` caps out at one
machine's cores.  This module generalizes its ticket-dispatch design
across machines: each **host** (a ``repro-exp serve-host`` process,
possibly on another box) owns a contiguous *scenario* shard of every
sweep and ships back per-scenario results — compacted to
:class:`~repro.core.evaluation.ScenarioCosts` scalars on costs-only
sweeps — as each shard batch completes, so the parent can fold results
while the slowest host is still computing.

The wire design mirrors :class:`~repro.core.parallel.SharedSweepState`'s
publish-once discipline, with content digests instead of shm block
names:

* **instance epoch** — ``(network, traffic, config, delay_mode)`` ships
  once per host; the host builds a long-lived
  :class:`~repro.core.parallel.CachingDtrEvaluator` whose routing
  caches and incremental routers stay warm across every sweep of the
  connection.
* **scenario-set epoch** — the scenario tuple ships once per host per
  content digest, exactly like a shm publish.
* **setting epoch** — each new weight setting ships only its two weight
  vectors (the "weight delta" of a local-search move), once per host.
* **tasks** — after the epochs are in flight, a task is
  ``(digests, lo, hi, costs_only, seq, attempt)``: tens of bytes, like
  PR 5's ~36-byte shm tickets.

Messages are length-prefixed protocol-5 pickles over one TCP connection
per host; TCP ordering guarantees a host sees every epoch payload
before any task that references it.  Hosts evaluate their slice through
the same serial ``evaluate_scenarios`` as shm workers (the scenario-axis
``plan_sweep`` engine of :mod:`repro.routing.sweep` runs host-side, and
parent-side ticket sizing is capped by the same
``group_scenario_budget``), and compute their own NORMAL reuse
evaluation per setting — bit-identical to shipping it, by the repo's
evaluator-parity invariant, and hundreds of KB cheaper.

Failure handling rides the existing resilience layer unchanged: a dead
host fails its in-flight futures with :class:`HostLost` (a
``BrokenExecutor``, so :func:`~repro.core.resilience.classify_failure`
says ``dead_pool``), the :class:`~repro.core.resilience.SweepSupervisor`
re-dispatches the lost host's unfinished tickets to surviving hosts
(pool recycling respawns ``local:`` hosts / reconnects TCP hosts), and
a ticket out of attempts degrades to the parent's serial in-process
path — so a sweep **always completes bit-identical to a fault-free
run**, killed hosts included (pinned by
``tests/core/test_distributed.py`` and the CI ``dist-smoke`` job).

Two pool flavors share all of this code:

* ``hosts="local:N"`` forks N localhost host processes (each serving
  one connection on an ephemeral port), so the whole stack is testable
  on one box and in CI;
* ``hosts="host:port,host:port"`` connects to already-running
  ``repro-exp serve-host`` servers — the two-machine story.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import socket
import struct
import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, Future
from dataclasses import replace
from typing import Callable

from repro.config import OptimizerConfig
from repro.core import faults
from repro.core.evaluation import (
    ScenarioCosts,
    ScenarioEvaluation,
    Scenarios,
    compact_evaluation,
)
from repro.core.parallel import (
    CacheStats,
    CachingDtrEvaluator,
    _serial_ticket,
    _strip_routings,
)
from repro.core.resilience import (
    ResilienceCounters,
    ResilienceStats,
    RetryPolicy,
    SupervisedTask,
    SweepSupervisor,
    TransportCounters,
    TransportStats,
    global_counters,
)
from repro.core.weights import WeightSetting
from repro.routing.backend import parse_hosts
from repro.routing.network import Network
from repro.routing.sweep import group_scenario_budget
from repro.traffic.gravity import DtrTraffic

#: Seconds to wait for a TCP connect / a spawned local host's port.
_CONNECT_TIMEOUT = 10.0

#: Seconds close() waits for a local host process to exit gracefully.
_JOIN_TIMEOUT = 5.0

#: Wire-format message length prefix (8-byte big-endian).
_LEN = struct.Struct(">Q")

#: Cap on cached encoded frames parent-side (settings churn in phase-2;
#: frames are re-encoded on a miss, sent-epoch bookkeeping is separate).
_FRAME_CACHE_CAP = 64

#: Host-side cap on cached NORMAL reuse evaluations per connection
#: (they carry routings; evicted entries are recomputed bit-identically).
_HOST_NORMAL_CACHE_CAP = 8


class HostLost(BrokenExecutor):
    """A host died or dropped its connection mid-sweep.

    Subclasses ``BrokenExecutor`` so the resilience layer's
    :func:`~repro.core.resilience.classify_failure` files it under
    ``dead_pool`` — the class that recycles the pool and re-dispatches
    every in-flight ticket.
    """


class HostTaskError(RuntimeError):
    """A host's task raised; carries the remote traceback summary."""


# ----------------------------------------------------------------------
# wire helpers
# ----------------------------------------------------------------------
def _encode(message: object) -> bytes:
    """One wire frame: length prefix + protocol-5 pickle."""
    body = pickle.dumps(message, protocol=5)
    return _LEN.pack(len(body)) + body


def _send_frame(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(frame)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_msg(sock: socket.socket) -> "tuple[object, int]":
    """Read one message; returns ``(message, frame_bytes)``."""
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    body = _recv_exact(sock, length)
    return pickle.loads(body), _LEN.size + length


def _digest(payload: bytes) -> bytes:
    return hashlib.sha1(payload).digest()


# ----------------------------------------------------------------------
# host side: the server one `repro-exp serve-host` process runs
# ----------------------------------------------------------------------
class HostWorker:
    """Serves one host's share of distributed sweeps over TCP.

    Per **connection** the worker keeps a fresh state table — the
    parent's publish-once bookkeeping is per-connection too, so both
    sides agree on exactly which epochs are resident; a reconnecting
    parent re-ships them.  Within a connection everything is warm: the
    evaluator (with its routing caches and incremental routers),
    published scenario sets and the weight vectors of every setting
    seen.  NORMAL reuse evaluations are LRU-capped; an evicted one is
    recomputed bit-identically on the next task that needs it.

    Args:
        bind: interface to listen on (default loopback; bind
            ``"0.0.0.0"`` to serve another machine).
        port: TCP port; 0 picks an ephemeral one (see :attr:`port`).
        once: serve a single connection then return — the ``local:``
            spawn mode, so a finished (or dead) parent never leaks a
            host process.  False serves connections forever.
    """

    def __init__(
        self, bind: str = "127.0.0.1", port: int = 0, once: bool = False
    ) -> None:
        self._once = once
        self._server = socket.create_server(
            (bind, port), reuse_port=False
        )
        self._port = self._server.getsockname()[1]

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._port

    def serve_forever(self) -> None:
        """Accept and serve connections until ``once`` (or forever)."""
        try:
            while True:
                conn, _addr = self._server.accept()
                try:
                    self._serve_connection(conn)
                finally:
                    conn.close()
                if self._once:
                    return
        finally:
            self._server.close()

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        evaluators: "dict[bytes, CachingDtrEvaluator]" = {}
        scenario_sets: "dict[bytes, tuple]" = {}
        settings: "dict[bytes, WeightSetting]" = {}
        normal_cache: "OrderedDict[bytes, ScenarioEvaluation]" = (
            OrderedDict()
        )
        try:
            while True:
                try:
                    message, _ = _recv_msg(conn)
                except (ConnectionError, OSError):
                    return
                kind = message[0]
                if kind == "shutdown":
                    return
                try:
                    if kind == "init":
                        _, ikey, blob = message
                        evaluators[ikey] = _build_host_evaluator(blob)
                    elif kind == "scenarios":
                        _, skey, items = message
                        scenario_sets[skey] = tuple(items)
                    elif kind == "setting":
                        _, wkey, delay, tput = message
                        settings[wkey] = WeightSetting(delay, tput)
                    elif kind == "task":
                        reply = self._run_task(
                            message,
                            evaluators,
                            scenario_sets,
                            settings,
                            normal_cache,
                        )
                        _send_frame(conn, _encode(reply))
                    else:
                        raise ValueError(f"unknown message kind {kind!r}")
                except (ConnectionError, OSError):
                    return
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - shipped back
                    # A state message failed (bad payload, missing key):
                    # the connection's bookkeeping can no longer be
                    # trusted, so report and drop it — the parent marks
                    # this host dead and its supervisor re-dispatches.
                    try:
                        _send_frame(
                            conn,
                            _encode(
                                (
                                    "fatal",
                                    f"{type(exc).__name__}: {exc}",
                                )
                            ),
                        )
                    except OSError:
                        pass
                    return
        finally:
            for evaluator in evaluators.values():
                evaluator.close()

    def _run_task(
        self,
        message: tuple,
        evaluators: "dict[bytes, CachingDtrEvaluator]",
        scenario_sets: "dict[bytes, tuple]",
        settings: "dict[bytes, WeightSetting]",
        normal_cache: "OrderedDict[bytes, ScenarioEvaluation]",
    ) -> tuple:
        """One ticket: evaluate a scenario slice, reply with outcomes.

        Runs inside the fault context keyed on the parent's
        ``(task seq, attempt)`` — exactly like the process pool's
        ``_supervised_task`` wrapper — so chaos plans SIGKILL/delay/
        poison a *host* the way they do a worker.
        """
        _, task_id, ikey, skey, wkey, lo, hi, costs_only, seq, attempt = (
            message
        )
        try:
            # enter_task sits inside the try: an injected StageFault
            # raises here and must come back as a task *error* (retry /
            # quarantine), exactly like a process-pool worker — only
            # injected kills take the whole host down.
            faults.enter_task(seq, attempt)
            begin = time.perf_counter()
            evaluator = evaluators[ikey]
            scenarios = scenario_sets[skey]
            setting = settings[wkey]
            reuse = normal_cache.get(wkey)
            if reuse is None:
                reuse = evaluator.evaluate_normal(setting)
                normal_cache[wkey] = reuse
                if len(normal_cache) > _HOST_NORMAL_CACHE_CAP:
                    normal_cache.popitem(last=False)
            else:
                normal_cache.move_to_end(wkey)
            costs = evaluator.evaluate_scenarios(
                setting, list(scenarios[lo:hi]), reuse=reuse
            )
            fold = compact_evaluation if costs_only else _strip_routings
            outcomes = [fold(e) for e in costs.evaluations]
            stats = evaluator.cache_stats
            return (
                "result",
                task_id,
                outcomes,
                (stats.hits_exact, stats.hits_incremental, stats.misses),
                time.perf_counter() - begin,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            return ("error", task_id, f"{type(exc).__name__}: {exc}")
        finally:
            faults.exit_task()


def _build_host_evaluator(blob: tuple) -> CachingDtrEvaluator:
    """The host's long-lived serial evaluator for one instance epoch.

    Execution knobs are re-anchored host-side — one serial caching
    evaluator per host, never a nested pool — and the parent's fault
    plan (chaos tests only) is installed so injected kills hit the host
    process itself.
    """
    network, traffic, config, delay_mode = blob
    host_execution = replace(
        config.execution, n_jobs=1, hosts=None, chunk_size=None
    )
    faults.install_fault_plan(host_execution.fault_plan)
    return CachingDtrEvaluator(
        network, traffic, config.replace(execution=host_execution), delay_mode
    )


def serve_host(
    bind: str = "127.0.0.1", port: int = 0, once: bool = False
) -> None:
    """Run a sweep host server (the ``repro-exp serve-host`` entry)."""
    HostWorker(bind, port, once=once).serve_forever()


def _local_host_main(conn) -> None:
    """Entry point of a ``local:`` spawned host process."""
    worker = HostWorker("127.0.0.1", 0, once=True)
    try:
        conn.send(worker.port)
    finally:
        conn.close()
    worker.serve_forever()


# ----------------------------------------------------------------------
# parent side: clients, pool, executor
# ----------------------------------------------------------------------
class HostClient:
    """Parent-side endpoint of one host connection.

    Owns the socket, a receiver thread resolving task futures, the
    per-connection publish-once bookkeeping (which epoch digests this
    host already holds) and per-host transfer/timing counters.  Sends
    run on the caller's thread, in order; TCP ordering then guarantees
    epoch payloads precede the tasks that reference them.  The state
    the receiver thread shares (liveness, pending futures, counters)
    is guarded by ``_state_lock``.
    """

    def __init__(
        self,
        index: int,
        spec: "tuple[str, int] | str",
        transport: "TransportCounters | None" = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self._transport = transport
        self.alive = False
        self.process = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.busy_seconds = 0.0
        self.tasks_done = 0
        self._sock: "socket.socket | None" = None
        self._state_lock = threading.Lock()
        self._pending: "dict[int, Future]" = {}
        self._sent_epochs: "set[bytes]" = set()
        self._receiver: "threading.Thread | None" = None
        self._on_death = None

    # ------------------------------------------------------------------
    def start(self, on_death) -> None:
        """Spawn/connect the host and start the receiver thread."""
        self._on_death = on_death
        if self.spec == "local":
            self._spawn_local()
        else:
            host, port = self.spec
            self._connect(host, port)
        self.alive = True
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"repro-host-{self.index}",
            daemon=True,
        )
        self._receiver.start()

    def _spawn_local(self) -> None:
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_local_host_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(_CONNECT_TIMEOUT):
                raise HostLost(
                    f"local host {self.index} did not report a port"
                )
            port = parent_conn.recv()
        except (EOFError, OSError) as exc:
            process.terminate()
            raise HostLost(
                f"local host {self.index} died during startup"
            ) from exc
        finally:
            parent_conn.close()
        self.process = process
        self._connect("127.0.0.1", port)

    def _connect(self, host: str, port: int) -> None:
        try:
            sock = socket.create_connection(
                (host, port), timeout=_CONNECT_TIMEOUT
            )
        except OSError as exc:
            raise HostLost(
                f"cannot connect to sweep host {host}:{port}: {exc}"
            ) from exc
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    # ------------------------------------------------------------------
    def _receive_loop(self) -> None:
        sock = self._sock
        try:
            while True:
                message, nbytes = _recv_msg(sock)
                with self._state_lock:
                    self.bytes_received += nbytes
                if self._transport is not None:
                    self._transport.record(result_bytes=nbytes)
                kind = message[0]
                if kind == "result":
                    _, task_id, outcomes, counters, elapsed = message
                    with self._state_lock:
                        future = self._pending.pop(task_id, None)
                        self.busy_seconds += elapsed
                        self.tasks_done += 1
                    if future is not None:
                        future.set_result(
                            (outcomes, self.index, counters, elapsed)
                        )
                elif kind == "error":
                    _, task_id, detail = message
                    with self._state_lock:
                        future = self._pending.pop(task_id, None)
                    if future is not None:
                        future.set_exception(
                            HostTaskError(
                                f"host {self.describe()}: {detail}"
                            )
                        )
                elif kind == "fatal":
                    raise ConnectionError(
                        f"host reported fatal error: {message[1]}"
                    )
        except (ConnectionError, OSError, EOFError, pickle.PickleError) as exc:
            self.mark_dead(exc)

    def mark_dead(self, cause: "BaseException | None" = None) -> None:
        """Fail every pending future and retire the connection (idempotent)."""
        with self._state_lock:
            was_alive, self.alive = self.alive, False
            pending, self._pending = self._pending, {}
            sock, self._sock = self._sock, None
        detail = f": {cause}" if cause is not None else ""
        exc = HostLost(f"sweep host {self.describe()} lost{detail}")
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - teardown
                pass
        if was_alive and self._on_death is not None:
            self._on_death(self)

    # ------------------------------------------------------------------
    def submit(
        self,
        task_id: int,
        task_frame: bytes,
        epochs: "list[tuple[bytes, Callable[[], bytes]]]",
    ) -> "tuple[Future, int, int]":
        """Dispatch one ticket; returns ``(future, epoch_bytes, bytes)``.

        Not-yet-resident epoch frames and the task form one ordered
        burst, so TCP ordering makes the task's payloads resident
        before it runs.  Never raises: a send failure marks the host
        dead and the returned future carries :class:`HostLost`, so the
        supervisor charges an attempt and the ticket terminates (retry
        elsewhere or serial quarantine) instead of looping on a dead
        pool.
        """
        future: Future = Future()
        with self._state_lock:
            sock = self._sock
            if not self.alive or sock is None:
                future.set_exception(
                    HostLost(f"sweep host {self.describe()} is down")
                )
                return future, 0, 0
            self._pending[task_id] = future
        epoch_bytes = 0
        try:
            for key, make_frame in epochs:
                if key in self._sent_epochs:
                    continue
                frame = make_frame()
                _send_frame(sock, frame)
                self._sent_epochs.add(key)
                epoch_bytes += len(frame)
            _send_frame(sock, task_frame)
        except (OSError, ConnectionError) as exc:
            self.mark_dead(exc)
            return future, epoch_bytes, 0
        with self._state_lock:
            self.bytes_sent += epoch_bytes + len(task_frame)
        return future, epoch_bytes, len(task_frame)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable endpoint label for logs and benchmarks."""
        if self.spec == "local":
            pid = self.process.pid if self.process is not None else "?"
            return f"local[{self.index}] (pid {pid})"
        host, port = self.spec
        return f"{host}:{port}"

    @property
    def closed(self) -> bool:
        """Whether the socket is fully released (leak checks)."""
        return self._sock is None

    def close(self) -> None:
        """Graceful shutdown: best-effort goodbye, then reap (idempotent)."""
        with self._state_lock:
            self.alive = False
        sock = self._sock
        if sock is not None:
            try:
                _send_frame(sock, _encode(("shutdown",)))
            except OSError:
                pass
        self.mark_dead()
        if self._receiver is not None and self._receiver.is_alive():
            self._receiver.join(timeout=_JOIN_TIMEOUT)
        if self.process is not None:
            self.process.join(timeout=_JOIN_TIMEOUT)
            if self.process.is_alive():  # pragma: no cover - wedged host
                self.process.kill()
                self.process.join(timeout=_JOIN_TIMEOUT)
            self.process.close()
            self.process = None


class HostPool:
    """The parent's set of sweep hosts, with shard-owner dispatch.

    Host order is shard order: ticket ``owner`` indexes into the
    configured host list, first attempts go to the owner, retries to
    the next live host (deterministically), and
    :meth:`recycle` revives what it can — respawning ``local:`` hosts,
    reconnecting TCP ones — counting every death and revival into the
    evaluator's :class:`~repro.core.resilience.ResilienceStats`.
    """

    def __init__(
        self,
        hosts: str,
        resilience: ResilienceCounters,
        transport: "TransportCounters | None" = None,
    ) -> None:
        parsed = parse_hosts(hosts)
        self._resilience = resilience
        self._transport = transport
        if isinstance(parsed, int):
            specs: "list[tuple[str, int] | str]" = ["local"] * parsed
        else:
            specs = list(parsed)
        self.clients = [
            HostClient(index, spec, transport)
            for index, spec in enumerate(specs)
        ]
        for client in self.clients:
            # An unreachable host starts dead instead of failing pool
            # construction: its shard flows to survivors (or the serial
            # quarantine path), and recycle() keeps trying to revive it.
            try:
                client.start(self._record_death)
            except HostLost:
                client.close()
                self._resilience.record(host_failures=1)

    def _record_death(self, client: HostClient) -> None:
        self._resilience.record(host_failures=1)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.clients)

    def live_clients(self) -> "list[HostClient]":
        """Hosts currently accepting tickets, in shard order."""
        return [c for c in self.clients if c.alive]

    def pick_client(self, owner: int, attempt: int) -> "HostClient | None":
        """The host for one dispatch attempt of an owned ticket.

        First attempts go to the shard owner; a retry — or a dead
        owner — rotates deterministically through the live hosts, so a
        lost host's unfinished shard spreads across the survivors.
        """
        live = self.live_clients()
        if not live:
            return None
        owner_client = self.clients[owner]
        if attempt == 1 and owner_client.alive:
            return owner_client
        return live[(owner + attempt - 1) % len(live)]

    def recycle(self) -> None:
        """Revive dead hosts where possible (respawn local, reconnect TCP).

        A host that cannot be revived stays dead — its shard keeps
        flowing to survivors, and with no survivors every ticket
        quarantines to the parent's serial path, preserving the
        always-completes invariant.
        """
        for index, client in enumerate(self.clients):
            if client.alive:
                continue
            client.close()
            fresh = HostClient(index, client.spec, self._transport)
            try:
                fresh.start(self._record_death)
            except HostLost:
                fresh.close()
                continue
            self.clients[index] = fresh
            self._resilience.record(host_respawns=1)

    def close(self) -> None:
        """Shut every host connection (and local process) down."""
        for client in self.clients:
            client.close()


class DistributedSweepExecutor:
    """Plans and dispatches one evaluator's sweeps across a host pool.

    Owns the pool, the content-digest frame cache and the ticket
    planner; :class:`DistributedDtrEvaluator` delegates its fan-out
    here.  Ticket planning follows the shm path's discipline: the
    scenario list is cut into contiguous shards (one per configured
    host, in scenario order, so reassembly is a concatenation), each
    shard into roughly four tickets per host — bounded by the sweep
    planner's ``group_scenario_budget`` so one ticket never exceeds one
    ``plan_sweep`` batch group's state budget host-side.
    """

    def __init__(
        self,
        hosts: str,
        resilience: ResilienceCounters,
        transport: TransportCounters,
    ) -> None:
        self._hosts = hosts
        self._resilience = resilience
        self._transport = transport
        self._pool: "HostPool | None" = None
        self._task_ids = itertools.count()
        self._frames: "OrderedDict[bytes, bytes]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        """Configured host count (the shard count)."""
        parsed = parse_hosts(self._hosts)
        return parsed if isinstance(parsed, int) else len(parsed)

    def ensure_pool(self) -> HostPool:
        """The live pool, building it lazily on first use."""
        if self._pool is None:
            self._pool = HostPool(
                self._hosts, self._resilience, self._transport
            )
        return self._pool

    def recycle_pool(self) -> None:
        """Supervisor hook: revive what can be revived."""
        if self._pool is not None:
            self._pool.recycle()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    @property
    def pool(self) -> "HostPool | None":
        """The current pool (None before first sweep) — introspection."""
        return self._pool

    # ------------------------------------------------------------------
    def frame_for(self, key: bytes, message_builder) -> bytes:
        """The encoded wire frame of one epoch payload, LRU-cached."""
        frame = self._frames.get(key)
        if frame is not None:
            self._frames.move_to_end(key)
            return frame
        frame = _encode(message_builder())
        self._frames[key] = frame
        if len(self._frames) > _FRAME_CACHE_CAP:
            self._frames.popitem(last=False)
        return frame

    def plan_tickets(
        self,
        count: int,
        num_nodes: int,
        num_arcs: int,
        chunk_size: "int | None",
    ) -> "list[tuple[int, int, int]]":
        """Contiguous ``(owner, lo, hi)`` tickets over ``count`` scenarios.

        Deterministic in the configured host count alone (results are
        invariant to it anyway — tickets reassemble in scenario order).
        """
        n_hosts = max(1, self.n_hosts)
        budget = group_scenario_budget(num_nodes, num_arcs)
        tickets: "list[tuple[int, int, int]]" = []
        base, extra = divmod(count, n_hosts)
        shard_lo = 0
        for owner in range(n_hosts):
            shard_len = base + (1 if owner < extra else 0)
            if shard_len == 0:
                continue
            if chunk_size is not None:
                size = chunk_size
            else:
                size = max(1, -(-shard_len // 4))
            size = max(1, min(size, budget))
            for lo in range(shard_lo, shard_lo + shard_len, size):
                hi = min(lo + size, shard_lo + shard_len)
                tickets.append((owner, lo, hi))
            shard_lo += shard_len
        return tickets

    def submit_ticket(
        self,
        pool: HostPool,
        owner: int,
        attempt: int,
        seq: int,
        task_payload: tuple,
        epochs: "list[tuple[bytes, Callable[[], bytes]]]",
    ) -> Future:
        """Dispatch one ticket attempt to the owner (or a survivor)."""
        client = pool.pick_client(owner, attempt)
        if client is None:
            pool.recycle()
            client = pool.pick_client(owner, attempt)
        if client is None:
            future: Future = Future()
            future.set_exception(
                HostLost("no live sweep hosts to dispatch to")
            )
            return future
        task_id = next(self._task_ids)
        frame = _encode(("task", task_id) + task_payload + (seq, attempt))
        future, epoch_bytes, task_bytes = client.submit(
            task_id, frame, epochs
        )
        if epoch_bytes:
            self._transport.record(
                publishes=1, payload_bytes=epoch_bytes
            )
        if task_bytes:
            self._transport.record(tasks=1, task_bytes=task_bytes)
        return future


class DistributedDtrEvaluator(CachingDtrEvaluator):
    """Cost oracle that sweeps scenario sets across a TCP host pool.

    The ``hosts=`` counterpart of
    :class:`~repro.core.parallel.ParallelDtrEvaluator`, with the same
    surface (``close()``/context manager, aggregated ``cache_stats``,
    ``resilience_stats``, ``transport_stats``) and the same contract:
    results are **bit-identical** to the serial evaluator — scenarios
    evaluate independently against a NORMAL reuse evaluation, tickets
    reassemble in scenario order, sums fold in scenario order.  Sweeps
    of fewer than two scenarios, normal evaluations and normal batches
    run on the parent's serial path (phase-2 scenario sweeps are what
    justify shipping work off-box).

    Args:
        network: the topology.
        traffic: the two-class traffic instance.
        config: optimizer configuration; ``config.execution.hosts``
            names the pool (``"local:N"`` or ``"host:port,..."``).
        delay_mode: path-delay aggregation mode.
    """

    def __init__(
        self,
        network: Network,
        traffic: DtrTraffic,
        config: OptimizerConfig,
        delay_mode: str = "worst",
    ) -> None:
        super().__init__(network, traffic, config, delay_mode)
        execution = config.execution
        self._chunk_size = execution.chunk_size
        self._resilience = ResilienceCounters(mirror=global_counters())
        self._transport = TransportCounters()
        self._retry_policy = RetryPolicy.from_execution(execution)
        self._executor = DistributedSweepExecutor(
            execution.hosts, self._resilience, self._transport
        )
        self._host_stats: "dict[int, CacheStats]" = {}
        self._host_busy: "dict[int, float]" = {}
        self._instance_key: "bytes | None" = None
        self._scen_keys: "OrderedDict[tuple[int, ...], tuple]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        """Configured host count."""
        return self._executor.n_hosts

    @property
    def cache_stats(self) -> CacheStats:
        """Cache counters aggregated over this process and all hosts."""
        total = CachingDtrEvaluator.cache_stats.fget(self)
        for stats in self._host_stats.values():
            total = total + stats
        return total

    @property
    def resilience_stats(self) -> ResilienceStats:
        """Failure/retry/degradation counters of this evaluator's sweeps."""
        return self._resilience.snapshot()

    @property
    def transport_stats(self) -> TransportStats:
        """Bytes-on-wire / busy-seconds accounting of the host pool."""
        return self._transport.snapshot()

    def host_report(self) -> "list[dict[str, object]]":
        """Per-host transfer/timing rows for benchmarks and summaries."""
        pool = self._executor.pool
        if pool is None:
            return []
        return [
            {
                "host": client.describe(),
                "alive": client.alive,
                "tasks_done": client.tasks_done,
                "bytes_sent": client.bytes_sent,
                "bytes_received": client.bytes_received,
                "busy_seconds": round(client.busy_seconds, 6),
            }
            for client in pool.clients
        ]

    def close(self) -> None:
        """Shut down every host connection and sibling oracle (idempotent)."""
        self._executor.close()
        super().close()

    def __enter__(self) -> "DistributedDtrEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except (OSError, RuntimeError):  # pragma: no cover - teardown
            pass

    # ------------------------------------------------------------------
    # epoch keys and frames
    # ------------------------------------------------------------------
    def _instance_epoch(self) -> "tuple[bytes, Callable[[], bytes]]":
        if self._instance_key is None:
            blob = (
                self._network,
                self._traffic,
                self._config,
                self._delay_mode,
            )
            payload = pickle.dumps(blob, protocol=5)
            self._instance_key = b"i" + _digest(payload)
        key = self._instance_key

        def build() -> tuple:
            return (
                "init",
                key,
                (
                    self._network,
                    self._traffic,
                    self._config,
                    self._delay_mode,
                ),
            )

        return key, lambda: self._executor.frame_for(key, build)

    def _scenario_epoch(
        self, items: "tuple"
    ) -> "tuple[bytes, Callable[[], bytes]]":
        # Keyed by object identity first (scenario objects are frozen;
        # phase-2 re-sweeps the same set thousands of times), falling
        # back to a content digest of the pickled tuple.  The memo holds
        # the tuples it keyed, so ids cannot be recycled under it.
        id_key = tuple(id(s) for s in items)
        memo = self._scen_keys
        hit = memo.get(id_key)
        if hit is not None:
            memo.move_to_end(id_key)
            key = hit[0]
        else:
            key = b"s" + _digest(pickle.dumps(items, protocol=5))
            memo[id_key] = (key, items)
            if len(memo) > 8:
                memo.popitem(last=False)

        def build() -> tuple:
            return ("scenarios", key, items)

        return key, lambda: self._executor.frame_for(key, build)

    def _setting_epoch(
        self, setting: WeightSetting
    ) -> "tuple[bytes, Callable[[], bytes]]":
        delay_key, tput_key = setting.key()
        key = b"w" + _digest(delay_key + b"|" + tput_key)

        def build() -> tuple:
            return ("setting", key, setting.delay, setting.tput)

        return key, lambda: self._executor.frame_for(key, build)

    # ------------------------------------------------------------------
    # the distributed sweep
    # ------------------------------------------------------------------
    def evaluate_scenarios(
        self,
        setting: WeightSetting,
        scenarios: Scenarios,
        reuse: "ScenarioEvaluation | None" = None,
    ) -> ScenarioCosts:
        """Distributed counterpart of the serial scenario sweep."""
        items = list(scenarios)
        if len(items) < 2:
            return super().evaluate_scenarios(setting, items, reuse=reuse)
        return self._host_sweep(setting, items, reuse, costs_only=False)

    def _sweep_costs(
        self,
        setting: WeightSetting,
        items: list,
        reuse: "ScenarioEvaluation | None",
    ) -> ScenarioCosts:
        """Costs-only sweep: hosts fold locally, scalars stream back."""
        if len(items) < 2:
            return super()._sweep_costs(setting, items, reuse)
        return self._host_sweep(setting, items, reuse, costs_only=True)

    def _host_sweep(
        self,
        setting: WeightSetting,
        items: list,
        reuse: "ScenarioEvaluation | None",
        costs_only: bool,
    ) -> ScenarioCosts:
        if reuse is None:
            reuse = self.evaluate_normal(setting)
        scenario_tuple = tuple(items)
        ikey, iframe = self._instance_epoch()
        skey, sframe = self._scenario_epoch(scenario_tuple)
        wkey, wframe = self._setting_epoch(setting)
        epochs = [(ikey, iframe), (skey, sframe), (wkey, wframe)]
        tickets = self._executor.plan_tickets(
            len(items),
            self._network.num_nodes,
            self._network.num_arcs,
            self._chunk_size,
        )

        tasks = []
        for seq, (owner, lo, hi) in enumerate(tickets):
            payload = (ikey, skey, wkey, lo, hi, costs_only)

            def submit(
                pool, attempt, owner=owner, seq=seq, payload=payload
            ):
                return self._executor.submit_ticket(
                    pool, owner, attempt, seq, payload, epochs
                )

            def fallback(lo=lo, hi=hi):
                return _serial_ticket(
                    self, setting, items[lo:hi], reuse, costs_only
                )

            tasks.append(
                SupervisedTask(seq=seq, submit=submit, fallback=fallback)
            )

        supervisor = SweepSupervisor(
            policy=self._retry_policy,
            counters=self._resilience,
            ensure_pool=self._executor.ensure_pool,
            reset_pool=self._executor.recycle_pool,
        )
        outcomes = self._collect(supervisor.run(tasks))
        self._num_evaluations += len(items)
        return ScenarioCosts(tuple(outcomes))

    def _collect(self, results: list) -> "list[ScenarioEvaluation]":
        """Fold ticket results in ticket (= scenario) order."""
        outcomes: "list[ScenarioEvaluation]" = []
        for chunk_outcomes, host_index, counters, elapsed in results:
            outcomes.extend(chunk_outcomes)
            if host_index is not None:
                self._host_stats[host_index] = CacheStats(*counters)
                self._host_busy[host_index] = (
                    self._host_busy.get(host_index, 0.0) + elapsed
                )
                self._transport.record(busy_seconds=elapsed)
        return outcomes
