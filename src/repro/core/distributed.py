"""The sweep-host transport: scenario sweeps fanned out to hosts.

:class:`~repro.core.parallel.ParallelDtrEvaluator` fans its sweeps out
through this module.  Each **host** owns a contiguous *scenario* shard
of every sweep and ships back per-scenario results — compacted to
:class:`~repro.core.evaluation.ScenarioCosts` scalars on costs-only
sweeps — as each ticket completes, so the parent can fold results while
the slowest host is still computing.

Two kinds of host run the same connection loop
(:func:`serve_connection`):

* ``n_jobs=N`` forks N local hosts, each handed one end of a private
  ``socket.socketpair()``.  Nothing listens on a port, and a local host
  exits when the parent's end closes;
* ``hosts="host:port,host:port"`` connects over TCP to running
  ``repro-exp serve-host`` servers (:class:`HostWorker`), possibly on
  other machines.

The wire is publish-once, keyed by content digests:

* **instance epoch** — ``(network, traffic, config, delay_mode)`` ships
  once per host; the host builds a long-lived
  :class:`~repro.core.parallel.CachingDtrEvaluator` whose routing
  caches and incremental routers stay warm across every sweep of the
  connection.
* **scenario-set epoch** — the scenario tuple ships once per host per
  content digest.
* **setting epoch** — each new weight setting ships only its two weight
  vectors (the "weight delta" of a local-search move), once per host.
* **tickets** — a sweep ticket is ``(digests, lo, hi, costs_only)``
  plus its ``(seq, attempt)``: tens of bytes.  A normal-batch ticket
  carries the weight vectors of its settings.

Messages are length-prefixed protocol-5 pickles, one ordered stream
per host, so a host sees every epoch payload before any ticket that
references it; a length prefix above :data:`MAX_FRAME_BYTES` is refused
before its body is read.  Hosts evaluate their slice through the same
serial ``evaluate_scenarios`` as the parent's fallback (the
scenario-axis ``plan_sweep`` engine of :mod:`repro.routing.sweep` runs
host-side, and parent-side ticket sizing is capped by the same
``group_scenario_budget``), and compute their own NORMAL reuse
evaluation per setting — bit-identical to shipping it, by the repo's
evaluator-parity invariant, and hundreds of KB cheaper.

Failure handling rides the resilience layer unchanged: a dead host
fails its in-flight futures with :class:`HostLost` (a
``BrokenExecutor``, so :func:`~repro.core.resilience.classify_failure`
says ``dead_pool``), the :class:`~repro.core.resilience.SweepSupervisor`
re-dispatches the lost host's unfinished tickets to surviving hosts,
pool recycling retires a wedged host, respawns local hosts and
reconnects TCP ones, and a ticket out of attempts degrades to the
parent's serial in-process path — so a sweep **always completes
bit-identical to a fault-free run**, killed hosts included (pinned by
``tests/core/test_distributed.py``, ``tests/core/test_resilience.py``
and ``scripts/chaos_smoke.py``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import socket
import struct
import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, Future
from dataclasses import replace
from typing import Callable, Sequence

from repro.core import faults
from repro.core.evaluation import ScenarioEvaluation
from repro.core.parallel import (
    CachingDtrEvaluator,
    _normal_slice,
    _sweep_slice,
)
from repro.core.resilience import ResilienceCounters, TransportCounters
from repro.core.weights import WeightSetting
from repro.routing.sweep import group_scenario_budget

#: Seconds to wait for a TCP connect.
_CONNECT_TIMEOUT = 10.0

#: Seconds close() waits for a local host process to exit gracefully.
_JOIN_TIMEOUT = 5.0

#: Wire-format message length prefix (8-byte big-endian).
_LEN = struct.Struct(">Q")

#: Largest frame body either side reads; a longer length prefix drops
#: the connection before any of its body is read.  The largest
#: legitimate frames, measured on a 400-node / 2,388-arc PLTopo: the
#: instance epoch (2.9 MB) and a full-result ticket (9.4 MB: seven
#: single-link scenarios, the ``group_scenario_budget`` cap at that
#: size, without costs-only compaction).  That cap keeps any
#: full-result ticket under ``SWEEP_STATE_BUDGET`` (64 MB) at every
#: size; the instance epoch grows with the two N x N demand matrices.
MAX_FRAME_BYTES = 256 << 20

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
    """Read one message; returns ``(message, frame_bytes)``.

    Raises ``ConnectionError`` on a length prefix above
    :data:`MAX_FRAME_BYTES`, before reading any of the body, and on a
    body that does not decode (whatever ``pickle.loads`` raised), so
    either end drops the connection instead of its loop dying.
    """
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"refused a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length)
    try:
        message = pickle.loads(body)
    except Exception as exc:  # noqa: BLE001 - any decode failure
        raise ConnectionError(
            f"undecodable {length}-byte frame: {type(exc).__name__}: {exc}"
        ) from exc
    return message, _LEN.size + length


# ----------------------------------------------------------------------
# host side: the connection loop every host runs
# ----------------------------------------------------------------------
def serve_connection(conn: socket.socket) -> None:
    """Serve one parent connection until it closes or says goodbye.

    Per connection the host keeps a fresh state table — the parent's
    publish-once bookkeeping is per-connection too, so both sides agree
    on exactly which epochs are resident; a reconnecting parent
    re-ships them.  Within a connection everything is warm: the
    evaluator (with its routing caches and incremental routers),
    published scenario sets and the weight vectors of every setting
    seen.  NORMAL reuse evaluations are LRU-capped; an evicted one is
    recomputed bit-identically on the next ticket that needs it.
    """
    evaluators: "dict[bytes, CachingDtrEvaluator]" = {}
    scenario_sets: "dict[bytes, tuple]" = {}
    settings: "dict[bytes, WeightSetting]" = {}
    normal_cache: "OrderedDict[bytes, ScenarioEvaluation]" = OrderedDict()
    try:
        while True:
            try:
                message, _ = _recv_msg(conn)
            except (ConnectionError, OSError):
                return
            try:
                kind = message[0]
                if kind == "shutdown":
                    return
                if kind == "init":
                    _, ikey, blob = message
                    evaluators[ikey] = _build_host_evaluator(blob)
                elif kind == "scenarios":
                    _, skey, items = message
                    scenario_sets[skey] = tuple(items)
                elif kind == "setting":
                    _, wkey, delay, tput = message
                    settings[wkey] = WeightSetting(delay, tput)
                elif kind in ("sweep", "normal"):
                    reply = _run_ticket(
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
                        _encode(("fatal", f"{type(exc).__name__}: {exc}")),
                    )
                except OSError:
                    pass
                return
    finally:
        for evaluator in evaluators.values():
            evaluator.close()


def _run_ticket(
    message: tuple,
    evaluators: "dict[bytes, CachingDtrEvaluator]",
    scenario_sets: "dict[bytes, tuple]",
    settings: "dict[bytes, WeightSetting]",
    normal_cache: "OrderedDict[bytes, ScenarioEvaluation]",
) -> tuple:
    """One ticket: evaluate a slice, reply with its outcomes.

    A ``"sweep"`` ticket sweeps a scenario slice of published epochs; a
    ``"normal"`` ticket evaluates the settings whose weight vectors it
    carries.  Both run inside the fault context keyed on the parent's
    ``(task seq, attempt)``, so chaos plans SIGKILL/delay/poison a host
    exactly where the plan says.
    """
    kind, task_id, body, seq, attempt = message
    try:
        # enter_task sits inside the try: an injected StageFault raises
        # here and must come back as a task *error* (retry /
        # quarantine); only injected kills take the whole host down.
        faults.enter_task(seq, attempt)
        begin = time.perf_counter()
        evaluator = evaluators[body[0]]
        if kind == "sweep":
            _, skey, wkey, lo, hi, costs_only = body
            setting = settings[wkey]
            reuse = normal_cache.get(wkey)
            if reuse is None:
                reuse = evaluator.evaluate_normal(setting)
                normal_cache[wkey] = reuse
                if len(normal_cache) > _HOST_NORMAL_CACHE_CAP:
                    normal_cache.popitem(last=False)
            else:
                normal_cache.move_to_end(wkey)
            outcomes = _sweep_slice(
                evaluator, setting, scenario_sets[skey][lo:hi], reuse,
                costs_only,
            )
        else:
            outcomes = _normal_slice(
                evaluator, [WeightSetting(d, t) for d, t in body[1]]
            )
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


def _local_host_main(sock: socket.socket, peer: socket.socket) -> None:
    """Entry point of a forked local host: serve the socketpair end.

    ``peer`` is the parent's end, passed so the host can close its own
    copy: a host holding both ends would never see its stream end, and
    so would outlive a parent that died without saying goodbye.
    """
    peer.close()
    with sock:
        serve_connection(sock)


class HostWorker:
    """A TCP sweep host: the server one ``repro-exp serve-host`` runs.

    Accepts connections one at a time and serves each with
    :func:`serve_connection`, which keeps fresh per-connection state.

    Args:
        bind: interface to listen on (default loopback; bind
            ``"0.0.0.0"`` to serve another machine).
        port: TCP port; 0 picks an ephemeral one (see :attr:`port`).
    """

    def __init__(self, bind: str = "127.0.0.1", port: int = 0) -> None:
        self._server = socket.create_server((bind, port), reuse_port=False)
        self._port = self._server.getsockname()[1]
        self._closing = False

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._port

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`close`."""
        with self._server:
            while True:
                try:
                    conn, _addr = self._server.accept()
                except OSError:
                    if self._closing:
                        return
                    raise
                with conn:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    serve_connection(conn)

    def close(self) -> None:
        """Stop listening; a blocked :meth:`serve_forever` returns."""
        self._closing = True
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._server.close()


# ----------------------------------------------------------------------
# parent side: clients, pool, executor
# ----------------------------------------------------------------------
class HostClient:
    """Parent-side endpoint of one host connection.

    ``spec`` is ``"local"`` for a forked local host on a socketpair, or
    a ``(host, port)`` TCP endpoint.  Owns the socket (and a local
    host's process), a receiver thread resolving task futures, the
    per-connection publish-once bookkeeping (which epoch digests this
    host already holds).  Sends run on the caller's thread, in order;
    stream ordering then guarantees epoch payloads precede the tickets
    that reference them.  The state the receiver thread shares
    (liveness, pending futures) is guarded by ``_state_lock``.
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
        ours, theirs = socket.socketpair()
        process = multiprocessing.Process(
            target=_local_host_main, args=(theirs, ours), daemon=True
        )
        try:
            process.start()
        except OSError as exc:
            ours.close()
            raise HostLost(
                f"cannot start local host {self.index}: {exc}"
            ) from exc
        finally:
            theirs.close()
        self.process = process
        self._sock = ours

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
                if self._transport is not None:
                    self._transport.record(result_bytes=nbytes)
                kind = message[0]
                if kind == "result":
                    _, task_id, outcomes, counters, elapsed = message
                    with self._state_lock:
                        future = self._pending.pop(task_id, None)
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
        except Exception as exc:  # noqa: BLE001 - a bad reply retires the host
            self.mark_dead(exc)

    def mark_dead(self, cause: "BaseException | None" = None) -> None:
        """Fail every pending future and retire the connection (idempotent).

        A live local host's process is killed too, so a wedged host
        never outlives its retirement.  The socket is shut down before
        it closes: that wakes the receiver thread and ends the host's
        stream even where a forked sibling still holds a copy of it.
        """
        with self._state_lock:
            was_alive, self.alive = self.alive, False
            pending, self._pending = self._pending, {}
            sock, self._sock = self._sock, None
        detail = f": {cause}" if cause is not None else ""
        exc = HostLost(f"sweep host {self.describe()} lost{detail}")
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        if was_alive and self.process is not None:
            self.process.kill()
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # the peer is already gone
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - teardown
                pass
        if was_alive and self._on_death is not None:
            self._on_death(self)

    @property
    def busy(self) -> bool:
        """Whether the host holds an unfinished ticket."""
        with self._state_lock:
            return bool(self._pending)

    # ------------------------------------------------------------------
    def submit(
        self,
        task_id: int,
        task_frame: bytes,
        epochs: "list[tuple[bytes, Callable[[], bytes]]]",
    ) -> "tuple[Future, int, int]":
        """Dispatch one ticket; returns ``(future, epoch_bytes, bytes)``.

        Not-yet-resident epoch frames and the task form one ordered
        burst, so stream ordering makes the task's payloads resident
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
    the next live host (deterministically), and :meth:`recycle` retires
    wedged hosts and revives what it can — respawning local hosts,
    reconnecting TCP ones — counting every death and revival into the
    evaluator's :class:`~repro.core.resilience.ResilienceStats`.
    """

    def __init__(
        self,
        specs: "Sequence[tuple[str, int] | str]",
        resilience: ResilienceCounters,
        transport: "TransportCounters | None" = None,
    ) -> None:
        self._resilience = resilience
        self._transport = transport
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
        """Retire wedged hosts, then revive dead ones where possible.

        The supervisor recycles after a round has waited on every
        ticket it dispatched, so a live host still holding a ticket is
        wedged (a timeout): it is marked dead — a local host's process
        is killed — and revived like any other dead host.  A host that
        cannot be revived stays dead: its shard keeps flowing to
        survivors, and with no survivors every ticket quarantines to
        the parent's serial path, preserving the always-completes
        invariant.
        """
        for index, client in enumerate(self.clients):
            if client.alive and client.busy:
                client.mark_dead(TimeoutError("ticket outlived its round"))
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
    """Plans and dispatches one evaluator's tickets across a host pool.

    Owns the pool, the content-digest frame cache and the ticket
    planner; :class:`~repro.core.parallel.ParallelDtrEvaluator`
    delegates its fan-out here.  Ticket planning cuts the item list
    into contiguous shards (one per configured host, in item order, so
    reassembly is a concatenation), each shard into roughly four
    tickets — bounded by the sweep planner's ``group_scenario_budget``
    so one ticket never exceeds one ``plan_sweep`` batch group's state
    budget host-side.

    Args:
        specs: one entry per host, in shard order: ``"local"`` forks a
            local host on a socketpair, ``(host, port)`` connects to a
            ``repro-exp serve-host`` server.
        resilience: the evaluator's resilience counters.
        transport: the evaluator's transport counters.
    """

    def __init__(
        self,
        specs: "Sequence[tuple[str, int] | str]",
        resilience: ResilienceCounters,
        transport: TransportCounters,
    ) -> None:
        self._specs = tuple(specs)
        self._resilience = resilience
        self._transport = transport
        self._pool: "HostPool | None" = None
        self._task_ids = itertools.count()
        self._frames: "OrderedDict[bytes, bytes]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        """Configured host count (the shard count)."""
        return len(self._specs)

    def ensure_pool(self) -> HostPool:
        """The live pool, building it lazily on first use."""
        if self._pool is None:
            self._pool = HostPool(
                self._specs, self._resilience, self._transport
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
        """Contiguous ``(owner, lo, hi)`` tickets over ``count`` items.

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
        kind: str,
        body: tuple,
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
        frame = _encode((kind, task_id, body, seq, attempt))
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
