"""Tests for the sweep-host transport: local and TCP hosts.

The contract is the repo-wide one: ``n_jobs`` and ``hosts`` are
execution knobs, so every fanned-out sweep — across any host count,
any chunking, any streamed return order, and any injected host death —
must produce results *bit-identical* to the serial evaluator.  Parity
assertions use exact equality throughout.
"""

import multiprocessing
import socket
import struct
import threading

import numpy as np
import pytest

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.checkpoint import execution_fingerprint
from repro.core.distributed import HostWorker
from repro.core.evaluation import DtrEvaluator
from repro.core.faults import FaultPlan, StageFault, TaskDelay, WorkerKill
from repro.core.parallel import ParallelDtrEvaluator, make_evaluator
from repro.core.weights import WeightSetting
from repro.routing.backend import parse_hosts
from repro.routing.failures import single_link_failures
from repro.scenarios import (
    GaussianSurge,
    GravityRescale,
    cross,
    gaussian_surges,
    k_link_failures,
    srlg_failures,
)
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization


@pytest.fixture(scope="module")
def dist_instance():
    """A 10-node RandTopo with scaled traffic (deterministic)."""
    gen = np.random.default_rng(7)
    network = scale_to_diameter(rand_topology(10, 4.0, gen), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(10, gen, 1.0), 0.4, "mean"
    )
    return network, traffic


@pytest.fixture(scope="module")
def dist_setting(dist_instance):
    network, _ = dist_instance
    return WeightSetting.random(
        network.num_arcs,
        OptimizerConfig().weights,
        np.random.default_rng(23),
    )


@pytest.fixture(scope="module")
def mixed_scenarios(dist_instance):
    """Failures, surges and crossed variants in one set."""
    network, _ = dist_instance
    return (
        srlg_failures(network, num_groups=3, group_size=2, seed=1)
        + k_link_failures(network, k=2, max_scenarios=3, seed=1)
        + gaussian_surges(count=2, seed=1)
        + cross(
            srlg_failures(network, num_groups=1, group_size=2, seed=1),
            [GaussianSurge(seed=8), GravityRescale(1.3)],
        )
    )


@pytest.fixture(scope="module")
def serial_reference(dist_instance, dist_setting, mixed_scenarios):
    network, traffic = dist_instance
    serial = DtrEvaluator(network, traffic, OptimizerConfig())
    return serial.evaluate_scenarios(dist_setting, mixed_scenarios)


def _config(**execution_kwargs) -> OptimizerConfig:
    return OptimizerConfig().replace(
        execution=ExecutionParams(**execution_kwargs)
    )


def _assert_bit_identical(reference, candidate):
    assert len(reference) == len(candidate)
    assert reference.total_cost.lam == candidate.total_cost.lam
    assert reference.total_cost.phi == candidate.total_cost.phi
    for ref, got in zip(reference.evaluations, candidate.evaluations):
        assert ref.scenario == got.scenario
        assert ref.cost.lam == got.cost.lam
        assert ref.cost.phi == got.cost.phi
        assert ref.sla.violations == got.sla.violations
        assert np.array_equal(ref.loads_delay, got.loads_delay)
        assert np.array_equal(ref.loads_tput, got.loads_tput)


def _assert_pool_released(pool):
    """After close(): no open sockets, no live local host processes."""
    for client in pool.clients:
        assert client.closed, client.describe()
        assert client.process is None
    assert not multiprocessing.active_children()


def _serve_in_thread(worker):
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    return thread


class TestHostSpecParsing:
    def test_local_spec(self):
        # Same-box hosts are n_jobs: the old local:N spelling fails
        # closed instead of parsing as a host named "local".
        with pytest.raises(ValueError, match="n_jobs"):
            parse_hosts("local:3")
        with pytest.raises(ValueError, match="n_jobs"):
            ExecutionParams(hosts="local:2")

    def test_endpoint_spec(self):
        assert parse_hosts("alpha:7777,beta:7778") == (
            ("alpha", 7777),
            ("beta", 7778),
        )

    @pytest.mark.parametrize(
        "spec",
        ["", "local:0", "local:x", "alpha", "alpha:0", "alpha:70000", ","],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_hosts(spec)

    def test_hosts_executor_requires_spec(self):
        # The host pool needs a parseable spec; a blank one fails at
        # configuration time instead of selecting an empty pool.
        with pytest.raises(ValueError, match="hosts"):
            ExecutionParams(hosts="")

    def test_other_executors_reject_spec(self):
        # There is no executor selector left to contradict the spec:
        # ``hosts`` alone selects the host pool.
        with pytest.raises(TypeError, match="executor"):
            ExecutionParams(executor="process", hosts="alpha:7777")

    def test_execution_params_validate(self):
        assert ExecutionParams(hosts="alpha:7777").hosts == "alpha:7777"
        assert ExecutionParams().hosts is None
        with pytest.raises(ValueError):
            ExecutionParams(hosts="local:0")
        with pytest.raises(ValueError):
            ExecutionParams(hosts="alpha")

    def test_fingerprint_ignores_hosts(self):
        # Resuming a cluster run on different (or no) hosts must not be
        # refused: hosts is execution-only, like every resilience knob.
        base = _config(hosts="alpha:7777")
        other = _config(hosts="alpha:7777,beta:7778")
        assert execution_fingerprint(
            base.execution
        ) == execution_fingerprint(other.execution)
        assert execution_fingerprint(
            base.execution
        ) == execution_fingerprint(_config().execution)


class TestTicketPlanning:
    def _executor(self, n_hosts):
        from repro.core.distributed import DistributedSweepExecutor
        from repro.core.resilience import ResilienceCounters
        from repro.core.resilience import TransportCounters

        return DistributedSweepExecutor(
            ("local",) * n_hosts, ResilienceCounters(), TransportCounters()
        )

    def test_contiguous_cover(self):
        tickets = self._executor(3).plan_tickets(25, 10, 40, None)
        spans = [(lo, hi) for _, lo, hi in tickets]
        assert spans[0][0] == 0 and spans[-1][1] == 25
        for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
            assert prev_hi == lo
        owners = [owner for owner, _, _ in tickets]
        assert sorted(set(owners)) == [0, 1, 2]

    def test_chunk_size_respected(self):
        tickets = self._executor(2).plan_tickets(20, 10, 40, 3)
        assert all(hi - lo <= 3 for _, lo, hi in tickets)

    def test_budget_caps_tickets(self):
        # Huge chunk request on a big network: the sweep-state budget
        # bounds every ticket like it bounds shm batch groups.
        from repro.routing.sweep import group_scenario_budget

        budget = group_scenario_budget(400, 2394)
        tickets = self._executor(1).plan_tickets(
            10 * budget, 400, 2394, 10 * budget
        )
        assert all(hi - lo <= budget for _, lo, hi in tickets)


@pytest.mark.parallel
class TestLocalHostParity:
    def test_sweep_matches_serial_bit_for_bit(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as dist:
            candidate = dist.evaluate_scenarios(
                dist_setting, mixed_scenarios
            )
            stats = dist.transport_stats
        _assert_bit_identical(serial_reference, candidate)
        assert stats.publishes > 0 and stats.payload_bytes > 0
        assert stats.tasks > 0 and stats.result_bytes > 0

    def test_invariant_to_host_count_and_chunking(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        for execution in (
            _config(n_jobs=3),
            _config(n_jobs=2, chunk_size=1),
        ):
            with ParallelDtrEvaluator(
                network, traffic, execution
            ) as dist:
                candidate = dist.evaluate_scenarios(
                    dist_setting, mixed_scenarios
                )
            _assert_bit_identical(serial_reference, candidate)

    def test_costs_only_streaming(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as dist:
            costs = dist.evaluate_scenario_costs(
                dist_setting, mixed_scenarios
            )
            # Streamed returns are scalars only: no routings, no loads.
            for outcome in costs.evaluations:
                assert outcome.loads_delay is None
            assert costs.total_cost.lam == serial_reference.total_cost.lam
            assert costs.total_cost.phi == serial_reference.total_cost.phi
            # A repeat sweep is a memo hit: nothing new is dispatched.
            tasks_before = dist.transport_stats.tasks
            again = dist.evaluate_scenario_costs(
                dist_setting, mixed_scenarios
            )
            assert again is costs
            assert dist.transport_stats.tasks == tasks_before

    def test_publish_once_epochs(
        self, dist_instance, dist_setting, mixed_scenarios
    ):
        network, traffic = dist_instance
        other = WeightSetting.random(
            network.num_arcs,
            OptimizerConfig().weights,
            np.random.default_rng(99),
        )
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as dist:
            dist.evaluate_scenarios(dist_setting, mixed_scenarios)
            first = dist.transport_stats
            dist.evaluate_scenarios(other, mixed_scenarios)
            second = dist.transport_stats
        # The second sweep ships only the new setting's weight vectors
        # (one publish per host), never the instance or scenario set.
        delta = second.payload_bytes - first.payload_bytes
        assert delta > 0
        assert delta < first.payload_bytes / 4
        # Tasks stay ticket-sized: tens of bytes each, not payloads.
        assert second.bytes_per_task < 200

    def test_make_evaluator_dispatch(self, dist_instance):
        network, traffic = dist_instance
        evaluator = make_evaluator(network, traffic, _config(n_jobs=2))
        try:
            assert isinstance(evaluator, ParallelDtrEvaluator)
            assert evaluator.n_hosts == 2
        finally:
            evaluator.close()

    def test_local_hosts_listen_on_nothing(
        self, dist_instance, dist_setting, mixed_scenarios
    ):
        # Every local host hangs off an unnamed AF_UNIX socketpair: no
        # port is bound, so nothing else on the box can reach a host.
        network, traffic = dist_instance
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as dist:
            dist.evaluate_scenarios(dist_setting, mixed_scenarios)
            clients = dist._executor.pool.clients
            assert len(clients) == 2
            for client in clients:
                assert client._sock.family == socket.AF_UNIX
                assert client._sock.getsockname() == ""
                assert client._sock.getpeername() == ""

    def test_single_scenario_stays_serial(
        self, dist_instance, dist_setting
    ):
        network, traffic = dist_instance
        failures = single_link_failures(network)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as dist:
            one = dist.evaluate_scenarios(dist_setting, failures[:1])
            assert len(one) == 1
            # No tasks dispatched, no pool built for a 1-scenario sweep.
            assert dist.transport_stats.tasks == 0
            assert dist._executor.pool is None

    def test_close_releases_everything(
        self, dist_instance, dist_setting, mixed_scenarios
    ):
        network, traffic = dist_instance
        dist = ParallelDtrEvaluator(network, traffic, _config(n_jobs=2))
        dist.evaluate_scenarios(dist_setting, mixed_scenarios)
        pool = dist._executor.pool
        dist.close()
        _assert_pool_released(pool)
        dist.close()  # idempotent


@pytest.mark.parallel
class TestTcpHosts:
    def test_serve_host_parity(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        worker = HostWorker("127.0.0.1", 0)
        server = _serve_in_thread(worker)
        try:
            with ParallelDtrEvaluator(
                network,
                traffic,
                _config(hosts=f"127.0.0.1:{worker.port}"),
            ) as dist:
                candidate = dist.evaluate_scenarios(
                    dist_setting, mixed_scenarios
                )
        finally:
            worker.close()
        _assert_bit_identical(serial_reference, candidate)
        server.join(timeout=10)
        assert not server.is_alive()

    def test_oversized_frame_drops_connection_not_host(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        # A peer announcing a 2**62-byte frame and then going quiet must
        # not pin the host: it drops that connection unread and serves
        # the next one.
        network, traffic = dist_instance
        worker = HostWorker("127.0.0.1", 0)
        server = _serve_in_thread(worker)
        try:
            with socket.create_connection(
                ("127.0.0.1", worker.port), timeout=10
            ) as raw:
                raw.sendall(struct.pack(">Q", 2**62))
                assert raw.recv(1) == b""  # closed by the host
            with ParallelDtrEvaluator(
                network,
                traffic,
                _config(hosts=f"127.0.0.1:{worker.port}"),
            ) as dist:
                candidate = dist.evaluate_scenarios(
                    dist_setting, mixed_scenarios
                )
                stats = dist.resilience_stats
        finally:
            worker.close()
        _assert_bit_identical(serial_reference, candidate)
        assert stats.host_failures == 0
        server.join(timeout=10)
        assert not server.is_alive()

    def test_oversized_reply_marks_host_dead(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        # The parent bounds frames too: a host replying with a 2**62
        # length prefix is marked dead at once and its tickets take the
        # supervisor path, ending bit-identical on the serial fallback.
        network, traffic = dist_instance
        listener = socket.create_server(("127.0.0.1", 0))
        held = []

        def liar():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                held.append(conn)
                try:
                    conn.recv(1 << 16)
                    conn.sendall(struct.pack(">Q", 2**62))
                except OSError:
                    pass

        thread = threading.Thread(target=liar, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        try:
            with ParallelDtrEvaluator(
                network,
                traffic,
                _config(
                    hosts=f"127.0.0.1:{port}",
                    max_retries=1,
                    retry_backoff=0.0,
                    task_timeout=30.0,
                ),
            ) as dist:
                candidate = dist.evaluate_scenarios(
                    dist_setting, mixed_scenarios
                )
                stats = dist.resilience_stats
        finally:
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            for conn in held:
                conn.close()
        _assert_bit_identical(serial_reference, candidate)
        assert stats.host_failures >= 1
        assert stats.timeouts == 0
        assert stats.quarantined_tasks > 0
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_unreachable_host_degrades_to_serial(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        # A port nothing listens on: every ticket quarantines to the
        # parent's serial path, and the sweep still completes exactly.
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        dead_port = sink.getsockname()[1]
        sink.close()
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(hosts=f"127.0.0.1:{dead_port}", max_retries=1),
        ) as dist:
            candidate = dist.evaluate_scenarios(
                dist_setting, mixed_scenarios
            )
            stats = dist.resilience_stats
        _assert_bit_identical(serial_reference, candidate)
        assert stats.quarantined_tasks > 0
        assert stats.host_failures > 0
        assert stats.host_respawns == 0


@pytest.mark.parallel
class TestHostChaos:
    def test_host_killed_mid_sweep_is_bit_identical(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        plan = FaultPlan(faults=(WorkerKill(task=1),))
        dist = ParallelDtrEvaluator(
            network,
            traffic,
            _config(n_jobs=2, fault_plan=plan),
        )
        try:
            candidate = dist.evaluate_scenarios(
                dist_setting, mixed_scenarios
            )
            stats = dist.resilience_stats
            pool = dist._executor.pool
        finally:
            dist.close()
        _assert_bit_identical(serial_reference, candidate)
        assert stats.host_failures == 1
        assert stats.host_respawns == 1
        assert stats.worker_failures >= 1
        _assert_pool_released(pool)

    def test_delayed_host_keeps_streaming_order(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        # Stall the first shard's first ticket: results from the other
        # host stream back earlier, yet reassembly is in scenario order.
        plan = FaultPlan(faults=(TaskDelay(task=0, seconds=0.4),))
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(n_jobs=2, fault_plan=plan),
        ) as dist:
            candidate = dist.evaluate_scenarios(
                dist_setting, mixed_scenarios
            )
            stats = dist.resilience_stats
        _assert_bit_identical(serial_reference, candidate)
        assert stats.host_failures == 0

    def test_poison_task_quarantines_to_serial(
        self, dist_instance, dist_setting, mixed_scenarios, serial_reference
    ):
        network, traffic = dist_instance
        plan = FaultPlan(
            faults=(StageFault(stage="task", task=2, attempts=None),)
        )
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(n_jobs=2, fault_plan=plan, max_retries=1),
        ) as dist:
            candidate = dist.evaluate_scenarios(
                dist_setting, mixed_scenarios
            )
            stats = dist.resilience_stats
        _assert_bit_identical(serial_reference, candidate)
        assert stats.quarantined_tasks == 1
        assert stats.task_failures >= 1
        # Poison is a task error, not a host death.
        assert stats.host_failures == 0
