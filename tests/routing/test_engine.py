"""Tests for the routing engine."""

import numpy as np
import pytest

from repro.routing.engine import RoutingEngine
from repro.routing.failures import FailureScenario


def demand_matrix(n, pairs):
    demands = np.zeros((n, n))
    for s, t, v in pairs:
        demands[s, t] = v
    return demands


class TestRouteClass:
    def test_loads_on_single_path(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        weights[square_network.arc_id(0, 2)] = 9
        weights[square_network.arc_id(2, 0)] = 9
        demands = demand_matrix(4, [(1, 0, 10.0)])
        routing = engine.route_class(weights, demands)
        assert routing.loads[square_network.arc_id(1, 0)] == pytest.approx(
            10.0
        )
        assert routing.undelivered == 0.0

    def test_destinations_only_with_demand(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        demands = demand_matrix(4, [(0, 3, 1.0), (1, 3, 2.0)])
        routing = engine.route_class(weights, demands)
        assert routing.destinations.tolist() == [3]

    def test_mask_for_destination(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        demands = demand_matrix(4, [(0, 3, 1.0)])
        routing = engine.route_class(weights, demands)
        mask = routing.mask_for(3)
        assert mask[square_network.arc_id(0, 3)]
        with pytest.raises(KeyError):
            routing.mask_for(1)

    def test_failure_scenario_changes_route(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        demands = demand_matrix(4, [(0, 1, 4.0)])
        direct = square_network.arc_id(0, 1)
        scenario = FailureScenario(
            failed_arcs=(direct, square_network.arc_id(1, 0)),
            label="link",
        )
        routing = engine.route_class(weights, demands, scenario)
        assert routing.loads[direct] == 0.0
        # re-routed 0 -> 2 -> 1
        assert routing.loads[square_network.arc_id(0, 2)] == pytest.approx(
            4.0
        )

    def test_node_removal_drops_traffic(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        demands = demand_matrix(4, [(0, 1, 4.0), (2, 3, 2.0)])
        scenario = FailureScenario(
            failed_arcs=tuple(
                int(a) for a in square_network.arcs_of_node(1)
            ),
            removed_nodes=(1,),
            label="node:1",
        )
        routing = engine.route_class(weights, demands, scenario)
        # demand from/to node 1 vanished; 2 -> 3 still routed
        assert routing.demands[0, 1] == 0.0
        assert routing.loads[square_network.arc_id(2, 3)] == pytest.approx(
            2.0
        )

    def test_bad_demand_shape_rejected(self, square_network):
        engine = RoutingEngine(square_network)
        with pytest.raises(ValueError, match="shape"):
            engine.route_class(
                np.ones(square_network.num_arcs), np.zeros((3, 3))
            )


class TestPathDelays:
    def test_worst_delay_matrix(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        demands = demand_matrix(4, [(1, 3, 1.0)])
        routing = engine.route_class(weights, demands)
        arc_delays = np.full(square_network.num_arcs, 0.003)
        delays = engine.path_delays(routing, arc_delays)
        assert delays[1, 3] == pytest.approx(0.006)
        assert np.isnan(delays[3, 3])
        assert np.isnan(delays[0, 1])  # destination 1 carries no demand

    def test_mean_mode(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        demands = demand_matrix(4, [(1, 3, 1.0)])
        routing = engine.route_class(weights, demands)
        arc_delays = np.full(square_network.num_arcs, 0.003)
        worst = engine.path_delays(routing, arc_delays, mode="worst")
        mean = engine.path_delays(routing, arc_delays, mode="mean")
        assert mean[1, 3] <= worst[1, 3] + 1e-15

    def test_unknown_mode_rejected(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        demands = demand_matrix(4, [(1, 3, 1.0)])
        routing = engine.route_class(weights, demands)
        with pytest.raises(ValueError, match="delay mode"):
            engine.path_delays(routing, np.ones(10), mode="median")


class TestPathMaxUtilization:
    def test_reports_bottleneck(self, square_network):
        engine = RoutingEngine(square_network)
        weights = np.ones(square_network.num_arcs)
        weights[square_network.arc_id(1, 2)] = 9  # force 1->0->3
        demands = demand_matrix(4, [(1, 3, 1.0)])
        routing = engine.route_class(weights, demands)
        utilization = np.zeros(square_network.num_arcs)
        utilization[square_network.arc_id(0, 3)] = 0.7
        per_pair = engine.path_max_utilization(routing, utilization)
        assert per_pair[1, 3] == pytest.approx(0.7)
