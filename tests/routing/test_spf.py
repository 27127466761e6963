"""Tests for shortest-path computations."""

import numpy as np
import pytest

from repro.routing.spf import (
    distance_columns,
    distance_matrix,
    path_counts,
    shortest_arc_mask,
)


def uniform_weights(network) -> np.ndarray:
    return np.ones(network.num_arcs)


class TestDistanceMatrix:
    def test_hop_counts_on_square(self, square_network):
        dist = distance_matrix(square_network, uniform_weights(square_network))
        assert dist[0, 0] == 0
        assert dist[0, 1] == 1
        assert dist[0, 2] == 1  # via diagonal
        assert dist[1, 3] == 2

    def test_weighted_shortest_path(self, square_network):
        weights = uniform_weights(square_network)
        diag = square_network.arc_id(0, 2)
        weights[diag] = 5  # make the diagonal unattractive
        dist = distance_matrix(square_network, weights)
        assert dist[0, 2] == 2  # now around the ring

    def test_disabled_arcs_excluded(self, square_network):
        weights = uniform_weights(square_network)
        disabled = np.zeros(square_network.num_arcs, dtype=bool)
        disabled[square_network.arc_id(0, 1)] = True
        dist = distance_matrix(square_network, weights, disabled)
        assert dist[0, 1] == 2  # 0 -> 2 -> 1 via diagonal

    def test_disconnection_is_inf(self, square_network):
        weights = uniform_weights(square_network)
        disabled = np.zeros(square_network.num_arcs, dtype=bool)
        # node 3 only connects via 2-3 and 3-0
        for u, v in [(2, 3), (3, 2), (3, 0), (0, 3)]:
            disabled[square_network.arc_id(u, v)] = True
        dist = distance_matrix(square_network, weights, disabled)
        assert np.isinf(dist[0, 3])
        assert np.isinf(dist[3, 0])

    def test_weight_below_one_rejected(self, square_network):
        weights = uniform_weights(square_network)
        weights[0] = 0.5
        with pytest.raises(ValueError, match=">= 1"):
            distance_matrix(square_network, weights)

    def test_wrong_shape_rejected(self, square_network):
        with pytest.raises(ValueError, match="one entry per arc"):
            distance_matrix(square_network, np.ones(3))

    def test_validate_false_skips_checks(self, square_network):
        weights = uniform_weights(square_network)
        weights[0] = 0.5  # would be rejected with validation on
        dist = distance_matrix(square_network, weights, validate=False)
        assert dist.shape == (4, 4)


class TestDistanceColumns:
    def test_columns_match_all_pairs(self, square_network):
        weights = uniform_weights(square_network)
        weights[square_network.arc_id(0, 2)] = 5
        full = distance_matrix(square_network, weights)
        destinations = np.array([1, 3])
        cols = distance_columns(square_network, weights, destinations)
        np.testing.assert_array_equal(cols, full[:, destinations])

    def test_destination_mode_fills_inf(self, square_network):
        weights = uniform_weights(square_network)
        destinations = np.array([2])
        dist = distance_matrix(
            square_network, weights, destinations=destinations
        )
        np.testing.assert_array_equal(
            dist[:, 2], distance_matrix(square_network, weights)[:, 2]
        )
        assert np.isinf(dist[:, [0, 1, 3]]).all()

    def test_empty_destinations(self, square_network):
        weights = uniform_weights(square_network)
        cols = distance_columns(
            square_network, weights, np.array([], dtype=np.intp)
        )
        assert cols.shape == (4, 0)
        dist = distance_matrix(
            square_network, weights, destinations=np.array([], dtype=int)
        )
        assert np.isinf(dist).all()

    def test_disabled_arcs_respected(self, square_network):
        weights = uniform_weights(square_network)
        disabled = np.zeros(square_network.num_arcs, dtype=bool)
        disabled[square_network.arc_id(0, 1)] = True
        cols = distance_columns(
            square_network, weights, np.array([1]), disabled
        )
        full = distance_matrix(square_network, weights, disabled)
        np.testing.assert_array_equal(cols[:, 0], full[:, 1])

    def test_python_and_scipy_paths_agree(self):
        """Small batches (heap Dijkstra) == large batches (scipy)."""
        from repro.topology import rand_topology

        gen = np.random.default_rng(17)
        network = rand_topology(20, 4.0, gen)
        weights = gen.integers(1, 18, network.num_arcs).astype(np.float64)
        all_dests = np.arange(20)
        via_scipy = distance_columns(network, weights, all_dests)
        for t in range(20):
            single = distance_columns(network, weights, np.array([t]))
            np.testing.assert_array_equal(single[:, 0], via_scipy[:, t])

    def test_float_weight_small_batch_stays_on_fast_path(self, monkeypatch):
        """Float weights no longer bail out of the heap fast path.

        A small batch must not silently divert to scipy just because the
        weights are non-integral: scipy's Dijkstra is made to explode, so
        any fallback would fail the test, and the heap columns are pinned
        against the full matrix within the SPF tolerance.
        """
        from repro.routing import spf
        from repro.topology import rand_topology

        gen = np.random.default_rng(29)
        network = rand_topology(20, 4.0, gen)
        weights = gen.uniform(1.0, 18.0, network.num_arcs)
        full = distance_matrix(network, weights)

        def boom(*args, **kwargs):
            raise AssertionError(
                "scipy path taken for a small float-weight batch"
            )

        monkeypatch.setattr(spf, "dijkstra", boom)
        destinations = np.array([2, 7, 11])
        cols = distance_columns(network, weights, destinations)
        np.testing.assert_allclose(
            cols, full[:, destinations], atol=1e-9
        )

    def test_backend_selects_dijkstra_implementation(self):
        """backend= pins the implementation regardless of batch size."""
        from repro.topology import rand_topology

        gen = np.random.default_rng(31)
        network = rand_topology(20, 4.0, gen)
        weights = gen.integers(1, 18, network.num_arcs).astype(np.float64)
        all_dests = np.arange(20)
        via_auto = distance_columns(network, weights, all_dests)
        via_python = distance_columns(
            network, weights, all_dests, backend="python"
        )
        via_vector = distance_columns(
            network, weights, np.array([3]), backend="vector"
        )
        np.testing.assert_array_equal(via_python, via_auto)
        np.testing.assert_array_equal(via_vector[:, 0], via_auto[:, 3])


class TestShortestArcMask:
    def test_ecmp_ties_both_on_dag(self, square_network):
        # With unit weights, 1 -> 3 has two shortest paths (via 0 and 2).
        weights = uniform_weights(square_network)
        dist = distance_matrix(square_network, weights)
        mask = shortest_arc_mask(square_network, weights, dist[:, 3])
        assert mask[square_network.arc_id(1, 0)]
        assert mask[square_network.arc_id(1, 2)]
        assert mask[square_network.arc_id(0, 3)]
        assert mask[square_network.arc_id(2, 3)]

    def test_non_shortest_arc_excluded(self, square_network):
        weights = uniform_weights(square_network)
        dist = distance_matrix(square_network, weights)
        mask = shortest_arc_mask(square_network, weights, dist[:, 1])
        # going 3 -> 2 -> 1 and 3 -> 0 -> 1 are both shortest; 2 -> 3 is not
        assert not mask[square_network.arc_id(2, 3)]

    def test_disabled_arc_never_on_dag(self, square_network):
        weights = uniform_weights(square_network)
        disabled = np.zeros(square_network.num_arcs, dtype=bool)
        disabled[square_network.arc_id(0, 1)] = True
        dist = distance_matrix(square_network, weights, disabled)
        mask = shortest_arc_mask(
            square_network, weights, dist[:, 1], disabled
        )
        assert not mask[square_network.arc_id(0, 1)]


class TestPathCounts:
    def test_two_ecmp_paths(self, square_network):
        weights = uniform_weights(square_network)
        dist = distance_matrix(square_network, weights)
        mask = shortest_arc_mask(square_network, weights, dist[:, 3])
        counts = path_counts(square_network, mask, dist[:, 3], 3)
        assert counts[1] == 2  # via 0 and via 2
        assert counts[0] == 1
        assert counts[3] == 1
