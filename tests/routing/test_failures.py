"""Tests for the failure primitive and the paper's failure enumerations.

The enumerations live in :mod:`repro.scenarios.generators` and return
:class:`~repro.scenarios.ScenarioSet` collections.
"""

import pytest

from repro.routing.failures import (
    NORMAL,
    FailureModel,
    FailureScenario,
    disabled_arc_mask,
)
from repro.scenarios import k_link_failures, legacy_failures, node_failures


class TestFailureScenario:
    def test_normal_is_normal(self):
        assert NORMAL.is_normal

    def test_failed_arcs_deduplicated_sorted(self):
        scenario = FailureScenario(failed_arcs=(3, 1, 3))
        assert scenario.failed_arcs == (1, 3)

    def test_not_normal_with_arcs(self):
        assert not FailureScenario(failed_arcs=(0,)).is_normal

    def test_not_normal_with_nodes(self):
        assert not FailureScenario(
            failed_arcs=(), removed_nodes=(1,)
        ).is_normal


class TestSingleFailures:
    def test_arc_failures_one_per_arc(self, square_network):
        failures = legacy_failures(square_network, FailureModel.ARC)
        assert len(failures) == square_network.num_arcs
        assert failures.kinds() == ("arc",)
        assert [s.failed_arcs for s in failures] == [
            (a,) for a in range(square_network.num_arcs)
        ]
        assert failures[0].label == "arc:0"

    def test_link_failures_one_per_link(self, square_network):
        failures = legacy_failures(square_network)
        assert len(failures) == square_network.num_links
        assert failures.kinds() == ("link",)
        for scenario in failures:
            assert len(scenario.failed_arcs) == 2
            a, b = scenario.failed_arcs
            assert square_network.reverse_arc[a] == b
            assert scenario.label == f"link:{a}"
            assert not scenario.removed_nodes

    def test_dispatch(self, square_network):
        assert len(legacy_failures(square_network, FailureModel.ARC)) == 10
        assert len(legacy_failures(square_network, FailureModel.LINK)) == 5

    def test_restriction_to_arcs(self, square_network):
        failures = legacy_failures(square_network)
        arc = square_network.arc_id(0, 1)
        restricted = failures.restricted_to_arcs([arc])
        assert len(restricted) == 1
        assert arc in restricted[0].failed_arcs

    def test_restriction_empty_when_untouched(self, square_network):
        failures = legacy_failures(square_network)
        assert len(failures.restricted_to_arcs([])) == 0


class TestNodeFailures:
    def test_all_nodes(self, square_network):
        failures = node_failures(square_network)
        assert len(failures) == square_network.num_nodes
        assert failures.kinds() == ("node",)
        assert failures.labels == tuple(
            f"node:{v}" for v in range(square_network.num_nodes)
        )

    def test_node_failure_kills_incident_arcs(self, square_network):
        failures = node_failures(square_network, nodes=[0])
        assert len(failures) == 1
        scenario = failures[0]
        assert scenario.removed_nodes == (0,)
        expected = set(square_network.arcs_of_node(0).tolist())
        assert set(scenario.failed_arcs) == expected


class TestDualLinkFailures:
    def test_all_pairs_count(self, square_network):
        failures = k_link_failures(square_network, k=2)
        n = square_network.num_links
        assert len(failures) == n * (n - 1) // 2
        for scenario in failures:
            # two whole links: both directions of each pair die together
            assert len(scenario.failed_arcs) == 4

    def test_sampling_respects_cap(self, square_network, rng):
        failures = k_link_failures(
            square_network, k=2, max_scenarios=3, rng=rng
        )
        assert len(failures) == 3

    def test_sampling_requires_rng(self, square_network):
        with pytest.raises(ValueError, match="rng"):
            k_link_failures(square_network, k=2, max_scenarios=2)


class TestDisabledMask:
    def test_mask_marks_failed_arcs(self, square_network):
        scenario = FailureScenario(failed_arcs=(0, 3))
        mask = disabled_arc_mask(square_network, scenario)
        assert mask[0] and mask[3]
        assert mask.sum() == 2

    def test_normal_mask_empty(self, square_network):
        mask = disabled_arc_mask(square_network, NORMAL)
        assert not mask.any()
