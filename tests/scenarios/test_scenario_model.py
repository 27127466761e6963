"""Semantics of the Scenario / ScenarioSet model and its failure wrapper."""

import numpy as np
import pytest

from repro.routing.failures import NORMAL, FailureScenario
from repro.scenarios import (
    GaussianSurge,
    GravityRescale,
    HotspotSurge,
    Scenario,
    ScenarioSet,
    as_scenario,
    cross,
    gaussian_surges,
    legacy_failures,
    node_failures,
)
from repro.topology import rand_topology


@pytest.fixture
def network():
    return rand_topology(12, 4.0, np.random.default_rng(3))


class TestScenario:
    def test_delegates_failure_surface(self):
        failure = FailureScenario(failed_arcs=(3, 1), label="link:1")
        scenario = Scenario(failure=failure, kind="link")
        assert scenario.failed_arcs == (1, 3)
        assert scenario.removed_nodes == ()
        assert scenario.label == "link:1"
        assert not scenario.is_normal

    def test_normal_only_without_failure_and_variant(self):
        assert Scenario().is_normal
        assert not Scenario(variant=GravityRescale(1.5)).is_normal
        assert not Scenario(
            failure=FailureScenario(failed_arcs=(0,), label="arc:0")
        ).is_normal

    def test_variant_label_composes(self):
        scenario = Scenario(
            failure=FailureScenario(failed_arcs=(2,), label="link:2"),
            variant=GaussianSurge(eps=0.2, seed=4),
            kind="linkxsurge",
        )
        assert scenario.label == "link:2|gauss0.2#4"

    def test_digest_depends_on_every_part(self):
        base = Scenario(
            failure=FailureScenario(failed_arcs=(2,), label="link:2")
        )
        other_kind = Scenario(failure=base.failure, kind="srlg")
        with_variant = Scenario(
            failure=base.failure, variant=GravityRescale(1.5)
        )
        digests = {base.digest, other_kind.digest, with_variant.digest}
        assert len(digests) == 3

    def test_hashable_and_value_equal(self):
        a = Scenario(variant=HotspotSurge(seed=1))
        b = Scenario(variant=HotspotSurge(seed=1))
        assert a == b and hash(a) == hash(b)


class TestScenarioSet:
    def test_wraps_legacy_preserving_order_and_labels(self, network):
        """from_failures wraps bare FailureScenario items in order."""
        bare = [s.failure for s in legacy_failures(network)]
        wrapped = ScenarioSet.from_failures(bare, kind="link")
        assert len(wrapped) == len(bare)
        assert wrapped.name == "link"
        for old, new in zip(bare, wrapped):
            assert new.failure is old
            assert new.label == old.label
            assert new.kind == "link"
        assert wrapped == legacy_failures(network)
        assert ScenarioSet.from_failures(bare).kinds() == ("failure",)

    def test_restriction_matches_legacy(self, network):
        """Restricting the paper's link set keeps, in order, exactly the
        failures touching a given arc (Eq. 7)."""
        failures = legacy_failures(network)
        arcs = [0, 5, 9]
        expected = [
            s.failure for s in failures if set(arcs) & set(s.failed_arcs)
        ]
        restricted = failures.restricted_to_arcs(arcs)
        assert expected
        assert [s.failure for s in restricted] == expected
        assert restricted.name == failures.name

    def test_restriction_keeps_traffic_only_scenarios(self, network):
        combined = legacy_failures(network) + gaussian_surges(count=2)
        restricted = combined.restricted_to_arcs([0])
        kinds = [s.kind for s in restricted]
        assert kinds.count("surge") == 2

    def test_node_failures_wrap(self, network):
        wrapped = node_failures(network)
        assert len(wrapped) == network.num_nodes
        assert all(s.removed_nodes for s in wrapped)

    def test_concatenation_preserves_order(self, network):
        a = legacy_failures(network)
        b = gaussian_surges(count=2)
        combined = a + b
        assert combined.labels == a.labels + b.labels
        assert combined.kinds() == ("link", "surge")

    def test_by_kind_partitions(self, network):
        combined = legacy_failures(network) + gaussian_surges(count=3)
        parts = combined.by_kind()
        assert set(parts) == {"link", "surge"}
        assert sum(len(p) for p in parts.values()) == len(combined)

    def test_digest_tracks_order(self):
        a = Scenario(failure=FailureScenario(failed_arcs=(0,), label="a"))
        b = Scenario(failure=FailureScenario(failed_arcs=(1,), label="b"))
        assert (
            ScenarioSet((a, b)).digest != ScenarioSet((b, a)).digest
        )

    def test_with_variant_recomposes(self, network):
        surged = legacy_failures(network).with_variant(
            GaussianSurge(seed=2), kind="linkxsurge"
        )
        assert all(s.variant == GaussianSurge(seed=2) for s in surged)
        assert all(s.kind == "linkxsurge" for s in surged)


class TestCoercions:
    def test_as_scenario(self):
        assert as_scenario(NORMAL).failure is NORMAL
        composed = Scenario(variant=GravityRescale(2.0))
        assert as_scenario(composed) is composed


class TestCross:
    def test_cross_is_failures_major(self, network):
        failures = legacy_failures(network)
        variants = gaussian_surges(count=2)
        product = cross(failures, variants)
        assert len(product) == len(failures) * 2
        first_blocks = product.scenarios[:2]
        assert {s.failure for s in first_blocks} == {failures[0].failure}
        assert all(s.kind == "linkxsurge" for s in product)

    def test_cross_tags_variant_family(self, network):
        failures = legacy_failures(network)
        product = cross(failures, [GravityRescale(1.5)])
        assert all(s.kind == "linkxrescale" for s in product)
        assert product.name == "linkxrescale"

    def test_cross_rejects_bad_sides(self, network):
        failures = legacy_failures(network)
        with pytest.raises(ValueError, match="traffic-only"):
            cross(failures, failures)
        product = cross(failures, gaussian_surges(count=1))
        with pytest.raises(ValueError, match="already carries"):
            cross(product, gaussian_surges(count=1))
