"""Determinism and pinned enumerations of the seeded scenario generators."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.exp.common import make_instance
from repro.routing.failures import FailureModel
from repro.scenarios import (
    GaussianSurge,
    HotspotSurge,
    build_scenarios,
    gaussian_surges,
    k_link_failures,
    legacy_failures,
    node_failures,
    regional_failures,
    scenario_family,
    srlg_failures,
)
from repro.topology import isp_topology, rand_topology

#: Builds the reference topology and prints family fingerprints; run both
#: in-process and in a fresh subprocess to pin cross-process determinism.
_FINGERPRINT_SCRIPT = """
import numpy as np
from repro.scenarios import (
    build_scenarios, gaussian_surges, k_link_failures, regional_failures,
    srlg_failures,
)
from repro.topology import rand_topology

network = rand_topology(14, 4.0, np.random.default_rng(21))
sets = {
    "srlg": srlg_failures(network, num_groups=5, group_size=3, seed=9),
    "multi2": k_link_failures(network, k=2, max_scenarios=12, seed=9),
    "regional": regional_failures(network, num_regions=3, seed=9),
    "surge": gaussian_surges(count=4, seed=9),
    "spec": build_scenarios("srlg,multi2,srlgxsurge", network, seed=9),
}
for name, built in sorted(sets.items()):
    print(name, built.digest, "|".join(built.labels))
"""


def _fingerprints(output: str) -> dict[str, tuple[str, str]]:
    result = {}
    for line in output.strip().splitlines():
        name, digest, labels = line.split(" ", 2)
        result[name] = (digest, labels)
    return result


@pytest.fixture(scope="module")
def network():
    return rand_topology(14, 4.0, np.random.default_rng(21))


class TestSeededDeterminism:
    def test_same_seed_same_set(self, network):
        a = srlg_failures(network, num_groups=5, seed=9)
        b = srlg_failures(network, num_groups=5, seed=9)
        assert a.labels == b.labels
        assert a.digest == b.digest
        assert [s.failed_arcs for s in a] == [s.failed_arcs for s in b]

    def test_different_seed_differs(self, network):
        a = srlg_failures(network, num_groups=5, seed=9)
        b = srlg_failures(network, num_groups=5, seed=10)
        assert a.digest != b.digest

    def test_regional_deterministic(self, network):
        a = regional_failures(network, num_regions=3, seed=9)
        b = regional_failures(network, num_regions=3, seed=9)
        assert a.digest == b.digest
        assert 0 < len(a) <= 3

    def test_identical_across_processes(self):
        """Seeded generators reproduce labels, digests and order in a
        fresh interpreter — nothing depends on per-process hashing."""
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exec(
                compile(_FINGERPRINT_SCRIPT, "<fingerprint>", "exec"), {}
            )
        local = _fingerprints(buffer.getvalue())

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        remote = _fingerprints(proc.stdout)
        assert remote == local
        assert set(local) == {"srlg", "multi2", "regional", "surge", "spec"}


#: ``(link, arc, node)`` digests and link-set sizes of the paper's
#: single-failure enumerations on two ``make_instance`` instances (seed 0).
_PINNED_SINGLE_FAILURES = {
    ("isp", 16, 0.0): (
        "f2dc6de0c41d7ae4", "eba9f6174f08058b", "82a4b59a6c0a95f7", 35,
    ),
    ("rand", 30, 6.0): (
        "f5622e0c145b6772", "842be8200615de51", "9395715678df9de3", 90,
    ),
}


class TestPinnedEnumerations:
    """Digests of the paper's enumerations and of the k=2 family: a
    change to their order, labels, kinds or arcs changes every sweep's
    fold order and output."""

    @pytest.mark.parametrize(
        "instance_args",
        sorted(_PINNED_SINGLE_FAILURES),
        ids=lambda args: f"{args[0]}{args[1]}",
    )
    def test_single_failure_digests(self, instance_args):
        link, arc, node, links = _PINNED_SINGLE_FAILURES[instance_args]
        network = make_instance(*instance_args, seed=0).network
        link_set = legacy_failures(network)
        assert len(link_set) == links
        assert link_set.digest == link
        assert legacy_failures(network, FailureModel.ARC).digest == arc
        assert node_failures(network).digest == node

    def test_k2_sampled_digest(self, network):
        """Combination order and sampling draws of the k=2 family."""
        sampled = k_link_failures(
            network, k=2, max_scenarios=10, rng=np.random.default_rng(5)
        )
        assert len(sampled) == 10
        assert sampled.digest == "1bb7bea164b3d687"

    def test_k2_unsampled_digest(self, network):
        every = k_link_failures(network, k=2)
        assert len(every) == 378
        assert every.digest == "f9a3998134f34715"


class TestGeneratorShapes:
    def test_srlg_groups_fail_whole_links(self, network):
        for scenario in srlg_failures(network, num_groups=4, seed=1):
            # Both directions of every member link die together.
            arcs = set(scenario.failed_arcs)
            for group in network.link_groups:
                overlap = arcs.intersection(group)
                assert not overlap or overlap == set(group)

    def test_srlg_geographic_when_positions_exist(self):
        isp = isp_topology()
        built = srlg_failures(isp, num_groups=4, group_size=3, seed=2)
        assert len(built) >= 1
        assert all(s.kind == "srlg" for s in built)

    def test_srlg_uniform_sampling_keeps_group_size(self, network):
        """Without positions the uniform draw must never re-pick the
        seed link — every group keeps exactly ``group_size`` links."""
        from repro.routing.network import Network

        bare = Network(
            network.num_nodes, list(network.arcs), name="bare"
        )
        num_links = len(bare.link_groups)
        for seed in range(5):
            built = srlg_failures(
                bare, num_groups=num_links, group_size=2, seed=seed
            )
            for scenario in built:
                member_links = {
                    g
                    for g, group in enumerate(bare.link_groups)
                    if set(group) <= set(scenario.failed_arcs)
                }
                assert len(member_links) == 2, scenario.label

    def test_regional_requires_positions(self, network):
        from repro.routing.network import Network

        bare = Network(
            network.num_nodes, list(network.arcs), name="bare"
        )
        with pytest.raises(ValueError, match="positions"):
            regional_failures(bare)

    def test_k_requires_at_least_two(self, network):
        with pytest.raises(ValueError, match="k must be >= 2"):
            k_link_failures(network, k=1)

    def test_sampling_requires_seed_or_rng(self, network):
        with pytest.raises(ValueError, match="seed or rng"):
            k_link_failures(network, k=2, max_scenarios=1)

    def test_variants_apply_deterministically(self, network):
        from repro.traffic import dtr_traffic

        traffic = dtr_traffic(
            network.num_nodes, np.random.default_rng(4), 1.0
        )
        for variant in (GaussianSurge(seed=3), HotspotSurge(seed=3)):
            once = variant.apply(traffic)
            twice = variant.apply(traffic)
            assert np.array_equal(once.delay.values, twice.delay.values)
            assert np.array_equal(
                once.throughput.values, twice.throughput.values
            )
            assert not np.array_equal(
                once.delay.values, traffic.delay.values
            )


class TestFamilyRegistry:
    def test_known_families_build(self, network):
        for name in ("link", "node", "srlg", "multi2", "surge", "rescale"):
            built = scenario_family(name, network, seed=0)
            assert len(built) >= 1

    def test_unknown_family_raises(self, network):
        with pytest.raises(ValueError, match="unknown scenario family"):
            scenario_family("volcano", network)
        with pytest.raises(ValueError, match="unknown scenario family"):
            scenario_family("multiX", network)

    def test_spec_concatenates_in_order(self, network):
        built = build_scenarios("srlg,surge", network, seed=0)
        assert built.kinds() == ("srlg", "surge")
        assert built.name == "srlg,surge"

    def test_spec_cross_product(self, network):
        built = build_scenarios("srlgxsurge", network, seed=0)
        assert all(s.kind == "srlgxsurge" for s in built)
        assert all(
            s.variant is not None and s.failed_arcs for s in built
        )

    def test_empty_spec_rejected(self, network):
        with pytest.raises(ValueError, match="empty"):
            build_scenarios(" , ", network)
