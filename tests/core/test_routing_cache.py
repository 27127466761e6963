"""RoutingCache LRU behavior, especially under mixed variant digests.

The cache is the warm-sweep backbone of the caching/parallel
evaluators; these tests pin its eviction order, its hit accounting,
and — for failure x surge cross products — that the per-variant
*sibling* caches stay individually bounded, so wide cross products
cannot blow memory up cross-product-style.
"""

import numpy as np
import pytest

from repro.core import parallel
from repro.core.evaluation import _VARIANT_NORMAL_CACHE
from repro.core.parallel import CachingDtrEvaluator, RoutingCache
from repro.core.weights import WeightSetting
from repro.routing.failures import NORMAL
from repro.scenarios import (
    GaussianSurge,
    cross,
    legacy_failures,
    srlg_failures,
)


def _routing_for(evaluator, setting):
    """A real ClassRouting to stock the cache with."""
    return evaluator.evaluate_normal(setting).routing_delay


@pytest.fixture
def stocked(small_evaluator, random_setting):
    routing = _routing_for(small_evaluator, random_setting)
    return routing


@pytest.fixture
def num_arcs(small_evaluator):
    return small_evaluator.network.num_arcs


class TestLruSemantics:
    def test_eviction_order_is_least_recently_used(self, stocked, num_arcs):
        cache = RoutingCache(max_entries=3)
        weights = [
            np.full(num_arcs, value, dtype=np.float64)
            for value in (1, 2, 3, 4)
        ]
        for w in weights[:3]:
            cache.put("delay", NORMAL, w, stocked)
        assert len(cache) == 3
        # touch the oldest entry; the middle one becomes LRU
        assert cache.get("delay", NORMAL, weights[0]) is not None
        cache.put("delay", NORMAL, weights[3], stocked)
        assert len(cache) == 3
        assert cache.get("delay", NORMAL, weights[1]) is None  # evicted
        assert cache.get("delay", NORMAL, weights[0]) is not None
        assert cache.get("delay", NORMAL, weights[3]) is not None

    def test_put_of_existing_key_refreshes_not_duplicates(
        self, stocked, num_arcs
    ):
        cache = RoutingCache(max_entries=2)
        w1 = np.full(num_arcs, 1.0)
        w2 = np.full(num_arcs, 2.0)
        cache.put("delay", NORMAL, w1, stocked)
        cache.put("delay", NORMAL, w2, stocked)
        cache.put("delay", NORMAL, w1, stocked)  # refresh, no growth
        assert len(cache) == 2
        w3 = np.full(num_arcs, 3.0)
        cache.put("delay", NORMAL, w3, stocked)
        # w2 was LRU after w1's refresh
        assert cache.get("delay", NORMAL, w2) is None
        assert cache.get("delay", NORMAL, w1) is not None

    def test_hit_accounting(self, stocked, num_arcs):
        cache = RoutingCache(max_entries=4)
        w = np.full(num_arcs, 1.0)
        assert cache.get("delay", NORMAL, w) is None
        cache.put("delay", NORMAL, w, stocked)
        assert cache.get("delay", NORMAL, w) is not None
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits_exact == 1
        assert stats.hits == 1
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_clear_keeps_counters(self, stocked, num_arcs):
        cache = RoutingCache(max_entries=4)
        w = np.full(num_arcs, 1.0)
        cache.put("delay", NORMAL, w, stocked)
        cache.get("delay", NORMAL, w)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits_exact == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RoutingCache(max_entries=0)


class TestVariantSiblingBounds:
    def test_cross_product_sweeps_stay_bounded(
        self, small_instance, tiny_config, monkeypatch
    ):
        """A failure x surge cross sweep builds one sibling per variant
        digest, each with its own size-bounded routing cache and a
        bounded NORMAL LRU — no cross-product memory blowup."""
        network, traffic = small_instance
        # Shrink the fixed capacity so the sweeps below overflow it.
        monkeypatch.setattr(parallel, "ROUTING_CACHE_ENTRIES", 8)
        evaluator = CachingDtrEvaluator(network, traffic, tiny_config)
        variants = [GaussianSurge(seed=s) for s in range(3)]
        scenarios = cross(
            srlg_failures(network, num_groups=3, group_size=2, seed=4),
            variants,
        )
        settings = [
            WeightSetting.random(
                network.num_arcs,
                tiny_config.weights,
                np.random.default_rng(s),
            )
            for s in range(7)
        ]
        for setting in settings:
            evaluator.evaluate_scenarios(setting, scenarios)
        siblings = evaluator._variant_evaluators
        assert len(siblings) == len(variants)  # one per digest, reused
        for sibling in siblings.values():
            assert sibling.cache is not None
            assert len(sibling.cache) <= parallel.ROUTING_CACHE_ENTRIES
        assert len(evaluator.cache) <= parallel.ROUTING_CACHE_ENTRIES
        for lru in evaluator._variant_normal_cache.values():
            assert len(lru) <= _VARIANT_NORMAL_CACHE
        evaluator.close()
        assert not evaluator._variant_evaluators

    def test_mixed_digest_entries_never_collide(
        self, small_instance, tiny_config
    ):
        """Sibling caches are keyed per variant digest: the same
        (weights, scenario) key under two variants yields two distinct
        routings, each bit-exact for its own traffic."""
        network, traffic = small_instance
        evaluator = CachingDtrEvaluator(network, traffic, tiny_config)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(21),
        )
        failures = legacy_failures(network)
        variants = [GaussianSurge(seed=1), GaussianSurge(seed=2)]
        sweeps = {
            v.digest: evaluator.evaluate_scenarios(
                setting, cross(failures, [v])
            )
            for v in variants
        }
        a, b = (sweeps[v.digest] for v in variants)
        # different surges genuinely produce different loads somewhere
        assert any(
            not np.array_equal(x.loads_delay, y.loads_delay)
            for x, y in zip(a.evaluations, b.evaluations)
        )
        # and each sibling independently reproduces its own sweep
        repeat = evaluator.evaluate_scenarios(
            setting, cross(failures, [variants[0]])
        )
        for x, y in zip(a.evaluations, repeat.evaluations):
            assert x.cost.lam == y.cost.lam
            assert np.array_equal(x.loads_delay, y.loads_delay)
        evaluator.close()
