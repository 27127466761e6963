"""The ``scenarios`` experiment's from-scratch parity gate."""

import dataclasses

import pytest

from repro.core.evaluation import DtrEvaluator, ScenarioCosts
from repro.core.lexicographic import CostPair
from repro.exp.common import Instance
from repro.exp.scenarios import assert_from_scratch_parity
from repro.scenarios import build_scenarios


@pytest.fixture
def gate_inputs(small_instance, tiny_config, random_setting):
    network, traffic = small_instance
    instance = Instance(network=network, traffic=traffic, label="t", seed=0)
    scenarios = build_scenarios("link,srlgxsurge", network, seed=0)
    swept = DtrEvaluator(network, traffic, tiny_config).evaluate_scenarios(
        random_setting, scenarios
    )
    return instance, tiny_config, random_setting, scenarios, swept


class TestFromScratchGate:
    def test_passes_on_equal_costs(self, gate_inputs):
        assert_from_scratch_parity(*gate_inputs)

    def test_raises_naming_the_first_differing_scenario(self, gate_inputs):
        instance, config, setting, scenarios, swept = gate_inputs
        index = len(scenarios) - 2  # a failure x surge scenario
        evaluations = list(swept.evaluations)
        bad = evaluations[index]
        evaluations[index] = dataclasses.replace(
            bad, cost=CostPair(bad.cost.lam + 1.0, bad.cost.phi)
        )
        with pytest.raises(RuntimeError) as raised:
            assert_from_scratch_parity(
                instance,
                config,
                setting,
                scenarios,
                ScenarioCosts(tuple(evaluations)),
            )
        assert repr(scenarios[index].label) in str(raised.value)

    def test_raises_on_a_short_sweep(self, gate_inputs):
        instance, config, setting, scenarios, swept = gate_inputs
        short = ScenarioCosts(swept.evaluations[:-1])
        with pytest.raises(RuntimeError, match="from-scratch parity"):
            assert_from_scratch_parity(
                instance, config, setting, scenarios, short
            )
