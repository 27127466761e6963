"""Workload inputs, the digest gate and tracer hygiene, on the library."""

from __future__ import annotations

import dataclasses
import importlib
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.config import OptimizerConfig
from repro.core.lexicographic import CostPair
from repro.core.parallel import make_evaluator
from repro.core.perturbation import random_pair_move
from repro.core.weights import WeightSetting
from repro.exp.common import make_instance
from repro.scenarios.generators import build_scenarios

from e2ebench.layers import FUNCTIONS, METHODS, REGISTERED, UNITS, LayerProbe
from e2ebench.spans import WRAPPER_MARK
from e2ebench.workload import (
    audit_inputs,
    costs_digest,
    digest_gate,
    settings_digest,
)

ROOT = Path(__file__).resolve().parents[2]


def test_same_seed_same_inputs_other_seed_other_inputs():
    _, scenarios_a, settings_a = audit_inputs(0, 4)
    _, scenarios_b, settings_b = audit_inputs(0, 4)
    _, scenarios_c, settings_c = audit_inputs(1, 4)
    assert settings_digest(settings_a) == settings_digest(settings_b)
    assert scenarios_a.digest == scenarios_b.digest
    assert settings_digest(settings_a) != settings_digest(settings_c)
    assert scenarios_a.digest != scenarios_c.digest


def small_sweep():
    """A 10-node instance with all three scenario families and a setting."""
    instance = make_instance("rand", 10, 4.0, 3)
    scenarios = build_scenarios("link,srlg,surge", instance.network, 3)
    setting = WeightSetting.random(
        instance.network.num_arcs,
        OptimizerConfig().weights,
        np.random.default_rng(5),
    )
    return instance, scenarios, setting


def test_digest_gate_flags_one_flipped_cost_bit():
    instance, scenarios, setting = small_sweep()
    evaluator = make_evaluator(
        instance.network, instance.traffic, OptimizerConfig()
    )
    costs = evaluator.evaluate_scenario_costs(setting, scenarios)
    first = costs.evaluations[0]
    (bits,) = struct.unpack("<q", struct.pack("<d", first.cost.phi))
    (phi,) = struct.unpack("<d", struct.pack("<q", bits ^ 1))
    flipped = dataclasses.replace(
        costs,
        evaluations=(
            dataclasses.replace(first, cost=CostPair(first.cost.lam, phi)),
            *costs.evaluations[1:],
        ),
    )
    want = costs_digest(costs)
    failed = digest_gate([costs, flipped, None], {0: want, 1: want})
    assert set(failed) == {1, 2}
    assert failed[2] == "raised"


def wrapped_objects():
    """(owner, attribute) of everything a traced run replaces."""
    load = importlib.import_module
    found = [(load(module), name) for module, name, _ in FUNCTIONS]
    for module, cls, method, _ in METHODS:
        found.append((getattr(load(module), cls), method))
    for module, cls, _ in REGISTERED:
        found.append((getattr(load(module), cls), "__init__"))
    return found


def marked(namespace: dict) -> list[str]:
    return [k for k, v in namespace.items() if getattr(v, WRAPPER_MARK, False)]


def test_traced_run_measures_then_restores_every_wrapped_object():
    targets = wrapped_objects()
    originals = [vars(owner)[attr] for owner, attr in targets]
    instance, scenarios, setting = small_sweep()
    move = random_pair_move(
        setting, 0, OptimizerConfig().weights, np.random.default_rng(1)
    )
    probe = LayerProbe()
    probe.install()
    try:
        evaluator = make_evaluator(
            instance.network, instance.traffic, OptimizerConfig()
        )
        before = probe.counters()
        lo = time.perf_counter()
        evaluator.evaluate_scenario_costs(setting, scenarios)
        normal = evaluator.evaluate_normal(setting)
        move.apply(setting)
        evaluator.evaluate_move(setting, move, reuse=normal)
        hi = time.perf_counter()
        metrics = probe.metrics((lo, hi), before, probe.counters())
    finally:
        probe.restore()
    assert [vars(owner)[attr] for owner, attr in targets] == originals
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            assert marked(vars(module)) == [], name
            for value in vars(module).values():
                if isinstance(value, type):
                    assert marked(vars(value)) == [], value
    assert probe.evaluators and probe.routers
    assert set(metrics) | {"trace.overhead_s"} == set(UNITS)
    assert metrics["evaluation.evaluate_move.calls"] == 1
    assert metrics["evaluation.sweep_memo.lookups"] == 1
    assert metrics["sweep.groups"] >= 1
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def test_untraced_workload_loads_no_wrapper():
    code = (
        "import sys, e2ebench.workload; "
        "print(sorted(m for m in sys.modules "
        "if m in ('e2ebench.layers', 'e2ebench.spans')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
