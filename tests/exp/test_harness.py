"""Tests for the experiment harness (presets, instances, runner)."""

import numpy as np
import pytest

from repro.exp.common import (
    DEFAULT_THETA,
    ExperimentResult,
    instance_rng,
    make_instance,
    make_topology,
)
from repro.exp.presets import DEFAULT, PAPER, QUICK, get_preset
from repro.exp.runner import EXPERIMENTS, load_experiment
from repro.topology.delays import propagation_diameter


class TestPresets:
    def test_lookup_by_name(self):
        assert get_preset("quick") is QUICK
        assert get_preset("default") is DEFAULT
        assert get_preset("paper") is PAPER

    def test_passthrough(self):
        assert get_preset(QUICK) is QUICK

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("warp")

    def test_scaled_nodes(self):
        assert QUICK.scaled_nodes(30) == 12
        assert QUICK.scaled_nodes(10) == 10  # floor
        assert PAPER.scaled_nodes(30) == 30

    def test_paper_preset_has_paper_parameters(self):
        search = PAPER.config.search
        assert search.phase1_diversification_interval == 100
        assert search.phase1_diversifications == 20
        assert search.phase2_diversification_interval == 30
        assert search.phase2_diversifications == 10
        assert search.improvement_cutoff == 0.001
        assert PAPER.config.sampling.tau == 30
        assert PAPER.repeats == 5


class TestMakeTopology:
    @pytest.mark.parametrize("kind", ["rand", "near", "pl"])
    def test_synthetic_kinds(self, kind):
        net = make_topology(kind, 12, 4.0, seed=1)
        assert net.num_nodes == 12
        assert propagation_diameter(net) == pytest.approx(DEFAULT_THETA)

    def test_isp_ignores_size(self):
        net = make_topology("isp", 99, 9.0, seed=1)
        assert net.num_nodes == 16

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("mesh", 10, 4.0, seed=0)

    def test_diameter_fraction(self):
        net = make_topology("rand", 12, 4.0, seed=1, diameter_fraction=0.8)
        assert propagation_diameter(net) == pytest.approx(
            0.8 * DEFAULT_THETA
        )


class TestMakeInstance:
    def test_utilization_target(self):
        instance = make_instance(
            "rand", 12, 4.0, seed=3, target_utilization=0.4
        )
        from repro.traffic.scaling import (
            reference_weights,
            utilization_under_weights,
        )

        utilization = utilization_under_weights(
            instance.network,
            instance.traffic,
            reference_weights(instance.network),
            reference_weights(instance.network),
        )
        assert utilization.mean() == pytest.approx(0.4)

    def test_label_format(self):
        instance = make_instance("rand", 12, 4.0, seed=3)
        assert instance.label.startswith("RandTopo[12,")

    def test_deterministic_per_seed(self):
        a = make_instance("rand", 12, 4.0, seed=5)
        b = make_instance("rand", 12, 4.0, seed=5)
        np.testing.assert_array_equal(
            a.traffic.delay.values, b.traffic.delay.values
        )
        assert [x.endpoints for x in a.network.arcs] == [
            x.endpoints for x in b.network.arcs
        ]

    def test_streams_independent(self):
        r1 = instance_rng(1, 1).integers(0, 1 << 30)
        r2 = instance_rng(1, 2).integers(0, 1 << 30)
        assert r1 != r2


class TestRunner:
    def test_registry_covers_paper(self):
        expected = {
            "table1",
            "table1_load",
            "timing",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig3",
            "fig4",
            "fig5a",
            "fig5bc",
            "fig5d",
            "fig6",
            "fig7",
            "selectors",
            "resize",
            "diversity",
            "multi_failure",
            "scenarios",
            "ablation",
        }
        assert set(EXPERIMENTS) == expected

    def test_all_experiments_importable(self):
        for experiment_id in EXPERIMENTS:
            run = load_experiment(experiment_id)
            assert callable(run)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            load_experiment("table99")

    def test_cli_list(self, capsys):
        from repro.exp.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (
                ["--task-timeout", "10", "--sweep-deadline", "5"],
                "task_timeout must not exceed sweep_deadline",
            ),
            (["--jobs", "-1"], "n_jobs must be >= 0"),
            (["--max-retries", "-1"], "max_retries must be >= 0"),
            (["--hosts", "local:0"], "--jobs"),
            (["--hosts", "local:2"], "--jobs"),
            (
                ["--jobs", "2", "--hosts", "127.0.0.1:7777"],
                "mutually exclusive",
            ),
            (["--backend", "numba"], "invalid choice"),
            (["--sweep-batch", "on", "--backend", "python"], "invalid choice"),
        ],
        ids=[
            "timeout-over-deadline",
            "negative-jobs",
            "negative-retries",
            "zero-hosts",
            "local-hosts",
            "jobs-and-hosts",
            "numba-backend",
            "sweep-batch-on",
        ],
    )
    def test_cli_rejects_bad_execution_flags(self, capsys, flags, message):
        """Invalid or conflicting flags exit 2 with a usage error, never
        a traceback, before any experiment runs."""
        from repro.exp.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["table2", *flags])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestExperimentResult:
    def test_render_contains_everything(self):
        result = ExperimentResult(
            experiment_id="tableX",
            title="demo",
            preset="quick",
            rows=[{"a": 1.0}],
            context={"k": "v"},
        )
        text = result.render()
        assert "tableX" in text
        assert "demo" in text
        assert "k" in text
