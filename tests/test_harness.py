"""Tests for configs, metered rounds, reports, canonical JSON, and the CLI."""
from __future__ import annotations

import json
from math import pi, sqrt

import numpy as np
import pytest

import jsonschema

from qracbox.cli import main
from qracbox.harness import (
    ConfigError,
    ExperimentConfig,
    canonical_json,
    meter_assert,
    parse_state_spec,
    run_experiment,
    run_qrac_protocol,
    run_rac_protocol,
)
from qracbox.metering import (
    ProtocolError,
    QRAC_BUDGET,
    RACBOX_BUDGET,
    Tally,
)
from qracbox.quantum import KET0, KET1, density, fidelity
from qracbox.rng import make_rng


def load_schema() -> dict:
    from importlib.resources import files

    return json.loads(files("qracbox").joinpath("report_schema.json").read_text())


class TestStateSpecs:
    def test_bloch_spec(self):
        state = parse_state_spec(f"bloch:{pi},0")
        assert fidelity(density(state), KET1) == pytest.approx(1.0, abs=1e-12)

    def test_amp_spec(self):
        state = parse_state_spec("amp:0.6,0,0.8,0")
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-12)

    def test_amp_spec_renormalizes_with_warning(self):
        with pytest.warns(UserWarning, match="renormalized"):
            state = parse_state_spec("amp:2,0,0,0")
        assert fidelity(density(state), KET0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        ["", "bloch:1", "amp:1,0", "polar:0,0", "amp:a,b,c,d", "noscheme"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_state_spec(bad)


class TestExperimentConfig:
    def test_round_trip(self):
        config = ExperimentConfig(experiment="qrac", seed=5, trials=10)
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "qrac"})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="teleport-only", seed=1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "qrac", "seed": 1, "shots": 4})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="qrac", seed=1, mode="fast")

    def test_alpha_needs_beta(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="mixture", seed=1, alpha=(1.0, 0.0))

    def test_alpha_and_omega_conflict(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                experiment="mixture",
                seed=1,
                omega="amp:1,0,0,0",
                alpha=(1.0, 0.0),
                beta=(0.0, 0.0),
            )

    def test_unnormalized_alpha_beta_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                experiment="mixture", seed=1, alpha=(1.0, 0.0), beta=(1.0, 0.0)
            )

    def test_omega_resolution(self):
        config = ExperimentConfig(
            experiment="mixture",
            seed=1,
            alpha=(sqrt(0.5), 0.0),
            beta=(0.0, sqrt(0.5)),
        )
        alpha, beta = config.resolved_omega_amplitudes()
        assert alpha == pytest.approx(sqrt(0.5))
        assert beta == pytest.approx(1j * sqrt(0.5))
        omega = config.resolved_omega()
        assert abs(np.linalg.norm(omega.amplitudes) - 1) < 1e-12


class TestPartyMachines:
    def test_bob_never_emits(self):
        result = run_qrac_protocol(KET0, KET1, KET0, seed=3)
        assert all(m.direction == "A->B" for m in result.transcript.messages)
        assert result.transcript.totals == QRAC_BUDGET

    def test_rac_protocol(self):
        rng = make_rng(7)
        for _ in range(50):
            a0, a1, w = (int(rng.integers(2)) for _ in range(3))
            result = run_rac_protocol(a0, a1, w, rng)
            assert result.output == (a0 if w == 0 else a1)
            assert result.transcript.totals == RACBOX_BUDGET


class TestMeterAssert:
    def test_pass(self):
        result = run_qrac_protocol(KET0, KET1, KET0, seed=1)
        check = meter_assert(result.transcript, QRAC_BUDGET)
        assert check["pass"] and check["value"] == 0.0

    def test_fail_reports_diff(self):
        result = run_qrac_protocol(KET0, KET1, KET0, seed=1)
        check = meter_assert(result.transcript, Tally(bits_a_to_b=1, qubits_a_to_b=1))
        assert not check["pass"]
        assert check["value"] == 2.0
        assert "bits_a_to_b" in check["detail"]

    def test_budget_violation_is_a_hard_failure_with_excerpt(self):
        from qracbox.harness import _assert_budget

        result = run_qrac_protocol(KET0, KET1, KET0, seed=1)
        with pytest.raises(ProtocolError, match="log:"):
            _assert_budget(result.transcript, Tally(bits_a_to_b=1), "unit test")


def _report(experiment: str, **overrides) -> dict:
    defaults = {"experiment": experiment, "seed": 11, "trials": 5}
    defaults.update(overrides)
    return run_experiment(ExperimentConfig.from_dict(defaults))


class TestRunExperiment:
    @pytest.mark.parametrize(
        "experiment,overrides",
        [
            ("qrac", {}),
            ("qrac-qubit-only", {}),
            ("racbox", {"trials": 1000}),
            ("tomography", {}),
            ("tomography", {"mode": "sampled", "trials": 500}),
            ("mixture", {"alpha": [sqrt(0.5), 0.0], "beta": [sqrt(0.5), 0.0]}),
            ("nonsignaling", {}),
            ("dilation", {"trials": 10}),
        ],
    )
    def test_reports_validate_against_schema(self, experiment, overrides):
        report = _report(experiment, **overrides)
        jsonschema.validate(json.loads(canonical_json(report)), load_schema())

    def test_qrac_metrics_and_checks(self):
        report = _report("qrac", trials=20)
        assert report["metrics"]["min_fidelity"] >= 1 - 1e-10
        assert report["tallies"]["bits_a_to_b"] == 40
        assert all(c["pass"] for c in report["checks"])

    def test_qrac_single_round_at_seed_seven(self):
        report = _report("qrac", seed=7, trials=1)
        assert report["metrics"]["min_fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["tallies"]["bits_a_to_b"] == 2
        assert all(c["pass"] for c in report["checks"])

    def test_qubit_only_tallies(self):
        report = _report("qrac-qubit-only", trials=8)
        assert report["tallies"] == {
            "bits_a_to_b": 0,
            "bits_b_to_a": 0,
            "qubits_a_to_b": 8,
            "qubits_b_to_a": 0,
        }

    def test_racbox_report(self):
        report = _report("racbox", trials=1000)
        assert report["metrics"]["exhaustive_correct"] == 16
        assert report["tallies"]["bits_a_to_b"] == 1000
        assert all(c["pass"] for c in report["checks"])

    def test_racbox_too_few_trials_rejected(self):
        with pytest.raises(ConfigError):
            _report("racbox", trials=10)

    def test_mixture_balanced_case_is_maximally_mixed(self):
        report = _report(
            "mixture", alpha=[sqrt(0.5), 0.0], beta=[sqrt(0.5), 0.0]
        )
        out = np.asarray(report["metrics"]["output"]["re"])
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-8)
        assert all(c["pass"] for c in report["checks"])

    def test_tomography_exact_checks_pass(self):
        report = _report("tomography")
        assert all(c["pass"] for c in report["checks"])
        assert report["metrics"]["choi"]["d_in"] == 8

    def test_sampled_tomography_flags_low_trials(self):
        report = _report("tomography", mode="sampled", trials=500)
        flags = {c["name"]: c["pass"] for c in report["checks"]}
        assert flags["sampled-trials-sufficient"] is False

    def test_nonsignaling_exact(self):
        report = _report("nonsignaling")
        assert report["metrics"]["exact_alice_tv"] <= 1e-12
        assert all(c["pass"] for c in report["checks"])

    def test_dilation_report(self):
        report = _report("dilation", trials=10)
        assert report["metrics"]["max_overlap"] <= 1e-6
        assert report["metrics"]["environment_dimension"] <= 16
        assert all(c["pass"] for c in report["checks"])

    def test_reports_are_byte_identical(self):
        config = ExperimentConfig(experiment="qrac", seed=13, trials=25)
        first = canonical_json(run_experiment(config))
        second = canonical_json(run_experiment(config))
        assert first == second

    def test_replay_from_config_echo(self):
        config = ExperimentConfig(experiment="qrac", seed=13, trials=25, mode="sampled")
        report = run_experiment(config)
        replayed = run_experiment(ExperimentConfig.from_dict(report["config"]))
        assert canonical_json(report) == canonical_json(replayed)

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        config = ExperimentConfig(experiment="qrac", seed=3, trials=4)
        run_experiment(config, csv_path=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,w,a1,a0,fidelity"
        assert len(lines) == 5


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1 / 3, "a": 1})
        assert text == '{"a":1,"b":0.33333333333333331}'

    def test_numpy_scalars(self):
        text = canonical_json({"x": np.float64(0.5), "n": np.int64(4)})
        assert text == '{"n":4,"x":0.5}'

    def test_nested_structures(self):
        assert canonical_json([True, None, [1.5]]) == "[true,null,[1.5]]"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_parses_as_json(self):
        report = _report("mixture", alpha=[1.0, 0.0], beta=[0.0, 0.0])
        parsed = json.loads(canonical_json(report))
        assert parsed["config"]["experiment"] == "mixture"


class TestCli:
    def test_passing_run_exits_zero(self, capsys):
        code = main(["run", "--experiment", "qrac", "--seed", "4", "--trials", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["experiment"] == "qrac"

    def test_subcommand_shortcut(self, capsys):
        code = main(["mixture", "--seed", "2", "--alpha-sq", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["experiment"] == "mixture"

    def test_missing_seed_is_config_error(self, capsys):
        assert main(["run", "--experiment", "qrac"]) == 3

    def test_unknown_experiment_is_config_error(self, capsys):
        assert main(["run", "--experiment", "warp", "--seed", "1"]) == 3

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["tomography", "--seed", "1", "--frobnicate"]) == 3

    def test_failed_check_exits_two(self, capsys):
        code = main(["tomography", "--seed", "1", "--mode", "sampled", "--trials", "200"])
        assert code == 2

    def test_failed_checks_named_on_stderr(self, capsys):
        code = main(["tomography", "--mode", "sampled", "--trials", "5", "--seed", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "sampled-trials-sufficient" in captured.err
        config = ExperimentConfig(experiment="tomography", seed=1, trials=5, mode="sampled")
        assert captured.out == canonical_json(run_experiment(config)) + "\n"

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["run", "--experiment", "qrac", "--psi", "amp:nan,0,0,0"], None),
            (["run", "--experiment", "qrac", "--psi", "amp:inf,0,0,0"], None),
            (["run", "--experiment", "qrac", "--psi", "amp:1e308,0,1e308,0"], None),
            (["run", "--experiment", "qrac", "--psi", "bloch:nan,0"], None),
            (["run", "--experiment", "qrac", "--omega", "bloch:0,inf"], None),
            (["mixture", "--alpha-sq", "nan"], None),
            (["run"], '{"experiment": "mixture", "seed": 1, "alpha": [NaN, 0], "beta": [1, 0]}'),
            (["run"], '{"experiment": "mixture", "seed": 1, "alpha": [1, 0], "beta": [0, Infinity]}'),
            (["run"], '{"experiment": "mixture", "seed": 1, "alpha": ["x", 0], "beta": [0, 1]}'),
        ],
    )
    def test_bad_number_is_config_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        assert main([*argv, "--seed", "1"]) == 3
        assert capsys.readouterr().err.startswith("config error:")

    def test_out_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["mixture", "--seed", "2", "--alpha-sq", "1.0", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["out"] == str(out)
        assert capsys.readouterr().out == ""

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "qrac", "seed": 9, "trials": 2}))
        code = main(["run", "--config", str(cfg), "--trials", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["trials"] == 3
        assert report["config"]["seed"] == 9

    def test_csv_flag(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        code = main(
            ["run", "--experiment", "qrac", "--seed", "4", "--trials", "2", "--csv", str(path)]
        )
        assert code == 0
        assert path.read_text().startswith("trial,w,a1,a0,fidelity")

    def test_bad_config_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["run", "--config", str(cfg)]) == 3
