"""Tests for configs, metered rounds, reports, canonical JSON, and the CLI."""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from math import pi, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jsonschema

import qracbox
from qracbox import harness, metering
from qracbox.boxes import verify_rac_privacy
from qracbox.channel import tomography, verify_nonsignaling
from qracbox.cli import build_parser, main
from qracbox.harness import (
    ConfigError,
    ExperimentConfig,
    _assert_budget,
    canonical_json,
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

    # amp:1e-160,... is too small to normalize: |1e-160|^2 is subnormal,
    # so dividing by the norm misses 1 by 1e-5 (after a renormalization warning)
    @pytest.mark.filterwarnings("ignore:state spec")
    @pytest.mark.parametrize(
        "bad",
        ["", "bloch:1", "amp:1,0", "polar:0,0", "amp:a,b,c,d", "noscheme", "amp:1e-160,0,0,0"],
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

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            ((1.0, 0.0), (1.0, 0.0)),
            ((0.0, 1e200), (0.8, 0.0)),  # too large to square
            ((1e200, 0.0), (0.0, 0.0)),
            ((1e308, 1e308), (0.0, 0.0)),
        ],
    )
    def test_unnormalized_alpha_beta_rejected(self, alpha, beta):
        with pytest.raises(ConfigError, match=r"must be 1 within 1e-10$"):
            ExperimentConfig(experiment="mixture", seed=1, alpha=alpha, beta=beta)

    @pytest.mark.parametrize(
        "alpha,message",
        [
            ((True, 0), "alpha must be a [re, im] pair of numbers"),
            (("1", 0), "alpha must be a [re, im] pair of numbers"),
            ((1.0,), "alpha must be a [re, im] pair"),
            ((10**400, 0), "alpha and beta must be finite"),
        ],
    )
    def test_alpha_beta_are_checked_however_the_config_is_built(self, alpha, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(experiment="mixture", seed=1, alpha=alpha, beta=(0, 0))

    def test_a_directly_built_int_alpha_reports_as_from_json(self):
        direct = ExperimentConfig(experiment="mixture", seed=1, alpha=(1, 0), beta=(0, 0))
        parsed = ExperimentConfig.from_dict(
            {"experiment": "mixture", "seed": 1, "alpha": [1, 0], "beta": [0, 0]}
        )
        assert direct.alpha == parsed.alpha == (1.0, 0.0)
        assert canonical_json(run_experiment(direct)) == canonical_json(run_experiment(parsed))

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


class TestAssertBudget:
    def test_within_budget_passes(self):
        result = run_qrac_protocol(KET0, KET1, KET0, seed=1)
        _assert_budget(result.transcript, QRAC_BUDGET, "unit test")

    def test_over_budget_names_each_diff(self):
        result = run_qrac_protocol(KET0, KET1, KET0, seed=1)
        over = Tally(bits_a_to_b=1, qubits_a_to_b=1)
        with pytest.raises(ProtocolError) as raised:
            _assert_budget(result.transcript, over, "unit test")
        assert str(raised.value).startswith(
            "budget violation in unit test: bits_a_to_b: expected 1, got 2; "
            "qubits_a_to_b: expected 1, got 0 (log: "
        )

    def test_budget_violation_is_a_hard_failure_with_excerpt(self):
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

    @staticmethod
    def _rows_bare_and_with_csv(monkeypatch, tmp_path, experiment, trials) -> int:
        """Run a report without and with ``--csv``; returns the CSV's row count.

        Asserts the same report bytes, no rows built without the CSV, and
        every built row written.
        """
        seen = []
        run = harness._DISPATCH[experiment]

        def spy(config, with_rows):
            result = run(config, with_rows)
            seen.append((with_rows, result[4]))
            return result

        monkeypatch.setitem(harness._DISPATCH, experiment, spy)
        config = ExperimentConfig(experiment=experiment, seed=5, trials=trials)
        path = tmp_path / "rows.csv"
        bare = run_experiment(config)
        with_csv = run_experiment(config, csv_path=str(path))
        assert canonical_json(bare) == canonical_json(with_csv)
        (bare_flag, bare_rows), (csv_flag, csv_rows) = seen
        assert (bare_flag, bare_rows, csv_flag) == (False, [], True)
        assert len(path.read_text().splitlines()) == len(csv_rows) + 1
        return len(csv_rows)

    @pytest.mark.parametrize(
        "experiment,trials", [("qrac", 5), ("qrac-qubit-only", 5), ("racbox", 1000)]
    )
    def test_rows_built_only_for_a_csv(self, monkeypatch, tmp_path, experiment, trials):
        assert self._rows_bare_and_with_csv(monkeypatch, tmp_path, experiment, trials) == trials

    def test_dilation_rows_built_only_for_a_csv(self, monkeypatch, tmp_path):
        # a row per pair: the configured one, |0>|1> and at least 50 Haar pairs
        assert self._rows_bare_and_with_csv(monkeypatch, tmp_path, "dilation", 60) == 62


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_in_a_float_list_raises_as_alone(self, value):
        with pytest.raises(ValueError) as alone:
            canonical_json({"x": value})
        with pytest.raises(ValueError) as listed:
            canonical_json({"x": [0.5, value, 1.5]})
        message = f"cannot serialize non-finite float {value!r}"
        assert str(listed.value) == str(alone.value) == message

    def test_float_lists_with_numpy_floats_serialise_as_before(self):
        mixed = [0.1, np.float64(1 / 3), 2.0, np.float32(0.5), 7, True]
        assert canonical_json(mixed) == "[0.10000000000000001,0.33333333333333331,2,0.5,7,true]"
        assert canonical_json([0.1, 1 / 3, 2.0]) == "[0.10000000000000001,0.33333333333333331,2]"
        assert canonical_json((0.25, -0.0)) == canonical_json([0.25, -0.0]) == "[0.25,-0]"
        assert canonical_json([]) == canonical_json(()) == "[]"
        with pytest.raises(TypeError, match="^cannot serialize object in a report$"):
            canonical_json([0.5, object()])

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
            (["run"], '{"experiment": "qrac", "seed": 1, "alpha": [0, 1e200], "beta": [0.8, 0]}'),
            (["run"], '{"experiment": "qrac", "trials": true}'),
            (["run"], '{"experiment": "qrac", "trials": 2, "out": 5}'),
        ],
    )
    def test_bad_number_is_config_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        assert main([*argv, "--seed", "1"]) == 3
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "alpha,beta,message",
        [
            (["1", "0"], [0, 0], "alpha must be a [re, im] pair of numbers"),
            ([True, 0], [0, 0], "alpha must be a [re, im] pair of numbers"),
            ([0.6, 0], [0.8, False], "beta must be a [re, im] pair of numbers"),
            ([" 0.6 ", 0], ["8e-1", 0], "alpha must be a [re, im] pair of numbers"),
            ([10**400, 0], [0, 0], "alpha and beta must be finite"),
        ],
        ids=["strings", "true", "false", "padded-strings", "int-too-large"],
    )
    def test_alpha_beta_take_only_numbers(self, tmp_path, capsys, alpha, beta, message):
        # float() takes "1", " 0.6 " and true; an amplitude must be a JSON number
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "mixture", "seed": 1, "alpha": alpha, "beta": beta}))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"

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

    def test_reused_parser_matches_fresh_processes(self, capsys):
        # a usage error, a valid run, then another subcommand, on the one
        # parser this process builds; each must print what a new process does
        runs = [
            ["tomography", "--seed", "1", "--frobnicate"],
            ["run", "--experiment", "qrac", "--seed", "4", "--trials", "3"],
            ["mixture", "--seed", "2", "--alpha-sq", "0.5"],
        ]
        src = str(Path(qracbox.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for argv, expected_code in zip(runs, (3, 0, 0)):
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "qracbox", *argv], capture_output=True, text=True, env=env
            )
            assert code == expected_code
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_path_is_config_error(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "r.json"
        code = main(["run", "--experiment", "qrac", "--seed", "1", "--trials", "2", flag, str(path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot write {path}")
        assert captured.out == ""


# experiment -> (CLI argv, trial floor, the library call that owns the floor)
_FLOORS = {
    "racbox": (["racbox"], 1000, lambda trials: verify_rac_privacy(trials, 0)),
    "nonsignaling": (
        ["verify-nonsignaling", "--mode", "sampled"],
        10**4,
        lambda trials: verify_nonsignaling(trials, 0, "sampled"),
    ),
    "tomography": (
        ["tomography", "--mode", "sampled"],
        1,
        lambda trials: tomography(mode="sampled", trials=trials, seed=0),
    ),
}


class TestTrialFloors:
    """Each trial floor is checked once, by the library call that needs it."""

    @pytest.mark.parametrize("experiment", _FLOORS)
    def test_library_raises_a_config_error(self, experiment):
        _, floor, call = _FLOORS[experiment]
        with pytest.raises(ConfigError, match=f"trials >= {floor}$") as info:
            call(floor - 1)
        assert isinstance(info.value, ValueError)
        assert ConfigError is metering.ConfigError is qracbox.ConfigError

    @pytest.mark.parametrize("experiment", _FLOORS)
    def test_cli_exits_3_below_the_floor_only(self, experiment, capsys):
        argv, floor, call = _FLOORS[experiment]
        with pytest.raises(ConfigError) as info:
            call(floor - 1)
        assert main([*argv, "--seed", "1", "--trials", str(floor - 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == [f"config error: {info.value}"]
        assert re.fullmatch(rf"config error: .* trials >= {floor}", err[0])
        assert main([*argv, "--seed", "1", "--trials", str(floor)]) != 3


# Generated argv for the exit-code contract.  Each example starts from a
# valid run (flags or a config file) at 2 trials and overrides some of it
# with generated flags and config fields, so bad values are met both in
# otherwise valid runs and in combination.  Sizes the experiments reject
# (racbox below 1000, sampled non-signaling below 1e4) exercise exit 3.
_NUMBERS = st.sampled_from(
    ["0", "1", "2", "-1", "1.5", "abc", "", "nan", "inf", "1e-160", "1e308", str(2**64)]
)
_SPECS = st.builds(
    lambda scheme, values: f"{scheme}:{','.join(values)}",
    st.sampled_from(["amp", "bloch", "polar"]),
    st.lists(_NUMBERS, max_size=5),
) | st.sampled_from(["amp:0.6,0,0,0.8", "bloch:0.7,1.1", "noscheme"])
_FLAGS = st.one_of(
    st.tuples(st.just("--seed"), _NUMBERS),
    st.tuples(st.just("--trials"), st.sampled_from(["0", "1", "3", "-3", "x"])),
    st.tuples(st.just("--mode"), st.sampled_from(["branch-exact", "sampled", "fast"])),
    st.tuples(st.sampled_from(["--psi", "--phi", "--omega"]), _SPECS),
    st.tuples(st.just("--alpha-sq"), _NUMBERS),
    st.tuples(st.sampled_from(["--out", "--csv"]), st.sampled_from(["<ok>", "<unwritable>"])),
    st.tuples(st.just("--frobnicate")),
)
_CONFIG_FIELDS = st.dictionaries(
    st.sampled_from(["trials", "seed", "out", "mode", "psi", "omega", "alpha", "beta", "shots"]),
    st.one_of(
        st.sampled_from(
            [True, None, 5, -1, 1.5, "x", "sampled", "amp:1e-160,0,0,0",
             [0.6, 0], [1e200, 0], [0, 1e200]]
        ),
        st.floats(),
    ),
    max_size=2,
)
_EXPERIMENTS = st.sampled_from(
    ["qrac", "qrac-qubit-only", "mixture", "tomography", "nonsignaling", "dilation", "racbox", "warp"]
)
_COMMANDS = st.sampled_from(
    ["run", "verify-nonsignaling", "tomography", "mixture", "racbox", "dilation", "teleport"]
)


class TestCliExitCodes:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=_COMMANDS,
        experiment=_EXPERIMENTS,
        in_config=st.booleans(),
        config_fields=_CONFIG_FIELDS,
        flags=st.lists(_FLAGS, max_size=3),
    )
    def test_exit_code_is_always_0_2_or_3(
        self, tmp_path, monkeypatch, command, experiment, in_config, config_fields, flags
    ):
        # a relative config "out" path then lands in tmp_path
        monkeypatch.chdir(tmp_path)
        argv = [command]
        if in_config:
            config = {"experiment": experiment, "seed": 3, "trials": 2, **config_fields}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        else:
            if command == "run":
                argv += ["--experiment", experiment]
            argv += ["--seed", "3", "--trials", "2"]
        paths = {"<ok>": str(tmp_path / "out"), "<unwritable>": str(tmp_path / "missing" / "out")}
        for flag in flags:
            argv += [paths.get(part, part) for part in flag]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                # an amp spec off unit norm is renormalized with a warning
                # (TestStateSpecs), which the suite would otherwise raise
                warnings.filterwarnings("ignore", "state spec .* renormalized", UserWarning)
                code = main(argv)
        assert code in (0, 2, 3)


class TestPublicNames:
    def test_all_resolves_once_each(self):
        names = qracbox.__all__
        assert len(set(names)) == len(names)
        assert [name for name in names if not hasattr(qracbox, name)] == []

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from qracbox import *", namespace)
        assert set(qracbox.__all__) <= set(namespace)
