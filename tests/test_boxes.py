"""Tests for the PR-box and the one-bit classical random access code."""
from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from qracbox import boxes as boxes_module
from qracbox import harness
from qracbox.boxes import (
    PRBox,
    PRBoxes,
    enumerate_pr_outputs,
    rac_all_cases,
    rac_round,
    tv_distance,
    verify_rac_privacy,
)
from qracbox.cli import main
from qracbox.metering import ProtocolError
from qracbox.rng import make_rng


class TestPRBox:
    def test_correlation_law_exhaustive(self):
        # A XOR B = x*y for every input pair and every hidden coin
        for x, y in product((0, 1), repeat=2):
            for prob, a, b in enumerate_pr_outputs(x, y):
                assert prob == 0.5
                assert a ^ b == x * y

    def test_correlation_law_sampled(self):
        rng = make_rng(11)
        for _ in range(2000):
            x, y = int(rng.integers(2)), int(rng.integers(2))
            box = PRBox(rng)
            a = box.alice(x)
            b = box.bob(y)
            assert a ^ b == x * y

    def test_zero_product_means_equal_outputs(self):
        rng = make_rng(5)
        for x, y in ((0, 0), (0, 1), (1, 0)):
            for _ in range(200):
                box = PRBox(rng)
                assert box.alice(x) == box.bob(y)

    def test_marginals_exactly_uniform_under_enumeration(self):
        for x, y in product((0, 1), repeat=2):
            outs = enumerate_pr_outputs(x, y)
            p_a0 = sum(p for p, a, _ in outs if a == 0)
            p_b0 = sum(p for p, _, b in outs if b == 0)
            assert p_a0 == 0.5
            assert p_b0 == 0.5

    def test_marginals_uniform_sampled(self):
        trials = 10**5
        for x in (0, 1):
            rng = make_rng(42, x)
            zeros = 0
            for _ in range(trials):
                box = PRBox(rng)
                zeros += box.alice(x) == 0
                box.bob(int(rng.integers(2)))
            assert abs(zeros / trials - 0.5) < 0.01

    def test_double_use_rejected(self):
        box = PRBox(make_rng(0))
        box.alice(1)
        with pytest.raises(ProtocolError):
            box.alice(0)
        box.bob(1)
        with pytest.raises(ProtocolError):
            box.bob(0)

    def test_bob_before_alice_rejected(self):
        box = PRBox(make_rng(0))
        with pytest.raises(ProtocolError):
            box.bob(0)

    def test_fixed_seed_is_deterministic(self):
        outputs = {PRBox(make_rng(123)).alice(1) for _ in range(5)}
        assert len(outputs) == 1

    def test_non_bit_inputs_rejected(self):
        box = PRBox(make_rng(0))
        with pytest.raises(ValueError):
            box.alice(2)
        with pytest.raises(ValueError):
            PRBox(coin=3)


class TestRacRound:
    def test_first_bit_retrieved(self):
        for seed in range(20):
            assert rac_round(1, 0, 0, make_rng(seed)).output == 1

    def test_second_bit_retrieved(self):
        for seed in range(20):
            assert rac_round(0, 1, 1, make_rng(seed)).output == 1

    def test_exhaustive_sixteen_cases(self):
        rounds = rac_all_cases()
        assert len(rounds) == 16
        for r in rounds:
            expected = r.a0 if r.w == 0 else r.a1
            assert r.output == expected

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            rac_round(2, 0, 0, make_rng(0))


class TestRacPrivacy:
    def test_exact_independence_under_enumeration(self):
        report = verify_rac_privacy(trials=1000, seed=3)
        assert report["metrics"]["exact_bob_tv"] == 0.0
        assert report["metrics"]["exact_alice_tv"] == 0.0

    def test_sampled_tv_bounds(self):
        report = verify_rac_privacy(trials=10**5, seed=9)
        assert report["metrics"]["sampled_bob_tv"] <= 0.02
        assert report["metrics"]["sampled_alice_tv"] <= 0.02
        assert all(c["pass"] for c in report["checks"])

    def test_exact_check_catches_a_correct_but_leaking_box(self, monkeypatch):
        # every coin held at 0: the box still obeys A XOR B = x*y, so the
        # RAC stays correct, but A no longer pads m, and at w = 1 Bob's m is a0
        class ConstantCoinBox(PRBox):
            __slots__ = ()

            def __init__(self, rng=None, *, coin=None):
                super().__init__(coin=0)

        monkeypatch.setattr(boxes_module, "PRBox", ConstantCoinBox)
        monkeypatch.setattr(boxes_module, "PRBoxes", lambda coin: PRBoxes(np.zeros_like(coin)))
        assert all(r.output == (r.a0 if r.w == 0 else r.a1) for r in rac_all_cases())
        checks = {c["name"]: c for c in verify_rac_privacy(trials=1000, seed=3)["checks"]}
        assert not checks["rac-privacy-bob-exact"]["pass"]
        assert checks["rac-privacy-bob-exact"]["value"] == 1.0

    def test_the_privacy_pass_counts_the_correct_cases(self):
        metrics = verify_rac_privacy(trials=1000, seed=3)["metrics"]
        assert (metrics["exhaustive_cases"], metrics["exhaustive_correct"]) == (16, 16)

    def _spy_on_rac_all_cases(self, monkeypatch, cases):
        """Count ``rac_all_cases`` calls in every module that binds it; return ``cases()``."""
        calls = []
        honest = boxes_module.rac_all_cases

        def counting():
            calls.append(1)
            return cases(honest())

        for module in (boxes_module, harness):
            if getattr(module, "rac_all_cases", None) is honest:
                monkeypatch.setattr(module, "rac_all_cases", counting)
        return calls

    def test_a_racbox_report_enumerates_the_cases_once(self, monkeypatch, capsys):
        calls = self._spy_on_rac_all_cases(monkeypatch, lambda cases: cases)
        assert main(["racbox", "--trials", "1000", "--seed", "3"]) == 0
        assert calls == [1]

    def test_a_wrong_case_fails_the_report(self, monkeypatch, capsys):
        def one_wrong(cases):
            first = cases[0]
            return [replace(first, output=first.output ^ 1), *cases[1:]]

        self._spy_on_rac_all_cases(monkeypatch, one_wrong)
        report = verify_rac_privacy(trials=1000, seed=3)
        assert report["metrics"]["exhaustive_correct"] == 15
        assert main(["racbox", "--trials", "1000", "--seed", "3"]) == 2
        out = capsys.readouterr().out
        assert '"exhaustive_correct":15' in out
        assert '{"name":"rac-exhaustive-correct","pass":false,"tolerance":null,"value":15}' in out

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_rac_privacy(trials=10, seed=0)

    @pytest.mark.parametrize("trials", [1000.5, float("nan"), 2000.0, "2000"])
    def test_non_integer_trial_count_rejected(self, trials):
        with pytest.raises(ValueError, match="integer number of trials >= 1000"):
            verify_rac_privacy(trials, 0)


class TestTvDistance:
    def test_disjoint_distributions(self):
        assert tv_distance([1, 0], [0, 1]) == 1.0

    def test_identical_distributions(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
