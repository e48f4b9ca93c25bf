"""Tests for the random streams: keyed Philox, fair bits two to a raw word,
and the executors that draw from them, each against numpy's per-call draws."""
from __future__ import annotations

import numpy as np
import pytest

from qracbox import boxes, harness
from qracbox import rng as rng_module
from qracbox.boxes import PRBoxes, RacRound, rac_round, tv_distance, verify_rac_privacy
from qracbox.harness import ExperimentConfig, run_qrac_protocol, run_rac_protocol
from qracbox.metering import MeteredChannel
from qracbox.qrac import QracResources, qrac_alice, qrac_bob, sample_alice_output
from qracbox.quantum import haar_random_qubit, measure_computational
from qracbox.rng import bit_columns, make_rng

WORDS = [0, 1, 2**32, 2**63, 2**64 - 1]
SEEDS = [0, 5, 42]


def _old_bits(rng: np.random.Generator, count: int) -> list[int]:
    return [int(rng.integers(2)) for _ in range(count)]


def _assert_same_state(a: np.random.Generator, b: np.random.Generator) -> None:
    """Equal bit-generator states, neither holding a buffered half word.

    ``uinteger`` (the buffered half) is only read while ``has_uint32`` is
    1; ``integers(2)`` leaves a spent half there and a raw-word draw does
    not, so it is left out, and the next draws show it is never read.
    """
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert sa["has_uint32"] == sb["has_uint32"] == 0
    assert sa.keys() == sb.keys()
    for key in sa.keys() - {"uinteger"}:
        if isinstance(sa[key], dict):
            for field in sa[key]:
                assert np.array_equal(sa[key][field], sb[key][field]), (key, field)
        else:
            assert np.array_equal(sa[key], sb[key]), key
    assert _old_bits(a, 4) == _old_bits(b, 4)


class TestMakeRng:
    @pytest.mark.parametrize("seed", WORDS)
    @pytest.mark.parametrize("stream", WORDS)
    def test_same_stream_as_keyed_philox(self, seed, stream):
        key = np.array([seed, stream], dtype=np.uint64)
        ours = make_rng(seed, stream)
        ref = np.random.Generator(np.random.Philox(key=key))
        _assert_same_state(ours, ref)
        assert ours.random() == ref.random()
        assert ours.integers(2**40) == ref.integers(2**40)
        assert ours.normal() == ref.normal()
        _assert_same_state(ours, ref)

    def test_numpy_integers_accepted(self):
        _assert_same_state(make_rng(np.uint64(2**64 - 1), np.int8(3)), make_rng(2**64 - 1, 3))

    @pytest.mark.parametrize("bad", [1.5, True, False, "7", -0.5, None, np.bool_(True), 2.0])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_rng(bad)
        with pytest.raises(ValueError, match="stream must be an integer"):
            make_rng(0, bad)

    @pytest.mark.parametrize("bad", [-1, 2**64, np.int64(-1)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            make_rng(bad)
        with pytest.raises(ValueError, match=r"stream must be an integer in \[0, 2\*\*64\)"):
            make_rng(0, bad)


def _word_bits(rng: np.random.Generator, count: int) -> list[int]:
    """``count`` fair bits from the generator's next ``count // 2`` raw words."""
    return bit_columns(rng.bit_generator.random_raw((1, count // 2)))[0].tolist()


class TestFairBits:
    """Two fair bits a raw word (``bit_columns``), the rule of the batched
    coins and of the privacy check's PCG64 coins, against ``integers(2)``."""

    @pytest.mark.parametrize("count", [0, 2, 4, 10, 64])
    @pytest.mark.parametrize(
        "factory",
        [lambda s: make_rng(s, 0), lambda s: make_rng(2**64 - 1, s), np.random.default_rng],
        ids=["philox-seed", "philox-stream", "pcg64"],
    )
    def test_equals_successive_integers_draws(self, count, factory):
        for seed in range(40):
            ours, ref = factory(seed), factory(seed)
            assert _word_bits(ours, count) == _old_bits(ref, count)
            _assert_same_state(ours, ref)

    @pytest.mark.parametrize("factory", [make_rng, np.random.default_rng], ids=["philox", "pcg64"])
    def test_interleaved_with_uniform_draws(self, factory):
        # one sampled non-signaling trial: two coins, then two uniforms
        ours, ref = factory(9), factory(9)
        for _ in range(500):
            assert _word_bits(ours, 2) == _old_bits(ref, 2)
            assert (ours.random(), ours.random()) == (ref.random(), ref.random())
        _assert_same_state(ours, ref)

    def test_both_values_of_each_half_occur(self):
        bits = np.array(_word_bits(make_rng(3), 4000)).reshape(-1, 2)
        assert set(map(tuple, bits)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _old_privacy_rounds(trials: int, seed: int) -> list[RacRound]:
    """verify_rac_privacy's rounds as drawn box by box with rng.integers."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(trials):
        for a1 in (0, 1):
            rounds.append(rac_round(0, a1, 0, rng))
        for w in (0, 1):
            rounds.append(rac_round(0, 1, w, rng))
    return rounds


class TestExecutorsMatchPerCallDraws:
    """Each executor plays exactly the rounds the per-call draws gave."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_racbox_rows_metrics_and_messages(self, seed, monkeypatch):
        sent = []
        send = MeteredChannel.send

        def recording(self, *args, **kwargs):
            sent.extend(np.asarray(args[3]).tolist())  # the message of each round
            return send(self, *args, **kwargs)

        monkeypatch.setattr(MeteredChannel, "send", recording)
        config = ExperimentConfig(experiment="racbox", seed=seed, trials=1000)
        metrics, checks, tallies, _, rows = harness._exp_racbox(config)
        played = [(a0, a1, w, m) for (_, a0, a1, w, _, _), m in zip(rows, sent, strict=True)]
        monkeypatch.undo()  # the reference rounds send through the same channel

        ref_rows, ref_played = [], []
        for trial in range(config.trials):
            rng = make_rng(seed, trial)
            a0, a1, w = _old_bits(rng, 3)
            result = run_rac_protocol(a0, a1, w, rng)
            ok = result.output == (a0 if w == 0 else a1)
            ref_rows.append([trial, a0, a1, w, result.output, int(ok)])
            ref_played.append((a0, a1, w, result.transcript.messages[0].content))
        assert rows == ref_rows
        assert played == ref_played
        assert tallies.bits_a_to_b == config.trials
        assert all(c["pass"] for c in checks)
        privacy = verify_rac_privacy(config.trials, seed)
        assert metrics == {
            "exhaustive_cases": 16,
            "exhaustive_correct": 16,
            "rounds": config.trials,
            **privacy["metrics"],
        }

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trials", [1000, 2500])  # 4 000 and 10 000 coins
    def test_privacy_check_plays_the_old_rounds(self, seed, trials, monkeypatch):
        batches = []  # the sampled part wires a block's rounds four ways at once
        wiring = boxes.rac_wiring

        def recording(a0, a1, w, box):
            message, output = wiring(a0, a1, w, box)
            if isinstance(box, PRBoxes):
                batches.append((a0, a1, w, box.coin.tolist(), message.tolist(), output.tolist()))
            return message, output

        monkeypatch.setattr(boxes, "rac_wiring", recording)
        monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 300)  # several blocks
        report = verify_rac_privacy(trials, seed)
        played = []
        for start in range(0, len(batches), 4):
            four = batches[start:start + 4]
            for t in range(len(four[0][3])):  # trial by trial, its four rounds in turn
                for a0, a1, w, coins, messages, outputs in four:
                    played.append(RacRound(a0, a1, w, coins[t], messages[t], outputs[t]))
        reference = _old_privacy_rounds(trials, seed)
        assert played == reference

        bob = {a1: np.zeros(4) for a1 in (0, 1)}
        alice = {w: np.zeros(2) for w in (0, 1)}
        for i, r in enumerate(reference):
            if i % 4 < 2:
                bob[r.a1][2 * r.message + (r.message ^ r.output)] += 1
            else:
                alice[r.w][r.a0 ^ r.message] += 1
        metrics = report["metrics"]
        assert metrics["sampled_bob_tv"] == tv_distance(bob[0] / trials, bob[1] / trials)
        assert metrics["sampled_alice_tv"] == tv_distance(alice[0] / trials, alice[1] / trials)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dense", [False, True])
    def test_qrac_round(self, seed, dense):
        states = make_rng(seed, 2**40)
        psi, phi, omega = (haar_random_qubit(states) for _ in range(3))
        for trial in range(40):
            result = run_qrac_protocol(psi, phi, omega, seed, trial=trial, dense=dense)
            rng = make_rng(seed, trial)
            res = QracResources(rng)
            w, _ = measure_computational(omega, 0, rng)
            alice = qrac_alice(psi, phi, res)
            assert (result.w, result.alice) == (w, alice)
            assert np.array_equal(result.output.matrix, qrac_bob(w, alice.bits, res).matrix)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sampled_alice_output_on_a_shared_stream(self, seed):
        states = make_rng(seed, 2**40)
        psi, phi = haar_random_qubit(states), haar_random_qubit(states)
        ours, ref = make_rng(seed, 1), make_rng(seed, 1)
        for _ in range(300):
            out = sample_alice_output(psi, phi, 1, ours)
            res = QracResources(ref)
            assert out == qrac_alice(psi, phi, res)
        _assert_same_state(ours, ref)
