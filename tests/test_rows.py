"""Tests for the branch rows of the sampled executors.

Each cached outcome table is played once, every branch row 4*leaf +
2*coin0 + coin1 of it (``qrac._full_play``), and a sampled block walks
the table and gathers each trial's row from that play.  So every row of
a play must be the enumeration's row at the same (leaf, coins), a later
block must play nothing again, and each trial must be the trial the
``oracles`` sampler plays through numpy's ``Generator`` API, alone, in
one-row blocks and in blocks that cross a boundary.
"""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from qracbox import channel, harness, qrac, quantum
from qracbox import rng as rng_module
from qracbox.boxes import leaf_frequency_check, tv_distance
from qracbox.channel import _entangled_probe, _sampled_tomography, verify_nonsignaling
from qracbox.harness import ExperimentConfig, run_qrac_protocol
from qracbox.qrac import _channel_block, channel_branches, sample_alice_output, sample_channel
from qracbox.quantum import (
    KET0,
    KET1,
    fidelity,
    haar_random_qubit,
    haar_random_state,
    tensor,
)
from qracbox.rng import make_rng, stream_words, word_bits

import oracles

BLOCK = 4
# trial counts just around one block and across several
CROSSING = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]

_STATES = make_rng(61)
PSI, PHI, OMEGA = (haar_random_qubit(_STATES) for _ in range(3))
# (joint, inputs): Haar joints, the choices |0> and |1> that prune half the
# leaves, and the 10-qubit register of the maximally entangled probe
JOINTS = {
    "haar-3": (haar_random_state(3, _STATES), (0, 1, 2)),
    "haar-4": (haar_random_state(4, _STATES), (2, 0, 3)),
    "omega-0": (tensor([PSI, PHI, KET0]), (0, 1, 2)),
    "omega-1": (tensor([PSI, PHI, KET1]), (0, 1, 2)),
    "probe": (_entangled_probe(), (3, 4, 5)),
}


def _rows(ends: np.ndarray, coin_words: np.ndarray) -> np.ndarray:
    """Each trial's branch row, from its leaf and its coin word's two bits."""
    coin0, coin1 = (bit.astype(np.intp) for bit in word_bits(coin_words))
    return 4 * ends + 2 * coin0 + coin1


class TestSampledRowsAreEnumeratedRows:
    @pytest.mark.parametrize("name", sorted(JOINTS))
    def test_each_played_row_is_the_branch_table_row(self, name, monkeypatch, clear_box_caches):
        joint, inputs = JOINTS[name]
        played = []
        play = qrac._play

        def spy(table, ends, w, bells, coins, *args):
            result = play(table, ends, w, bells, coins, *args)
            played.append((ends, w, bells, coins, result))
            return result

        monkeypatch.setattr(qrac, "_play", spy)
        words = stream_words(62, np.arange(400, dtype=np.uint64), 4)
        (a1, a0), ids, outputs, ends, table = _channel_block(joint, words, inputs)
        monkeypatch.undo()
        ((leaf, w, bells, coins, (alice, pr_outputs, correction, row_ids, row_outputs)),) = played
        branches = channel_branches(joint, inputs)

        rows = 4 * leaf + 2 * coins[:, 0] + coins[:, 1]
        trial_rows = _rows(ends, words[:, 3])
        assert rows.tolist() == list(range(len(branches)))  # every row once, in row order
        assert len(branches) == 4 * len(table.paths)
        assert np.array_equal(branches.leaf[rows], leaf)
        assert np.array_equal(branches.coins[rows], coins)
        assert np.array_equal(branches.w[rows], w)
        assert np.array_equal(branches.bells[rows], bells)
        assert np.array_equal(branches.alice[rows], 2 * alice[0] + alice[1])
        assert np.array_equal(branches.pr_outputs[rows], np.column_stack(pr_outputs))
        assert np.array_equal(branches.correction[rows], np.column_stack(correction))
        for row, i in zip(rows.tolist(), row_ids.tolist()):
            assert row_outputs[i].tobytes() == branches._stack[branches.output[row]].tobytes()

        # each trial gathers its row's results
        assert np.array_equal(2 * a1 + a0, branches.alice[trial_rows])
        for t, row in enumerate(trial_rows.tolist()):
            assert outputs[ids[t]].tobytes() == branches._stack[branches.output[row]].tobytes()


class TestOneFullPlayATable:
    def test_a_second_block_plays_nothing_again(self, monkeypatch, clear_box_caches):
        joint, inputs = JOINTS["haar-3"]
        words = stream_words(70, np.arange(300, dtype=np.uint64), 4)
        calls = []

        def spying(name, function):
            def spy(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return spy

        for module, name in ((qrac, "_play"), (qrac, "_reduced_matrices"),
                             (quantum, "_reduced_matrices")):
            monkeypatch.setattr(module, name, spying(name, getattr(module, name)))
        first = _channel_block(joint, words[:100], inputs)
        rounds = qrac._sampled_rounds(PSI, PHI, OMEGA, words[:100])
        assert calls.count("_play") == 2  # the channel table's play and Alice's table's
        calls.clear()
        second = _channel_block(joint, words[100:], inputs)
        more_rounds = qrac._sampled_rounds(PSI, PHI, OMEGA, words[100:])
        qrac._alice_block(PSI, PHI, words[:, :3])  # Alice's table, played by the rounds
        assert calls == []
        assert second[2] is first[2] and more_rounds[3] is rounds[3]  # the same play's stack

    def test_every_row_of_alices_play_is_a_fresh_play_of_it(self, clear_box_caches):
        table = qrac._alice_root(PSI, PHI)
        alice, pr_outputs, correction, ids, outputs = qrac._full_play(
            table, qrac.EPR1_ALICE, [], both_choices=True
        )
        leaves = len(table.paths)
        assert len(ids) == 2 * 4 * leaves  # w = 0 and w = 1, every leaf, every coin pair
        for row in range(len(ids)):
            w, leaf = divmod(row >> 2, leaves)
            coins = np.array([[(row >> 1) & 1, row & 1]])
            (a1, a0), (b0, b1), (c1, c0), one, stack = qrac._play(
                table, np.array([leaf]), np.array([w]), table.paths[[leaf]], coins,
                qrac.EPR1_ALICE, [],
            )
            assert (alice[0][row], alice[1][row]) == (a1[0], a0[0])
            assert (pr_outputs[0][row], pr_outputs[1][row]) == (b0[0], b1[0])
            assert (correction[0][row], correction[1][row]) == (c1[0], c0[0])
            assert outputs[ids[row]].tobytes() == stack[one[0]].tobytes()

    def test_play_has_one_caller_the_full_play(self):
        callers = set()
        for path in sorted(Path(qrac.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    named = isinstance(node, ast.Name) and node.id == "_play"
                    if named or isinstance(node, ast.Attribute) and node.attr == "_play":
                        callers.add((path.name, getattr(top, "name", None)))
        assert callers == {("qrac.py", "_full_play")}


class TestOneRowBlocksAreOracleTrials:
    @pytest.mark.parametrize("name", sorted(JOINTS))
    def test_sample_channel(self, name):
        joint, inputs = JOINTS[name]
        for stream in range(16):
            w, alice, rho = sample_channel(joint, make_rng(64, stream), inputs)
            ref_w, ref_alice, ref_rho = oracles.sample_channel(
                joint.amplitudes, make_rng(64, stream), inputs
            )
            assert (w, alice.bits) == (ref_w, ref_alice)
            assert np.array_equal(rho.matrix, ref_rho)

    @pytest.mark.parametrize("w", [0, 1])
    def test_sample_alice_output(self, w):
        for stream in range(40):
            ours = sample_alice_output(PSI, PHI, w, make_rng(65, stream))
            assert ours.bits == oracles.sample_alice(PSI.amplitudes, PHI.amplitudes, make_rng(65, stream))

    @pytest.mark.parametrize("dense", [False, True])
    def test_run_qrac_protocol(self, dense):
        for trial in range(40):
            result = run_qrac_protocol(PSI, PHI, OMEGA, 66, trial=trial, dense=dense)
            ref_w, ref_alice, ref_rho = oracles.sample_round(
                PSI.amplitudes, PHI.amplitudes, OMEGA.amplitudes, make_rng(66, trial)
            )
            assert (result.w, result.alice.bits) == (ref_w, ref_alice)
            assert np.array_equal(result.output.matrix, ref_rho)


def _spec(state) -> str:
    a, b = state.amplitudes
    return "amp:" + ",".join(repr(float(x)) for x in (a.real, a.imag, b.real, b.imag))


class TestCrossingBlocksAreOracleTrials:
    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(rng_module, "TRIAL_BLOCK", BLOCK)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("trials", CROSSING)
    def test_qrac_report_rows(self, dense, trials):
        config = ExperimentConfig(
            experiment="qrac-qubit-only" if dense else "qrac", seed=67, trials=trials,
            psi=_spec(PSI), phi=_spec(PHI), omega=_spec(OMEGA),
        )
        psi, phi, omega = config.resolved_psi(), config.resolved_phi(), config.resolved_omega()
        _, _, _, _, rows = harness._exp_qrac(config, dense)
        expected = []
        for trial in range(trials):
            w, (a1, a0), rho = oracles.sample_round(
                psi.amplitudes, phi.amplitudes, omega.amplitudes, make_rng(67, trial)
            )
            expected.append([trial, w, a1, a0, fidelity(rho, (psi, phi)[w])])
        assert rows == expected

    @pytest.mark.parametrize("trials", CROSSING)
    def test_sampled_tomography_trials(self, trials, monkeypatch):
        taken = []
        block = channel._channel_block

        def spy(joint, words, inputs):
            result = block(joint, words, inputs)
            (a1, a0), ids, outputs, _, _ = result
            taken.extend(zip(a1.tolist(), a0.tolist(), outputs[ids]))
            return result

        monkeypatch.setattr(channel, "_channel_block", spy)
        _sampled_tomography(trials, 68)
        probe = _entangled_probe()
        assert len(taken) == trials
        for trial, (a1, a0, rho) in enumerate(taken):
            _, alice, ref_rho = oracles.sample_channel(probe.amplitudes, make_rng(68, trial), (3, 4, 5))
            assert (a1, a0) == alice
            assert np.array_equal(rho, ref_rho)


class TestSampledNonsignalingCountsRows:
    def test_trials_and_counts_are_the_oracles(self, monkeypatch):
        monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 3001)  # the floor is 1e4 trials
        blocks = []
        rows_of = channel._alice_rows

        def spy(psi, phi, words):
            result = rows_of(psi, phi, words)
            table, rows, alice = result
            blocks.append((rows, alice[rows], table))
            return result

        monkeypatch.setattr(channel, "_alice_rows", spy)
        trials = 10**4
        report = verify_nonsignaling(trials, 69, "sampled", psi=PSI, phi=PHI)
        assert [len(rows) for rows, _, _ in blocks] == [3001, 3001, 3001, 997] * 2

        counts, leaf_counts = [], []
        for w in (0, 1):
            ours = np.concatenate([alice for _, alice, _ in blocks[4 * w : 4 * w + 4]])
            rng = make_rng(69, w)
            expected = [oracles.sample_alice(PSI.amplitudes, PHI.amplitudes, rng) for _ in range(trials)]
            assert ours.tolist() == [2 * a1 + a0 for a1, a0 in expected]
            counts.append(np.bincount(ours, minlength=4) / trials)
            ends = np.concatenate([rows >> 2 for rows, _, _ in blocks[4 * w : 4 * w + 4]])
            leaf_counts.append(np.bincount(ends, minlength=len(blocks[0][2].paths)))
        assert report["metrics"]["sampled_alice_tv"] == tv_distance(counts[0], counts[1])
        probabilities = np.tile(blocks[0][2].probabilities, 2)
        leaf, _ = leaf_frequency_check(np.concatenate(leaf_counts), probabilities, trials)
        assert leaf in report["checks"]
