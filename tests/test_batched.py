"""Tests for the batched executors: the vectorised Philox streams, the
batched outcome-tree walk, and every batched report path against the
single-trial reference executor it replaces, trial for trial."""
from __future__ import annotations

import gc
import warnings
import weakref
from math import asin, sqrt

import numpy as np
import pytest

from qracbox import harness
from qracbox import rng as rng_module
from qracbox.channel import D_IN, D_OUT, _entangled_probe, tomography, verify_nonsignaling
from qracbox.cli import main
from qracbox.harness import (
    ExperimentConfig,
    parse_state_spec,
    run_qrac_protocol,
    run_rac_protocol,
)
from qracbox.metering import MeteredChannel, ProtocolError, Tally
from qracbox.qrac import (
    _alice_root,
    _channel_root,
    sample_alice_output,
    sample_alice_outputs,
    sample_channel,
)
from qracbox.quantum import (
    KET0,
    KET1,
    KET_PLUS,
    OutcomeNode,
    StateVector,
    _choose,
    bell_projections,
    fidelity,
    haar_random_qubit,
    make_pure_qubit,
    measure_projections,
    tensor,
)
from qracbox.rng import make_rng, stream_words, word_bits, word_uniform

KEYS = [0, 1, 2**32, 2**63, 2**64 - 1]
SEEDS = [0, 5, 2**64 - 1]
BLOCK = 4
# trial counts just around one block and across several
CROSSING = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def _states(seed: int):
    rng = make_rng(seed % 2**32, 2**40)
    return tuple(haar_random_qubit(rng) for _ in range(3))


def _small_blocks(monkeypatch) -> None:
    monkeypatch.setattr(rng_module, "TRIAL_BLOCK", BLOCK)


class TestPhiloxConformance:
    @pytest.mark.parametrize("seed", KEYS)
    @pytest.mark.parametrize("count", range(1, 10))  # three counter blocks
    def test_words_equal_numpy_philox(self, seed, count):
        words = stream_words(seed, np.array(KEYS, dtype=np.uint64), count)
        assert words.dtype == np.uint64 and words.shape == (len(KEYS), count)
        for row, stream in zip(words, KEYS):
            key = np.array([seed, stream], dtype=np.uint64)
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(count))

    def test_words_equal_make_rng_for_many_streams(self):
        streams = np.arange(300, dtype=np.uint64)
        words = stream_words(7, streams, 5)
        for i in (0, 1, 77, 299):
            assert np.array_equal(words[i], make_rng(7, i).bit_generator.random_raw(5))

    def test_no_streams(self):
        assert stream_words(3, np.zeros(0, dtype=np.uint64), 4).shape == (0, 4)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            stream_words(-1, np.arange(2, dtype=np.uint64), 1)


class TestWordRules:
    @pytest.mark.parametrize("seed", KEYS)
    def test_uniform_is_numpy_random(self, seed):
        words = make_rng(seed, 3).bit_generator.random_raw(200)
        ref = make_rng(seed, 3)
        expected = np.array([ref.random() for _ in range(200)])
        assert np.array_equal(word_uniform(words), expected)
        assert [word_uniform(w) for w in words.tolist()] == expected.tolist()

    @pytest.mark.parametrize("seed", KEYS)
    def test_bits_are_numpy_integers(self, seed):
        words = make_rng(seed, 4).bit_generator.random_raw(100)
        ref = make_rng(seed, 4)
        expected = [int(ref.integers(2)) for _ in range(200)]
        low, high = word_bits(words)
        assert np.stack([low, high], axis=1).reshape(-1).tolist() == expected


class TestBatchedWalk:
    def test_pick_is_choose(self):
        node = _alice_root(*_states(1)[:2])
        words = make_rng(2).bit_generator.random_raw(4000)
        rng = make_rng(2)
        expected = [_choose(rng, node.probs, sum(node.probs)) for _ in range(4000)]
        assert node.pick(word_uniform(words)).tolist() == expected

    def test_pick_edges(self):
        # zero-weight outcomes are never picked; u * total equal to a
        # running sum goes past it, as in _choose
        node = OutcomeNode(KET0, [("computational", 0)])
        assert node.probs == [1.0, 0.0]
        assert node.pick(np.array([0.0, 0.5, 1 - 2**-53])).tolist() == [0, 0, 0]
        node = OutcomeNode(KET_PLUS, [("computational", 0)])
        assert 0.5 * sum(node.probs) == node.probs[0]  # a tie at u = 0.5

        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        uniforms = [0.0, 0.5 - 2**-53, 0.5, 1 - 2**-53]
        expected = [_choose(Fixed(u), node.probs, sum(node.probs)) for u in uniforms]
        assert expected == [0, 0, 1, 1]
        assert node.pick(np.array(uniforms)).tolist() == expected

        # an outcome of 0 < p < PROB_FLOOR is as impossible as in an
        # enumeration, which prunes it: computational, then Bell
        small = 5e-15
        qubit = make_pure_qubit(2 * asin(sqrt(small)), 0)
        bell = StateVector(2, (sqrt(1 - small) * np.array([1, 0, 0, 1])
                               + sqrt(small) * np.array([0, -1, 1, 0])) / sqrt(2))
        for state, measurement, projections in (
            (qubit, ("computational", 0), measure_projections(qubit, 0)),
            (bell, ("bell", (0, 1)), bell_projections(bell, (0, 1))),
        ):
            assert 0 < projections[-1][0] < 1e-14 and projections[-1][1] is None
            node = OutcomeNode(state, [measurement])
            assert node.probs[-1] == 0.0
            assert node.draw(Fixed(1 - 2e-15))[0] == 0
            assert node.pick(np.array([1 - 2e-15, 1 - 2**-53])).tolist() == [0, 0]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_walk_is_draw_trial_by_trial(self, seed):
        probe = tensor([*_states(seed), KET1])
        tree, _ = _channel_root(probe, (0, 1, 2))
        words = stream_words(seed, np.arange(300, dtype=np.uint64), 3)
        outcomes, ends, leaves = tree.walk(word_uniform(words))
        for trial in range(300):
            rng, node, path = make_rng(seed, trial), tree, []
            for _ in range(3):
                index, node = node.draw(rng)
                path.append(index)
            assert outcomes[trial].tolist() == path
            assert leaves[ends[trial]] is node  # the scalar walk's cached leaf

    def test_walk_is_depth_first_and_frees_its_arrays_without_gc(self):
        probe = tensor([*_states(3), KET_PLUS])
        tree, _ = _channel_root(probe, (0, 1, 2))
        uniforms = word_uniform(stream_words(3, np.arange(500, dtype=np.uint64), 3))
        gc.disable()
        try:
            outcomes, ends, leaves = tree.walk(uniforms)
            paths = [tuple(outcomes[ends == i][0].tolist()) for i in range(len(leaves))]
            assert len(paths) > 1 and paths == sorted(set(paths))
            # no reference cycle keeps a block's arrays until a collection
            refs = [weakref.ref(array) for array in (uniforms, outcomes, ends)]
            del uniforms, outcomes, ends
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


def _scalar_qrac(config: ExperimentConfig, dense: bool):
    """The report loop of the single-trial executor: rows, tallies, histogram, fidelities."""
    psi, phi, omega = config.resolved_psi(), config.resolved_phi(), config.resolved_omega()
    tallies, rows, histogram, fidelities = Tally(), [], [0, 0, 0, 0], []
    for trial in range(max(config.trials, 1)):
        result = run_qrac_protocol(psi, phi, omega, config.seed, trial=trial, dense=dense)
        tallies = tallies + result.transcript.totals
        f = fidelity(result.output, psi if result.w == 0 else phi)
        fidelities.append(f)
        histogram[result.alice.index] += 1
        rows.append([trial, result.w, result.alice.a1, result.alice.a0, f])
    return rows, tallies, histogram, fidelities


def _spec(state) -> str:
    a, b = state.amplitudes
    return "amp:" + ",".join(repr(float(x)) for x in (a.real, a.imag, b.real, b.imag))


class TestReportsEqualTheScalarExecutor:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("trials", [0, 1, *CROSSING])
    def test_qrac(self, seed, dense, trials, monkeypatch):
        _small_blocks(monkeypatch)
        psi, phi, omega = _states(seed)
        config = ExperimentConfig(
            experiment="qrac-qubit-only" if dense else "qrac",
            seed=seed,
            trials=trials,
            psi=_spec(psi),
            phi=_spec(phi),
            omega=_spec(omega),
        )
        metrics, checks, tallies, header, rows = harness._exp_qrac(config, dense)
        ref_rows, ref_tallies, ref_histogram, ref_fidelities = _scalar_qrac(config, dense)
        assert rows == ref_rows
        assert tallies == ref_tallies
        assert header == ["trial", "w", "a1", "a0", "fidelity"]
        assert metrics["alice_histogram"] == ref_histogram
        assert metrics["min_fidelity"] == min(ref_fidelities)
        assert metrics["mean_fidelity"] == float(np.mean(ref_fidelities))
        rounds = max(trials, 1)
        assert metrics["alice_uniformity_tv"] == harness.tv_distance(
            [h / rounds for h in ref_histogram], [0.25] * 4
        )
        recovery = next(c for c in checks if c["name"] == "recovery-fidelity")
        assert recovery["value"] == min(ref_fidelities) and recovery["pass"]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trials", [1000, 1001, 1002, 2005])
    def test_racbox(self, seed, trials, monkeypatch):
        # blocks of 1001: block-1, block, block+1 and 2*block+3 trials,
        # all at or above the 1000-trial floor
        monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 1001)
        config = ExperimentConfig(experiment="racbox", seed=seed, trials=trials)
        metrics, checks, tallies, _, rows = harness._exp_racbox(config)
        ref_rows = []
        for trial in range(trials):
            rng = make_rng(seed, trial)
            a0, a1, w = (int(rng.integers(2)) for _ in range(3))
            result = run_rac_protocol(a0, a1, w, rng)
            ok = result.output == (a0 if w == 0 else a1)
            ref_rows.append([trial, a0, a1, w, result.output, int(ok)])
        assert rows == ref_rows
        assert tallies == Tally(bits_a_to_b=trials)
        assert metrics["rounds"] == trials and all(c["pass"] for c in checks)
        assert checks[1] == {
            "name": "rac-sampled-correct", "pass": True, "value": float(trials), "tolerance": None,
        }

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trials", CROSSING)
    def test_sampled_tomography(self, seed, trials, monkeypatch):
        _small_blocks(monkeypatch)
        probe = _entangled_probe()
        total = np.zeros((D_IN * D_OUT, D_IN * D_OUT), dtype=complex)
        for trial in range(trials):
            _, _, rho = sample_channel(probe, make_rng(seed, trial), (3, 4, 5))
            total += D_IN * rho.matrix / trials
        choi = tomography(mode="sampled", trials=trials, seed=seed)
        assert np.array_equal(choi.matrix, total)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("w", [0, 1])
    def test_sampled_alice_outputs_on_a_shared_stream(self, seed, w):
        psi, phi, _ = _states(seed)
        trials = 2 * BLOCK + 3
        ref = make_rng(seed, w)
        expected = [sample_alice_output(psi, phi, w, ref).index for _ in range(trials)]
        words = make_rng(seed, w).bit_generator.random_raw(3 * trials).reshape(-1, 3)
        assert sample_alice_outputs(psi, phi, words).tolist() == expected

    def test_sampled_nonsignaling_counts(self, monkeypatch):
        monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 3001)  # the floor is 1e4 trials
        seed = 5
        psi, phi, _ = _states(seed)
        trials = 10**4
        counts = {}
        for w in (0, 1):
            rng = make_rng(seed, w)
            counts[w] = np.zeros(4)
            for _ in range(trials):
                counts[w][sample_alice_output(psi, phi, w, rng).index] += 1
        report = verify_nonsignaling(trials, seed, "sampled", psi=psi, phi=phi)
        expected = harness.tv_distance(counts[0] / trials, counts[1] / trials)
        assert report["metrics"]["sampled_alice_tv"] == expected


# the trial that sends one bit too many: not the first, in the third block
VIOLATOR = 2 * BLOCK + 1


def _one_extra_bit(monkeypatch) -> None:
    send = MeteredChannel.send

    def sending(self, direction, kind, payload, content=None, rows=slice(None)):
        msg = send(self, direction, kind, payload, content, rows)
        if payload in ("a0", "dense-coded-output", "m"):
            send(self, "A->B", "classical-bit", "extra", None, self.rounds == VIOLATOR)
        return msg

    monkeypatch.setattr(MeteredChannel, "send", sending)


class TestBudgetStillFails:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--experiment", "qrac", "--trials", "20"],
            ["run", "--experiment", "qrac-qubit-only", "--trials", "20"],
            ["racbox", "--trials", "1000"],
        ],
    )
    def test_one_extra_bit_in_one_round_exits_two(self, argv, monkeypatch, capsys):
        _small_blocks(monkeypatch)
        _one_extra_bit(monkeypatch)
        assert main([*argv, "--seed", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("protocol violation: budget violation in ")
        assert f" trial {VIOLATOR}: " in err[0]
        assert "extra" in err[0]

    def test_transcript_of_one_round(self):
        channel = MeteredChannel(np.arange(10, 13, dtype=np.uint64))
        channel.send("A->B", "classical-bit", "a1", np.zeros(3))
        channel.send("A->B", "qubit", "q", None, np.array([False, True, False]))
        assert [m.payload for m in channel.transcript(1).messages] == ["a1", "q"]
        assert [m.payload for m in channel.transcript(2).messages] == ["a1"]
        assert channel.over_budget(Tally(bits_a_to_b=1)).tolist() == [1]
        assert channel.totals() == Tally(bits_a_to_b=3, qubits_a_to_b=1)

    def test_wrong_dense_decode_is_a_protocol_error(self, monkeypatch):
        _small_blocks(monkeypatch)
        decode = harness.dense_decode_block

        def wrong_once(index, uniforms):
            decoded = decode(index, uniforms)
            if len(decoded) == BLOCK and decoded.size:
                decoded[1] ^= 1
            return decoded

        monkeypatch.setattr(harness, "dense_decode_block", wrong_once)
        config = ExperimentConfig(experiment="qrac-qubit-only", seed=1, trials=10)
        with pytest.raises(ProtocolError, match="dense decoding disagreed .* trial 1$"):
            harness._exp_qrac(config, dense=True)


# experiment -> its trials: each report at or above its floor, so all pass
REPORT_TRIALS = {
    "qrac": 20,
    "qrac-qubit-only": 20,
    "racbox": 1000,
    "tomography": 1000,
    "mixture": 1,
    "nonsignaling": 10**4,
    "dilation": 10,
}


class TestReportsRunBatched:
    """No report plays a round on the single-trial path: those executors are
    references for the tests, so a report must not depend on them."""

    @pytest.mark.parametrize("mode", ["branch-exact", "sampled"])
    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_report_never_draws_one_trial_or_meters_one_round(
        self, experiment, mode, monkeypatch, capsys
    ):
        def per_trial(*args, **kwargs):
            raise AssertionError("a report reached the single-trial path")

        monkeypatch.setattr(OutcomeNode, "draw", per_trial)
        monkeypatch.setattr(harness, "run_qrac_protocol", per_trial)
        monkeypatch.setattr(harness, "run_rac_protocol", per_trial)
        argv = ["run", "--experiment", experiment, "--mode", mode, "--seed", "7"]
        assert main([*argv, "--trials", str(REPORT_TRIALS[experiment])]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "experiment, payloads",
        [("qrac", ["a1", "a0"]), ("qrac-qubit-only", ["dense-coded-output"]), ("racbox", ["m"])],
    )
    def test_every_block_is_metered_by_the_one_channel(
        self, experiment, payloads, monkeypatch
    ):
        _small_blocks(monkeypatch)
        sent = []  # (payload, rounds of the block) of each message
        send = MeteredChannel.send

        def recording(self, direction, kind, payload, content=None, rows=slice(None)):
            sent.append((payload, len(self.rounds)))
            return send(self, direction, kind, payload, content, rows)

        monkeypatch.setattr(MeteredChannel, "send", recording)
        trials = REPORT_TRIALS[experiment]
        argv = ["run", "--experiment", experiment, "--seed", "7", "--trials", str(trials)]
        assert main(argv) == 0
        blocks = -(-trials // BLOCK)
        assert len(sent) == len(payloads) * blocks
        assert [payload for payload, _ in sent] == payloads * blocks
        assert sum(rounds for _, rounds in sent) == len(payloads) * trials


class TestOverflowingAmpSpec:
    @pytest.mark.parametrize("value", ["1e308", "1e200"])
    def test_config_error_without_warning(self, value, capsys):
        spec = f"amp:{value},0,{value},0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--experiment", "qrac", "--psi", spec, "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "overflows double precision" in err[0]

    def test_large_finite_norm_still_accepted(self):
        with pytest.warns(UserWarning, match="renormalized"):
            state = parse_state_spec("amp:1e150,0,1e150,0")
        assert np.allclose(np.abs(state.amplitudes) ** 2, [0.5, 0.5])
