"""Tests for the batched executors: the vectorised Philox streams, the
batched outcome-table walk, and every batched report path against a
single-trial reference, trial for trial: the two-party ``qrac_alice`` /
``qrac_bob`` path, or the ``oracles`` sampler that draws through numpy's
``Generator`` API."""
from __future__ import annotations

import gc
import json
import warnings
import weakref
from itertools import product
from math import asin, sqrt

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from qracbox import harness, qrac, quantum
from qracbox import rng as rng_module
from qracbox.boxes import PRBox
from qracbox.channel import D_IN, D_OUT, _entangled_probe, _sampled_tomography, verify_nonsignaling
from qracbox.cli import main
from qracbox.harness import (
    ExperimentConfig,
    parse_state_spec,
    run_rac_protocol,
)
from qracbox.metering import RACBOX_BUDGET, MeteredChannel, ProtocolError, Tally
from qracbox.qrac import (
    DenseCodingPair,
    QracResources,
    _alice_block,
    _alice_root,
    _alice_side,
    _channel_root,
    dense_decode,
    dense_encode,
    qrac_alice,
    qrac_bob,
)
from qracbox.quantum import (
    KET0,
    KET1,
    KET_PLUS,
    OutcomeTable,
    StateVector,
    _bell_stack,
    _measure_stack,
    fidelity,
    haar_random_qubit,
    make_pure_qubit,
    measure_computational,
    outcome_table,
    tensor,
)
from qracbox.rng import make_rng, stream_words, word_bits, word_uniform

import oracles

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

    @pytest.mark.parametrize("streams", [0, 1, 4097])  # 4097: one past a full block
    def test_words_are_a_fresh_contiguous_array(self, streams):
        # spread the stream keys over the whole uint64 range (the product wraps)
        keys = np.arange(streams, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        expected = np.array(
            [np.random.Philox(key=np.array([11, k], dtype=np.uint64)).random_raw(9) for k in keys],
            dtype=np.uint64,
        ).reshape(streams, 9)
        earlier = stream_words(11, keys, 9)
        for count in range(1, 10):  # three counter blocks
            words = stream_words(11, keys, count)
            assert words.dtype == np.uint64 and words.shape == (streams, count)
            assert words.flags.c_contiguous and words.flags.owndata
            assert not np.shares_memory(words, earlier)
            assert np.array_equal(words, expected[:, :count])

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


def _picks(table: OutcomeTable, uniforms) -> list[int]:
    """The outcome a one-level table's walk takes on each uniform."""
    return table.paths[table.walk(np.array(uniforms)[:, None]), 0].tolist()


class Fixed:
    """An rng whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestBatchedWalk:
    def test_pick_is_choose(self):
        table = _alice_root(*_states(1)[:2])
        words = make_rng(2).bit_generator.random_raw(4000)
        rng = make_rng(2)
        expected = [oracles.choose(rng, table.sums[0][0].tolist()) for _ in range(4000)]
        uniforms = np.stack([word_uniform(words), np.zeros(4000)], axis=1)
        assert table.paths[table.walk(uniforms), 0].tolist() == expected

    def test_pick_edges(self):
        # zero-weight outcomes are never picked; u * total equal to a
        # running sum goes past it, as in oracles.choose
        table = outcome_table(1, KET0.amplitudes[None], [("computational", 0)])
        assert table.sums[0].tolist() == [[1.0, 1.0]]
        assert _picks(table, [0.0, 0.5, 1 - 2**-53]) == [0, 0, 0]
        table = outcome_table(1, KET_PLUS.amplitudes[None], [("computational", 0)])
        sums = table.sums[0][0].tolist()
        assert 0.5 * sums[-1] == sums[0]  # a tie at u = 0.5

        uniforms = [0.0, 0.5 - 2**-53, 0.5, 1 - 2**-53]
        expected = [oracles.choose(Fixed(u), sums) for u in uniforms]
        assert expected == [0, 0, 1, 1]
        assert _picks(table, uniforms) == expected
        assert [int(table.paths[oracles.draw(table, Fixed(u)), 0]) for u in uniforms] == expected

        # an outcome of 0 < p < PROB_FLOOR is as impossible as in an
        # enumeration, which prunes it: computational, then Bell
        small = 5e-15
        qubit = make_pure_qubit(2 * asin(sqrt(small)), 0)
        bell = StateVector(2, (sqrt(1 - small) * np.array([1, 0, 0, 1])
                               + sqrt(small) * np.array([0, -1, 1, 0])) / sqrt(2))
        for state, measurement, project in (
            (qubit, ("computational", 0), _measure_stack),
            (bell, ("bell", (0, 1)), _bell_stack),
        ):
            amps, n = state.amplitudes[None], state.num_qubits
            probs, _, outcomes, _ = project(amps, n, measurement[1])
            assert 0 < probs[-1, 0] < 1e-14 and len(probs) - 1 not in outcomes.tolist()
            table = outcome_table(state.num_qubits, state.amplitudes[None], [measurement])
            sums = table.sums[0][0].tolist()
            assert sums[-1] == sums[-2] and table.children[0][0, -1] == -1
            assert table.paths[oracles.draw(table, Fixed(1 - 2e-15)), 0] == 0
            assert _picks(table, [1 - 2e-15, 1 - 2**-53]) == [0, 0]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_walk_is_draw_trial_by_trial(self, seed):
        probe = tensor([*_states(seed), KET1])
        table, _ = _channel_root(probe, (0, 1, 2))
        words = stream_words(seed, np.arange(300, dtype=np.uint64), 3)
        ends = table.walk(word_uniform(words))
        for trial in range(300):
            rng = make_rng(seed, trial)
            assert ends[trial] == oracles.draw(table, rng)
            # one uniform per measurement, as the walk reads
            reference = make_rng(seed, trial)
            assert rng.random() == [reference.random() for _ in range(4)][-1]

    def test_walk_is_in_path_order_and_frees_its_arrays_without_gc(self):
        probe = tensor([*_states(3), KET_PLUS])
        table, _ = _channel_root(probe, (0, 1, 2))
        uniforms = word_uniform(stream_words(3, np.arange(500, dtype=np.uint64), 3))
        gc.disable()
        try:
            ends = table.walk(uniforms)
            paths = [tuple(path) for path in table.paths.tolist()]
            assert len(set(ends.tolist())) > 1 and paths == sorted(set(paths))
            # no reference cycle keeps a block's arrays until a collection
            refs = [weakref.ref(array) for array in (uniforms, ends)]
            del uniforms, ends
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class Feed:
    """An rng whose uniform draws are ``us``, in order."""

    def __init__(self, us):
        self.random = iter(us).__next__


# the extreme uniforms a raw word can make
EXTREMES = [0.0, 1 - 2**-53]


@st.composite
def synthetic_tables(draw):
    """An ``OutcomeTable`` of 1-3 levels, 1-8 parents a level, 2 or 4 outcomes.

    Weights are multiples of 1/8, zeros included, so running sums are
    exact: an outcome of weight 0 is pruned (child -1) and a uniform of
    sum/total ties u * total with that running sum.  Returns the table
    and the ties, level by level.
    """
    parents, sums, children, ties = 1, [], [], []
    for _ in range(draw(st.integers(1, 3))):
        width, after = draw(st.sampled_from([2, 4])), draw(st.integers(1, 8))
        row = st.lists(st.integers(0, 3), min_size=width, max_size=width).filter(any)
        weights = np.array([draw(row) for _ in range(parents)]) / 8
        child = np.array(draw(st.lists(st.integers(0, after - 1), min_size=weights.size,
                                       max_size=weights.size))).reshape(weights.shape)
        child[weights == 0] = -1
        sums.append(np.cumsum(weights, axis=1))
        children.append(child)
        ties.append(sorted({float(s) for s in (sums[-1] / sums[-1][:, -1:]).ravel()}))
        parents = after
    leaves = np.arange(parents)
    table = OutcomeTable(tuple(sums), tuple(children), leaves[:, None], leaves / parents,
                         leaves[:, None], {})
    return table, ties


class TestWalkKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_walk_is_draw_on_synthetic_tables(self, data):
        table, ties = data.draw(synthetic_tables())
        levels = len(table.sums)
        grid = [u / 16 for u in range(16)]
        trials = data.draw(st.lists(
            st.tuples(*(st.sampled_from(EXTREMES + grid + tie)
                        | st.floats(0, 1, exclude_max=True) for tie in ties)),
            min_size=1, max_size=24,
        ))
        uniforms = np.array([[u] * levels for u in EXTREMES] + trials)
        ends = table.walk(uniforms)
        assert ends.dtype == np.intp
        assert ends.tolist() == [oracles.draw(table, Feed(row)) for row in uniforms.tolist()]

    def test_synthetic_tables_prune_and_tie_below_the_root(self):
        # the property above is as strong as its tables: some prune an
        # outcome below the first level and tie u * total with a running sum there
        def deep_tie_and_prune(example):
            table, ties = example
            return any(
                (children == -1).any() and any(u * row[-1] in row[:-1] for row in sums for u in us)
                for sums, children, us in zip(table.sums[1:], table.children[1:], ties[1:])
            )

        table, ties = find(synthetic_tables(), deep_tie_and_prune, settings=settings(database=None))
        uniforms = np.array(list(product(*(EXTREMES + us for us in ties))))
        assert table.walk(uniforms).tolist() == [
            oracles.draw(table, Feed(row)) for row in uniforms.tolist()
        ]

    def test_no_trials(self):
        table = _alice_root(*_states(2)[:2])
        for uniforms in (np.zeros((0, 2)), np.zeros((5, 2))[5:]):
            ends = table.walk(uniforms)
            assert ends.dtype == np.intp and ends.shape == (0,)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_strided_uniforms_walk_as_a_copy(self, seed):
        probe = tensor([*_states(seed), KET1])
        table, _ = _channel_root(probe, (0, 1, 2))
        words = stream_words(seed, np.arange(600, dtype=np.uint64), 5)
        block = word_uniform(words)
        for view in (block[:, 1:4], block[::2, 2:], block[::-1, :3], np.asfortranarray(block)):
            assert not view.flags.c_contiguous
            assert np.array_equal(table.walk(view), table.walk(np.ascontiguousarray(view)))


class TestSkewedSampler:
    """A sampler that draws u^3 for u keeps recovery exact and Alice's bits
    padded, so only the reports' leaf-frequency checks can see it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--experiment", "qrac", "--trials", "10000"],
            ["run", "--experiment", "qrac-qubit-only", "--trials", "10000"],
            ["tomography", "--mode", "sampled", "--trials", "10000"],
            ["verify-nonsignaling", "--mode", "sampled", "--trials", "10000"],
        ],
        ids=["qrac", "qrac-qubit-only", "tomography", "nonsignaling"],
    )
    def test_every_sampled_report_fails_its_leaf_check(self, argv, monkeypatch, capsys):
        walk = OutcomeTable.walk
        monkeypatch.setattr(OutcomeTable, "walk", lambda table, uniforms: walk(table, uniforms**3))
        assert main([*argv, "--seed", "7"]) == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = [check["name"] for check in checks if not check["pass"]]
        assert "leaf-frequency" in failed
        if argv[0] == "run":  # recovery and the padded bits do not see it
            assert failed == ["leaf-frequency"]


def _scalar_qrac(config: ExperimentConfig, dense: bool):
    """The report loop, played round by round by the two parties.

    Returns rows, tallies, histogram and fidelities.  Trial i's stream
    feeds the box coins, Bob's measurement of omega, Alice's side and the
    dense decoding, in that order, each round metered on a channel of its
    own.
    """
    psi, phi, omega = config.resolved_psi(), config.resolved_phi(), config.resolved_omega()
    tallies, rows, histogram, fidelities = Tally(), [], [0, 0, 0, 0], []
    for trial in range(max(config.trials, 1)):
        rng = make_rng(config.seed, trial)
        res = QracResources(rng)
        w, _ = measure_computational(omega, 0, rng)
        alice = qrac_alice(psi, phi, res)
        channel = MeteredChannel()
        if dense:
            payload = dense_encode(alice.a1, alice.a0, DenseCodingPair())
            channel.send("A->B", "qubit", "dense-coded-output", payload)
            assert dense_decode(payload, rng).bits == alice.bits
        else:
            channel.send("A->B", "classical-bit", "a1", alice.a1)
            channel.send("A->B", "classical-bit", "a0", alice.a0)
        tallies = tallies + channel.transcript().totals
        f = fidelity(qrac_bob(w, alice.bits, res), psi if w == 0 else phi)
        fidelities.append(f)
        histogram[alice.index] += 1
        rows.append([trial, w, alice.a1, alice.a0, f])
    return rows, tallies, histogram, fidelities


def _scalar_alice_output(psi, phi, rng) -> int:
    """Alice's output index of one round: the coins, then her table's leaf by ``oracles.draw``."""
    box0, box1 = PRBox(rng), PRBox(rng)
    table = _alice_root(psi, phi)
    first, second = table.paths[oracles.draw(table, rng)].tolist()
    a1, a0 = _alice_side(first, second, box0, box1)
    return 2 * a1 + a0


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
            _, _, rho = oracles.sample_channel(probe.amplitudes, make_rng(seed, trial), (3, 4, 5))
            total += D_IN * rho / trials
        choi = _sampled_tomography(trials, seed)[0]
        assert np.array_equal(choi.matrix, total)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("w", [0, 1])
    def test_sampled_alice_outputs_on_a_shared_stream(self, seed, w):
        psi, phi, _ = _states(seed)
        trials = 2 * BLOCK + 3
        ref = make_rng(seed, w)
        expected = [_scalar_alice_output(psi, phi, ref) for _ in range(trials)]
        words = make_rng(seed, w).bit_generator.random_raw(3 * trials).reshape(-1, 3)
        assert _alice_block(psi, phi, words)[0].tolist() == expected

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
                counts[w][_scalar_alice_output(psi, phi, rng)] += 1
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

    def test_route_major_counts_across_a_full_block(self):
        # 5000 rounds at the real TRIAL_BLOCK; the extra bit's rounds straddle index 4096
        rounds = np.arange(5000, dtype=np.uint64) + np.uint64(20000)
        extra = np.zeros(5000, dtype=bool)
        extra[[4093, 4095, 4096, 4097, 4999]] = True
        channel = MeteredChannel(rounds)
        channel.send("A->B", "classical-bit", "m", np.zeros(5000))
        channel.send("A->B", "classical-bit", "extra", None, extra)
        assert channel.over_budget(RACBOX_BUDGET).tolist() == np.flatnonzero(extra).tolist()
        transcripts = Tally()
        for r in range(len(rounds)):
            transcripts = transcripts + channel.transcript(r).totals
        assert channel.totals() == transcripts == Tally(bits_a_to_b=5005)
        with pytest.raises(ProtocolError, match="in racbox trial 24093: .*extra"):
            harness._assert_block_budget(channel, RACBOX_BUDGET, "racbox")

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
    """No report plays a round on the single-trial path: a report runs whole
    blocks, never a lone rng-taking draw or a lone metered round."""

    @pytest.mark.parametrize("mode", ["branch-exact", "sampled"])
    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_report_never_draws_one_trial_or_meters_one_round(
        self, experiment, mode, monkeypatch, capsys
    ):
        def per_trial(*args, **kwargs):
            raise AssertionError("a report reached the single-trial path")

        monkeypatch.setattr(quantum, "_measured", per_trial)
        for name in ("qrac_alice", "sample_channel", "sample_alice_output"):
            monkeypatch.setattr(qrac, name, per_trial)
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

    @pytest.mark.parametrize(
        "spec,message",
        [
            # |1e-170|^2 is below the smallest subnormal, so the norm reads 0.0
            ("amp:1e-200,0,0,0", "amp spec norm underflows double precision"),
            ("amp:1e-170,0,0,0", "amp spec norm underflows double precision"),
            ("amp:0,1e-170,0,-1e-200", "amp spec norm underflows double precision"),
            ("amp:0,0,0,0", "amp spec norm must be non-zero"),
            ("amp:0,-0,0,0", "amp spec norm must be non-zero"),
        ],
    )
    def test_underflow_is_not_a_zero_norm(self, spec, message, capsys):
        code = main(["run", "--experiment", "qrac", "--psi", spec, "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert message in err[0]

    @pytest.mark.parametrize("spec", ["amp:1e-160,0,0,0", "amp:0,0,0,-1e-157"])
    def test_a_spec_that_cannot_be_normalized_is_not_warned_about(self, spec, capsys):
        # |a|^2 is subnormal: the norm is finite and non-zero, but a / norm is off unit norm
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--experiment", "qrac", "--psi", spec, "--seed", "1"])
        assert code == 3 and caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: amp spec cannot be normalized")

    def test_large_finite_norm_still_accepted(self):
        with pytest.warns(UserWarning, match="renormalized"):
            state = parse_state_spec("amp:1e150,0,1e150,0")
        assert np.allclose(np.abs(state.amplitudes) ** 2, [0.5, 0.5])
