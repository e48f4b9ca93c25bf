"""Tests for the box construction: recovery, budgets, privacy, dense coding."""
from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from qracbox import qrac as qrac_module
from qracbox.boxes import PRBox, tv_distance
from qracbox.channel import _entangled_probe
from qracbox.cli import main
from qracbox.harness import run_qrac_protocol
from qracbox.metering import (
    ProtocolError,
    QRAC_BUDGET,
    QUBIT_ONLY_BUDGET,
)
from qracbox.qrac import (
    AliceClassicalOutput,
    DenseCodingPair,
    QracResources,
    _ALICE_MEASUREMENTS,
    _alice_block,
    _alice_root,
    _channel_block,
    _channel_root,
    _channel_round,
    _choice_root,
    _load_inputs,
    _round_register,
    _sampled_rounds,
    _tree,
    branch_sums,
    channel_branches,
    dense_decode,
    dense_encode,
    qrac_alice,
    qrac_bob,
    sample_alice_output,
    sample_channel,
)
from qracbox.quantum import (
    KET0,
    KET1,
    KET_PLUS,
    PHI_PLUS,
    BellOutcome,
    OutcomeTable,
    StateVector,
    apply_unitary,
    basis_state,
    bell_measure,
    bell_project,
    fidelity,
    haar_random_qubit,
    haar_random_state,
    measure_computational,
    measure_project,
    outcome_table,
    pauli_correction,
    reduced_density,
    tensor,
    trace_distance,
)
from qracbox.rng import make_rng, stream_words

import oracles

MIXED = np.eye(2) / 2


class TestRecovery:
    def test_chosen_qubit_recovered_in_sampled_rounds(self):
        rng = make_rng(1)
        for seed in range(30):
            psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
            for w, target in ((0, psi), (1, phi)):
                res = QracResources(make_rng(77, seed))
                a = qrac_alice(psi, phi, res)
                out = qrac_bob(w, a, res)
                assert fidelity(out, target) >= 1 - 1e-10

    def test_chosen_qubit_recovered_in_every_branch(self):
        rng = make_rng(2)
        for _ in range(20):
            psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
            for w, target in ((0, psi), (1, phi)):
                branches = channel_branches(tensor([psi, phi, KET0 if w == 0 else KET1]))
                assert len(branches) == 64
                assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
                for b in branches:
                    assert fidelity(b.output, target) >= 1 - 1e-10

    def test_wrong_correction_branch_average_is_maximally_mixed(self):
        rng = make_rng(3)
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        for fixed_b in ((0, 0), (1, 0), (1, 1)):
            for w in (0, 1):
                branches = channel_branches(
                    tensor([psi, phi, KET0 if w == 0 else KET1]), b=fixed_b
                )
                avg = sum(b.probability * b.output.matrix for b in branches)
                assert trace_distance(avg, MIXED) <= 1e-10


class TestAliceOutput:
    def test_exact_distribution_is_uniform(self):
        rng = make_rng(4)
        for omega in (KET0, KET1, KET_PLUS):
            psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
            dist = branch_sums(channel_branches(tensor([psi, phi, omega])))[0]
            assert np.max(np.abs(dist - 0.25)) < 1e-12

    def test_sampled_distribution_is_uniform(self):
        # the rounds of 10**5 sample_alice_output calls on one stream, as one
        # block: a call is row 0 of a block on its next three raw words
        trials = 10**5
        words = make_rng(5).bit_generator.random_raw((trials, 3))
        counts = np.bincount(_alice_block(KET0, KET1, words)[0], minlength=4)
        assert tv_distance(counts / trials, np.full(4, 0.25)) <= 0.02

    def test_same_seed_same_output(self):
        runs = {
            sample_alice_output(KET_PLUS, KET1, 1, make_rng(99)).bits for _ in range(5)
        }
        assert len(runs) == 1

    def test_distribution_independent_of_inputs(self):
        # 10**5 sample_alice_output calls on each of two streams, as two blocks
        trials = 10**5
        counts = {}
        for stream, (psi, phi) in enumerate([(KET0, KET0), (KET_PLUS, KET1)]):
            words = make_rng(6, stream).bit_generator.random_raw((trials, 3))
            counts[stream] = np.bincount(_alice_block(psi, phi, words)[0], minlength=4)
        assert tv_distance(counts[0] / trials, counts[1] / trials) <= 0.02


class TestRound:
    def test_basis_inputs_recovered_exactly(self):
        result = run_qrac_protocol(KET0, KET1, KET0, seed=7)
        assert fidelity(result.output, KET0) == pytest.approx(1.0, abs=1e-12)
        assert result.transcript.totals == QRAC_BUDGET

    def test_second_input_recovered_for_random_states(self):
        rng = make_rng(8)
        for seed in range(100):
            phi = haar_random_qubit(rng)
            out = run_qrac_protocol(KET_PLUS, phi, KET1, seed=seed).output
            assert fidelity(out, phi) >= 1 - 1e-10

    def test_superposed_choice_yields_even_mixture(self):
        branches = channel_branches(tensor([KET0, KET1, KET_PLUS]))
        assert len(branches) == 128
        avg = sum(b.probability * b.output.matrix for b in branches)
        assert trace_distance(avg, MIXED) <= 1e-10

    def test_budget_holds_on_every_round(self):
        rng = make_rng(9)
        for seed in range(25):
            psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
            transcript = run_qrac_protocol(psi, phi, KET_PLUS, seed=seed).transcript
            assert transcript.totals == QRAC_BUDGET
            for msg in transcript.messages:
                assert msg.direction == "A->B"


class TestResourceContracts:
    def test_alice_reuse_rejected(self):
        res = QracResources(make_rng(0))
        qrac_alice(KET0, KET0, res)
        with pytest.raises(ProtocolError):
            qrac_alice(KET0, KET0, res)

    def test_bob_requires_alice_first(self):
        res = QracResources(make_rng(0))
        with pytest.raises(ProtocolError):
            qrac_bob(0, (0, 0), res)

    def test_bob_reuse_rejected(self):
        res = QracResources(make_rng(0))
        qrac_alice(KET0, KET0, res)
        qrac_bob(0, (0, 0), res)
        with pytest.raises(ProtocolError):
            qrac_bob(0, (0, 0), res)

    def test_multi_qubit_inputs_rejected(self):
        res = QracResources(make_rng(0))
        with pytest.raises(ValueError):
            qrac_alice(PHI_PLUS, KET0, res)

    @pytest.mark.parametrize("omega", [tensor([KET_PLUS, KET1]), tensor([KET1, KET1])])
    @pytest.mark.parametrize(
        "run",
        [
            lambda omega: channel_branches(_round_register(KET0, KET1, omega)),
            lambda omega: run_qrac_protocol(KET0, KET1, omega, 3),
            lambda omega: run_qrac_protocol(KET0, KET1, omega, 3, dense=True),
            lambda omega: _sampled_rounds(KET0, KET1, omega, stream_words(3, np.arange(5), 4)),
        ],
        ids=["channel_branches", "run_qrac_protocol", "run_qrac_protocol_dense",
             "_sampled_rounds"],
    )
    def test_multi_qubit_choice_rejected(self, run, omega):
        with pytest.raises(ValueError, match="^omega must be a single-qubit state$"):
            run(omega)


class TestDenseCoding:
    def test_identity_encoding_leaves_phi_plus(self):
        encoded = dense_encode(0, 0, DenseCodingPair())
        assert np.abs(np.vdot(encoded.amplitudes, PHI_PLUS.amplitudes)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_x_encoding_is_orthogonal_to_phi_plus(self):
        encoded = dense_encode(0, 1, DenseCodingPair())
        assert np.vdot(encoded.amplitudes, PHI_PLUS.amplitudes) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_all_encodings_pairwise_orthogonal(self):
        encodings = {
            (t, s): dense_encode(t, s, DenseCodingPair()) for t in (0, 1) for s in (0, 1)
        }
        keys = list(encodings)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                overlap = np.vdot(encodings[k1].amplitudes, encodings[k2].amplitudes)
                assert abs(overlap) < 1e-12

    def test_decode_inverts_encode_with_certainty(self):
        for t in (0, 1):
            for s in (0, 1):
                encoded = dense_encode(t, s, DenseCodingPair())
                prob, _ = bell_project(encoded, (0, 1), BellOutcome(t, s))
                assert prob == pytest.approx(1.0, abs=1e-12)
                assert dense_decode(encoded, make_rng(0)).bits == (t, s)

    def test_encoded_states_match_bell_basis(self):
        for t in (0, 1):
            for s in (0, 1):
                encoded = dense_encode(t, s, DenseCodingPair())
                overlap = np.vdot(oracles.bell_vector(t, s), encoded.amplitudes)
                assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_pair_reuse_rejected(self):
        pair = DenseCodingPair()
        dense_encode(1, 1, pair)
        with pytest.raises(ProtocolError):
            dense_encode(0, 0, pair)


class TestQubitOnlyRound:
    def test_matches_standard_round_branch_by_branch(self):
        rng = make_rng(10)
        for seed in range(50):
            psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
            std = run_qrac_protocol(psi, phi, KET_PLUS, seed=seed)
            dc = run_qrac_protocol(psi, phi, KET_PLUS, seed=seed, dense=True)
            assert np.array_equal(std.output.matrix, dc.output.matrix)
            assert std.transcript.totals == QRAC_BUDGET
            assert dc.transcript.totals == QUBIT_ONLY_BUDGET

    def test_basis_examples(self):
        result = run_qrac_protocol(KET0, KET1, KET0, seed=11, dense=True)
        assert fidelity(result.output, KET0) == pytest.approx(1.0, abs=1e-12)
        assert result.transcript.totals.as_dict() == {
            "bits_a_to_b": 0,
            "bits_b_to_a": 0,
            "qubits_a_to_b": 1,
            "qubits_b_to_a": 0,
        }


def bob_view_distribution(psi, phi, w):
    """Joint distribution of Bob's complete final view, exactly.

    Keyed by (a1, a0, B0, B1), the classical data Bob holds after a
    round; his derived correction bits are functions of these.  Values
    are (probability, probability-weighted output matrix).  Privacy of
    the unchosen qubit means this whole dictionary is independent of it.
    """
    view = {}
    for branch in channel_branches(_round_register(psi, phi, basis_state(1, w))):
        key = branch.alice.bits + branch.pr_outputs
        weight, matrix = view.get(key, (0.0, np.zeros((2, 2), dtype=complex)))
        view[key] = (
            weight + branch.probability,
            matrix + branch.probability * branch.output.matrix,
        )
    return view


class TestUnchosenQubitPrivacy:
    def _views_equal(self, va, vb):
        assert set(va) == set(vb)
        for key in va:
            wa, ma = va[key]
            wb, mb = vb[key]
            assert wa == pytest.approx(wb, abs=1e-12)
            assert np.max(np.abs(ma - mb)) < 1e-10

    def test_bob_view_independent_of_unchosen_second_input(self):
        rng = make_rng(12)
        psi = haar_random_qubit(rng)
        view_a = bob_view_distribution(psi, KET0, w=0)
        view_b = bob_view_distribution(psi, haar_random_qubit(rng), w=0)
        self._views_equal(view_a, view_b)

    def test_bob_view_independent_of_unchosen_first_input(self):
        rng = make_rng(13)
        phi = haar_random_qubit(rng)
        view_a = bob_view_distribution(KET_PLUS, phi, w=1)
        view_b = bob_view_distribution(haar_random_qubit(rng), phi, w=1)
        self._views_equal(view_a, view_b)


class TestForcedCoins:
    def test_forced_coins_match_enumerated_branches(self):
        # a round with pinned coins must realize one of the enumerated
        # branches with those coins, outcome for outcome
        psi, phi = KET_PLUS, KET1
        w = 1
        branches = channel_branches(tensor([psi, phi, KET1]))
        for coins in ((0, 0), (0, 1), (1, 0), (1, 1)):
            res = QracResources(make_rng(55))
            res.box0, res.box1 = PRBox(coin=coins[0]), PRBox(coin=coins[1])
            a = qrac_alice(psi, phi, res)
            out = qrac_bob(w, a, res)
            matches = [
                b
                for b in branches
                if b.coins == coins and b.alice == a and b.w == w
            ]
            assert any(
                np.max(np.abs(b.output.matrix - out.matrix)) < 1e-10 for b in matches
            )
            assert fidelity(out, phi) >= 1 - 1e-10


class TestSampledChannel:
    def test_sampled_run_lands_on_an_enumerated_branch(self):
        joint = tensor([KET_PLUS, KET1, KET_PLUS])
        branches = channel_branches(joint)
        by_key = {
            (b.w, b.alice.bits, b.coins, b.first_bell.bits, b.second_bell.bits): b
            for b in branches
        }
        rng = make_rng(14)
        for _ in range(40):
            w, alice_out, rho = sample_channel(joint, rng)
            matches = [
                b
                for key, b in by_key.items()
                if key[0] == w and key[1] == alice_out.bits
            ]
            assert any(np.max(np.abs(b.output.matrix - rho.matrix)) < 1e-10 for b in matches)

    @pytest.mark.parametrize("inputs", [(0, 0, 2), (0, 1, 1), (0, 1, 3), (-1, 1, 2)])
    @pytest.mark.parametrize(
        "execute",
        [
            lambda joint, inputs: sample_channel(joint, make_rng(0), inputs),
            lambda joint, inputs: channel_branches(joint, inputs),
        ],
        ids=["sampled", "enumerated"],
    )
    def test_bad_input_registers_rejected(self, execute, inputs):
        with pytest.raises(ValueError, match="input register"):
            execute(tensor([KET0] * 3), inputs)


class TestAliceClassicalOutput:
    def test_index_and_bits(self):
        a = AliceClassicalOutput(a1=1, a0=0)
        assert a.bits == (1, 0)
        assert a.index == 2

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            AliceClassicalOutput(a1=2, a0=0)


def _fresh_sample_channel(joint, rng, inputs=(0, 1, 2)):
    """sample_channel computed from scratch, with no outcome table.

    Same measurements, rng draws and PR-box wiring as the executor, built
    from the public quantum primitives: the reference the cached path must
    match bit for bit.
    """
    q_apr, q_adp, q_r = inputs
    n = joint.num_qubits
    spectators = sorted(set(range(n)) - set(inputs))
    state = tensor([joint, PHI_PLUS, PHI_PLUS])
    w, state = measure_computational(state, q_r, rng)
    first, state = bell_measure(state, (q_apr, n), rng)
    second, state = bell_measure(state, (q_adp, n + 2), rng)
    box0, box1 = PRBox(rng), PRBox(rng)
    mask0 = box0.alice(first.bit0 ^ second.bit0)
    mask1 = box1.alice(first.bit1 ^ second.bit1)
    alice = (first.bit1 ^ mask1, first.bit0 ^ mask0)
    correction = (alice[0] ^ box1.bob(w), alice[1] ^ box0.bob(w))
    target = n + 1 if w == 0 else n + 3
    corrected = apply_unitary(state, pauli_correction(*correction), (target,))
    return w, alice, reduced_density(corrected, spectators + [target])


def _flip_lowest_bit(state: StateVector) -> StateVector:
    """The same state with the last mantissa bit of one amplitude flipped."""
    amps = state.amplitudes.copy()
    amps.view(np.uint64)[0] ^= 1
    return StateVector(state.num_qubits, amps)


def _report_bytes(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestOutcomeTreeCache:
    """The sampled executor's cached outcome tables never change a result."""

    STATES = ["--psi", "bloch:0.7,1.1", "--phi", "bloch:2.2,-0.4", "--omega", "amp:0.6,0,0,0.8"]
    ARGV = {
        "qrac": ["run", "--experiment", "qrac", "--trials", "60", *STATES],
        "qrac-qubit-only": ["run", "--experiment", "qrac-qubit-only", "--trials", "60", *STATES],
        "tomography": ["tomography", "--trials", "60"],
    }

    @pytest.mark.parametrize("experiment", sorted(ARGV))
    def test_cold_warm_and_evicted_reports_are_identical(self, experiment):
        argv = [*self.ARGV[experiment], "--mode", "sampled", "--seed", "5"]
        _tree.cache_clear()
        cold = _report_bytes(argv)
        hits = _tree.cache_info().hits
        warm = _report_bytes(argv)
        assert _tree.cache_info().hits > hits
        # more new inputs than the cache holds: every root above is evicted
        rng = make_rng(31)
        for _ in range(_tree.cache_info().maxsize + 1):
            psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
            run_qrac_protocol(psi, phi, haar_random_qubit(rng), 31)
            sample_channel(tensor([psi, phi, KET_PLUS]), rng)
        evicted = _report_bytes(argv)
        assert cold == warm == evicted

    def test_sampled_channel_matches_fresh_computation_bit_for_bit(self):
        rng = make_rng(33)
        joint = tensor([haar_random_qubit(rng) for _ in range(4)])
        _tree.cache_clear()
        for trial in range(80):  # cold on the first trials, warm after
            inputs = [(0, 1, 2), (2, 0, 3)][trial % 2]
            w, alice, rho = sample_channel(joint, make_rng(34, trial), inputs)
            w_ref, alice_ref, rho_ref = _fresh_sample_channel(joint, make_rng(34, trial), inputs)
            assert (w, alice.bits) == (w_ref, alice_ref)
            assert np.array_equal(rho.matrix, rho_ref.matrix)

    def test_qrac_round_matches_fresh_computation_bit_for_bit(self):
        rng = make_rng(35)
        psi = haar_random_qubit(rng)
        phis = [haar_random_qubit(rng), haar_random_qubit(rng)]
        _tree.cache_clear()
        for trial in range(80):
            w, phi = trial % 2, phis[trial // 2 % 2]
            res = QracResources(make_rng(36, trial))
            out = qrac_bob(w, qrac_alice(psi, phi, res), res)
            ref_rng = make_rng(36, trial)
            box0, box1 = PRBox(ref_rng), PRBox(ref_rng)
            state = StateVector(6, _load_inputs(psi, phi))
            first, state = bell_measure(state, (0, 2), ref_rng)
            second, state = bell_measure(state, (1, 4), ref_rng)
            mask0 = box0.alice(first.bit0 ^ second.bit0)
            mask1 = box1.alice(first.bit1 ^ second.bit1)
            correction = (first.bit1 ^ mask1 ^ box1.bob(w), first.bit0 ^ mask0 ^ box0.bob(w))
            target = 3 if w == 0 else 5
            corrected = apply_unitary(state, pauli_correction(*correction), (target,))
            assert np.array_equal(out.matrix, reduced_density(corrected, [target]).matrix)

    @pytest.mark.parametrize("num_qubits", [3, 4, 6])
    def test_channel_register_is_the_tensor_and_a_root_hit_checks_nothing(
        self, num_qubits, monkeypatch
    ):
        rng = make_rng(37, num_qubits)
        joints = [haar_random_state(num_qubits, rng) for _ in range(5)]
        tables = [_channel_root(joint, (0, 1, 2))[0] for joint in joints]
        for joint, table in zip(joints, tables):
            register, schedule, _ = _channel_round(joint, (0, 1, 2))
            expected = tensor([joint, PHI_PLUS, PHI_PLUS]).amplitudes
            assert register.tobytes() == expected.tobytes()
            fresh = outcome_table(num_qubits + 4, expected[None], schedule)
            assert table.leaves.tobytes() == fresh.leaves.tobytes()
        checked = []
        honest_check = StateVector.__post_init__

        def counting_check(state):
            checked.append(state)
            honest_check(state)

        monkeypatch.setattr(StateVector, "__post_init__", counting_check)
        for joint, table in zip(joints, tables):
            assert _channel_root(joint, (0, 1, 2))[0] is table
        assert checked == []

    def test_inputs_one_bit_apart_never_share_a_tree(self):
        rng = make_rng(32)
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        nudged = _flip_lowest_bit(psi)
        assert nudged.amplitudes.tobytes() != psi.amplitudes.tobytes()
        copy = StateVector(1, psi.amplitudes.copy())
        table = _alice_root(psi, phi)
        assert _alice_root(copy, phi) is table
        assert _alice_root(nudged, phi) is not table
        assert _alice_root(phi, psi) is not table
        # the same register under another schedule
        assert _tree(6, _load_inputs(psi, phi).tobytes(), _ALICE_MEASUREMENTS[::-1]) is not table

        table = _choice_root(psi)
        assert _choice_root(copy) is table
        assert _choice_root(nudged) is not table

        joint = tensor([psi, phi, KET_PLUS])
        table, _ = _channel_root(joint, (0, 1, 2))
        assert _channel_root(joint, (0, 1, 2))[0] is table
        assert _channel_root(_flip_lowest_bit(joint), (0, 1, 2))[0] is not table
        assert _channel_root(joint, (1, 0, 2))[0] is not table


def _fresh_branch_output(joint, inputs, branch):
    """A branch's output from scratch: project, correct, trace out."""
    q_apr, q_adp, q_r = inputs
    n = joint.num_qubits
    _, state = measure_project(tensor([joint, PHI_PLUS, PHI_PLUS]), q_r, branch.w)
    _, state = bell_project(state, (q_apr, n), branch.first_bell)
    _, state = bell_project(state, (q_adp, n + 2), branch.second_bell)
    target = n + 1 if branch.w == 0 else n + 3
    corrected = apply_unitary(state, pauli_correction(*branch.correction), (target,))
    spectators = sorted(set(range(n)) - set(inputs))
    return reduced_density(corrected, spectators + [target])


class TestSharedOutputPath:
    """channel_branches computes Bob's output through the leaf memo."""

    @pytest.mark.parametrize("inputs", [(0, 1, 2), (2, 0, 3)])
    def test_coin_branches_of_a_leaf_share_one_output(self, inputs):
        rng = make_rng(41)
        joint = tensor([haar_random_qubit(rng) for _ in range(4)])
        leaves = {}
        for branch in channel_branches(joint, inputs):
            leaves.setdefault((branch.w, branch.first_bell, branch.second_bell), []).append(branch)
        assert leaves and all(len(group) == 4 for group in leaves.values())
        for group in leaves.values():
            assert len({branch.correction for branch in group}) == 1
            assert all(branch.output is group[0].output for branch in group)

    @pytest.mark.parametrize("b", [None, (0, 0), (1, 0)])
    @pytest.mark.parametrize("inputs", [(0, 1, 2), (2, 0, 3)])
    def test_outputs_match_fresh_computation_bit_for_bit(self, inputs, b):
        rng = make_rng(42)
        joint = tensor([haar_random_qubit(rng) for _ in range(4)])
        branches = channel_branches(joint, inputs, b=b)
        assert len(branches) == 2 * 16 * 4
        for branch in branches:
            fresh = _fresh_branch_output(joint, inputs, branch)
            assert np.array_equal(branch.output.matrix, fresh.matrix)


def _every_executor() -> dict:
    """What each executor of a round makes of fixed inputs and draws.

    Alice's a1 bits (her output index from ``_alice_block``), or Bob's
    outputs trial by trial from ``_channel_block``.
    """
    rng = make_rng(91)
    psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
    words = stream_words(92, np.arange(64, dtype=np.uint64), 4)
    probe = _entangled_probe()
    register = _round_register(psi, phi, KET_PLUS)
    _, ids, outputs, _, _ = _channel_block(probe, words, (3, 4, 5))
    return {
        "channel_branches": [branch.alice.a1 for branch in channel_branches(register)],
        "_sampled_rounds": _sampled_rounds(psi, phi, KET_PLUS, words)[1][0],
        "_alice_block": _alice_block(psi, phi, words[:, :3])[0],
        "_channel_block": outputs[ids],
        "qrac_alice": qrac_alice(psi, phi, QracResources(make_rng(93))).a1,
        "sample_channel": sample_channel(probe, make_rng(94), (3, 4, 5))[1].a1,
        "sample_alice_output": sample_alice_output(psi, phi, 1, make_rng(95)).a1,
    }


class TestOneWiringOwner:
    """``_alice_side`` is the one owner of Alice's wiring, for every executor."""

    def test_a_flipped_a1_reaches_every_executor(self, monkeypatch, clear_box_caches):
        honest_side = qrac_module._alice_side

        def flip_a1(first, second, box0, box1):
            a1, a0 = honest_side(first, second, box0, box1)
            return a1 ^ 1, a0

        honest = _every_executor()
        monkeypatch.setattr(qrac_module, "_alice_side", flip_a1)
        clear_box_caches()
        mutant = _every_executor()
        changed = [name for name in honest if not np.array_equal(honest[name], mutant[name])]
        assert changed == list(honest)


def _single_trial_draws() -> dict:
    """What each rng-taking single-trial function draws on fixed inputs, stream by stream."""
    rng = make_rng(97)
    psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
    pair, probe = haar_random_state(2, rng), _entangled_probe()
    streams = range(64)
    return {
        "bell_measure": [bell_measure(pair, (0, 1), make_rng(98, s))[0] for s in streams],
        "measure_computational": [measure_computational(KET_PLUS, 0, make_rng(99, s))[0]
                                  for s in streams],
        "sample_channel": [sample_channel(probe, make_rng(100, s), (3, 4, 5))[:2]
                           for s in streams],
        "run_qrac_protocol": [
            (result.w, result.alice)
            for result in (run_qrac_protocol(psi, phi, KET_PLUS, 101, trial=s) for s in streams)
        ],
        "qrac_alice": [qrac_alice(psi, phi, QracResources(make_rng(102, s))) for s in streams],
        "sample_alice_output": [sample_alice_output(psi, phi, 0, make_rng(103, s))
                                for s in streams],
    }


class TestOneSampler:
    """``OutcomeTable.walk`` draws every sampled outcome, a lone call's as a report's."""

    def test_a_skewed_walk_reaches_every_single_trial_draw(self, monkeypatch):
        honest = _single_trial_draws()
        walk = OutcomeTable.walk
        monkeypatch.setattr(OutcomeTable, "walk", lambda table, uniforms: walk(table, uniforms**3))
        skewed = _single_trial_draws()
        assert [name for name in honest if honest[name] != skewed[name]] == list(honest)
