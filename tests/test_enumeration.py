"""Exact enumeration at the cost of its distinct states.

``channel_branches`` takes one partial trace per (leaf, target) and
builds each Pauli-corrected output from it by a signed relabelling,
projects all four Bell outcomes of a pair from one transposed operand
(``quantum._bell_stack``) and wires each leaf's four coin branches
in the same pass as the sampled blocks.  Every float must be the one
the direct computation gives: these tests compare with
``np.array_equal`` against ``apply_unitary`` + ``reduced_density`` and
against the ``np.tensordot`` projection of one outcome at a time, and
each branch's classical side with that of fresh ``PRBox``es.
"""
from __future__ import annotations

from itertools import product
from math import sqrt

import numpy as np
import pytest

from qracbox import qrac, quantum
from qracbox.boxes import PRBox
from qracbox.channel import _entangled_probe
from qracbox.qrac import (
    _alice_side,
    _bob_side,
    _channel_block,
    _leaf_outputs,
    _relabelled,
    _round_register,
    channel_branches,
)
from qracbox.quantum import (
    PHI_PLUS,
    PROB_FLOOR,
    KET_PLUS,
    DensityMatrix,
    StateVector,
    apply_unitary,
    basis_state,
    _bell_stack,
    bell_project,
    haar_random_state,
    measure_project,
    outcome_table,
    pauli_correction,
    reduced_density,
    tensor,
)
from qracbox.rng import make_rng, stream_words

CORRECTIONS = list(product((0, 1), repeat=2))
BELL_TENSOR = np.stack(
    [
        np.kron(pauli_correction(0, s).matrix, pauli_correction(t, 0).matrix) @ PHI_PLUS.amplitudes
        for t, s in CORRECTIONS
    ]
).reshape(4, 2, 2)


def _fresh_output(state, target, correction, spectators):
    corrected = apply_unitary(state, pauli_correction(*correction), (target,))
    return reduced_density(corrected, spectators + [target])


def _leaf(state):
    """A table of no measurement: its one leaf is ``state``."""
    return outcome_table(state.num_qubits, state.amplitudes[None], ())


def _leaf_output(table, target, correction, spectators):
    """The corrected output matrix of leaf 0 of ``table``: ``_leaf_outputs`` of one row."""
    return _leaf_outputs(table, np.zeros(1, dtype=np.intp), target, correction, spectators)[1][0]


def _bell_outcomes(state, pair):
    """(probability, collapsed amplitudes or None) of each Bell outcome, by ``_bell_stack``."""
    probs, _, outcomes, posts = _bell_stack(state.amplitudes[None], state.num_qubits, pair)
    kept = dict(zip(outcomes.tolist(), posts))
    return [(prob, kept.get(index)) for index, prob in enumerate(probs[:, 0].tolist())]


def _sparse_state(num_qubits, rng):
    """A state with many exact zeros and real, negative and imaginary entries."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    picks = rng.choice(2**num_qubits, size=min(3, 2**num_qubits), replace=False)
    amps[picks] = [1.0, -1.0j, -1.0][: len(picks)]
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


class TestRelabelledOutputs:
    """Each corrected output equals apply_unitary + reduced_density, bit for bit."""

    @pytest.mark.parametrize("kind", ["haar", "sparse", "basis"])
    def test_random_registers_with_spectators(self, kind):
        rng = make_rng(71)
        compared = 0
        for n in range(1, 8):
            for _ in range(4):
                if kind == "haar":
                    state = haar_random_state(n, rng)
                elif kind == "sparse":
                    state = _sparse_state(n, rng)
                else:
                    state = basis_state(n, int(rng.integers(2**n)))
                for target in range(n):
                    size = int(rng.integers(target + 1))
                    spectators = sorted(rng.choice(target, size=size, replace=False).tolist())
                    leaf = _leaf(state)
                    for correction in CORRECTIONS:
                        out = _leaf_output(leaf, target, correction, spectators)
                        fresh = _fresh_output(state, target, correction, spectators)
                        assert np.array_equal(out, fresh.matrix)
                        compared += 1
        assert compared > 100

    def test_uncorrected_output_is_the_partial_trace_itself(self):
        state = haar_random_state(4, make_rng(72))
        output = _leaf_output(_leaf(state), 3, (0, 0), [0, 1])
        trace = quantum._reduced_matrices(state.amplitudes[None], [0, 1, 3])[0]
        assert output.tobytes() == trace.tobytes()

    def test_target_must_be_the_last_kept_qubit(self):
        leaf = _leaf(haar_random_state(3, make_rng(73)))
        with pytest.raises(AssertionError):
            _leaf_output(leaf, 1, (1, 1), [0, 2])

    @pytest.mark.parametrize("b", [None, (0, 0), (0, 1), (1, 0), (1, 1)])
    def test_ten_qubit_probe_layout(self, b):
        probe = _entangled_probe()
        branches = channel_branches(probe, (3, 4, 5), b=b)
        assert len(branches) == 2 * 16 * 4
        if b is not None:
            assert {branch.correction for branch in branches} == set(CORRECTIONS)
        for branch in branches:
            _, state = measure_project(tensor([probe, PHI_PLUS, PHI_PLUS]), 5, branch.w)
            _, state = bell_project(state, (3, 6), branch.first_bell)
            _, state = bell_project(state, (4, 8), branch.second_bell)
            target = 7 if branch.w == 0 else 9
            fresh = _fresh_output(state, target, branch.correction, [0, 1, 2])
            assert np.array_equal(branch.output.matrix, fresh.matrix)

    @pytest.mark.parametrize("cuts", [[3], [150], [1, 2, 199], [50, 100, 150]])
    def test_blocks_split_any_way_give_the_whole_blocks_outputs(self, cuts, clear_box_caches):
        joint = tensor([haar_random_state(1, make_rng(75, q)) for q in range(3)])
        words = stream_words(75, np.arange(200), 4)
        (a1, a0), ids, stack, _, _ = _channel_block(joint, words, (0, 1, 2))
        clear_box_caches()  # the first part plays a fresh table, the later ones gather from it
        parts = [_channel_block(joint, block, (0, 1, 2)) for block in np.split(words, cuts)]
        assert np.array_equal(np.concatenate([part[0][0] for part in parts]), a1)
        assert np.array_equal(np.concatenate([part[0][1] for part in parts]), a0)
        outputs = np.concatenate([part[2][part[1]] for part in parts])
        assert outputs.tobytes() == stack[ids].tobytes()
        assert not stack.flags.writeable

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_relabelled_is_the_pauli_conjugation(self, dim):
        state = haar_random_state(5, make_rng(79, dim))
        rho = reduced_density(state, range(dim.bit_length() - 1)).matrix
        for correction in CORRECTIONS:
            pauli = np.kron(np.eye(dim // 2), pauli_correction(*correction).matrix)
            relabelled = _relabelled(rho, correction)
            assert relabelled.shape == rho.shape
            assert np.array_equal(relabelled, pauli @ rho @ pauli.conj().T)
        assert not qrac._SIGNS.flags.writeable


class TestEnumerationCost:
    """One stacked partial trace per target, a row per (leaf, target), no unitary applied."""

    @pytest.mark.parametrize("b", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("inputs", [(0, 1, 2), (2, 0, 3)])
    def test_one_reduced_density_per_leaf_target_and_no_unitary(self, monkeypatch, inputs, b):
        traced, applied, calls = [], [], []

        def spy_reduce(states, keep):
            traced.extend((state.tobytes(), tuple(keep)) for state in states)
            calls.append(tuple(keep))
            return reduce(states, keep)

        def spy_apply(*args, **kwargs):
            applied.append(args)
            return apply_unitary(*args, **kwargs)

        reduce = quantum._reduced_matrices  # the stacked partial trace behind reduced_density
        for module in (qrac, quantum):
            monkeypatch.setattr(module, "_reduced_matrices", spy_reduce)
            monkeypatch.setattr(module, "apply_unitary", spy_apply)
        joint = tensor([haar_random_state(1, make_rng(74, q)) for q in range(4)])
        branches = channel_branches(joint, inputs, b=b)
        assert applied == []
        leaves = {(br.w, br.first_bell, br.second_bell) for br in branches}
        assert len(traced) == len(set(traced)) == len(leaves) == 2 * 16
        (spectator,) = set(range(4)) - set(inputs)
        assert {keep for _, keep in traced} == {(spectator, 5), (spectator, 7)}
        assert sorted(calls) == [(spectator, 5), (spectator, 7)]  # one call per target


class TestStackedValidation:
    """Each enumeration checks its outputs as one stack, and checks all of them."""

    @pytest.mark.parametrize("b", [None, (0, 0), (1, 1)])
    @pytest.mark.parametrize("inputs", [(0, 1, 2), (2, 0, 3)])
    def test_one_stack_per_enumeration_and_no_single_check(self, monkeypatch, inputs, b):
        stacks, singles = [], []
        post_init = DensityMatrix.__post_init__

        def spy_stack(num_qubits, matrices):
            stacks.append(len(matrices))
            return checked(num_qubits, matrices)

        def spy_single(rho):
            singles.append(rho)
            post_init(rho)

        checked = quantum._checked_matrices
        monkeypatch.setattr(qrac, "_checked_matrices", spy_stack)
        monkeypatch.setattr(DensityMatrix, "__post_init__", spy_single)
        joint = tensor([haar_random_state(1, make_rng(77, q)) for q in range(4)])
        branches = channel_branches(joint, inputs, b=b)
        assert singles == []
        # each distinct output once: one per leaf and correction it is corrected by
        distinct = {(br.w, br.first_bell, br.second_bell, br.correction) for br in branches}
        assert stacks == [len(distinct)] == [len(branches.outputs)]

    def test_every_collapsed_state_is_checked(self, monkeypatch):
        # a Bell collapse off unit norm, the projections left honest
        monkeypatch.setattr(quantum, "_BELL_TENSOR", 1.01 * quantum._BELL_TENSOR)
        joint = tensor([haar_random_state(1, make_rng(80, q)) for q in range(3)])
        with pytest.raises(ValueError, match=r"^state not normalized: sum \|amp\|\^2 = 1\.02"):
            channel_branches(joint)

    def test_every_relabelled_output_is_checked(self, monkeypatch, clear_box_caches):
        monkeypatch.setattr(qrac, "_relabelled", lambda rho, bits: -_relabelled(rho, bits))
        joint = tensor([haar_random_state(1, make_rng(78, q)) for q in range(3)])
        # -rho is Hermitian; its spectrum is the first check it fails
        with pytest.raises(ValueError, match="^matrix has a negative eigenvalue$"):
            channel_branches(joint)
        with pytest.raises(ValueError, match="^matrix has a negative eigenvalue$"):
            _channel_block(joint, stream_words(78, np.arange(64), 4), (0, 1, 2))


class TestBellProjections:
    """All four outcomes from one operand, each as tensordot projects it alone."""

    @staticmethod
    def _reference(state, pair, index):
        p0, p1 = pair
        coeffs = np.tensordot(BELL_TENSOR[index].conj(), state.as_tensor(), axes=([0, 1], [p0, p1]))
        prob = float(np.sum(np.abs(coeffs) ** 2))
        if prob < PROB_FLOOR:
            return prob, None
        post = np.moveaxis(np.multiply.outer(BELL_TENSOR[index], coeffs / sqrt(prob)), [0, 1], pair)
        return prob, post.reshape(-1)

    @pytest.mark.parametrize("kind", ["haar", "basis"])
    def test_equal_to_single_projections_bit_for_bit(self, kind):
        rng = make_rng(75)
        pruned = 0
        for n in range(2, 10):
            for _ in range(3):
                if kind == "haar":
                    state = haar_random_state(n, rng)
                else:
                    state = basis_state(n, int(rng.integers(2**n)))
                for pair in [(0, 1), (1, 0), (n - 1, 0), (n - 2, n - 1)]:
                    if pair[0] == pair[1]:
                        continue
                    projections = _bell_outcomes(state, pair)
                    assert len(projections) == 4
                    for index, (prob, post) in enumerate(projections):
                        single = bell_project(state, pair, quantum._BELL_OUTCOMES[index])
                        ref_prob, ref_post = self._reference(state, pair, index)
                        assert prob == single[0] == ref_prob
                        if ref_post is None:
                            pruned += 1
                            assert post is None and single[1] is None
                        else:
                            assert np.array_equal(post, ref_post)
                            assert np.array_equal(single[1].amplitudes, ref_post)
        if kind == "basis":
            assert pruned > 0

    def test_bad_pairs_rejected(self):
        state = haar_random_state(3, make_rng(76))
        stack = np.stack([state.amplitudes, state.amplitudes])
        with pytest.raises(ValueError):
            _bell_outcomes(state, (1, 1))
        with pytest.raises(ValueError):
            _bell_outcomes(state, (0, 3))
        for pair in [(0,), (0, 1, 2)]:
            with pytest.raises(ValueError, match="needs two qubits"):
                _bell_outcomes(state, pair)
            with pytest.raises(ValueError, match="needs two qubits"):
                _bell_stack(stack, 3, pair)

    def test_shared_operands_are_read_only(self):
        assert not quantum._BELL_BRAS.flags.writeable


class TestBranchWiring:
    """Each enumerated branch is wired as fresh boxes wire it."""

    @pytest.mark.parametrize("b", [None, *CORRECTIONS])
    @pytest.mark.parametrize("register", ["probe", "plus-choice"])
    def test_branches_match_fresh_boxes(self, register, b):
        if register == "probe":
            joint, inputs = _entangled_probe(), (3, 4, 5)
        else:
            rng = make_rng(77)
            psi, phi = haar_random_state(1, rng), haar_random_state(1, rng)
            joint, inputs = _round_register(psi, phi, KET_PLUS), (0, 1, 2)
        branches = channel_branches(joint, inputs, b=b)
        assert len(branches) == 2 * 16 * 4
        for index, branch in enumerate(branches):
            coins = CORRECTIONS[index % 4]  # a leaf's coin pairs, in ``product`` order
            box0, box1 = PRBox(coin=coins[0]), PRBox(coin=coins[1])
            alice = _alice_side(branch.first_bell.index, branch.second_bell.index, box0, box1)
            pr_outputs, correction, _ = _bob_side(
                joint.num_qubits, branch.w, alice if b is None else b, box0, box1
            )
            wired = (branch.coins, branch.alice.bits, branch.pr_outputs, branch.correction)
            assert wired == (coins, alice, pr_outputs, correction)
            assert all(type(bit) is int for pair in wired for bit in pair)
