"""Exact enumeration at the cost of its distinct states.

``channel_branches`` takes one partial trace per (leaf, target) and
builds each Pauli-corrected output from it by a signed relabelling,
projects all four Bell outcomes of a pair from one transposed operand
(``quantum.bell_projections``) and reads the classical side of each
leaf from a cached wiring table.  Every float must be the one the
direct computation gives: these tests compare with ``np.array_equal``
against ``apply_unitary`` + ``reduced_density`` and against the
``np.tensordot`` projection of one outcome at a time.
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
    _leaf_output,
    _relabelling,
    _wiring,
    channel_branches,
)
from qracbox.quantum import (
    PHI_PLUS,
    PROB_FLOOR,
    OutcomeNode,
    StateVector,
    apply_unitary,
    basis_state,
    bell_project,
    bell_projections,
    haar_random_state,
    measure_project,
    pauli_correction,
    reduced_density,
    tensor,
)
from qracbox.rng import make_rng

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
                    leaf = OutcomeNode(state)
                    for correction in CORRECTIONS:
                        out = _leaf_output(leaf, target, correction, spectators)
                        fresh = _fresh_output(state, target, correction, spectators)
                        assert np.array_equal(out.matrix, fresh.matrix)
                        compared += 1
        assert compared > 100

    def test_uncorrected_output_is_the_partial_trace_itself(self):
        state = haar_random_state(4, make_rng(72))
        leaf = OutcomeNode(state)
        outputs = {c: _leaf_output(leaf, 3, c, [0, 1]) for c in CORRECTIONS}
        assert leaf.memo[(3, (0, 0))] is outputs[(0, 0)]
        assert all(_leaf_output(leaf, 3, c, [0, 1]) is outputs[c] for c in CORRECTIONS)
        assert len({id(out) for out in outputs.values()}) == 4

    def test_target_must_be_the_last_kept_qubit(self):
        leaf = OutcomeNode(haar_random_state(3, make_rng(73)))
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

    @pytest.mark.parametrize("dim", [2, 8])
    def test_relabelling_arrays_are_read_only(self, dim):
        for correction in CORRECTIONS:
            (rows, cols), sign = _relabelling(dim, correction)
            for array in (rows, cols, sign):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
        assert _relabelling(dim, (1, 1)) is _relabelling(dim, (1, 1))


class TestEnumerationCost:
    """One partial trace per (leaf, target), no unitary applied."""

    @pytest.mark.parametrize("b", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("inputs", [(0, 1, 2), (2, 0, 3)])
    def test_one_reduced_density_per_leaf_target_and_no_unitary(self, monkeypatch, inputs, b):
        traced, applied, held = [], [], []

        def spy_reduce(state, keep):
            held.append(state)  # so that no later state can reuse its id
            traced.append((id(state), tuple(keep)))
            return reduced_density(state, keep)

        def spy_apply(*args, **kwargs):
            applied.append(args)
            return apply_unitary(*args, **kwargs)

        for module in (qrac, quantum):
            monkeypatch.setattr(module, "reduced_density", spy_reduce)
            monkeypatch.setattr(module, "apply_unitary", spy_apply)
        joint = tensor([haar_random_state(1, make_rng(74, q)) for q in range(4)])
        branches = channel_branches(joint, inputs, b=b)
        assert applied == []
        leaves = {(br.w, br.first_bell, br.second_bell) for br in branches}
        assert len(traced) == len(set(traced)) == len(leaves) == 2 * 16
        (spectator,) = set(range(4)) - set(inputs)
        assert {keep for _, keep in traced} == {(spectator, 5), (spectator, 7)}


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
                    projections = bell_projections(state, pair)
                    assert len(projections) == 4
                    for index, (prob, post) in enumerate(projections):
                        single = bell_project(state, pair, quantum._BELL_OUTCOMES[index])
                        ref_prob, ref_post = self._reference(state, pair, index)
                        assert prob == single[0] == ref_prob
                        if ref_post is None:
                            pruned += 1
                            assert post is None and single[1] is None
                        else:
                            assert np.array_equal(post.amplitudes, ref_post)
                            assert np.array_equal(single[1].amplitudes, ref_post)
        if kind == "basis":
            assert pruned > 0

    def test_bad_pairs_rejected(self):
        state = haar_random_state(3, make_rng(76))
        with pytest.raises(ValueError):
            bell_projections(state, (1, 1))
        with pytest.raises(ValueError):
            bell_projections(state, (0, 3))

    def test_shared_operands_are_read_only(self):
        assert not quantum._BELL_BRAS.flags.writeable
        assert isinstance(quantum._pair_first(5, (3, 1)), tuple)
        assert quantum._pair_first(5, (3, 1)) == (3, 1, 0, 2, 4)


class TestWiringTable:
    """The cached classical rows are those of fresh boxes, and immutable."""

    @pytest.mark.parametrize("fixed_b", [None, *CORRECTIONS])
    def test_rows_match_fresh_boxes(self, fixed_b):
        for w, first, second in product((0, 1), quantum._BELL_OUTCOMES, quantum._BELL_OUTCOMES):
            rows = _wiring(7, w, first, second, fixed_b)
            assert isinstance(rows, tuple) and len(rows) == 4
            for row, coins in zip(rows, product((0, 1), repeat=2)):
                box0, box1 = PRBox(coin=coins[0]), PRBox(coin=coins[1])
                alice = _alice_side(first.index, second.index, box0, box1)
                bob = _bob_side(7, w, alice if fixed_b is None else fixed_b, box0, box1)
                assert isinstance(row, tuple)
                assert (row[0], row[1].bits, *row[2:]) == (coins, alice, *bob)
