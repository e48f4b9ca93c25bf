"""Tests for the state machinery: construction, gates, measurements, traces."""
from __future__ import annotations

from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracbox.quantum import (
    KET0,
    KET1,
    KET_PLUS,
    PHI_PLUS,
    _BELL,
    BellOutcome,
    DensityMatrix,
    OutcomeNode,
    StateVector,
    UnitaryMatrix,
    apply_unitary,
    basis_state,
    bell_measure,
    bell_project,
    bell_projections,
    density,
    density_matrices,
    fidelity,
    haar_random_qubit,
    haar_random_state,
    make_pure_qubit,
    measure_computational,
    measure_project,
    partial_trace,
    pauli_correction,
    reduced_density,
    tensor,
    trace_distance,
)

import oracles


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestTypes:
    def test_state_vector_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            StateVector(1, np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(1, np.array([[0.5, bad], [0.0, 0.5]]))

    def test_state_vector_is_immutable(self):
        with pytest.raises(ValueError):
            KET0.amplitudes[0] = 0.0

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2))

    def test_unitary_rejected_if_not_unitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(2, np.array([[1, 1], [0, 1]]))

    def test_bell_outcome_bits(self):
        out = BellOutcome(1, 0)
        assert out.bits == (1, 0)
        assert out.index == 2
        with pytest.raises(ValueError):
            BellOutcome(2, 0)


def _two_qubit_states(count: int, seed: int) -> np.ndarray:
    """Mixed two-qubit states: halves of Haar-random three-qubit states."""
    rng = rng_for(seed)
    return np.stack([reduced_density(haar_random_state(3, rng), [0, 2]).matrix for _ in range(count)])


# each defect, and the message DensityMatrix raises for it alone
DEFECTS = {
    "non-finite": (np.diag([np.nan, 0.5, 0.5, 0.0]), "matrix has a non-finite entry"),
    # entry (2, 3) alone: a check that stops at the first rows misses it
    "non-Hermitian": (np.eye(4) / 4 + np.diag([0.0, 0.0, 0.1], k=1), "matrix is not Hermitian"),
    "negative eigenvalue": (np.diag([0.75, 0.5, -0.25, 0.0]), "matrix has a negative eigenvalue"),
    # each diagonal entry within the Hermitian tolerance, their sum beyond it
    "complex trace": (np.eye(4) / 4 + np.eye(4) * 4.5e-11j, "trace is not real"),
    "trace not 1": (np.diag([0.7, 0.2, 0.2, 0.3]), "trace is not 1: 1.4"),
}


class TestDensityMatrices:
    """A stack is checked at once, exactly as DensityMatrix checks each matrix."""

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_defect_raises_the_message_of_its_matrix_alone(self, defect, position):
        bad, message = DEFECTS[defect]
        with pytest.raises(ValueError) as alone:
            DensityMatrix(2, bad)
        assert str(alone.value) == message
        stack = _two_qubit_states(7, 5)
        stack[position] = bad
        with pytest.raises(ValueError) as stacked:
            density_matrices(2, stack)
        assert str(stacked.value) == message

    def test_valid_stack_is_wrapped_read_only_and_byte_equal(self):
        stack = _two_qubit_states(9, 6)
        expected = [DensityMatrix(2, m).matrix.tobytes() for m in stack]
        wrapped = density_matrices(2, stack)
        assert [rho.matrix.tobytes() for rho in wrapped] == expected
        assert all(type(rho) is DensityMatrix and rho.num_qubits == 2 for rho in wrapped)
        for rho in wrapped:
            assert not rho.matrix.flags.writeable
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 0.0
        stack[:] = np.nan  # the caller's array is copied, not kept
        assert [rho.matrix.tobytes() for rho in wrapped] == expected

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (1, 4, 4, 1)])
    def test_stack_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a stack of 2-qubit matrices"):
            density_matrices(2, np.zeros(shape))


class TestMakePureQubit:
    def test_north_pole_is_ket0(self):
        assert fidelity(density(make_pure_qubit(0, 0)), KET0) == pytest.approx(1.0, abs=1e-12)

    def test_south_pole_is_ket1(self):
        assert fidelity(density(make_pure_qubit(pi, 0)), KET1) == pytest.approx(1.0, abs=1e-12)

    def test_equator_y_state(self):
        # direct evaluation: cos(pi/4)|0> + e^{i pi/2} sin(pi/4)|1>
        expected = np.array([1, 1j]) / sqrt(2)
        got = make_pure_qubit(pi / 2, pi / 2).amplitudes
        assert np.abs(np.vdot(expected, got)) == pytest.approx(1.0, abs=1e-12)


class TestTensor:
    def test_basis_product(self):
        s = tensor([KET0, KET1])
        assert s.num_qubits == 2
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_singleton_identity(self):
        s = tensor([PHI_PLUS])
        np.testing.assert_allclose(s.amplitudes, PHI_PLUS.amplitudes)

    def test_plus_plus_uniform(self):
        expected = oracles.kron_all([KET_PLUS.amplitudes, KET_PLUS.amplitudes])
        got = tensor([KET_PLUS, KET_PLUS]).amplitudes
        np.testing.assert_allclose(got, expected, atol=1e-15)
        np.testing.assert_allclose(np.abs(got), 0.5, atol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            tensor([])


class TestApplyUnitary:
    def test_x_flips_ket0(self):
        out = apply_unitary(KET0, pauli_correction(0, 1), [0])
        assert fidelity(density(out), KET1) == pytest.approx(1.0, abs=1e-12)

    def test_correction_inverts_pauli_error(self):
        # Z^t X^s applied after X^s Z^t restores any state (up to phase).
        rng = rng_for(11)
        for _ in range(25):
            psi = haar_random_qubit(rng)
            for t in (0, 1):
                for s in (0, 1):
                    damaged = apply_unitary(psi, pauli_correction(0, s), [0])
                    damaged = apply_unitary(damaged, pauli_correction(t, 0), [0])
                    # now X^s then Z^t have been applied; undo with Z^t X^s
                    fixed = apply_unitary(damaged, pauli_correction(t, s), [0])
                    assert fidelity(density(fixed), psi) == pytest.approx(1.0, abs=1e-12)

    def test_z_on_either_half_of_phi_plus_agrees(self):
        a = apply_unitary(PHI_PLUS, pauli_correction(1, 0), [0])
        b = apply_unitary(PHI_PLUS, pauli_correction(1, 0), [1])
        assert np.abs(np.vdot(a.amplitudes, b.amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_full_matrix_oracle(self):
        rng = rng_for(5)
        for _ in range(10):
            state = haar_random_state(3, rng)
            u = UnitaryMatrix(4, oracles.haar_unitary(4, rng))
            targets = list(rng.permutation(3)[:2])
            expected = oracles.embed_unitary(u.matrix, targets, 3) @ state.amplitudes
            got = apply_unitary(state, u, targets).amplitudes
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(PHI_PLUS, pauli_correction(0, 1), [0, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(KET0, pauli_correction(0, 1), [1])

    def test_duplicate_targets_rejected(self):
        u4 = UnitaryMatrix(4, oracles.haar_unitary(4, rng_for(0)))
        with pytest.raises(ValueError):
            apply_unitary(PHI_PLUS, u4, [0, 0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_norm_preserved(self, seed):
        rng = rng_for(seed)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 2) + 1))
        state = haar_random_state(n, rng)
        u = UnitaryMatrix(2**k, oracles.haar_unitary(2**k, rng))
        targets = list(rng.permutation(n)[:k])
        out = apply_unitary(state, u, targets)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12


class TestBellMeasurement:
    def test_projectors_complete(self):
        total = sum(np.outer(row, row.conj()) for row in _BELL)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_phi_plus_gives_00(self):
        prob, post = bell_project(PHI_PLUS, (0, 1), BellOutcome(0, 0))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.vdot(post.amplitudes, PHI_PLUS.amplitudes)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_x_encoded_pair_gives_01(self):
        state = apply_unitary(PHI_PLUS, pauli_correction(0, 1), [0])
        expected = oracles.bell_probabilities(state.amplitudes, (0, 1), 2)
        np.testing.assert_allclose(expected, [0, 1, 0, 0], atol=1e-12)
        outcome, _ = bell_measure(state, (0, 1), rng_for(3))
        assert outcome == BellOutcome(0, 1)

    def test_teleportation_probabilities_and_collapse(self):
        # measuring (input, EPR half) leaves the far qubit Pauli-shifted
        rng = rng_for(21)
        for _ in range(20):
            psi = haar_random_qubit(rng)
            joint = tensor([psi, PHI_PLUS])
            probs = oracles.bell_probabilities(joint.amplitudes, (0, 1), 3)
            np.testing.assert_allclose(probs, 0.25, atol=1e-12)
            for t in (0, 1):
                for s in (0, 1):
                    prob, post = bell_project(joint, (0, 1), BellOutcome(t, s))
                    assert prob == pytest.approx(0.25, abs=1e-12)
                    far = reduced_density(post, [2])
                    shifted = apply_unitary(
                        apply_unitary(psi, pauli_correction(t, 0), [0]),
                        pauli_correction(0, s),
                        [0],
                    )
                    # collapse to X^s Z^t |psi> means fidelity 1 with it
                    assert fidelity(far, shifted) == pytest.approx(1.0, abs=1e-10)

    def test_sampled_outcome_matches_oracle_distribution(self):
        state = tensor([haar_random_qubit(rng_for(8)), PHI_PLUS])
        expected = oracles.bell_probabilities(state.amplitudes, (0, 1), 3)
        rng = rng_for(123)
        counts = np.zeros(4)
        for _ in range(4000):
            outcome, _ = bell_measure(state, (0, 1), rng)
            counts[outcome.index] += 1
        assert oracles.tv_distance_arrays(counts / 4000, expected) < 0.03

    def test_unsorted_pair_matches_oracle(self):
        # the first pair element always carries the X factor
        rng = rng_for(31)
        state = haar_random_state(3, rng)
        for t in (0, 1):
            for s in (0, 1):
                b = oracles.bell_vector(t, s)
                proj = oracles.embed_unitary(np.outer(b, b.conj()), [2, 0], 3)
                expected = float(
                    np.real(state.amplitudes.conj() @ proj @ state.amplitudes)
                )
                prob, post = bell_project(state, (2, 0), BellOutcome(t, s))
                assert prob == pytest.approx(expected, abs=1e-12)
                collapsed = proj @ state.amplitudes / np.sqrt(expected)
                assert np.abs(np.vdot(collapsed, post.amplitudes)) == pytest.approx(
                    1.0, abs=1e-12
                )

    @pytest.mark.parametrize(
        "measure",
        [lambda pair: bell_measure(PHI_PLUS, pair, rng_for(0)),
         lambda pair: bell_projections(PHI_PLUS, pair)],
        ids=["bell_measure", "bell_projections"],
    )
    def test_coincident_indices_rejected(self, measure):
        with pytest.raises(ValueError, match=r"^duplicate qubit indices in "):
            measure((1, 1))


class TestOutcomeNode:
    def test_probabilities_are_the_born_rule(self):
        state = tensor([haar_random_qubit(rng_for(40)), PHI_PLUS])
        node = OutcomeNode(state, [("bell", (0, 1)), ("computational", 2)])
        expected = oracles.bell_probabilities(state.amplitudes, (0, 1), 3)
        np.testing.assert_allclose(node.probs, expected, atol=1e-12)
        assert sum(node.probs) == pytest.approx(1.0, abs=1e-12)

    def test_draw_matches_bell_measure_and_reuses_children(self):
        state = tensor([haar_random_qubit(rng_for(41)), PHI_PLUS])
        node = OutcomeNode(state, [("bell", (0, 1)), ("computational", 2)])
        seen = {}
        for seed in range(40):
            outcome, post = bell_measure(state, (0, 1), rng_for(seed))
            rng = rng_for(seed)
            index, child = node.draw(rng)
            assert index == outcome.index
            assert np.array_equal(child.state.amplitudes, post.amplitudes)
            # one uniform per measurement, as bell_measure draws
            reference = rng_for(seed)
            reference.random()
            assert rng.random() == reference.random()
            assert seen.setdefault(index, child) is child
            assert child.probs is not None  # the computational measurement is next
            _, leaf = child.draw(rng_for(seed))
            assert leaf.probs is None
            assert child.draw(rng_for(seed))[1] is leaf
        assert len(seen) > 1

    def test_computational_draw_matches_measure_computational(self):
        state = haar_random_state(3, rng_for(42))
        node = OutcomeNode(state, [("computational", 1)])
        for seed in range(20):
            bit, post = measure_computational(state, 1, rng_for(seed))
            index, child = node.draw(rng_for(seed))
            assert index == bit
            assert np.array_equal(child.state.amplitudes, post.amplitudes)


class TestTeleportationIdentity:
    def test_every_branch_recovers_the_state(self):
        rng = rng_for(77)
        for _ in range(200):
            psi = haar_random_qubit(rng)
            joint = tensor([psi, PHI_PLUS])
            for t in (0, 1):
                for s in (0, 1):
                    prob, post = bell_project(joint, (0, 1), BellOutcome(t, s))
                    assert prob == pytest.approx(0.25, abs=1e-12)
                    corrected = apply_unitary(post, pauli_correction(t, s), [2])
                    assert fidelity(reduced_density(corrected, [2]), psi) >= 1 - 1e-10


class TestComputationalMeasurement:
    def test_basis_state_is_certain(self):
        bit, post = measure_computational(KET0, 0, rng_for(0))
        assert bit == 0
        assert fidelity(density(post), KET0) == pytest.approx(1.0, abs=1e-12)

    def test_forced_projection_probabilities(self):
        state = make_pure_qubit(2 * np.arccos(sqrt(0.3)), 0.4)
        p0, _ = measure_project(state, 0, 0)
        p1, _ = measure_project(state, 0, 1)
        assert p0 == pytest.approx(0.3, abs=1e-12)
        assert p1 == pytest.approx(0.7, abs=1e-12)

    def test_born_frequency(self):
        state = StateVector(1, np.array([1, 1j]) / sqrt(2))
        rng = rng_for(2024)
        zeros = 0
        trials = 10**5
        for _ in range(trials):
            bit, _ = measure_computational(state, 0, rng)
            zeros += bit == 0
        assert abs(zeros / trials - 0.5) < 0.01

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            measure_computational(KET0, 1, rng_for(0))


class TestPartialTrace:
    def test_half_of_phi_plus_is_maximally_mixed(self):
        rho = density(PHI_PLUS)
        reduced = partial_trace(rho, [0])
        expected = oracles.loop_partial_trace(rho.matrix, [0], 2)
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_keep_everything_is_identity(self):
        rho = density(PHI_PLUS)
        np.testing.assert_allclose(partial_trace(rho, [0, 1]).matrix, rho.matrix)

    def test_product_state_factorizes(self):
        rng = rng_for(4)
        a, b = haar_random_qubit(rng), haar_random_state(2, rng)
        rho = density(tensor([a, b]))
        np.testing.assert_allclose(
            partial_trace(rho, [0]).matrix, density(a).matrix, atol=1e-12
        )

    def test_empty_keep_returns_scalar_trace(self):
        assert partial_trace(density(PHI_PLUS), []) == pytest.approx(1.0)

    def test_matches_loop_oracle_on_random_states(self):
        rng = rng_for(9)
        for _ in range(5):
            state = haar_random_state(4, rng)
            keep = sorted(rng.permutation(4)[:2].tolist())
            rho = density(state)
            expected = oracles.loop_partial_trace(rho.matrix, keep, 4)
            np.testing.assert_allclose(partial_trace(rho, keep).matrix, expected, atol=1e-12)
            np.testing.assert_allclose(reduced_density(state, keep).matrix, expected, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tracing_second_factor_returns_first(self, seed):
        rng = rng_for(seed)
        a = haar_random_state(2, rng)
        b = haar_random_qubit(rng)
        rho = density(tensor([a, b]))
        out = partial_trace(rho, [0, 1])
        assert np.max(np.abs(out.matrix - density(a).matrix)) < 1e-12


class TestFidelity:
    def test_projector_on_itself(self):
        assert fidelity(density(KET0), KET0) == pytest.approx(1.0)

    def test_maximally_mixed_is_half(self):
        mixed = DensityMatrix(1, np.eye(2) / 2)
        for state in (KET0, KET1, KET_PLUS):
            assert fidelity(mixed, state) == pytest.approx(0.5, abs=1e-12)

    def test_pure_states_inner_product(self):
        rng = rng_for(6)
        for _ in range(20):
            a, b = haar_random_qubit(rng), haar_random_qubit(rng)
            expected = np.abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2
            assert fidelity(density(a), b) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity(density(PHI_PLUS), KET0)


class TestTraceDistance:
    def test_orthogonal_states_are_distance_one(self):
        assert trace_distance(density(KET0), density(KET1)) == pytest.approx(1.0)

    def test_identical_states_are_distance_zero(self):
        assert trace_distance(density(KET_PLUS), density(KET_PLUS)) == pytest.approx(0.0)

    def test_accepts_raw_arrays(self):
        assert trace_distance(np.eye(2) / 2, density(KET0)) == pytest.approx(0.5)


class TestBasisState:
    def test_index_encoding(self):
        s = basis_state(3, 0b011)
        assert s.amplitudes[3] == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)
