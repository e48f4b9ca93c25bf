"""Tests for tomography, channel structure, mixtures, and dilations."""
from __future__ import annotations

from math import sqrt

import numpy as np
import pytest

from qracbox.channel import (
    ChoiMatrix,
    Dilation,
    SubchannelSet,
    build_dilation,
    environment_orthogonality_check,
    mixture_check,
    subchannels,
    tomography,
    verify_nonsignaling,
)
from qracbox.qrac import channel_branches
from qracbox.quantum import (
    KET0,
    KET1,
    KET_PLUS,
    density,
    haar_random_qubit,
    haar_random_state,
    tensor,
    trace_distance,
)
from qracbox.rng import make_rng


@pytest.fixture(scope="module")
def exact_choi() -> ChoiMatrix:
    return tomography()


@pytest.fixture(scope="module")
def exact_subchannels() -> SubchannelSet:
    return subchannels()


def direct_output(psi, phi, omega, b=None) -> np.ndarray:
    """Branch-averaged output straight from the simulator (the oracle
    the reconstructed channel is compared against)."""
    branches = channel_branches(tensor([psi, phi, omega]), b=b)
    return sum(br.probability * br.output.matrix for br in branches)


class TestTomography:
    def test_choi_is_psd(self, exact_choi):
        assert exact_choi.min_eigenvalue() >= -1e-8

    def test_choi_is_trace_preserving(self, exact_choi):
        assert exact_choi.tp_defect() <= 1e-8
        np.testing.assert_allclose(exact_choi.input_trace(), np.eye(8), atol=1e-8)

    def test_reconstruction_matches_basis_case(self, exact_choi):
        rho_in = density(tensor([KET0, KET1, KET0])).matrix
        out = exact_choi.apply(rho_in)
        np.testing.assert_allclose(out, density(KET0).matrix, atol=1e-8)

    def test_reconstruction_matches_simulator_on_random_inputs(self, exact_choi):
        rng = make_rng(31)
        for _ in range(20):
            psi, phi, omega = (haar_random_qubit(rng) for _ in range(3))
            rho_in = density(tensor([psi, phi, omega])).matrix
            np.testing.assert_allclose(
                exact_choi.apply(rho_in), direct_output(psi, phi, omega), atol=1e-8
            )

    def test_sampled_mode_roughly_agrees(self, exact_choi):
        sampled = tomography(mode="sampled", trials=3000, seed=5)
        assert np.max(np.abs(sampled.matrix - exact_choi.matrix)) < 0.5
        assert sampled.atol > 1e-8

    def test_sampled_mode_needs_trials_and_seed(self):
        with pytest.raises(ValueError):
            tomography(mode="sampled")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            tomography(mode="exactish")

    def test_json_round_trip(self, exact_choi):
        data = exact_choi.to_json_dict()
        back = ChoiMatrix.from_json_dict(data)
        np.testing.assert_allclose(back.matrix, exact_choi.matrix, atol=1e-15)


class TestSubchannels:
    def test_parts_sum_to_total(self, exact_subchannels):
        assert exact_subchannels.decomposition_defect() <= 1e-8

    def test_each_part_is_completely_positive(self, exact_subchannels):
        for part in exact_subchannels.parts.values():
            assert part.min_eigenvalue() >= -1e-8

    def test_each_part_carries_quarter_weight(self, exact_subchannels):
        for part in exact_subchannels.parts.values():
            np.testing.assert_allclose(part.input_trace(), np.eye(8) / 4, atol=1e-8)

    def test_incomplete_label_set_rejected(self, exact_subchannels):
        parts = dict(exact_subchannels.parts)
        del parts[(0, 0)]
        with pytest.raises(ValueError):
            SubchannelSet(exact_subchannels.total, parts)


class TestChoiValidation:
    def test_non_psd_rejected(self):
        mat = np.diag([1.0] * 15 + [-1.0])
        with pytest.raises(ValueError):
            ChoiMatrix(8, 2, mat)

    def test_non_hermitian_rejected(self):
        mat = np.eye(16, dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            ChoiMatrix(8, 2, mat)

    def test_non_finite_rejected(self):
        mat = np.eye(16, dtype=complex) / 2
        mat[3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ChoiMatrix(8, 2, mat)

    def test_apply_validates_input_shape(self, exact_choi):
        with pytest.raises(ValueError):
            exact_choi.apply(np.eye(4))


class TestMixtureLaw:
    def test_pure_first_choice(self):
        report = mixture_check(1.0, 0.0, KET_PLUS, KET1)
        assert report["metrics"]["trace_distance"] <= 1e-8
        assert all(c["pass"] for c in report["checks"])

    def test_balanced_orthogonal_inputs_give_maximally_mixed(self):
        report = mixture_check(1 / sqrt(2), 1 / sqrt(2), KET0, KET1)
        out = np.asarray(report["metrics"]["output"]["re"]) + 1j * np.asarray(
            report["metrics"]["output"]["im"]
        )
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-8)

    def test_uneven_weights_with_non_orthogonal_inputs(self):
        rng = make_rng(17)
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        report = mixture_check(sqrt(1 / 3), sqrt(2 / 3), psi, phi)
        assert report["metrics"]["trace_distance"] <= 1e-8
        assert report["metrics"]["subchannel_max_distance"] <= 1e-8

    def test_complex_phase_on_beta(self):
        report = mixture_check(sqrt(0.25), sqrt(0.75) * np.exp(0.7j), KET_PLUS, KET0)
        assert all(c["pass"] for c in report["checks"])

    def test_grid_of_weights_and_random_pairs(self):
        rng = make_rng(18)
        for alpha_sq in (0.0, 0.25, 0.5, 0.75, 1.0):
            for _ in range(4):
                psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
                report = mixture_check(sqrt(alpha_sq), sqrt(1 - alpha_sq), psi, phi)
                assert report["metrics"]["trace_distance"] <= 1e-8
                assert report["metrics"]["subchannel_max_distance"] <= 1e-8

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError):
            mixture_check(1.0, 0.5, KET0, KET1)


class TestDilation:
    def test_identity_channel_has_one_dim_environment(self):
        # Choi of the 2-dim identity channel, in the same convention
        omega = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                omega[i * 2 + i, j * 2 + j] = 1.0
        dil = build_dilation(ChoiMatrix(2, 2, omega))
        assert dil.env_dim == 1
        rho = density(haar_random_qubit(make_rng(1))).matrix
        np.testing.assert_allclose(dil.output_state(rho), rho, atol=1e-10)

    def test_isometry_property(self, exact_choi):
        dil = build_dilation(exact_choi)
        assert dil.isometry_defect() <= 1e-8
        assert dil.env_dim <= 16

    def test_tracing_environment_reproduces_channel(self, exact_choi):
        dil = build_dilation(exact_choi)
        rng = make_rng(19)
        for _ in range(20):
            rho = density(haar_random_state(3, rng)).matrix
            np.testing.assert_allclose(
                dil.output_state(rho), exact_choi.apply(rho), atol=1e-8
            )

    def test_non_cptp_input_rejected(self):
        mat = np.eye(16) / 4  # PSD but trace decreasing (Tr_out = I/2)
        with pytest.raises(ValueError):
            build_dilation(ChoiMatrix(8, 2, mat))

    def test_bad_isometry_rejected(self):
        with pytest.raises(ValueError):
            Dilation(2, 2, 1, np.ones((4, 2)))


@pytest.fixture(scope="module")
def dilation(exact_choi) -> Dilation:
    return build_dilation(exact_choi)


class TestEnvironmentOrthogonality:

    def test_non_orthogonal_inputs(self, dilation):
        report = environment_orthogonality_check(dilation, KET0, KET_PLUS)
        assert report["metrics"]["overlap"] <= 1e-6
        assert report["metrics"]["min_residual_purity"] >= 1 - 1e-6

    def test_orthogonal_inputs(self, dilation):
        report = environment_orthogonality_check(dilation, KET0, KET1)
        assert report["metrics"]["overlap"] <= 1e-6

    def test_fifty_random_pairs(self, dilation):
        rng = make_rng(20)
        worst = 0.0
        for _ in range(50):
            report = environment_orthogonality_check(
                dilation, haar_random_qubit(rng), haar_random_qubit(rng)
            )
            worst = max(worst, report["metrics"]["overlap"])
        assert worst <= 1e-6


class TestNonsignaling:
    def test_exact_distributions_identical(self):
        report = verify_nonsignaling(trials=0, seed=0)
        assert report["metrics"]["exact_alice_tv"] <= 1e-12
        assert report["metrics"]["bob_withheld_trace_distance"] <= 1e-8
        assert all(c["pass"] for c in report["checks"])

    def test_sampled_mode(self):
        report = verify_nonsignaling(trials=10**4, seed=23, mode="sampled")
        assert report["metrics"]["sampled_alice_tv"] <= 0.05
        assert "sampled_trials" in report["metrics"]

    def test_sampled_mode_needs_enough_trials(self):
        with pytest.raises(ValueError):
            verify_nonsignaling(trials=100, seed=0, mode="sampled")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            verify_nonsignaling(trials=0, seed=0, mode="guess")

    def test_custom_input_pair(self):
        rng = make_rng(24)
        report = verify_nonsignaling(
            trials=0,
            seed=0,
            psi=haar_random_qubit(rng),
            phi=haar_random_qubit(rng),
        )
        assert report["metrics"]["exact_alice_tv"] <= 1e-12

    def test_withheld_marginals_agree_across_named_pairs(self):
        from qracbox.quantum import KET_MINUS

        # both marginals are I/2, hence equal to each other
        avgs = []
        for psi, phi in ((KET0, KET0), (KET_PLUS, KET_MINUS)):
            branches = channel_branches(tensor([psi, phi, KET0]), b=(0, 0))
            avgs.append(sum(b.probability * b.output.matrix for b in branches))
        assert trace_distance(avgs[0], avgs[1]) <= 1e-8
        assert trace_distance(avgs[0], np.eye(2) / 2) <= 1e-8
