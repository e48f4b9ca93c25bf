"""Tests for tomography, channel structure, mixtures, and dilations."""
from __future__ import annotations

import os
import subprocess
import sys
from math import sqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qracbox
from qracbox import channel as channel_module
from qracbox import qrac as qrac_module
from qracbox import quantum as quantum_module
from qracbox.boxes import tv_distance
from qracbox.channel import (
    D_IN,
    ChoiMatrix,
    Dilation,
    SubchannelSet,
    _default_contrast,
    _entangled_probe,
    _probe_sums,
    build_dilation,
    environment_orthogonality_check,
    mixture_check,
    subchannels,
    tomography,
    verify_nonsignaling,
)
from qracbox.qrac import (
    _channel_block,
    _sampled_rounds,
    _stacked_branches,
    branch_sums,
    channel_branches,
)
from qracbox.quantum import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    density,
    haar_random_qubit,
    haar_random_state,
    tensor,
    trace_distance,
)
from qracbox.rng import make_rng, stream_words

import oracles


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
        out = oracles.choi_apply(exact_choi.matrix, rho_in, 8, 2)
        np.testing.assert_allclose(out, density(KET0).matrix, atol=1e-8)

    def test_reconstruction_matches_simulator_on_random_inputs(self, exact_choi):
        rng = make_rng(31)
        for _ in range(20):
            psi, phi, omega = (haar_random_qubit(rng) for _ in range(3))
            rho_in = density(tensor([psi, phi, omega])).matrix
            np.testing.assert_allclose(
                oracles.choi_apply(exact_choi.matrix, rho_in, 8, 2),
                direct_output(psi, phi, omega),
                atol=1e-8,
            )

    def test_sampled_mode_roughly_agrees(self, exact_choi):
        sampled = tomography(mode="sampled", trials=3000, seed=5)
        assert np.max(np.abs(sampled.matrix - exact_choi.matrix)) < 0.5
        # a weighted sum of checked outputs passes the exact 1e-8 check
        assert sampled.min_eigenvalue() >= -1e-8

    def test_sampled_mode_is_checked_at_the_exact_tolerance(self, monkeypatch):
        # every trial gets one Hermitian output with eigenvalue -0.01, so the
        # estimate has eigenvalue -0.08: far inside 64 / sqrt(1000) = 2.02
        outputs = np.diag([1.01, -0.01] + [0.0] * 14)[None]

        table = SimpleNamespace(paths=np.zeros((1, 3), dtype=np.intp), probabilities=np.ones(1))

        def block(joint, words, inputs):
            ends = np.zeros(len(words), dtype=np.intp)
            return (ends, ends), ends, outputs, ends, table

        monkeypatch.setattr(channel_module, "_channel_block", block)
        with pytest.raises(ValueError, match="^Choi matrix is not PSD"):
            tomography(mode="sampled", trials=1000, seed=5)

    def test_sampled_mode_needs_trials_and_seed(self):
        with pytest.raises(ValueError):
            tomography(mode="sampled")

    @pytest.mark.parametrize("trials", [0, -5, 2.5, True])
    def test_sampled_mode_rejects_a_bad_trial_count(self, trials):
        with pytest.raises(ValueError, match="trials >= 1"):
            tomography(mode="sampled", trials=trials, seed=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            tomography(mode="exactish")

    def test_json_round_trip(self, exact_choi):
        data = exact_choi.to_json_dict()
        back = ChoiMatrix(
            data["d_in"], data["d_out"], np.asarray(data["re"]) + 1j * np.asarray(data["im"])
        )
        np.testing.assert_allclose(back.matrix, exact_choi.matrix, atol=1e-15)


class TestChannelIdentity:
    """The exact channel is S, for every input: measure the choice, return
    the chosen slot, discard the other.  A channel is fixed by its Choi
    matrix, so this certifies recovery, the mixture law and the
    subchannel law on entangled inputs too."""

    def test_choi_is_the_selection_channel(self, exact_choi):
        assert np.max(np.abs(exact_choi.matrix - oracles.selection_choi())) <= 1e-15

    def test_each_subchannel_is_a_quarter_of_it(self, exact_subchannels):
        quarter = oracles.selection_choi() / 4
        for part in exact_subchannels.parts.values():
            assert np.max(np.abs(part.matrix - quarter)) <= 1e-15


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

    # the last three are too large to square
    @pytest.mark.parametrize("alpha", [1.0, 1e200, 1e200j, complex(1e308, 1e308)])
    def test_unnormalized_weights_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"must be 1, got"):
            mixture_check(alpha, 0.5, KET0, KET1)


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
        output = oracles.dilation_output(dil.isometry, rho, dil.d_out, dil.env_dim)
        np.testing.assert_allclose(output, rho, atol=1e-10)

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
                oracles.dilation_output(dil.isometry, rho, dil.d_out, dil.env_dim),
                oracles.choi_apply(exact_choi.matrix, rho, 8, 2),
                atol=1e-8,
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

    @pytest.mark.parametrize("trials", [10000.5, float("nan"), 20000.0, "20000"])
    def test_sampled_mode_rejects_a_non_integer_trial_count(self, trials):
        with pytest.raises(ValueError, match="integer number of trials >= 10000"):
            verify_nonsignaling(trials, 0, "sampled")

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


def _loop_sums(branches, scale):
    """The hand-written reduction: Alice's distribution, total, per-bits parts."""
    dist = np.zeros(4)
    dim = branches[0].output.matrix.shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    parts = {(a1, a0): np.zeros((dim, dim), dtype=complex) for a1 in (0, 1) for a0 in (0, 1)}
    for branch in branches:
        dist[branch.alice.index] += branch.probability
        contribution = scale * branch.probability * branch.output.matrix
        total += contribution
        parts[branch.alice.bits] += contribution
    return dist, total, parts


def _reference_nonsignaling(psi, phi):
    """Exact non-signaling metrics from 3 wired plus 6 withheld enumerations,
    of (psi, phi) and of the contrast pair (|+>, |->)."""
    dists = []
    for omega in (KET0, KET1, KET_PLUS):
        dist = np.zeros(4)
        for branch in channel_branches(tensor([psi, phi, omega])):
            dist[branch.alice.index] += branch.probability
        dists.append(dist)
    exact_tv = max(
        tv_distance(dists[i], dists[j]) for i in range(3) for j in range(i + 1, 3)
    )
    withheld = 0.0
    for pair in (psi, phi), (KET_PLUS, KET_MINUS):
        for omega in (KET0, KET1, KET_PLUS):
            branches = channel_branches(tensor([pair[0], pair[1], omega]), b=(0, 0))
            avg = sum(b.probability * b.output.matrix for b in branches)
            withheld = max(withheld, trace_distance(avg, np.eye(2) / 2))
    return {"exact_alice_tv": exact_tv, "bob_withheld_trace_distance": withheld}


class TestBranchSums:
    """One reduction of an enumeration gives the floats of the loops it replaced."""

    def _assert_same(self, got, want):
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert list(got[2]) == list(want[2])
        assert all(np.array_equal(got[2][bits], want[2][bits]) for bits in want[2])

    def test_probe_choi_sums(self):
        branches = channel_branches(_entangled_probe(), (3, 4, 5))
        self._assert_same(branch_sums(branches, D_IN), _loop_sums(branches, D_IN))

    @pytest.mark.parametrize("b", [None, (0, 0)])
    def test_qubit_inputs_with_superposed_choice(self, b):
        rng = make_rng(43)
        for _ in range(4):
            joint = tensor([haar_random_qubit(rng), haar_random_qubit(rng), haar_random_qubit(rng)])
            branches = channel_branches(joint, b=b)
            self._assert_same(branch_sums(branches), _loop_sums(branches, 1))
            assert np.array_equal(
                branch_sums(branches)[1], sum(br.probability * br.output.matrix for br in branches)
            )


class TestNonsignalingReference:
    """verify_nonsignaling reads Alice's distributions off the withheld enumerations."""

    def _assert_matches_reference(self, psi, phi):
        report = verify_nonsignaling(0, 0, psi=psi, phi=phi)
        reference = _reference_nonsignaling(psi, phi)
        for name, value in reference.items():
            assert report["metrics"][name] == value

    def test_haar_random_pairs(self):
        rng = make_rng(44)
        for _ in range(8):
            self._assert_matches_reference(haar_random_qubit(rng), haar_random_qubit(rng))

    @pytest.mark.parametrize(
        "psi,phi", [(KET_PLUS, KET_MINUS), (KET_PLUS, KET0), (KET0, KET1)]
    )
    def test_named_pairs(self, psi, phi):
        self._assert_matches_reference(psi, phi)


def _reference_orthogonality(dil, psi, phi):
    """Residual overlap and purity with the inputs built by np.kron."""
    residuals, purities = [], []
    for choice in (KET0, KET1):
        vec = np.kron(np.kron(psi.amplitudes, phi.amplitudes), choice.amplitudes)
        chi, top = oracles.environment_residual(dil.isometry, vec, dil.d_out, dil.env_dim)
        residuals.append(chi)
        purities.append(top)
    return float(np.abs(np.vdot(residuals[0], residuals[1]))), min(purities)


class TestOrthogonalityReference:
    def test_metrics_equal_the_kron_reference(self, dilation):
        rng = make_rng(45)
        pairs = [(KET0, KET1), (KET_PLUS, KET_MINUS)]
        pairs += [(haar_random_qubit(rng), haar_random_qubit(rng)) for _ in range(20)]
        for psi, phi in pairs:
            metrics = environment_orthogonality_check(dilation, psi, phi)["metrics"]
            overlap, purity = _reference_orthogonality(dilation, psi, phi)
            assert (metrics["overlap"], metrics["min_residual_purity"]) == (overlap, purity)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConstantEnumerations:
    """The probe and the default contrast pair are enumerated once per process."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return channel_branches(*args, **kwargs)

        monkeypatch.setattr(channel_module, "channel_branches", counting)
        return calls

    def test_probe_sums_equal_a_fresh_enumeration(self):
        _, total, parts = branch_sums(channel_branches(_entangled_probe(), (3, 4, 5)), D_IN)
        cached_total, cached_parts = _probe_sums()
        assert _same_bytes(cached_total, total)
        assert list(cached_parts) == list(parts)
        assert all(_same_bytes(cached_parts[bits], parts[bits]) for bits in parts)

    def test_contrast_sums_equal_a_fresh_enumeration(self):
        cached = _default_contrast()
        assert len(cached) == 3
        for (dist, total), omega in zip(cached, (KET0, KET1, KET_PLUS)):
            fresh = branch_sums(channel_branches(tensor([KET_PLUS, KET_MINUS, omega]), b=(0, 0)))
            assert _same_bytes(dist, fresh[0])
            assert _same_bytes(total, fresh[1])

    def test_cached_sums_are_read_only(self):
        total, parts = _probe_sums()
        arrays = [total, *parts.values(), *(a for sums in _default_contrast() for a in sums)]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            total[0, 0] = 1.0
        with pytest.raises(TypeError):
            parts[(0, 0)] = total

    def test_reports_get_validated_copies(self):
        total, parts = _probe_sums()
        decomposition = subchannels()
        assert not np.shares_memory(tomography().matrix, total)
        assert not np.shares_memory(decomposition.total.matrix, total)
        assert not any(
            np.shares_memory(decomposition.parts[bits].matrix, parts[bits]) for bits in parts
        )

    @pytest.mark.parametrize(
        "report",
        [tomography, subchannels, lambda: build_dilation(tomography())],
        ids=["tomography", "subchannels", "dilation"],
    )
    def test_exact_channel_reports_reuse_the_probe(self, spy, report):
        report()
        spy.clear()
        report()
        assert spy == []

    def test_default_contrast_is_enumerated_once(self, spy, monkeypatch):
        # warm: one stacked enumeration of its own three registers, none of the contrast pair
        stacks = []

        def stacked(joints, *args, **kwargs):
            stacks.append([joint.amplitudes.tobytes() for joint in joints])
            return _stacked_branches(joints, *args, **kwargs)

        verify_nonsignaling(0, 0)
        monkeypatch.setattr(channel_module, "_stacked_branches", stacked)
        verify_nonsignaling(0, 0)
        own = [tensor([KET0, KET1, omega]).amplitudes.tobytes() for omega in (KET0, KET1, KET_PLUS)]
        assert stacks == [own] and spy == []

    def test_nothing_is_enumerated_at_import(self):
        src = str(Path(qracbox.__file__).resolve().parents[1])
        code = (
            "import qracbox, qracbox.cli, qracbox.channel as c; "
            "print(c._probe_sums.cache_info().currsize, c._default_contrast.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (out.returncode, out.stdout) == (0, "0 0\n")


class TestClearBoxCaches:
    """A wiring change reaches the reports once their cached enumerations are cleared."""

    def test_every_cache_is_emptied(self, clear_box_caches):
        tomography()
        verify_nonsignaling(0, 0)
        caches = clear_box_caches()
        # a new cache fails here until it is listed, and documented with the fixture
        assert sorted(cache.__name__ for cache in caches) == [
            "_default_contrast", "_probe_sums", "_tree",
        ]
        assert all(cache.cache_info().currsize == 0 for cache in caches)

    def test_a_wiring_mutant_reaches_tomography(self, exact_choi, monkeypatch, clear_box_caches):
        honest_side = qrac_module._alice_side

        def flip_a1(first, second, box0, box1):
            a1, a0 = honest_side(first, second, box0, box1)
            return a1 ^ 1, a0

        tomography()
        monkeypatch.setattr(qrac_module, "_alice_side", flip_a1)
        _probe_sums.cache_clear()
        _default_contrast.cache_clear()  # no cached wiring is left to hide the mutant
        assert np.max(np.abs(tomography().matrix - exact_choi.matrix)) == pytest.approx(2.0)

    @staticmethod
    def _executor_outputs() -> dict:
        """Outputs of each executor of the box on one fixed round: exact, probed, sampled."""
        rng = make_rng(96)
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        joint = tensor([psi, phi, KET_PLUS])
        words = stream_words(96, np.arange(256), 4)
        _, ids, outputs, _, _ = _channel_block(joint, words, (0, 1, 2))
        _, _, round_ids, round_outputs, _, _ = _sampled_rounds(psi, phi, KET_PLUS, words)
        return {
            "channel_branches": [
                br.output.matrix for br in channel_branches(joint) if br.correction[0]
            ],
            "tomography": tomography().matrix,
            "_channel_block": outputs[ids],
            "_sampled_rounds": round_outputs[round_ids],
        }

    @staticmethod
    def _changed(before: dict, after: dict) -> list:
        return [
            name for name in before
            if not np.array_equal(np.stack(before[name]), np.stack(after[name]))
        ]

    def test_a_relabelling_mutant_reaches_every_executor(self, monkeypatch, clear_box_caches):
        honest_relabelled = qrac_module._relabelled

        def no_z(rho, correction):  # Z^c1 X^c0 without its Z
            return honest_relabelled(rho, (0, correction[1]))

        honest = self._executor_outputs()
        monkeypatch.setattr(qrac_module, "_relabelled", no_z)
        # an enumeration builds its leaves afresh: no cache to clear
        mutant = self._executor_outputs()
        assert self._changed(honest, mutant) == ["channel_branches"]
        assert all(
            not np.array_equal(a, b)
            for a, b in zip(honest["channel_branches"], mutant["channel_branches"])
        )
        _probe_sums.cache_clear()
        assert self._changed(honest, self._executor_outputs()) == ["channel_branches", "tomography"]
        # the sampled executors read Bob's outputs from the cached tables' leaves
        qrac_module._tree.cache_clear()
        assert self._changed(honest, self._executor_outputs()) == list(honest)

    def test_a_projection_mutant_reaches_every_executor(self, monkeypatch, clear_box_caches):
        honest_amplitudes = quantum_module._bell_amplitudes

        def swapped(stack, n, pair):  # outcomes 1 and 2 trade their amplitudes
            return honest_amplitudes(stack, n, pair)[[0, 2, 1, 3]]

        honest = self._executor_outputs()
        monkeypatch.setattr(quantum_module, "_bell_amplitudes", swapped)
        clear_box_caches()
        assert self._changed(honest, self._executor_outputs()) == list(honest)

    def test_teardown_restores_the_honest_box(self, exact_choi):
        # runs after the mutant test, whose teardown must leave no mutant result cached
        assert np.array_equal(tomography().matrix, exact_choi.matrix)


class TestAliceInputsAreSingleQubits:
    """Every exact entry point rejects a two-qubit psi or phi by name."""

    @pytest.mark.parametrize("wrong", ["psi", "phi"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda psi, phi, dil: mixture_check(1.0, 0.0, psi, phi),
            lambda psi, phi, dil: verify_nonsignaling(0, 0, psi=psi, phi=phi),
            lambda psi, phi, dil: environment_orthogonality_check(dil, psi, phi),
        ],
        ids=["mixture_check", "verify_nonsignaling", "environment_orthogonality_check"],
    )
    def test_two_qubit_input_rejected(self, dilation, run, wrong):
        inputs = {"psi": KET0, "phi": KET1, wrong: tensor([KET0, KET1])}
        with pytest.raises(ValueError, match=f"^{wrong} must be a single-qubit state$"):
            run(inputs["psi"], inputs["phi"], dilation)
