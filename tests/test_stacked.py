"""The stacked exact channel layer against its one-state-at-a-time form.

Exact enumeration projects every state of a measurement level in one
call, takes one partial trace per target over the stacked leaves and
relabels every correction in one call; the dilation report checks all
its pairs with one V product, one einsum and one ``eigh``.  Each float
must be the one the per-state and per-pair code gives, kept in
``oracles``, and an enumeration's ``BranchTable`` must reduce as the
per-branch loop over its own ``ChannelBranch`` views: these tests
compare bytes.
"""
from __future__ import annotations

import numpy as np
import pytest

from qracbox import channel, qrac, quantum
from qracbox.channel import (
    _entangled_probe,
    _residual_overlaps,
    build_dilation,
    environment_orthogonality_check,
    tomography,
)
from qracbox.qrac import _round_register, _stacked_branches, branch_sums, channel_branches
from qracbox.quantum import (
    KET0,
    KET1,
    KET_PLUS,
    PHI_PLUS,
    StateVector,
    _bell_stack,
    _measure_stack,
    _state_vectors,
    basis_state,
    bell_project,
    haar_random_qubit,
    haar_random_state,
    haar_random_states,
    make_pure_qubit,
    measure_project,
)
from qracbox.rng import make_rng

import oracles


def _sparse_state(num_qubits, rng):
    """A state with many exact zeros and real, negative and imaginary entries."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    picks = rng.choice(2**num_qubits, size=min(3, 2**num_qubits), replace=False)
    amps[picks] = [1.0, -1.0j, -1.0][: len(picks)]
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def _state(kind, num_qubits, rng):
    if kind == "haar":
        return haar_random_state(num_qubits, rng)
    if kind == "sparse":
        return _sparse_state(num_qubits, rng)
    return basis_state(num_qubits, int(rng.integers(2**num_qubits)))


def _register(kind, rng):
    """A (joint, inputs) pair: three input qubits and one spectator, in a shuffled layout."""
    if kind == "probe":
        return _entangled_probe(), (3, 4, 5)
    return _state(kind, 4, rng), tuple(int(q) for q in rng.permutation(4)[:3])


def _recorded_enumeration(monkeypatch, joint, inputs, b):
    """``channel_branches`` and the leaf amplitudes of the table it handed to ``_leaf_outputs``."""
    leaves = []
    leaf_outputs = qrac._leaf_outputs

    def recording(table, *args):
        leaves.extend(table.leaves)
        return leaf_outputs(table, *args)

    monkeypatch.setattr(qrac, "_leaf_outputs", recording)
    return channel_branches(joint, inputs, b=b), leaves


class TestEnumerationEqualsNestedLoops:
    """Probabilities, leaf amplitudes, outputs and sums of the nested per-state enumeration."""

    def _assert_same(self, monkeypatch, joint, inputs, b):
        branches, leaves = _recorded_enumeration(monkeypatch, joint, inputs, b)
        nested = oracles.nested_leaves(joint.amplitudes, inputs)
        assert len(leaves) == len(nested) and len(branches) == 4 * len(nested)
        for leaf, (w, first, second, probability, amps) in zip(leaves, nested):
            assert leaf.tobytes() == amps.tobytes()
        n = joint.num_qubits
        spectators = sorted(set(range(n)) - set(inputs))
        for index, branch in enumerate(branches):
            w, first, second, probability, amps = nested[index // 4]
            path = (branch.w, branch.first_bell.index, branch.second_bell.index)
            assert path == (w, first, second)
            assert branch.probability == probability * 0.25
            want = oracles.corrected_output(amps, spectators + [n + 1 + 2 * w], branch.correction)
            assert branch.output.matrix.tobytes() == want.tobytes()
        for scale in (1, 8):
            got, want = branch_sums(branches, scale), oracles.loop_branch_sums(branches, scale)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert list(got[2]) == list(want[2])
            assert all(got[2][bits].tobytes() == want[2][bits].tobytes() for bits in want[2])
        return branches

    @pytest.mark.parametrize("b", [None, (1, 0)])
    @pytest.mark.parametrize("kind", ["haar", "sparse", "basis"])
    def test_registers_with_a_spectator(self, monkeypatch, kind, b):
        rng = make_rng(81, ["haar", "sparse", "basis"].index(kind))
        for _ in range(4):
            self._assert_same(monkeypatch, *_register(kind, rng), b)

    @pytest.mark.parametrize("b", [None, (0, 1)])
    def test_ten_qubit_probe_layout(self, monkeypatch, b):
        branches = self._assert_same(monkeypatch, *_register("probe", None), b)
        assert len(branches) == 128

    @pytest.mark.parametrize("omega", [KET0, KET1], ids=["alpha_sq_1", "alpha_sq_0"])
    def test_a_basis_choice_prunes_half_the_branches(self, monkeypatch, omega):
        rng = make_rng(82)
        joint = _round_register(haar_random_qubit(rng), haar_random_qubit(rng), omega)
        branches = self._assert_same(monkeypatch, joint, (0, 1, 2), None)
        assert len(branches) == 64 and {br.w for br in branches} == {omega is KET1}


def _sums_bytes(sums):
    dist, total, parts = sums
    return dist.tobytes(), total.tobytes(), [(bits, part.tobytes()) for bits, part in parts.items()]


class TestBranchTable:
    """The table's sums are the per-branch loop's over its own ``ChannelBranch`` views."""

    @staticmethod
    def _registers():
        rng = make_rng(97)
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        yield "probe", _entangled_probe(), (3, 4, 5)
        for name, omega in (("alpha_sq_1", KET0), ("alpha_sq_0", KET1)):  # pruned choices
            yield name, _round_register(psi, phi, omega), (0, 1, 2)
        for kind in ("haar", "sparse", "basis"):  # a spectator, the inputs shuffled
            yield kind, *_register(kind, rng)

    @pytest.mark.parametrize("b", [None, (0, 0), (1, 1), (0, 1)])
    def test_sums_equal_the_loop_over_the_views(self, b):
        for name, joint, inputs in self._registers():
            table = channel_branches(joint, inputs, b=b)
            views = list(table)
            assert len(table) == len(views) == 4 * len(table.probabilities), name
            assert all(type(view) is qrac.ChannelBranch for view in views)
            for scale in (1, 8):
                got = _sums_bytes(branch_sums(table, scale))
                assert got == _sums_bytes(oracles.loop_branch_sums(views, scale)), name

    def test_indexing_builds_the_views_iteration_builds(self):
        table = channel_branches(_entangled_probe(), (3, 4, 5), b=(1, 0))
        views = list(table)
        assert [table[i] for i in range(len(table))] == views
        assert table[-1] == views[-1] and table[5:9] == views[5:9] and table[::-1] == views[::-1]
        assert all(view.output is table.outputs[i] for view, i in zip(views, table.output))
        with pytest.raises(IndexError):
            table[len(table)]

    def test_a_pruned_choice_keeps_only_its_leaves(self):
        rng = make_rng(98)
        joint = _round_register(haar_random_qubit(rng), haar_random_qubit(rng), KET1)
        table = channel_branches(joint)
        assert len(table) == 64 and set(table.w.tolist()) == {1}
        assert table.probabilities.shape == (16,)
        assert table.leaf.tolist() == sorted(4 * list(range(16)))



_COLUMNS = ("probabilities", "leaf", "w", "bells", "coins", "alice", "pr_outputs", "correction",
            "output", "_stack")


def _forged(joint, scale):
    """``joint`` with its amplitudes times ``scale``, built without the check."""
    forged = object.__new__(StateVector)
    object.__setattr__(forged, "num_qubits", joint.num_qubits)
    object.__setattr__(forged, "amplitudes", joint.amplitudes * scale)
    return forged


class TestStackedRegisters:
    """K registers enumerated as one stack give each register's lone enumeration, bit for bit."""

    @staticmethod
    def _assert_each_alone(joints, inputs, b):
        tables = _stacked_branches(joints, inputs, b=b)
        assert len(tables) == len(joints)
        n = joints[0].num_qubits
        spectators = sorted(set(range(n)) - set(inputs))
        for joint, table in zip(joints, tables):
            lone = channel_branches(joint, inputs, b=b)
            for name in _COLUMNS:
                got, want = getattr(table, name), getattr(lone, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name
            assert [rho.matrix.tobytes() for rho in table.outputs] == [
                rho.matrix.tobytes() for rho in lone.outputs
            ]
            for scale in (1, 8):
                assert _sums_bytes(branch_sums(table, scale)) == _sums_bytes(branch_sums(lone, scale))
                assert _sums_bytes(branch_sums(table, scale)) == _sums_bytes(
                    oracles.loop_branch_sums(list(table), scale)
                )
            nested = oracles.nested_leaves(joint.amplitudes, inputs)
            assert len(table) == 4 * len(nested)
            for branch, (w, first, second, probability, amps) in zip(
                table, (leaf for leaf in nested for _ in range(4))
            ):
                assert (branch.w, branch.first_bell.index, branch.second_bell.index) == (w, first, second)
                assert branch.probability == probability * 0.25
                keep = spectators + [n + 1 + 2 * w]
                want = oracles.corrected_output(amps, keep, branch.correction)
                assert branch.output.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [None, (0, 0), (1, 0)])
    def test_haar_registers(self, b):
        rng = make_rng(99, 0)
        joints = [haar_random_state(3, rng) for _ in range(3)]
        self._assert_each_alone(joints, (0, 1, 2), b)

    @pytest.mark.parametrize("b", [None, (0, 0), (1, 0)])
    def test_pruned_registers_among_haar_ones(self, b):
        # omega = |0> and |1> (alpha^2 = 1 and 0) keep half the leaves of a Haar choice
        rng = make_rng(99, 1)
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        joints = [_round_register(psi, phi, omega) for omega in (KET0, haar_random_qubit(rng), KET1)]
        tables = _stacked_branches(joints, b=b)
        assert [len(table) for table in tables] == [64, 128, 64]
        self._assert_each_alone(joints, (0, 1, 2), b)

    @pytest.mark.parametrize("b", [None, (0, 0), (1, 0)])
    def test_shuffled_inputs_with_a_spectator(self, b):
        rng = make_rng(99, 2)
        joints = [_state(kind, 4, rng) for kind in ("haar", "sparse", "basis", "haar")]
        self._assert_each_alone(joints, (2, 0, 3), b)

    @pytest.mark.parametrize("b", [None, (1, 0)])
    def test_ten_qubit_probe_with_spectators(self, b):
        probe = _entangled_probe()
        other = haar_random_state(6, make_rng(99, 3))
        self._assert_each_alone([other, probe], (3, 4, 5), b)

    @pytest.mark.parametrize("place", [0, 1, 2])
    @pytest.mark.parametrize(
        "scale, message",
        [(1.1, r"^state not normalized: sum \|amp\|\^2 = "), (np.nan, "^state has a non-finite amplitude$")],
        ids=["unnormalized", "non-finite"],
    )
    def test_a_bad_register_raises_the_lone_message(self, place, scale, message):
        rng = make_rng(99, 4)
        joints = [haar_random_state(3, rng) for _ in range(3)]
        joints[place] = _forged(joints[place], scale)
        with pytest.raises(ValueError, match=message) as alone:
            channel_branches(joints[place])
        with pytest.raises(ValueError, match=message) as stacked:
            _stacked_branches(joints)
        assert str(stacked.value) == str(alone.value)


def _rows(project, states, target) -> list:
    """Each state's (probability, collapsed amplitude bytes or None) per outcome.

    From one call of the stacked core ``project`` (``_bell_stack`` or
    ``_measure_stack``) on the stack of ``states``.
    """
    stack = np.stack([state.amplitudes for state in states])
    probs, ks, outcomes, posts = project(stack, states[0].num_qubits, target)
    rows = [[(p, None) for p in row] for row in probs.T.tolist()]
    for k, i, post in zip(ks.tolist(), outcomes.tolist(), posts):
        rows[k][i] = (rows[k][i][0], post.tobytes())
    return rows


class TestStackedProjections:
    """Each row of a stacked projection is the projection of its state alone."""

    @pytest.mark.parametrize("kind", ["haar", "sparse", "basis"])
    def test_bell_rows_equal_lone_states(self, kind):
        rng = make_rng(83, ["haar", "sparse", "basis"].index(kind))
        for n in range(4, 11):
            for pair in [(0, 1), (n - 2, n - 1), (n - 1, 0), (1, n - 2), (2, n - 1)]:
                states = [_state(kind, n, rng) for _ in range(int(rng.integers(1, 9)))]
                stacked = _rows(_bell_stack, states, pair)
                assert len(stacked) == len(states)
                for state, rows in zip(states, stacked):
                    (alone,) = _rows(_bell_stack, [state], pair)
                    reference = oracles.bell_projections(state.amplitudes, pair)
                    for (p, post), (p1, post1), (p2, post2) in zip(rows, alone, reference):
                        assert p == p1 == p2
                        assert (post is None) == (post1 is None) == (post2 is None)
                        if post is not None:
                            assert post == post1 == post2.tobytes()

    def test_computational_rows_equal_lone_states(self):
        rng = make_rng(84)
        for n in range(1, 11):
            states = [haar_random_state(n, rng), basis_state(n, int(rng.integers(2**n)))]
            for qubit in range(n):
                for state, rows in zip(states, _rows(_measure_stack, states, qubit)):
                    for outcome, (p, post) in enumerate(rows):
                        p1, post1 = oracles.measure_project(state.amplitudes, qubit, outcome)
                        assert p == p1 and (post is None) == (post1 is None)
                        if post is not None:
                            assert post == post1.tobytes()

    def test_a_lone_outcome_collapses_only_itself(self, monkeypatch):
        collapsed = []
        for name in ("_bell_collapse", "_take_collapse"):
            def spy(n, axes, outcomes, scaled, real=getattr(quantum, name)):
                collapsed.append(list(outcomes))
                return real(n, axes, outcomes, scaled)

            monkeypatch.setattr(quantum, name, spy)

        def key(projection):
            prob, post = projection
            return prob, None if post is None else post.amplitudes.tobytes()

        state = haar_random_state(4, make_rng(94))
        for index, outcome in enumerate(quantum._BELL_OUTCOMES):
            lone = key(bell_project(state, (2, 0), outcome))
            assert lone == _rows(_bell_stack, [state], (2, 0))[0][index]
        for bit in (0, 1):
            assert key(measure_project(state, 3, bit)) == _rows(_measure_stack, [state], 3)[0][bit]
        every = [[0, 1, 2, 3], [0, 1]]
        assert collapsed == [[0], every[0], [1], every[0], [2], every[0], [3], every[0],
                             [0], every[1], [1], every[1]]
        # an outcome of probability 0 collapses nothing
        assert bell_project(PHI_PLUS, (0, 1), quantum._BELL_OUTCOMES[1]) == (0.0, None)
        assert measure_project(basis_state(2, 0), 1, 1) == (0.0, None)


class TestStateVectors:
    """A stack of states is checked at once, as StateVector checks each alone."""

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([np.nan, 0.0]), "state has a non-finite amplitude"),
            (np.array([1.01, 0.0]), "state not normalized: sum |amp|^2 = 1.0201"),
        ],
    )
    def test_defect_raises_the_message_of_its_state_alone(self, bad, message, position):
        with pytest.raises(ValueError) as alone:
            StateVector(1, bad)
        assert str(alone.value) == message
        stack = np.stack([state.amplitudes for state in haar_random_states(1, 5, make_rng(87))])
        stack[position] = bad
        with pytest.raises(ValueError) as stacked:
            _state_vectors(1, stack)
        assert str(stacked.value) == message

    def test_valid_stack_is_taken_over_read_only_and_byte_equal(self):
        stack = np.stack([state.amplitudes for state in haar_random_states(3, 6, make_rng(88))])
        expected = [StateVector(3, amps).amplitudes.tobytes() for amps in stack]
        wrapped = _state_vectors(3, stack)
        assert [state.amplitudes.tobytes() for state in wrapped] == expected
        assert all(type(state) is StateVector and state.num_qubits == 3 for state in wrapped)
        assert all(np.shares_memory(state.amplitudes, stack) for state in wrapped)
        assert not stack.flags.writeable

    def test_a_lone_state_copies_its_amplitudes(self):
        amps = np.array([0.6, 0.8j])
        state = StateVector(1, amps)
        assert not np.shares_memory(state.amplitudes, amps) and amps.flags.writeable
        assert not state.amplitudes.flags.writeable

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (1, 2, 4)])
    def test_stack_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a stack of 2-qubit states"):
            _state_vectors(2, np.zeros(shape, dtype=complex))


class TestHaarDraws:
    """One normal draw for a stack of states, in the stream order of one draw each."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_stacked_draws_equal_sequential_draws(self, num_qubits):
        count = 1000 if num_qubits == 1 else 50
        stacked = haar_random_states(num_qubits, count, make_rng(90, num_qubits))
        sequential = oracles.haar_states(num_qubits, count, make_rng(90, num_qubits))
        assert [s.amplitudes.tobytes() for s in stacked] == [a.tobytes() for a in sequential]
        rng = make_rng(90, num_qubits)
        lone = [haar_random_state(num_qubits, rng) for _ in range(count)]
        assert [s.amplitudes.tobytes() for s in lone] == [a.tobytes() for a in sequential]

    def test_the_stream_continues_where_a_stack_ends(self):
        rng = make_rng(91)
        haar_random_states(1, 7, rng)
        reference = make_rng(91)
        oracles.haar_states(1, 7, reference)
        (next_state,) = oracles.haar_states(1, 1, reference)
        assert haar_random_qubit(rng).amplitudes.tobytes() == next_state.tobytes()


class TestStackedDilation:
    """All pairs of the dilation report at once, each with the floats of its own loop."""

    def test_metrics_equal_the_per_pair_loop(self):
        dil = build_dilation(tomography())
        rng = make_rng(92)
        pairs = [(KET0, KET1), (KET1, KET0), (KET_PLUS, KET_PLUS), (make_pure_qubit(1.0, 2.0),) * 2]
        same = haar_random_states(1, 50, rng)
        pairs += [(state, state) for state in same]  # psi = phi
        haar = haar_random_states(1, 2000, rng)
        pairs += list(zip(haar[0::2], haar[1::2]))
        assert len(pairs) >= 1000
        got = list(_residual_overlaps(dil, *zip(*pairs)))
        for (psi, phi), metrics in zip(pairs, got):
            want = oracles.residual_overlaps(
                dil.isometry, psi.amplitudes, phi.amplitudes, dil.d_out, dil.env_dim
            )
            assert metrics == want
            report = environment_orthogonality_check(dil, psi, phi)["metrics"]
            keys = ("overlap", "min_residual_purity", "input_overlap")
            assert tuple(report[key] for key in keys) == want

    def test_pairs_in_blocks_equal_pairs_in_one_block(self, monkeypatch):
        dil = build_dilation(tomography())
        haar = haar_random_states(1, 100, make_rng(95))
        psis, phis = haar[0::2], haar[1::2]
        whole = list(_residual_overlaps(dil, psis, phis))
        monkeypatch.setattr(channel, "TRIAL_BLOCK", 7)  # 50 pairs: 7 full blocks and one of 1
        assert list(_residual_overlaps(dil, psis, phis)) == whole

    def test_environment_state_of_a_stack_is_each_alone(self):
        dil = build_dilation(tomography())
        vecs = np.stack([s.amplitudes for s in haar_random_states(3, 20, make_rng(93))])
        stacked = dil.environment_state(vecs)
        for vec, env in zip(vecs, stacked):
            assert dil.environment_state(vec).tobytes() == env.tobytes()
            table = (dil.isometry @ vec).reshape(dil.d_out, dil.env_dim)
            assert np.einsum("ok,ol->kl", table.conj(), table).tobytes() == env.tobytes()


def test_branch_sums_start_from_zeros():
    # the off-diagonal terms are -0.25 - 0.0j: a sum started from the first term keeps -0.0
    matrix = np.array([[0.5, -0.25], [-0.25, 0.5]]) + 0j
    matrix.imag[:] = -0.0
    zeros, pairs = np.zeros(8, dtype=np.intp), np.zeros((8, 2), dtype=np.intp)
    branches = qrac.BranchTable(
        np.full(8, 0.125), np.arange(8), zeros, pairs, pairs, np.arange(8) % 3, pairs, pairs,
        zeros, matrix[None],
    )
    got, want = branch_sums(branches, 2), oracles.loop_branch_sums(branches, 2)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert all(got[2][bits].tobytes() == want[2][bits].tobytes() for bits in want[2])
    assert np.signbit(got[1].imag).sum() == 0


def test_exact_recovery_minimum_takes_one_fidelity_per_distinct_output(monkeypatch):
    from qracbox import harness

    calls = []
    fidelity = harness.fidelity

    def spy(rho, psi):
        calls.append(id(rho))
        return fidelity(rho, psi)

    monkeypatch.setattr(harness, "fidelity", spy)
    config = harness.ExperimentConfig(
        experiment="qrac", seed=3, trials=1,
        psi="bloch:1.1,0.3", phi="bloch:2.0,-0.7", omega="bloch:0.9,1.7",
    )
    report = harness.run_experiment(config)
    rows = 1  # the one sampled trial's fidelity
    assert len(calls) - rows <= 64 and len(set(calls[rows:])) == len(calls) - rows
    psi, phi = config.resolved_psi(), config.resolved_phi()
    branches = channel_branches(_round_register(psi, phi, config.resolved_omega()))
    want = min(fidelity(br.output, psi if br.w == 0 else phi) for br in branches)
    assert report["metrics"]["exact_min_fidelity"] == want
