"""The entangled-pair + PR-box construction of the quantum random access
code box, its dense-coded qubit-only variant, and exact branch enumeration.

One round uses two EPR pairs and two PR-boxes.  Alice Bell-measures each
input qubit against her half of one pair, XORs the outcome bits pairwise
into the boxes, and publishes two masked bits.  Bob feeds his choice w
into both boxes, unmasks, applies the teleportation correction to his
half of the chosen pair, and discards the other half.  The published
bits are one-time-padded by the box coins, so they carry nothing about
the inputs; only the correction they enable is meaningful.

Register layout for a standard round (qubit 0 leftmost):

    0  A'   Alice's first input qubit
    1  A''  Alice's second input qubit
    2, 3    first EPR pair   (Alice half, Bob half)
    4, 5    second EPR pair  (Alice half, Bob half)

Bob's choice qubit is measured separately; a superposed choice is
measured first, which is what makes the box output a mixture rather
than a superposition of the two inputs.

The PR-box wiring of a round is written once, in ``_alice_side`` and
``_bob_side``, as XOR/AND expressions on the outcome bits and the boxes
(``boxes.PRBox``, or ``boxes.PRBoxes`` for int arrays), and run by three
executors:

* single-trial (``qrac_alice`` / ``qrac_bob``, ``sample_channel``,
  ``sample_alice_output``): each outcome is drawn from an rng;
* batched (``qrac_rounds``, ``sample_channel_block``,
  ``sample_alice_outputs``, ``dense_decode_block``): a block of trials
  at once, from the raw Philox words each trial's lone round would
  draw (the word map is in ``rng``), so every trial equals its
  single-trial replay bit for bit; the reports run these;
* enumerated (``channel_branches``): every choice outcome x Bell
  outcomes x coins branch with its exact probability, so the suite can
  assert identities at 1e-10 instead of collecting statistics.  It
  pays once per distinct state, not once per branch: all four outcomes
  of a Bell measurement come from one ``quantum.bell_projections``
  call, and the classical side of a leaf's four coin branches (coins,
  Alice's bits, Bob's box outputs, correction, target) is one cached
  row set of ``_wiring``.

All three compute Bob's corrected output through one path,
``_leaf_output``, which keeps it on the collapsed state's
``OutcomeNode``.  It takes one partial trace per (leaf, target) and
builds each corrected output Z^c1 X^c0 rho X^c0 Z^c1 from that matrix
by an exact signed relabelling: entry (r, c) is rho[r ^ c0, c ^ c0]
times (-1)^(c1 * (r & 1)) (-1)^(c1 * (c & 1)), the target being the
last kept qubit.  No unitary is applied.  The Pauli entries are 0 and
+-1, so correcting the state and tracing it out sums the same products
in the same order, up to sign, and negation commutes with rounding:
every output is that of ``apply_unitary`` + ``reduced_density`` bit
for bit, except possibly the sign of an exact zero.  No report sees
that: ``branch_sums`` and sampled tomography add outputs to +0.0, and
a zero's sign changes no non-zero fidelity.  With Alice's bits wired
to Bob the coins cancel out of his correction, so the four coin
branches of an enumerated leaf share one output.  Every exact
claim reduces an enumeration the same way, through ``branch_sums``:
Alice's output distribution and the probability-weighted output, in
total and split by Alice's bits.

The sampled executors walk an outcome tree (``quantum.OutcomeNode``)
instead of redoing the linear algebra in every trial.  For fixed inputs
a round reaches few states: at most 2 choice outcomes x 4 x 4 Bell
outcomes, and each leaf few corrected outputs.  ``OutcomeNode.draw``
takes one trial down the tree with one uniform per measurement;
``OutcomeNode.walk`` takes a block of trials down it at once, picking
the same outcomes from the same uniforms and grouping the trials by
outcome.  The first trial that reaches a state computes it, and later
trials, of either executor, reuse it, Bob's corrected output included.
The roots are cached by the exact amplitude bytes of the inputs:
Alice's last 16 (psi, phi) pairs, Bob's last 16 choice states omega,
the last 4 (joint, ``inputs``) registers of the channel and the 4
dense-coded payloads, since a tree holds up to 43 register states.
Results are bit-for-bit those of a fresh computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import PRBox, PRBoxes, _check_bit
from .metering import ProtocolError
from .quantum import (
    PHI_PLUS,
    _BELL_OUTCOMES,
    BellOutcome,
    DensityMatrix,
    OutcomeNode,
    StateVector,
    apply_unitary,
    basis_state,
    bell_measure,
    bell_projections,
    measure_project,
    pauli_correction,
    reduced_density,
    tensor,
)
from .rng import bit_columns, word_uniform

A_PRIME, A_DPRIME, EPR1_ALICE, EPR1_BOB, EPR2_ALICE, EPR2_BOB = range(6)

_EPR_PAIRS = tensor([PHI_PLUS, PHI_PLUS])


def _load_inputs(psi: StateVector, phi: StateVector) -> StateVector:
    """psi (x) phi (x) both EPR pairs, assembled in one shot."""
    amps = np.einsum(
        "i,j,k->ijk", psi.amplitudes, phi.amplitudes, _EPR_PAIRS.amplitudes
    )
    return StateVector(6, amps.reshape(-1))


def _from_bytes(num_qubits: int, amplitudes: bytes) -> StateVector:
    return StateVector(num_qubits, np.frombuffer(amplitudes, dtype=complex))


@lru_cache(maxsize=16)
def _alice_tree(psi: bytes, phi: bytes) -> OutcomeNode:
    """Alice's two Bell measurements on the loaded register, by input bytes."""
    loaded = _load_inputs(_from_bytes(1, psi), _from_bytes(1, phi))
    return OutcomeNode(
        loaded, [("bell", (A_PRIME, EPR1_ALICE)), ("bell", (A_DPRIME, EPR2_ALICE))]
    )


@lru_cache(maxsize=16)
def _choice_tree(n: int, omega: bytes) -> OutcomeNode:
    """Bob's computational measurement of qubit 0 of omega, by input bytes."""
    return OutcomeNode(_from_bytes(n, omega), [("computational", 0)])


@lru_cache(maxsize=4)
def _channel_tree(n: int, joint: bytes, inputs: tuple[int, int, int]) -> OutcomeNode:
    """Choice, then both Bell measurements, on joint (x) both EPR pairs."""
    q_apr, q_adp, q_r = inputs
    extended, _ = _register(_from_bytes(n, joint), inputs)
    return OutcomeNode(
        extended,
        [("computational", q_r), ("bell", (q_apr, n)), ("bell", (q_adp, n + 2))],
    )


@dataclass(frozen=True)
class AliceClassicalOutput:
    """Alice's two-bit output a = a1 a0."""

    a1: int
    a0: int

    def __post_init__(self) -> None:
        _check_bit(self.a1, "a1")
        _check_bit(self.a0, "a0")

    @property
    def bits(self) -> tuple[int, int]:
        return (self.a1, self.a0)

    @property
    def index(self) -> int:
        return 2 * self.a1 + self.a0


def _as_bits(b) -> tuple[int, int]:
    if isinstance(b, AliceClassicalOutput):
        return b.bits
    b1, b0 = b
    return (_check_bit(b1, "b1"), _check_bit(b0, "b0"))


class QracResources:
    """Shared one-round resources: two EPR pairs and two fresh PR-boxes.

    The register (both inputs and both exact |Phi+> pairs) is loaded when
    Alice's side runs; ``leaf`` then holds it collapsed by her two Bell
    measurements, for Bob's side.
    """

    def __init__(self, rng: np.random.Generator, *, coins: tuple[int, int] | None = None):
        self.rng = rng
        coin0, coin1 = (None, None) if coins is None else coins
        self.box0 = PRBox(rng, coin=coin0)
        self.box1 = PRBox(rng, coin=coin1)
        self.leaf: OutcomeNode | None = None
        self.alice_done = False
        self.bob_done = False


def _boxes(words: np.ndarray) -> tuple[PRBoxes, PRBoxes]:
    """Both PR-boxes of every round of a batch, coins from one raw word a round."""
    coins = bit_columns(words[:, None])
    return PRBoxes(coins[:, 0]), PRBoxes(coins[:, 1])


def _check_inputs(psi: StateVector, phi: StateVector) -> None:
    """Alice's two inputs must be one qubit each."""
    for state, name in ((psi, "psi"), (phi, "phi")):
        if state.num_qubits != 1:
            raise ValueError(f"{name} must be a single-qubit state")


def _alice_root(psi: StateVector, phi: StateVector) -> OutcomeNode:
    """The cached ``_alice_tree`` of checked inputs (psi, phi)."""
    _check_inputs(psi, phi)
    return _alice_tree(psi.amplitudes.tobytes(), phi.amplitudes.tobytes())


def _round_register(psi: StateVector, phi: StateVector, omega: StateVector) -> StateVector:
    """psi (x) phi (x) omega: an exact round's register, inputs checked."""
    _check_inputs(psi, phi)
    return tensor([psi, phi, omega])


def _spectators(n: int, inputs: tuple[int, int, int]) -> list[int]:
    """Check the (A', A'', choice) registers; the other qubits ride along."""
    if len(set(inputs)) != 3:
        raise ValueError("input registers must be distinct")
    for q in inputs:
        if not 0 <= q < n:
            raise ValueError(f"input register {q} out of range")
    return sorted(set(range(n)) - set(inputs))


def _register(joint: StateVector, inputs: tuple[int, int, int]) -> tuple[StateVector, list[int]]:
    """joint (x) both EPR pairs, and the qubits of ``joint`` that ride along.

    The first pair lands on qubits (n, n+1) and the second on (n+2, n+3),
    Alice's half first, where n is the size of ``joint``.
    """
    spectators = _spectators(joint.num_qubits, inputs)
    return tensor([joint, PHI_PLUS, PHI_PLUS]), spectators


def _bell_bits(index):
    """(bit1, bit0) of a Bell outcome index 2*bit1 + bit0, or of an index array."""
    return index >> 1, index & 1


def _alice_side(first, second, box0, box1):
    """Feed first XOR second into the boxes; publish the first outcome masked.

    ``first`` and ``second`` are the indices 2*bit1 + bit0 of Alice's
    two Bell outcomes; returns her output (a1, a0).  The indices are
    ints and the boxes ``PRBox``es for one round, or int arrays and
    ``PRBoxes`` for a batch of rounds.
    """
    first1, first0 = _bell_bits(first)
    xor1, xor0 = _bell_bits(first ^ second)
    mask0 = box0.alice(xor0)
    mask1 = box1.alice(xor1)
    return first1 ^ mask1, first0 ^ mask0


def _bob_side(epr: int, w, b, box0, box1):
    """Unmask ``b`` = (b1, b0) through the boxes: what Bob corrects, and where.

    ``epr`` is the first qubit of the first EPR pair, so Bob's halves are
    ``epr + 1`` and ``epr + 3``.  Returns his box outputs (B0, B1), the
    (bit1, bit0) correction and the target qubit, his half of pair w.
    Like ``_alice_side``, it runs on one round or on a batch.
    """
    b1_in, b0_in = b
    pr_outputs = (box0.bob(w), box1.bob(w))
    correction = (b1_in ^ pr_outputs[1], b0_in ^ pr_outputs[0])
    return pr_outputs, correction, epr + 1 + 2 * w


@lru_cache(maxsize=64)
def _relabelling(
    dim: int, correction: tuple[int, int]
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Z^c1 X^c0 on the last qubit of a ``dim``-dim matrix, as indices and signs.

    Conjugating rho by Z^c1 X^c0 gives entry (r, c) = sign[r, c] *
    rho[r ^ c0, c ^ c0], where sign[r, c] = (-1)^(c1 * (r & 1)) *
    (-1)^(c1 * (c & 1)).  Returns the (row, column) index arrays that
    pick rho[r ^ c0, c ^ c0] and the sign matrix.  They are shared
    between calls, so they are read-only.
    """
    c1, c0 = correction
    rows = np.arange(dim)
    flips = np.where(c1 * (rows & 1), -1.0, 1.0)
    picks, sign = np.ix_(rows ^ c0, rows ^ c0), np.outer(flips, flips)
    for array in (*picks, sign):
        array.setflags(write=False)
    return picks, sign


def _leaf_output(
    leaf: OutcomeNode, target: int, correction: tuple[int, int], spectators: list[int]
) -> DensityMatrix:
    """Correct ``target`` and keep it: the state of ``spectators`` + target.

    One partial trace per target, kept on the leaf; each correction of
    it is an exact signed relabelling of that matrix, also kept.  A leaf
    belongs to one register, and so to one set of spectators.
    """
    output = leaf.memo.get((target, correction))
    if output is None:
        if correction == (0, 0):
            assert all(q < target for q in spectators), "target must be the last kept qubit"
            output = reduced_density(leaf.state, spectators + [target])
        else:
            base = _leaf_output(leaf, target, (0, 0), spectators)
            picks, sign = _relabelling(2**base.num_qubits, correction)
            output = DensityMatrix(base.num_qubits, base.matrix[picks] * sign)
        leaf.memo[(target, correction)] = output
    return output


def qrac_alice(
    psi: StateVector, phi: StateVector, res: QracResources
) -> AliceClassicalOutput:
    """Alice's side: two Bell measurements wired through the PR-boxes.

    Loads the input registers, Bell-measures (A', first pair) and
    (A'', second pair), feeds the XORed outcome bits into the boxes and
    returns the masked two-bit output.  The output is uniform on
    {00, 01, 10, 11} whatever the inputs.
    """
    root = _alice_root(psi, phi)
    if res.alice_done:
        raise ProtocolError("Alice's side of these resources was already used")
    first, node = root.draw(res.rng)
    second, res.leaf = node.draw(res.rng)
    res.alice_done = True
    return AliceClassicalOutput(*_alice_side(first, second, res.box0, res.box1))


def qrac_bob(w: int, b, res: QracResources) -> DensityMatrix:
    """Bob's side: unmask via the PR-boxes, correct, keep the chosen qubit.

    ``b`` is his two-bit classical input (b1, b0); feeding Alice's output
    recovers her w-th input qubit exactly.  Everything except the chosen
    qubit is traced out before returning.
    """
    _check_bit(w, "w")
    bits = _as_bits(b)
    if not res.alice_done:
        raise ProtocolError("Bob's side needs Alice's measurements on record")
    if res.bob_done:
        raise ProtocolError("Bob's side of these resources was already used")
    _, correction, target = _bob_side(EPR1_ALICE, w, bits, res.box0, res.box1)
    res.bob_done = True
    return _leaf_output(res.leaf, target, correction, [])


def qrac_rounds(
    psi: StateVector, phi: StateVector, omega: StateVector, words: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray, list[DensityMatrix]]:
    """Standard rounds on fixed inputs, one per trial, all at once.

    Row t of ``words`` holds raw words 0-3 of trial t's stream, the draws
    of a round of ``harness.run_qrac_protocol``: the box coins, omega,
    Alice's two Bell measurements.  Bob decodes Alice's bits as sent.
    Returns Bob's choices w, Alice's bits (a1, a0) and each trial's
    index into the list of distinct outputs, Bob's chosen qubit.
    """
    root = _alice_root(psi, phi)
    uniforms = word_uniform(words[:, 1:4])
    w = _choice_tree(omega.num_qubits, omega.amplitudes.tobytes()).walk(uniforms[:, :1])[0][:, 0]
    bells, ends, leaves = root.walk(uniforms[:, 1:])
    box0, box1 = _boxes(words[:, 0])
    alice = _alice_side(bells[:, 0], bells[:, 1], box0, box1)
    _, correction, target = _bob_side(EPR1_ALICE, w, alice, box0, box1)
    return (w, alice, *_leaf_outputs(leaves, ends, target, correction, []))


def _leaf_outputs(
    leaves: list[OutcomeNode], ends: np.ndarray, target: np.ndarray, correction, spectators
) -> tuple[np.ndarray, list[DensityMatrix]]:
    """``_leaf_output`` of each trial of a batch, computed once per distinct one.

    Trial t ends on ``leaves[ends[t]]``.  Returns each trial's index into
    the list of distinct outputs, which come from the leaves' memos.
    """
    keys = np.stack([ends, target, *correction], axis=1)
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    outputs = [
        _leaf_output(leaves[end], qubit, (c1, c0), spectators)
        for end, qubit, c1, c0 in distinct.tolist()
    ]
    return inverse.reshape(-1), outputs


class DenseCodingPair:
    """One-shot |Phi+> pair reserved for carrying Alice's two output bits."""

    def __init__(self) -> None:
        self.state = PHI_PLUS
        self.used = False


def dense_encode(bit1: int, bit0: int, pair: DenseCodingPair) -> StateVector:
    """Encode two bits on Alice's half (qubit 0) of the shared pair.

    Applying Z^bit1 X^bit0 sends |Phi+> onto one of the four mutually
    orthogonal Bell states; the first qubit is then the payload.
    """
    _check_bit(bit1, "bit1")
    _check_bit(bit0, "bit0")
    if pair.used:
        raise ProtocolError("dense-coding pair was already used")
    pair.used = True
    return apply_unitary(pair.state, pauli_correction(bit1, bit0), (0,))


def dense_decode(state: StateVector, rng: np.random.Generator) -> BellOutcome:
    """Bell-measure the reunited pair; certain for any encoded Bell state."""
    if state.num_qubits != 2:
        raise ValueError("dense decoding expects a two-qubit state")
    outcome, _ = bell_measure(state, (0, 1), rng)
    return outcome


@lru_cache(maxsize=4)
def _payload_node(bit1: int, bit0: int) -> OutcomeNode:
    """The dense-coded payload of (bit1, bit0), before Bob's Bell measurement."""
    return OutcomeNode(dense_encode(bit1, bit0, DenseCodingPair()), [("bell", (0, 1))])


def dense_decode_block(index: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``dense_decode`` of the payloads of 2*bit1 + bit0 = ``index``, one per trial.

    Trial t measures with ``uniforms[t]``; returns the decoded Bell
    outcome indices, 2*bit1 + bit0 when decoding is right.
    """
    decoded = np.empty_like(index)
    for value in np.flatnonzero(np.bincount(index)).tolist():
        rows = index == value
        decoded[rows] = _payload_node(*_bell_bits(value)).pick(uniforms[rows])
    return decoded


@dataclass(frozen=True)
class ChannelBranch:
    """One exact branch of a round: every outcome and coin pinned.

    ``pr_outputs`` are Bob's box outputs (B0, B1); ``correction`` is the
    (bit1, bit0) argument of the Pauli he applies.  ``output`` is the
    state on the spectator qubits followed by Bob's output qubit.
    """

    probability: float
    w: int
    first_bell: BellOutcome
    second_bell: BellOutcome
    coins: tuple[int, int]
    alice: AliceClassicalOutput
    pr_outputs: tuple[int, int]
    correction: tuple[int, int]
    output: DensityMatrix


_WiringRow = tuple[tuple[int, int], AliceClassicalOutput, tuple[int, int], tuple[int, int], int]


@lru_cache(maxsize=1024)
def _wiring(
    n: int, w: int, first: BellOutcome, second: BellOutcome, fixed_b: tuple[int, int] | None
) -> tuple[_WiringRow, ...]:
    """The classical side of a leaf's four coin branches, computed once.

    One row per coin pair, in ``product`` order: (coins, Alice's output,
    Bob's box outputs, correction, target), from ``_alice_side`` and
    ``_bob_side`` on fresh ``PRBox``es.  ``fixed_b=None`` wires Alice's
    output to Bob.
    """
    rows = []
    for coins in product((0, 1), repeat=2):
        box0, box1 = PRBox(coin=coins[0]), PRBox(coin=coins[1])
        alice_out = AliceClassicalOutput(*_alice_side(first.index, second.index, box0, box1))
        received = alice_out.bits if fixed_b is None else fixed_b
        rows.append((coins, alice_out, *_bob_side(n, w, received, box0, box1)))
    return tuple(rows)


def channel_branches(
    joint: StateVector,
    inputs: tuple[int, int, int] = (0, 1, 2),
    *,
    b: tuple[int, int] | None = None,
) -> list[ChannelBranch]:
    """Enumerate all branches of the box acting on registers of ``joint``.

    ``inputs`` names the (A', A'', choice) qubits; any remaining qubits
    ride along untouched, so the channel can be probed with one half of
    an entangled state.  ``b=None`` wires Alice's output to Bob's input;
    a fixed (b1, b0) models a Bob who never learned a.  Branch
    probabilities are exact and sum to 1.
    """
    q_apr, q_adp, q_r = inputs
    extended, spectators = _register(joint, inputs)
    n = joint.num_qubits
    fixed_b = None if b is None else _as_bits(b)

    branches: list[ChannelBranch] = []
    for w in (0, 1):
        p_w, after_w = measure_project(extended, q_r, w)
        if after_w is None:
            continue
        for first, (p1, after_first) in zip(_BELL_OUTCOMES, bell_projections(after_w, (q_apr, n))):
            if after_first is None:
                continue
            seconds = bell_projections(after_first, (q_adp, n + 2))
            for second, (p2, after_second) in zip(_BELL_OUTCOMES, seconds):
                if after_second is None:
                    continue
                leaf = OutcomeNode(after_second)
                probability = p_w * p1 * p2 * 0.25
                for coins, alice_out, pr_outputs, correction, target in _wiring(
                    n, w, first, second, fixed_b
                ):
                    branches.append(
                        ChannelBranch(
                            probability=probability,
                            w=w,
                            first_bell=first,
                            second_bell=second,
                            coins=coins,
                            alice=alice_out,
                            pr_outputs=pr_outputs,
                            correction=correction,
                            output=_leaf_output(leaf, target, correction, spectators),
                        )
                    )
    return branches


def branch_sums(
    branches: list[ChannelBranch], scale: float = 1
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Reduce an enumeration: (Alice's distribution, output sum, per-bits sums).

    The distribution is indexed by 2*a1 + a0.  The output sum is
    sum(scale * p * output) over all branches, and the per-bits sums
    split it by Alice's (a1, a0).  Branches are summed in order, so the
    same enumeration always gives the same floats.
    """
    dist = np.zeros(4)
    total = np.zeros_like(branches[0].output.matrix)
    parts = {bits: np.zeros_like(total) for bits in product((0, 1), repeat=2)}
    for branch in branches:
        dist[branch.alice.index] += branch.probability
        contribution = scale * branch.probability * branch.output.matrix
        total += contribution
        parts[branch.alice.bits] += contribution
    return dist, total, parts


def sample_channel(
    joint: StateVector,
    rng: np.random.Generator,
    inputs: tuple[int, int, int] = (0, 1, 2),
    *,
    b: tuple[int, int] | None = None,
) -> tuple[int, AliceClassicalOutput, DensityMatrix]:
    """One sampled execution of the box on registers of ``joint``.

    Mirrors channel_branches but draws each outcome from the rng (choice,
    both Bell measurements, then the coins); used by the sampled
    (statistical) verification paths.
    """
    n = joint.num_qubits
    spectators = _spectators(n, inputs)
    fixed_b = None if b is None else _as_bits(b)
    w, node = _channel_tree(n, joint.amplitudes.tobytes(), tuple(inputs)).draw(rng)
    first, node = node.draw(rng)
    second, leaf = node.draw(rng)
    box0, box1 = PRBox(rng), PRBox(rng)
    alice_out = AliceClassicalOutput(*_alice_side(first, second, box0, box1))
    received = alice_out.bits if fixed_b is None else fixed_b
    _, correction, target = _bob_side(n, w, received, box0, box1)
    return w, alice_out, _leaf_output(leaf, target, correction, spectators)


def sample_channel_block(
    joint: StateVector, words: np.ndarray, inputs: tuple[int, int, int] = (0, 1, 2)
) -> tuple[np.ndarray, list[DensityMatrix]]:
    """``sample_channel`` rounds with Alice's bits wired to Bob, all at once.

    Row t of ``words`` holds raw words 0-3 of trial t's stream, the draws
    ``sample_channel`` makes: the choice, both Bell measurements, the
    coins.  Returns each trial's index into the list of distinct outputs.
    """
    n = joint.num_qubits
    spectators = _spectators(n, inputs)
    tree = _channel_tree(n, joint.amplitudes.tobytes(), tuple(inputs))
    outcomes, ends, leaves = tree.walk(word_uniform(words[:, :3]))
    box0, box1 = _boxes(words[:, 3])
    w = outcomes[:, 0]
    alice = _alice_side(outcomes[:, 1], outcomes[:, 2], box0, box1)
    _, correction, target = _bob_side(n, w, alice, box0, box1)
    return _leaf_outputs(leaves, ends, target, correction, spectators)


def alice_output_distribution(
    psi: StateVector, phi: StateVector, omega: StateVector
) -> np.ndarray:
    """Exact distribution of Alice's two-bit output, indexed by 2*a1 + a0."""
    return branch_sums(channel_branches(_round_register(psi, phi, omega)))[0]


def sample_alice_output(
    psi: StateVector, phi: StateVector, w: int, rng: np.random.Generator
) -> AliceClassicalOutput:
    """Alice's output from one sampled round with Bob choosing ``w``.

    Bob's inputs are fed to the boxes to complete the round, but his
    output state is not needed for distribution checks and is skipped.
    """
    res = QracResources(rng)
    alice_out = qrac_alice(psi, phi, res)
    res.box0.bob(w)
    res.box1.bob(w)
    return alice_out


def sample_alice_outputs(psi: StateVector, phi: StateVector, words: np.ndarray) -> np.ndarray:
    """Alice's output index 2*a1 + a0 of ``sample_alice_output`` rounds, at once.

    Row t of ``words`` holds the three raw words round t draws: the
    coins and Alice's two Bell measurements.  Bob's choice changes none
    of Alice's bits, so it is not needed.
    """
    bells, _, _ = _alice_root(psi, phi).walk(word_uniform(words[:, 1:3]))
    box0, box1 = _boxes(words[:, 0])
    a1, a0 = _alice_side(bells[:, 0], bells[:, 1], box0, box1)
    return 2 * a1 + a0


def bob_view_distribution(
    psi: StateVector, phi: StateVector, w: int
) -> dict[tuple[int, int, int, int], tuple[float, np.ndarray]]:
    """Joint distribution of Bob's complete final view, exactly.

    Keyed by (a1, a0, B0, B1), the classical data Bob holds after a
    round; his derived correction bits are functions of these.  Values
    are (probability, probability-weighted output matrix).  Privacy of
    the unchosen qubit means this whole dictionary is independent of it.
    """
    view: dict[tuple[int, int, int, int], tuple[float, np.ndarray]] = {}
    for branch in channel_branches(_round_register(psi, phi, basis_state(1, w))):
        key = branch.alice.bits + branch.pr_outputs
        weight, matrix = view.get(key, (0.0, np.zeros((2, 2), dtype=complex)))
        view[key] = (
            weight + branch.probability,
            matrix + branch.probability * branch.output.matrix,
        )
    return view
