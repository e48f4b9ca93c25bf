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
``_bob_side``, and run by two executors: sampled (``qrac_alice`` /
``qrac_bob`` and ``sample_channel`` draw each outcome from an rng) and
enumerated (``channel_branches`` visits every choice outcome x Bell
outcomes x coins branch with its exact probability, so the suite can
assert identities at 1e-10 instead of collecting statistics).  Both
compute Bob's corrected output through one path, ``_leaf_output``,
which keeps it on the collapsed state's ``OutcomeNode``.  With Alice's
bits wired to Bob the coins cancel out of his correction, so the four
coin branches of an enumerated leaf share one output.  Every exact
claim reduces an enumeration the same way, through ``branch_sums``:
Alice's output distribution and the probability-weighted output, in
total and split by Alice's bits.

The sampled executor walks an outcome tree (``quantum.OutcomeNode``)
instead of redoing the linear algebra in every trial.  For fixed inputs
a round reaches few states: at most 2 choice outcomes x 4 x 4 Bell
outcomes, and each leaf few corrected outputs.  A trial draws every
outcome from its own rng, in the same order and with the same single
uniform draw per measurement as before; the first trial that reaches a
state computes it, and later trials reuse it, Bob's corrected output
included.  The roots are cached by the exact amplitude bytes of the
inputs: Alice's last 16 (psi, phi) pairs, Bob's last 16 choice states
omega (measured in ``harness.run_qrac_protocol``), and the last 4
(joint, ``inputs``) registers of ``sample_channel``, since a tree holds
up to 43 register states.  Results are bit-for-bit those of a fresh
computation.  The box coins (drawn two to a word by ``rng.fair_bits``),
the PR-box wiring and all validation still run in every trial.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import PRBox, _check_bit
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
    bell_project,
    measure_project,
    pauli_correction,
    reduced_density,
    tensor,
)
from .rng import fair_bits

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
        coin0, coin1 = fair_bits(rng, 2) if coins is None else coins
        self.box0 = PRBox(coin=coin0)
        self.box1 = PRBox(coin=coin1)
        self.leaf: OutcomeNode | None = None
        self.alice_done = False
        self.bob_done = False


def _check_single_qubit(state: StateVector, name: str) -> None:
    if state.num_qubits != 1:
        raise ValueError(f"{name} must be a single-qubit state")


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


def _alice_side(
    first: BellOutcome, second: BellOutcome, box0: PRBox, box1: PRBox
) -> AliceClassicalOutput:
    """Feed first XOR second into the boxes; publish the first outcome masked."""
    mask0 = box0.alice(first.bit0 ^ second.bit0)
    mask1 = box1.alice(first.bit1 ^ second.bit1)
    return AliceClassicalOutput(a1=first.bit1 ^ mask1, a0=first.bit0 ^ mask0)


def _bob_side(
    epr: int, w: int, b, box0: PRBox, box1: PRBox
) -> tuple[tuple[int, int], tuple[int, int], int]:
    """Unmask ``b`` through the boxes: what Bob corrects, and on which qubit.

    ``epr`` is the first qubit of the first EPR pair, so Bob's halves are
    ``epr + 1`` and ``epr + 3``.  Returns his box outputs (B0, B1), the
    (bit1, bit0) correction and the target qubit, his half of pair w.
    """
    b1_in, b0_in = _as_bits(b)
    pr_outputs = (box0.bob(w), box1.bob(w))
    correction = (b1_in ^ pr_outputs[1], b0_in ^ pr_outputs[0])
    return pr_outputs, correction, epr + 1 if w == 0 else epr + 3


def _leaf_output(
    leaf: OutcomeNode, target: int, correction: tuple[int, int], spectators: list[int]
) -> DensityMatrix:
    """Correct ``target`` and keep it: the state of ``spectators`` + target.

    Computed once per (target, correction) and kept on the leaf; a leaf
    belongs to one register, and so to one set of spectators.
    """
    output = leaf.memo.get((target, correction))
    if output is None:
        corrected = apply_unitary(leaf.state, pauli_correction(*correction), (target,))
        output = reduced_density(corrected, spectators + [target])
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
    _check_single_qubit(psi, "psi")
    _check_single_qubit(phi, "phi")
    if res.alice_done:
        raise ProtocolError("Alice's side of these resources was already used")
    root = _alice_tree(psi.amplitudes.tobytes(), phi.amplitudes.tobytes())
    first, node = root.draw(res.rng)
    second, res.leaf = node.draw(res.rng)
    res.alice_done = True
    return _alice_side(_BELL_OUTCOMES[first], _BELL_OUTCOMES[second], res.box0, res.box1)


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

    branches: list[ChannelBranch] = []
    for w in (0, 1):
        p_w, after_w = measure_project(extended, q_r, w)
        if after_w is None:
            continue
        for first in _BELL_OUTCOMES:
            p1, after_first = bell_project(after_w, (q_apr, n), first)
            if after_first is None:
                continue
            for second in _BELL_OUTCOMES:
                p2, after_second = bell_project(after_first, (q_adp, n + 2), second)
                if after_second is None:
                    continue
                leaf = OutcomeNode(after_second)
                for coins in product((0, 1), repeat=2):
                    box0, box1 = PRBox(coin=coins[0]), PRBox(coin=coins[1])
                    alice_out = _alice_side(first, second, box0, box1)
                    pr_outputs, correction, target = _bob_side(
                        n, w, alice_out if b is None else b, box0, box1
                    )
                    rho = _leaf_output(leaf, target, correction, spectators)
                    branches.append(
                        ChannelBranch(
                            probability=p_w * p1 * p2 * 0.25,
                            w=w,
                            first_bell=first,
                            second_bell=second,
                            coins=coins,
                            alice=alice_out,
                            pr_outputs=pr_outputs,
                            correction=correction,
                            output=rho,
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
    w, node = _channel_tree(n, joint.amplitudes.tobytes(), tuple(inputs)).draw(rng)
    first, node = node.draw(rng)
    second, leaf = node.draw(rng)
    coin0, coin1 = fair_bits(rng, 2)
    box0, box1 = PRBox(coin=coin0), PRBox(coin=coin1)
    alice_out = _alice_side(_BELL_OUTCOMES[first], _BELL_OUTCOMES[second], box0, box1)
    _, correction, target = _bob_side(n, w, alice_out if b is None else b, box0, box1)
    return w, alice_out, _leaf_output(leaf, target, correction, spectators)


def alice_output_distribution(
    psi: StateVector, phi: StateVector, omega: StateVector
) -> np.ndarray:
    """Exact distribution of Alice's two-bit output, indexed by 2*a1 + a0."""
    return branch_sums(channel_branches(tensor([psi, phi, omega])))[0]


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
    for branch in channel_branches(tensor([psi, phi, basis_state(1, w)])):
        key = branch.alice.bits + branch.pr_outputs
        weight, matrix = view.get(key, (0.0, np.zeros((2, 2), dtype=complex)))
        view[key] = (
            weight + branch.probability,
            matrix + branch.probability * branch.output.matrix,
        )
    return view
