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
assert identities at 1e-10 instead of collecting statistics).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .boxes import PRBox, _check_bit
from .metering import ProtocolError
from .quantum import (
    KET0,
    PHI_PLUS,
    _BELL_OUTCOMES,
    BellOutcome,
    DensityMatrix,
    StateVector,
    apply_unitary,
    basis_state,
    bell_measure,
    bell_project,
    measure_computational,
    measure_project,
    pauli_correction,
    reduced_density,
    tensor,
)

A_PRIME, A_DPRIME, EPR1_ALICE, EPR1_BOB, EPR2_ALICE, EPR2_BOB = range(6)

_EPR_PAIRS = tensor([PHI_PLUS, PHI_PLUS])
_FRESH_STATE = tensor([KET0, KET0, _EPR_PAIRS])


def _load_inputs(psi: StateVector, phi: StateVector) -> StateVector:
    """psi (x) phi (x) both EPR pairs, assembled in one shot."""
    amps = np.einsum(
        "i,j,k->ijk", psi.amplitudes, phi.amplitudes, _EPR_PAIRS.amplitudes
    )
    return StateVector(6, amps.reshape(-1))


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

    The input registers start as placeholders and are loaded when Alice's
    side runs; the EPR pairs are exact |Phi+> states from the start.
    """

    def __init__(self, rng: np.random.Generator, *, coins: tuple[int, int] | None = None):
        self.rng = rng
        if coins is None:
            self.box0 = PRBox(rng)
            self.box1 = PRBox(rng)
        else:
            self.box0 = PRBox(coin=coins[0])
            self.box1 = PRBox(coin=coins[1])
        self.state = _FRESH_STATE
        self.alice_done = False
        self.bob_done = False


def _check_single_qubit(state: StateVector, name: str) -> None:
    if state.num_qubits != 1:
        raise ValueError(f"{name} must be a single-qubit state")


def _register(joint: StateVector, inputs: tuple[int, int, int]) -> tuple[StateVector, list[int]]:
    """joint (x) both EPR pairs, and the qubits of ``joint`` that ride along.

    The first pair lands on qubits (n, n+1) and the second on (n+2, n+3),
    Alice's half first, where n is the size of ``joint``.
    """
    n = joint.num_qubits
    if len(set(inputs)) != 3:
        raise ValueError("input registers must be distinct")
    for q in inputs:
        if not 0 <= q < n:
            raise ValueError(f"input register {q} out of range")
    spectators = sorted(set(range(n)) - set(inputs))
    return tensor([joint, PHI_PLUS, PHI_PLUS]), spectators


def _alice_side(
    first: BellOutcome, second: BellOutcome, box0: PRBox, box1: PRBox
) -> AliceClassicalOutput:
    """Feed first XOR second into the boxes; publish the first outcome masked."""
    mask0 = box0.alice(first.bit0 ^ second.bit0)
    mask1 = box1.alice(first.bit1 ^ second.bit1)
    return AliceClassicalOutput(a1=first.bit1 ^ mask1, a0=first.bit0 ^ mask0)


def _bob_side(
    state: StateVector,
    epr: int,
    w: int,
    b,
    box0: PRBox,
    box1: PRBox,
    spectators: list[int],
) -> tuple[tuple[int, int], tuple[int, int], DensityMatrix]:
    """Unmask ``b`` through the boxes, correct Bob's half of pair w, keep it.

    ``epr`` is the first qubit of the first EPR pair, so Bob's halves are
    ``epr + 1`` and ``epr + 3``.  Returns his box outputs (B0, B1), the
    (bit1, bit0) correction and the state of ``spectators`` + his qubit.
    """
    b1_in, b0_in = _as_bits(b)
    pr_outputs = (box0.bob(w), box1.bob(w))
    correction = (b1_in ^ pr_outputs[1], b0_in ^ pr_outputs[0])
    target = epr + 1 if w == 0 else epr + 3
    corrected = apply_unitary(state, pauli_correction(*correction), (target,))
    return pr_outputs, correction, reduced_density(corrected, spectators + [target])


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
    state = _load_inputs(psi, phi)
    first, state = bell_measure(state, (A_PRIME, EPR1_ALICE), res.rng)
    second, state = bell_measure(state, (A_DPRIME, EPR2_ALICE), res.rng)
    res.state = state
    res.alice_done = True
    return _alice_side(first, second, res.box0, res.box1)


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
    _, _, output = _bob_side(res.state, EPR1_ALICE, w, bits, res.box0, res.box1, [])
    res.bob_done = True
    return output


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
                for coins in product((0, 1), repeat=2):
                    box0, box1 = PRBox(coin=coins[0]), PRBox(coin=coins[1])
                    alice_out = _alice_side(first, second, box0, box1)
                    pr_outputs, correction, rho = _bob_side(
                        after_second, n, w, alice_out if b is None else b,
                        box0, box1, spectators,
                    )
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
    q_apr, q_adp, q_r = inputs
    extended, spectators = _register(joint, inputs)
    n = joint.num_qubits
    w, state = measure_computational(extended, q_r, rng)
    first, state = bell_measure(state, (q_apr, n), rng)
    second, state = bell_measure(state, (q_adp, n + 2), rng)
    box0, box1 = PRBox(rng), PRBox(rng)
    alice_out = _alice_side(first, second, box0, box1)
    _, _, rho = _bob_side(
        state, n, w, alice_out if b is None else b, box0, box1, spectators
    )
    return w, alice_out, rho


def alice_output_distribution(
    psi: StateVector, phi: StateVector, omega: StateVector
) -> np.ndarray:
    """Exact distribution of Alice's two-bit output, indexed by 2*a1 + a0."""
    dist = np.zeros(4)
    for branch in channel_branches(tensor([psi, phi, omega])):
        dist[branch.alice.index] += branch.probability
    return dist


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
