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
(``boxes.PRBox``, or ``boxes.PRBoxes`` for int arrays).  The two-party
API, ``qrac_alice`` / ``qrac_bob``, runs it on one-shot ``PRBox``es.
Every other round runs through one pass, ``_play``: rows of (leaf, w,
Bell outcome indices, coins) in, Alice's bits, Bob's box outputs and
corrections and his distinct outputs out, from one ``PRBoxes`` pair.
Its one caller, ``_full_play``, plays every branch row of an outcome
table once, row 4*leaf + 2*coin0 + coin1, and keeps that play in the
table's memos.

Both executors read one kind of object, a ``quantum.OutcomeTable``
built by ``quantum.outcome_table``: K registers taken through their
measurement schedule level by level, one stacked projection a level
(every float that of projecting each state alone), with each parent's
running sum of outcome probabilities and each leaf's path, probability
and amplitudes.  A round runs two ways, both on a table's one full
play:

* sampled (``_sampled_rounds``, ``_channel_block``): a block of
  trials at once, from the raw Philox words of each trial's stream (the
  word map is in ``rng``).  ``OutcomeTable.walk``, the one sampler,
  maps each trial's uniforms to its leaf, one inverse-CDF lookup over
  the running sums a level.  With its coin word, a trial's leaf gives
  its branch row (``_branch_rows``), and the trial gathers that row's
  bits and output index from the full play of its cached table.  A
  ``qrac`` round's table is Alice's own, which has no choice level: its
  play covers each w in {0, 1} with every leaf of hers, rows
  4*(w*L + leaf) + coins, at most 128, and a trial's w is the choice
  table's.  ``_alice_rows`` (with ``_alice_block``, its results
  gathered trial by trial) and ``dense_decode_block`` need no output of
  Bob's and read the same words the same way; each also returns every
  trial's leaf, or row, for the reports' leaf-frequency checks.  A
  single trial is a one-row block: ``sample_channel`` and
  ``sample_alice_output`` are row 0 of a block on their rng's next raw
  words, and ``harness.run_qrac_protocol`` is the report's block on one
  trial, so a replay of trial i is trial i of its report;
* enumerated (``channel_branches``): the full play of a fresh table of
  ``_channel_round``'s schedule (the choice, then each Bell
  measurement), every branch with its exact probability, so the suite
  can assert identities at 1e-10 instead of collecting statistics.  It
  returns one ``BranchTable``: the leaf probabilities, a row of ints
  per branch and the distinct outputs as one (N, d, d) matrix stack.
  ``branch_sums`` indexes that stack; a ``DensityMatrix`` per output
  and a ``ChannelBranch`` are built only when a caller asks for them.
  ``channel_branches`` is the one-register view of
  ``_stacked_branches``, which enumerates K registers of one size and
  schedule in one pass: one table with K roots, so one projection a
  level, one partial trace a target and one density check for all K,
  and each register's ``BranchTable`` a run of slices, equal to its
  lone enumeration bit for bit.

Bob's corrected outputs come from one function, ``_leaf_outputs``.  It
returns each row's index into the distinct outputs and those outputs as
one stack in key order.  They are computed by ``_corrected_outputs``:
one fancy-indexed slice of the table's leaves and one stacked partial
trace per target, then one exact signed relabelling of the stack
(``_relabelled``) for the corrections Z^c1 X^c0 rho X^c0 Z^c1: entry
(r, c) is rho[r ^ c0, c ^ c0] times (-1)^(c1 * (r & 1)) (-1)^(c1 * (c &
1)), the target being the last kept qubit.  No unitary is applied.  The
Pauli entries are 0 and +-1, so correcting the state and tracing it out
sums the same products in the same order, up to sign, and negation
commutes with rounding: every output is that of ``apply_unitary`` +
``reduced_density`` bit for bit, except possibly the sign of an exact
zero, which no report sees.  The outputs of a call are checked as one
stack by ``quantum._checked_matrices``, with the checks and messages of
``DensityMatrix``.  A ``DensityMatrix`` is built only where a public API
returns one: ``qrac_bob``, ``sample_channel``,
``harness.run_qrac_protocol`` and ``BranchTable.outputs``.  With
Alice's bits wired to Bob the coins cancel out of his correction, so
the four coin branches of a leaf share one output.  Every exact claim
reduces an enumeration through ``branch_sums``.

The sampled executors walk a cached table instead of redoing the
linear algebra in every trial.  For fixed inputs a round reaches few
states: at most 2 choice outcomes x 4 x 4 Bell outcomes, and each leaf
few corrected outputs.  The first block on a table plays all of its
rows, and later blocks, of either executor, gather from that play.
All sampled tables share one cache, ``_tree``, keyed by a register's
exact amplitude bytes and its measurement schedule: Alice's loaded
register with her two Bell measurements, Bob's choice qubit omega with
its computational measurement, the channel round of ``_channel_round``
(the one ``channel_branches`` enumerates), and each dense-coded payload
with its Bell decoding.  Results are bit-for-bit those of a fresh
computation.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .boxes import PRBox, PRBoxes, _check_bit
from .metering import ProtocolError
from .quantum import (
    PHI_PLUS,
    _BELL_OUTCOMES,
    BellOutcome,
    DensityMatrix,
    OutcomeTable,
    StateVector,
    _checked_matrices,
    _checked_states,
    _reduced_matrices,
    _wrap,
    apply_unitary,
    bell_measure,
    pauli_correction,
    outcome_table,
    tensor,
)
from .rng import word_bits, word_uniform

A_PRIME, A_DPRIME, EPR1_ALICE, EPR1_BOB, EPR2_ALICE, EPR2_BOB = range(6)

_EPR_PAIRS = tensor([PHI_PLUS, PHI_PLUS])

# the box coins (coin0, coin1) of branch row 4*leaf + 2*coin0 + coin1, by row % 4
_COIN_PAIRS = np.array(list(product((0, 1), repeat=2)))

# the measurement schedules of the cached outcome tables, first to last
_ALICE_MEASUREMENTS = (("bell", (A_PRIME, EPR1_ALICE)), ("bell", (A_DPRIME, EPR2_ALICE)))
_CHOICE_MEASUREMENT = (("computational", 0),)
_DENSE_DECODING = (("bell", (0, 1)),)


def _load_inputs(psi: StateVector, phi: StateVector) -> np.ndarray:
    """The amplitudes of psi (x) phi (x) both EPR pairs, assembled in one shot."""
    amps = np.einsum(
        "i,j,k->ijk", psi.amplitudes, phi.amplitudes, _EPR_PAIRS.amplitudes
    )
    return amps.reshape(-1)


@lru_cache(maxsize=16)
def _tree(num_qubits: int, amplitudes: bytes, measurements: tuple) -> OutcomeTable:
    """The outcome table of ``measurements`` on the register of these exact amplitudes.

    A table keeps at most 32 leaf states (a choice, then two Bell
    measurements: 2 x 4 x 4), and the largest sampled register is the
    channel's 10-qubit probe register, at 16 KiB a state; its play adds
    one 4 KiB output a leaf, so the 16 tables kept take at most about
    10 MiB.  The benchmark's sampled
    reports reach 10 (3 Alice, 2 choice, 1 probe and 4 payload tables);
    a smaller cache would miss on every pass.
    """
    root = _checked_states(num_qubits, np.frombuffer(amplitudes, dtype=complex)[None])
    return outcome_table(num_qubits, root, measurements)


def _root(register: StateVector, measurements: tuple) -> OutcomeTable:
    """The cached ``_tree`` of ``register`` and ``measurements``."""
    return _tree(register.num_qubits, register.amplitudes.tobytes(), measurements)


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


_ALICE_OUTPUTS = tuple(AliceClassicalOutput(i >> 1, i & 1) for i in range(4))


def _as_bits(b) -> tuple[int, int]:
    if isinstance(b, AliceClassicalOutput):
        return b.bits
    b1, b0 = b
    return (_check_bit(b1, "b1"), _check_bit(b0, "b0"))


class QracResources:
    """Shared one-round resources: two EPR pairs and two fresh PR-boxes.

    The register (both inputs and both exact |Phi+> pairs) is loaded when
    Alice's side runs; ``leaf`` then holds her outcome table and the
    leaf her two Bell measurements reached, for Bob's side.  Each side
    runs once: a set ``leaf`` means Alice's side has run, and the boxes
    refuse Bob's side twice.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.box0 = PRBox(rng)
        self.box1 = PRBox(rng)
        self.leaf: tuple[OutcomeTable, int] | None = None


def _check_qubits(**states: StateVector) -> None:
    """Each named input of a round (psi, phi, omega) must be one qubit."""
    for name, state in states.items():
        if state.num_qubits != 1:
            raise ValueError(f"{name} must be a single-qubit state")


def _alice_root(psi: StateVector, phi: StateVector) -> OutcomeTable:
    """Alice's two Bell measurements on the loaded register of checked (psi, phi)."""
    _check_qubits(psi=psi, phi=phi)
    # a product of checked states: ``_tree`` checks the register on a miss
    return _tree(6, _load_inputs(psi, phi).tobytes(), _ALICE_MEASUREMENTS)


def _choice_root(omega: StateVector) -> OutcomeTable:
    """Bob's computational measurement of a checked choice state omega."""
    _check_qubits(omega=omega)
    return _root(omega, _CHOICE_MEASUREMENT)


def _round_register(psi: StateVector, phi: StateVector, omega: StateVector) -> StateVector:
    """psi (x) phi (x) omega: an exact round's register, inputs checked."""
    _check_qubits(psi=psi, phi=phi, omega=omega)
    return tensor([psi, phi, omega])


def _spectators(n: int, inputs: tuple[int, int, int]) -> list[int]:
    """Check the (A', A'', choice) registers; the other qubits ride along."""
    if len(set(inputs)) != 3:
        raise ValueError("input registers must be distinct")
    for q in inputs:
        if not 0 <= q < n:
            raise ValueError(f"input register {q} out of range")
    return sorted(set(range(n)) - set(inputs))


def _channel_round(
    joint: StateVector, inputs: tuple[int, int, int]
) -> tuple[np.ndarray, tuple, list[int]]:
    """A channel round on ``joint``: its register, its schedule and the qubits that ride along.

    The register is joint (x) both EPR pairs, as ``tensor`` builds it,
    left unchecked: the first pair lands on qubits (n, n+1) and the
    second on (n+2, n+3), Alice's half first, where n is the size of
    ``joint``.  The schedule is Bob's choice, then Alice's two Bell
    measurements, first to last.
    """
    q_apr, q_adp, q_r = inputs
    n = joint.num_qubits
    spectators = _spectators(n, inputs)
    pair = PHI_PLUS.amplitudes
    register = np.multiply.outer(np.multiply.outer(joint.amplitudes, pair), pair).reshape(-1)
    schedule = (("computational", q_r), ("bell", (q_apr, n)), ("bell", (q_adp, n + 2)))
    return register, schedule, spectators


def _channel_root(
    joint: StateVector, inputs: tuple[int, int, int]
) -> tuple[OutcomeTable, list[int]]:
    """The outcome table of a ``_channel_round``, and its spectators.

    Keyed like ``_alice_root``: by the register's amplitudes, left
    unchecked until a ``_tree`` miss.
    """
    register, schedule, spectators = _channel_round(joint, inputs)
    return _tree(joint.num_qubits + 4, register.tobytes(), schedule), spectators


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


# _SIGNS[c1][0, j, 0, k] = (-1)^(c1 * j) (-1)^(c1 * k), by the last bits j, k of (r, c)
_SIGNS = np.stack([np.ones((2, 2)), np.outer([1.0, -1.0], [1.0, -1.0])]).reshape(2, 1, 2, 1, 2)
_SIGNS.setflags(write=False)


def _relabelled(rho: np.ndarray, correction) -> np.ndarray:
    """Z^c1 X^c0 rho X^c0 Z^c1 on the last qubit of rho, by exact signed relabelling.

    ``rho`` may be an (N, d, d) stack, c1 and c0 one entry a matrix.
    With the last qubit on axes of its own, X^c0 selects both axes
    reversed and Z^c1 multiplies by ``_SIGNS[c1]``.  The multiply runs
    for c1 = 0 too: complex times real can flip the sign of an exact zero.
    """
    c1, c0 = correction
    half = rho.shape[-1] // 2
    four = rho.reshape(rho.shape[:-2] + (half, 2, half, 2))
    flip = np.reshape(c0, np.shape(c0) + (1,) * 4)
    four = np.where(flip, four[..., ::-1, :, ::-1], four)
    return (four * _SIGNS[c1]).reshape(rho.shape)


def _leaf_outputs(
    table: OutcomeTable, ends: np.ndarray, target, correction, spectators: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The state of ``spectators`` + corrected ``target`` of each row, once per distinct one.

    Row t ends on leaf ``ends[t]`` of ``table``; ``target`` and the
    (bit1, bit0) ``correction`` are ints or one entry a row.  Returns
    each row's index into the distinct outputs, and those outputs, from
    ``_corrected_outputs``, as one read-only (N, d, d) stack in the
    order of their (leaf, target, bit1, bit0) keys.
    """
    shape = (len(table.paths), table.leaves.shape[1].bit_length() - 1, 2, 2)
    keys = np.ravel_multi_index((ends, target, *correction), shape)  # sort as the tuples do
    distinct, inverse = np.unique(keys, return_inverse=True)
    outputs = _corrected_outputs(table.leaves, np.unravel_index(distinct, shape), spectators)
    return inverse.reshape(-1), outputs


def _corrected_outputs(leaves: np.ndarray, keys: tuple, spectators: list[int]) -> np.ndarray:
    """The outputs of (leaf, target, bit1, bit0) ``keys``, computed raw and checked as one stack.

    ``keys`` holds one array of each.  For each target, one fancy-indexed
    slice of ``leaves`` (each leaf once) and one stacked partial trace of
    it; then one signed relabelling of every corrected output's trace,
    and one ``_checked_matrices`` of the stack.  The leaves belong to
    one set of spectators.
    """
    leaf, qubit, c1, c0 = keys
    dim = 2 ** (len(spectators) + 1)
    raw = np.empty((len(leaf), dim, dim), dtype=complex)
    for q in np.flatnonzero(np.bincount(qubit)).tolist():  # np.unique would import numpy.ma
        assert all(s < q for s in spectators), "target must be the last kept qubit"
        rows = qubit == q
        ends, base = np.unique(leaf[rows], return_inverse=True)
        raw[rows] = _reduced_matrices(leaves[ends], spectators + [q])[base]
    moved = (c1 | c0) != 0  # an uncorrected output is its partial trace itself
    raw[moved] = _relabelled(raw[moved], (c1[moved], c0[moved]))
    return _checked_matrices(len(spectators) + 1, raw)


def _density(outputs: np.ndarray, index: int) -> DensityMatrix:
    """Row ``index`` of a checked stack of outputs as the ``DensityMatrix`` a public API returns."""
    num_qubits = outputs.shape[-1].bit_length() - 1
    return _wrap(DensityMatrix, num_qubits, "matrix", outputs[index : index + 1])[0]


def _branch_rows(leaves: np.ndarray, coin_words: np.ndarray) -> np.ndarray:
    """Each trial's branch row 4*leaf + 2*coin0 + coin1, in ``_COIN_PAIRS`` order.

    ``coin_words`` holds each trial's coin word; coin0 and coin1 are its
    two fair bits (``word_bits``), bits 31 and 63.
    """
    coin0, coin1 = word_bits(coin_words)
    return 4 * leaves + (2 * coin0 + coin1).astype(np.intp)


def _play(table, ends, w, bells, coins, epr: int, spectators, b=None):
    """Rows of rounds with every outcome and coin given: the wiring and Bob's outputs.

    Row t ends on leaf ``ends[t]`` of ``table``, reached by Bob's choice
    ``w[t]`` and Alice's Bell outcome indices ``bells[t]`` (first,
    second), with box coins ``coins[t]``; ``epr`` is the first qubit of
    the first EPR pair.
    ``b=None`` wires Alice's bits to Bob; a fixed (b1, b0) of ints
    models a Bob who never learned them.  Returns Alice's bits (a1, a0),
    Bob's box outputs (B0, B1) and correction (bit1, bit0), one array
    each, then each row's index into the stack of distinct outputs and
    that stack (``_leaf_outputs``).
    """
    box0, box1 = PRBoxes(coins[:, 0]), PRBoxes(coins[:, 1])
    alice = _alice_side(bells[:, 0], bells[:, 1], box0, box1)
    pr_outputs, correction, target = _bob_side(epr, w, alice if b is None else b, box0, box1)
    ids, outputs = _leaf_outputs(table, ends, target, correction, spectators)
    return alice, pr_outputs, correction, ids, outputs


def _full_play(table: OutcomeTable, epr: int, spectators, both_choices=False, b=None):
    """``_play`` of every branch row of ``table``, once, kept in the table's memos.

    Row 4*leaf + 2*coin0 + coin1, numbered as ``_branch_rows`` numbers a
    trial's.  A leaf's path begins with Bob's choice, unless
    ``both_choices``: a table without a choice level (Alice's) is played
    for w = 0 and w = 1, w-major, so its row leaf is w*L + leaf of its L
    leaves.  ``b`` is ``_play``'s; the play of each ``b`` is computed on
    the first call and every later call returns it.
    """
    key = ("play", b)
    if key not in table.memos:
        paths = table.paths
        if both_choices:
            paths = np.column_stack([np.repeat([0, 1], len(paths)), np.tile(paths, (2, 1))])
        rows = np.arange(4 * len(paths))
        leaves = rows >> 2
        table.memos[key] = _play(
            table, leaves % len(table.paths), paths[leaves, 0], paths[leaves, 1:],
            _COIN_PAIRS[rows & 3], epr, spectators, b,
        )
    return table.memos[key]


def qrac_alice(
    psi: StateVector, phi: StateVector, res: QracResources
) -> AliceClassicalOutput:
    """Alice's side: two Bell measurements wired through the PR-boxes.

    Loads the input registers, Bell-measures (A', first pair) and
    (A'', second pair), feeds the XORed outcome bits into the boxes and
    returns the masked two-bit output.  The output is uniform on
    {00, 01, 10, 11} whatever the inputs.  Her Bell outcomes are a
    one-row walk of her outcome table on the rng's next two raw words.
    """
    table = _alice_root(psi, phi)
    if res.leaf is not None:
        raise ProtocolError("Alice's side of these resources was already used")
    uniforms = word_uniform(res.rng.bit_generator.random_raw((1, 2)))
    res.leaf = table, int(table.walk(uniforms)[0])
    first, second = table.paths[res.leaf[1]].tolist()
    return AliceClassicalOutput(*_alice_side(first, second, res.box0, res.box1))


def qrac_bob(w: int, b, res: QracResources) -> DensityMatrix:
    """Bob's side: unmask via the PR-boxes, correct, keep the chosen qubit.

    ``b`` is his two-bit classical input (b1, b0); feeding Alice's output
    recovers her w-th input qubit exactly.  Everything except the chosen
    qubit is traced out before returning.  A second call is refused by
    the boxes (``PRBox.bob``), before any state changes.
    """
    _check_bit(w, "w")
    bits = _as_bits(b)
    if res.leaf is None:
        raise ProtocolError("Bob's side needs Alice's measurements on record")
    table, end = res.leaf
    _, correction, target = _bob_side(EPR1_ALICE, w, bits, res.box0, res.box1)
    return _density(_leaf_outputs(table, np.full(1, end), target, correction, [])[1], 0)


def _sampled_rounds(psi: StateVector, phi: StateVector, omega: StateVector, words: np.ndarray):
    """Standard rounds on fixed inputs, one per trial, all at once.

    Row t of ``words`` holds raw words 0-3 of trial t's stream: the box
    coins, omega, Alice's two Bell measurements.  Bob decodes Alice's
    bits as sent.  Returns Bob's choices w, Alice's bits (a1, a0), each
    trial's index into the stack of distinct outputs (Bob's chosen qubit)
    and that stack, then each trial's leaf of the round and the round's
    leaf probabilities.  A round's leaves are the pairs (leaf of Bob's
    choice table, leaf of Alice's table), choice-major, each of
    probability the product of its two leaves' probabilities.  Each
    trial gathers its results from row (w, Alice's leaf, coins) of the
    full play of Alice's table, and the stack is that play's.
    """
    table, choice = _alice_root(psi, phi), _choice_root(omega)
    uniforms = word_uniform(words[:, 1:4])
    picks, ends = choice.walk(uniforms[:, :1]), table.walk(uniforms[:, 1:])
    w = choice.paths[picks, 0]
    rows = _branch_rows(w * len(table.paths) + ends, words[:, 0])
    (a1, a0), _, _, ids, outputs = _full_play(table, EPR1_ALICE, [], both_choices=True)
    probabilities = np.outer(choice.probabilities, table.probabilities).ravel()
    leaves = picks * len(table.paths) + ends
    return w, (a1[rows], a0[rows]), ids[rows], outputs, leaves, probabilities


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


# the dense-coded payload of 2*bit1 + bit0, by index
_PAYLOADS = tuple(dense_encode(*_bell_bits(i), DenseCodingPair()) for i in range(4))


def dense_decode_block(index: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``dense_decode`` of the payloads of 2*bit1 + bit0 = ``index``, one per trial.

    Trial t measures with ``uniforms[t]``; returns the decoded Bell
    outcome indices, 2*bit1 + bit0 when decoding is right.
    """
    decoded = np.empty_like(index)
    for value in np.flatnonzero(np.bincount(index)).tolist():
        rows = index == value
        table = _root(_PAYLOADS[value], _DENSE_DECODING)
        decoded[rows] = table.paths[table.walk(uniforms[rows, None]), 0]
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


@dataclass(frozen=True, eq=False)
class BranchTable(Sequence):
    """An exact enumeration as arrays, a row per branch; a ``Sequence`` of ``ChannelBranch``.

    Each coin branch of leaf l has probability ``probabilities[l]``.
    Row t holds branch t's leaf, Bob's choice, Alice's two Bell outcome
    indices, the coins (coin0, coin1), Alice's output index 2*a1 + a0,
    Bob's box outputs (B0, B1) and correction (bit1, bit0), and the
    index of its output in ``_stack``, the distinct outputs as one
    read-only (N, d, d) array, which ``branch_sums`` indexes.  The
    ``DensityMatrix`` of each distinct output (``outputs``) and a
    ``ChannelBranch`` are built only when asked for: the outputs once,
    a branch each time the table is indexed or iterated.
    """

    probabilities: np.ndarray
    leaf: np.ndarray
    w: np.ndarray
    bells: np.ndarray
    coins: np.ndarray
    alice: np.ndarray
    pr_outputs: np.ndarray
    correction: np.ndarray
    output: np.ndarray
    _stack: np.ndarray

    @cached_property
    def outputs(self) -> list[DensityMatrix]:
        """The distinct outputs, a row of ``_stack`` each, wrapped once."""
        return _wrap(DensityMatrix, self._stack.shape[-1].bit_length() - 1, "matrix", self._stack)

    def __len__(self) -> int:
        return len(self.leaf)

    def _views(self, rows) -> list[ChannelBranch]:
        columns = (self.probabilities[self.leaf[rows]], self.w[rows], self.bells[rows],
                   self.coins[rows], self.alice[rows], self.pr_outputs[rows],
                   self.correction[rows], self.output[rows])
        return [
            ChannelBranch(p, w, _BELL_OUTCOMES[first], _BELL_OUTCOMES[second], tuple(coins),
                          _ALICE_OUTPUTS[a], tuple(pr_outputs), tuple(correction), self.outputs[i])
            for p, w, (first, second), coins, a, pr_outputs, correction, i
            in zip(*(column.tolist() for column in columns))
        ]

    def __getitem__(self, index):
        rows = np.arange(len(self))[index]
        return self._views(rows) if isinstance(index, slice) else self._views([rows])[0]

    def __iter__(self):
        return iter(self._views(slice(None)))


def channel_branches(
    joint: StateVector,
    inputs: tuple[int, int, int] = (0, 1, 2),
    *,
    b: tuple[int, int] | None = None,
) -> BranchTable:
    """Enumerate all branches of the box acting on registers of ``joint``.

    ``inputs`` names the (A', A'', choice) qubits; any remaining qubits
    ride along untouched, so the channel can be probed with one half of
    an entangled state.  ``b=None`` wires Alice's output to Bob's input;
    a fixed (b1, b0) models a Bob who never learned a.  Branch
    probabilities are exact and sum to 1.  The one-register view of
    ``_stacked_branches``.
    """
    return _stacked_branches([joint], inputs, b=b)[0]


def _stacked_branches(
    joints: Sequence[StateVector],
    inputs: tuple[int, int, int] = (0, 1, 2),
    *,
    b: tuple[int, int] | None = None,
) -> list[BranchTable]:
    """``channel_branches`` of each of K registers of one size, from one pass.

    One outcome table has the K rounds' registers as its roots, so each
    level is one stacked projection of every register's states, and one
    ``_full_play`` wires every branch of all K, with one partial trace a
    target, one relabelling and one density check for the whole stack.
    Each register's leaves, branches and distinct outputs are one run of
    the table's, so its ``BranchTable`` is made of slices, every array
    and output that of its own enumeration, bit for bit.
    """
    rounds = [_channel_round(joint, inputs) for joint in joints]
    _, schedule, spectators = rounds[0]
    n = joints[0].num_qubits
    fixed_b = None if b is None else _as_bits(b)
    registers = np.stack([register for register, _, _ in rounds])
    table = outcome_table(n + 4, _checked_states(n + 4, registers), schedule)
    alice, pr_outputs, correction, ids, outputs = _full_play(table, n, spectators, b=fixed_b)
    paths = table.paths
    ends = np.repeat(np.arange(len(paths)), 4)
    columns = (paths[ends, 0], paths[ends, 1:], np.tile(_COIN_PAIRS, (len(paths), 1)),
               2 * alice[0] + alice[1], np.column_stack(pr_outputs), np.column_stack(correction))
    register = np.arange(len(joints))  # of each parent, level by level, then of each leaf
    for children in table.children:
        register = np.repeat(register, np.count_nonzero(children >= 0, axis=1))
    leaves = np.searchsorted(register, np.arange(len(joints) + 1)).tolist()
    tables = []
    for lo, hi in zip(leaves[:-1], leaves[1:]):
        rows = slice(4 * lo, 4 * hi)
        first, last = int(ids[rows].min()), int(ids[rows].max()) + 1  # its outputs, in key order
        tables.append(BranchTable(
            table.probabilities[lo:hi] * 0.25, ends[rows] - lo, *(c[rows] for c in columns),
            ids[rows] - first, outputs[first:last],
        ))
    return tables


def branch_sums(
    branches: BranchTable, scale: float = 1
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Reduce an enumeration: (Alice's distribution, output sum, per-bits sums).

    The distribution is indexed by 2*a1 + a0.  The output sum is
    sum(scale * p * output) over all branches, and the per-bits sums
    split it by Alice's (a1, a0).  Branches are summed in order, from
    zeros, so the same enumeration always gives the same floats.
    """
    probabilities = branches.probabilities[branches.leaf]
    terms = branches._stack[branches.output]
    np.multiply((scale * probabilities)[:, None, None], terms, out=terms)
    parts = {
        bits: np.add.reduce(terms[branches.alice == 2 * bits[0] + bits[1]], axis=0, initial=0)
        for bits in product((0, 1), repeat=2)
    }
    total = np.add.reduce(terms, axis=0, initial=0)
    return np.bincount(branches.alice, weights=probabilities, minlength=4), total, parts


def sample_channel(
    joint: StateVector, rng: np.random.Generator, inputs: tuple[int, int, int] = (0, 1, 2)
) -> tuple[int, AliceClassicalOutput, DensityMatrix]:
    """One sampled execution of the box on registers of ``joint``.

    Row 0 of a one-row ``_channel_block`` on the rng's next four raw
    words: Bob's choice, Alice's output and Bob's output.
    """
    (a1, a0), ids, outputs, ends, table = _channel_block(
        joint, rng.bit_generator.random_raw((1, 4)), inputs
    )
    w, alice = int(table.paths[ends[0], 0]), _ALICE_OUTPUTS[2 * a1[0] + a0[0]]
    return w, alice, _density(outputs, ids[0])


def _channel_block(joint: StateVector, words: np.ndarray, inputs: tuple[int, int, int]):
    """Channel rounds with Alice's bits wired to Bob, one per trial, all at once.

    Row t of ``words`` holds raw words 0-3 of trial t's stream: the
    choice, both Bell measurements, the coins.  Returns Alice's bits
    (a1, a0), each trial's index into the stack of distinct outputs and
    that stack, then each trial's leaf and the round's outcome table.
    Each trial gathers its results from its branch row of the table's
    full play, and the stack is that play's.
    """
    table, spectators = _channel_root(joint, inputs)
    ends = table.walk(word_uniform(words[:, :3]))
    rows = _branch_rows(ends, words[:, 3])
    (a1, a0), _, _, ids, outputs = _full_play(table, joint.num_qubits, spectators)
    return (a1[rows], a0[rows]), ids[rows], outputs, ends, table


def sample_alice_output(
    psi: StateVector, phi: StateVector, w: int, rng: np.random.Generator
) -> AliceClassicalOutput:
    """Alice's output from one sampled round with Bob choosing ``w``.

    Row 0 of a one-row ``_alice_block`` on the rng's next three raw
    words.  Bob's choice changes none of Alice's bits, so it is only
    checked.
    """
    _check_bit(w, "w")
    alice, _, _ = _alice_block(psi, phi, rng.bit_generator.random_raw((1, 3)))
    return _ALICE_OUTPUTS[alice[0]]


def _alice_rows(psi: StateVector, phi: StateVector, words: np.ndarray):
    """Alice's side of rounds on fixed inputs, one per trial, from the full play of her table.

    Row t of ``words`` holds the three raw words round t draws: the
    coins and Alice's two Bell measurements.  Returns Alice's outcome
    table, each trial's branch row (leaf, coins), and Alice's output
    index 2*a1 + a0 of every row.  Her bits do not depend on Bob's
    choice, so these are the rows of w = 0.
    """
    table = _alice_root(psi, phi)
    rows = _branch_rows(table.walk(word_uniform(words[:, 1:3])), words[:, 0])
    (a1, a0), *_ = _full_play(table, EPR1_ALICE, [], both_choices=True)
    return table, rows, (2 * a1 + a0)[: 4 * len(table.paths)]


def _alice_block(psi: StateVector, phi: StateVector, words: np.ndarray):
    """Alice's output index 2*a1 + a0 of rounds on fixed inputs, one per trial, at once.

    ``_alice_rows`` gathered trial by trial: returns the indices, then
    each trial's leaf and Alice's outcome table.
    """
    table, rows, alice = _alice_rows(psi, phi, words)
    return alice[rows], rows >> 2, table
