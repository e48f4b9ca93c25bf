"""Exact double-precision state machinery for small qubit registers.

Conventions shared by the whole package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
  an amplitude index; ``basis_state(2, 0b01)`` is |01>.
* The Bell basis is B(t, s) = (X^s (x) Z^t)|Phi+>, with X acting on the
  first qubit of a measured pair.  The teleportation identity test in the
  suite is sensitive to this choice and certifies it.
* Measured qubits stay in the register (collapsed), so indices remain
  stable across a protocol round; discarding a qubit is always an explicit
  partial trace.
* States are compared through fidelity or trace distance, never by raw
  amplitudes: global phase carries no physics.

Tolerances are fixed package-wide: 1e-12 for norms, 1e-10 for algebraic
identities.  Statistical checks elsewhere always run on seeded generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import cos, isfinite, sin, sqrt
from typing import Callable, Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-12
ALGEBRA_ATOL = 1e-10

# Branch probabilities below this are treated as impossible outcomes.
PROB_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits.

    ``amplitudes[i]`` multiplies the computational basis state whose bits,
    qubit 0 first, spell the integer ``i``.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if self.num_qubits < 1:
            raise ValueError("state needs at least one qubit")
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not isfinite(norm_sq):  # any NaN or infinite amplitude lands here
            raise ValueError("state has a non-finite amplitude")
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def as_tensor(self) -> np.ndarray:
        """View of the amplitudes as a rank-``num_qubits`` tensor."""
        return self.amplitudes.reshape((2,) * self.num_qubits)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix over ``num_qubits`` qubits, of trace 1.

    Conditioned branch outputs are normalized states; their weights are
    kept apart, as branch probabilities.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        _check_densities(mat[None])
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def _check_densities(stack: np.ndarray) -> None:
    """The ``DensityMatrix`` checks, in order, each run once over an (N, d, d) stack.

    A bad matrix raises the message it raises alone, whatever its place.
    """
    if not np.isfinite(stack).all():
        raise ValueError("matrix has a non-finite entry")
    # |m - m^H| a row at a time: no temporary as large as the stack
    rows = (np.abs(stack[:, i] - stack[:, :, i].conj()) for i in range(stack.shape[1]))
    if max(row.max(initial=0.0) for row in rows) > ALGEBRA_ATOL:
        raise ValueError("matrix is not Hermitian")
    if float(np.min(np.linalg.eigvalsh(stack), initial=0.0)) < -ALGEBRA_ATOL:
        raise ValueError("matrix has a negative eigenvalue")
    traces = np.trace(stack, axis1=1, axis2=2)
    if np.any(np.abs(traces.imag) > ALGEBRA_ATOL):
        raise ValueError("trace is not real")
    off = np.flatnonzero(np.abs(traces.real - 1.0) > ALGEBRA_ATOL)
    if off.size:
        raise ValueError(f"trace is not 1: {float(traces.real[off[0]])!r}")


def density_matrices(num_qubits: int, matrices) -> list[DensityMatrix]:
    """``DensityMatrix(num_qubits, m)`` for each matrix m of a stack, checked at once.

    The stack is copied, checked (one ``eigvalsh`` call for all of it)
    and made read-only once; each row is wrapped without a second check.
    """
    stack = np.array(matrices, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (2**num_qubits,) * 2:
        raise ValueError(f"expected a stack of {num_qubits}-qubit matrices, got {stack.shape}")
    _check_densities(stack)
    stack.setflags(write=False)
    wrapped = [object.__new__(DensityMatrix) for _ in range(len(stack))]
    for rho, mat in zip(wrapped, stack):
        vars(rho).update(num_qubits=num_qubits, matrix=mat)
    return wrapped


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Square matrix with U'U = I within 1e-10."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix, got {mat.shape}")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(self.dim))) > ALGEBRA_ATOL:
            raise ValueError("matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class BellOutcome:
    """Two-bit result (bit1, bit0) of a Bell-basis measurement."""

    bit1: int
    bit0: int

    def __post_init__(self) -> None:
        if self.bit1 not in (0, 1) or self.bit0 not in (0, 1):
            raise ValueError("outcome bits must be 0 or 1")

    @property
    def bits(self) -> tuple[int, int]:
        return (self.bit1, self.bit0)

    @property
    def index(self) -> int:
        return 2 * self.bit1 + self.bit0


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)

_CORRECTIONS = {
    (bit1, bit0): UnitaryMatrix(2, (_Z if bit1 else _I) @ (_X if bit0 else _I))
    for bit1 in (0, 1)
    for bit0 in (0, 1)
}


def pauli_correction(bit1: int, bit0: int) -> UnitaryMatrix:
    """Z^bit1 X^bit0, the teleportation correction operator."""
    return _CORRECTIONS[(bit1, bit0)]


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``num_qubits`` qubits."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


KET0 = basis_state(1, 0)
KET1 = basis_state(1, 1)
KET_PLUS = StateVector(1, np.array([1, 1]) / sqrt(2))
KET_MINUS = StateVector(1, np.array([1, -1]) / sqrt(2))
PHI_PLUS = StateVector(2, np.array([1, 0, 0, 1]) / sqrt(2))


def _bell_vector(bit1: int, bit0: int) -> np.ndarray:
    op = np.kron(_X if bit0 else _I, _Z if bit1 else _I)
    return op @ PHI_PLUS.amplitudes


# Row t*2+s holds B(t, s); used for projections and for dense coding.
_BELL = np.stack([_bell_vector(i >> 1, i & 1) for i in range(4)])
_BELL_TENSOR = _BELL.reshape(4, 2, 2)
# Row i holds <B(i)| as the 1x4 operand np.tensordot makes of it.
_BELL_BRAS = _BELL_TENSOR.conj().reshape(4, 1, 4)
_BELL_BRAS.setflags(write=False)
_BELL_OUTCOMES = tuple(BellOutcome(i >> 1, i & 1) for i in range(4))


def make_pure_qubit(theta: float, phi: float) -> StateVector:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    Angles are ordinary radians; any real value is accepted (the
    trigonometric functions wrap them).
    """
    return StateVector(
        1, np.array([cos(theta / 2), np.exp(1j * phi) * sin(theta / 2)])
    )


def tensor(states: Sequence[StateVector]) -> StateVector:
    """Kronecker product in list order; qubit indices concatenate left to right."""
    if not states:
        raise ValueError("tensor of an empty list is undefined")
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return StateVector(sum(s.num_qubits for s in states), amps)


def _check_targets(state: StateVector, targets: Sequence[int]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate qubit indices in {targets}")
    for t in targets:
        if not 0 <= t < state.num_qubits:
            raise ValueError(f"qubit index {t} out of range for {state.num_qubits} qubits")


def apply_unitary(
    state: StateVector, u: UnitaryMatrix, targets: Sequence[int]
) -> StateVector:
    """Apply ``u`` to the named qubits (in the given order), identity elsewhere."""
    targets = list(targets)
    _check_targets(state, targets)
    k = len(targets)
    if u.dim != 2**k:
        raise ValueError(f"unitary of dim {u.dim} does not act on {k} qubits")
    psi = state.as_tensor()
    u_t = u.matrix.reshape((2,) * (2 * k))
    out = np.tensordot(u_t, psi, axes=(list(range(k, 2 * k)), targets))
    out = np.moveaxis(out, list(range(k)), targets)
    return StateVector(state.num_qubits, out.reshape(-1))


def _pair_overlaps(state: StateVector, pair: Sequence[int]) -> np.ndarray:
    """Amplitude tensors <B(t,s)|state> for all four Bell outcomes.

    Returns shape (4, ...) where the trailing axes are the unmeasured
    qubits in their original relative order.
    """
    p0, p1 = pair
    return np.tensordot(_BELL_TENSOR.conj(), state.as_tensor(), axes=([1, 2], [p0, p1]))


def _reassemble_bell(
    state: StateVector, pair: Sequence[int], index: int, coeffs: np.ndarray, prob: float
) -> StateVector:
    """Post-measurement state with the pair left collapsed into B(t, s)."""
    post = np.multiply.outer(_BELL_TENSOR[index], coeffs / sqrt(prob))
    post = np.moveaxis(post, [0, 1], list(pair))
    return StateVector(state.num_qubits, post.reshape(-1))


def bell_projections(
    state: StateVector, pair: Sequence[int]
) -> list[tuple[float, StateVector | None]]:
    """Probability and collapsed state for each forced Bell outcome, by index.

    Entry ``i`` is for outcome 2*bit1 + bit0 = i; its state is ``None``
    when the outcome has (numerically) zero probability.  The state is
    transposed into one 4xM operand, the pair's axes first, once for all
    four outcomes; each outcome's amplitudes are then the same
    ``np.dot(<B(i)| as 1x4, operand)`` that ``np.tensordot`` computes
    for one outcome alone, so every float is that of a separate
    projection.  The four bras are not stacked into one 4x4 product,
    which need not round the same.  Used by exact branch enumeration.
    """
    p0, p1 = pair
    if p0 == p1:
        raise ValueError("pair indices must be distinct")
    _check_targets(state, [p0, p1])
    n = state.num_qubits
    pair_first = (p0, p1, *(q for q in range(n) if q not in (p0, p1)))
    operand = state.as_tensor().transpose(pair_first).reshape(4, -1)
    projections = []
    for index in range(4):
        coeffs = np.dot(_BELL_BRAS[index], operand).reshape((2,) * (n - 2))
        prob = float(np.sum(np.abs(coeffs) ** 2))
        post = None if prob < PROB_FLOOR else _reassemble_bell(state, pair, index, coeffs, prob)
        projections.append((prob, post))
    return projections


def bell_project(
    state: StateVector, pair: Sequence[int], outcome: BellOutcome
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced Bell outcome.

    Returns ``(prob, None)`` when the outcome has (numerically) zero
    probability.  The entry of ``bell_projections`` for ``outcome``.
    """
    return bell_projections(state, pair)[outcome.index]


def _choose(rng: np.random.Generator, weights: list[float], total: float) -> int:
    """Sample an index with the given non-negative weights summing to ``total``.

    One uniform draw per call, so streams stay cheap and replayable.
    """
    u = rng.random() * total
    acc = 0.0
    for i, p in enumerate(weights):
        acc += p
        if u < acc:
            return i
    return len(weights) - 1


_Born = tuple[np.ndarray, Callable[[int], StateVector]]


def _bell_born(state: StateVector, pair: Sequence[int]) -> _Born:
    """Born probabilities of a Bell measurement of ``pair``, and the collapse."""
    p0, p1 = pair
    if p0 == p1:
        raise ValueError("pair indices must be distinct")
    _check_targets(state, [p0, p1])
    if state.num_qubits < 2:
        raise ValueError("Bell measurement needs at least two qubits")
    overlaps = _pair_overlaps(state, pair)
    flat = overlaps.reshape(4, -1)
    probs = np.einsum("ij,ij->i", flat, flat.conj()).real

    def collapse(index: int) -> StateVector:
        return _reassemble_bell(state, pair, index, overlaps[index], float(probs[index]))

    return probs, collapse


def _computational_born(state: StateVector, qubit: int) -> _Born:
    """Born probabilities of ``qubit`` in the computational basis, and the collapse."""
    _check_targets(state, [qubit])
    psi = state.as_tensor()
    axes = tuple(i for i in range(state.num_qubits) if i != qubit)
    probs = np.sum(np.abs(psi) ** 2, axis=axes)

    def collapse(bit: int) -> StateVector:
        _, post = measure_project(state, qubit, bit)
        assert post is not None
        return post

    return probs, collapse


_BORN = {"bell": _bell_born, "computational": _computational_born}


class OutcomeNode:
    """A state in a lazily expanded tree of measurement outcomes.

    ``measurements`` lists the measurements still to come, first to
    last, as ``("bell", pair)`` or ``("computational", qubit)``.  The
    first is made on ``state`` and ``probs`` holds its Born
    probabilities, rounding noise below zero clipped to zero (``None``
    on a leaf).  ``draw`` samples it and returns the child node of the
    outcome drawn: a child is collapsed the first time its outcome is
    drawn and reused from then on, so a walk repeated down the same path
    costs one uniform draw per level.  ``walk`` takes a batch of trials
    down the same tree with the same choices.  ``memo`` keeps what
    callers derive from a node's state.  Every array in the tree is
    read-only, so a tree may be shared by any number of walks.
    """

    __slots__ = ("state", "probs", "memo", "_total", "_collapse", "_rest", "_children")

    def __init__(self, state: StateVector, measurements: Sequence[tuple[str, object]] = ()):
        self.state = state
        self.probs = None
        self.memo: dict = {}
        self._children: dict[int, OutcomeNode] = {}
        if measurements:
            (kind, target), *self._rest = measurements
            probs, self._collapse = _BORN[kind](state, target)
            self.probs = [max(p, 0.0) for p in probs.tolist()]
            self._total = sum(self.probs)

    def child(self, index: int) -> "OutcomeNode":
        """The node of outcome ``index``, collapsed on first use."""
        child = self._children.get(index)
        if child is None:
            child = self._children[index] = OutcomeNode(self._collapse(index), self._rest)
        return child

    def draw(self, rng: np.random.Generator) -> tuple[int, "OutcomeNode"]:
        """Sample the measurement with one uniform draw; (outcome, child)."""
        index = _choose(rng, self.probs, self._total)
        return index, self.child(index)

    def pick(self, uniforms: np.ndarray) -> np.ndarray:
        """The outcome ``_choose`` takes on each uniform draw, as an index array.

        The first index whose running sum of ``probs``, added in order,
        exceeds u * total; the last index if none does.
        """
        acc = np.array(list(accumulate(self.probs)))
        picks = np.searchsorted(acc, uniforms * self._total, side="right")
        return np.minimum(picks, len(acc) - 1)

    def walk(self, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray, list["OutcomeNode"]]:
        """Walk a batch of trials down the tree at once.

        Row t of ``uniforms`` holds trial t's uniform draw for each
        measurement to come, first to last, and trial t takes exactly
        the path ``draw`` takes on those draws.  Trials are grouped by
        outcome, so each node on the way is visited once for all of
        them.  Returns every trial's outcomes (one column per
        measurement), the index of its end node and the end nodes.
        """
        trials, depth = uniforms.shape
        outcomes = np.zeros((trials, depth), dtype=np.intp)
        ends = np.zeros(trials, dtype=np.intp)
        nodes: list[OutcomeNode] = []
        # depth first, lowest outcome first; a loop, not a recursive
        # closure, whose reference cycle would hold the block's arrays
        # until the cyclic garbage collector ran
        stack = [(self, np.arange(trials), 0)]
        while stack:
            node, rows, level = stack.pop()
            if level == depth:
                ends[rows] = len(nodes)
                nodes.append(node)
                continue
            picks = node.pick(uniforms[rows, level])
            outcomes[rows, level] = picks
            for index in reversed(np.flatnonzero(np.bincount(picks)).tolist()):
                stack.append((node.child(index), rows[picks == index], level + 1))
        return outcomes, ends, nodes


def bell_measure(
    state: StateVector, pair: Sequence[int], rng: np.random.Generator
) -> tuple[BellOutcome, StateVector]:
    """Sample a Bell-basis measurement of the pair with Born probabilities.

    The measured qubits stay in the register, collapsed into the observed
    Bell state.
    """
    index, child = OutcomeNode(state, [("bell", pair)]).draw(rng)
    return _BELL_OUTCOMES[index], child.state


def measure_project(
    state: StateVector, qubit: int, outcome: int
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for a forced computational outcome."""
    _check_targets(state, [qubit])
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    psi = state.as_tensor()
    kept = np.take(psi, outcome, axis=qubit)
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob < PROB_FLOOR:
        return prob, None
    post = np.zeros_like(psi)
    idx: list = [slice(None)] * state.num_qubits
    idx[qubit] = outcome
    post[tuple(idx)] = kept / sqrt(prob)
    return prob, StateVector(state.num_qubits, post.reshape(-1))


def measure_computational(
    state: StateVector, qubit: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Born-rule sample of one qubit; returns (bit, renormalized state)."""
    bit, child = OutcomeNode(state, [("computational", qubit)]).draw(rng)
    return bit, child.state


def _subsystem_subscripts(num_qubits: int, keep: Sequence[int]) -> tuple[str, str, str]:
    """einsum subscripts for tracing out everything not in ``keep``."""
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * num_qubits > len(letters):
        raise ValueError("register too large for partial trace")
    row = list(letters[:num_qubits])
    col = [letters[num_qubits + i] if i in keep else row[i] for i in range(num_qubits)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    return "".join(row), "".join(col), out


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix | float:
    """Reduced state on the ``keep`` qubits (ascending original order).

    An empty ``keep`` collapses to the scalar trace, returned as a float.
    """
    keep_sorted = sorted(set(keep))
    for q in keep_sorted:
        if not 0 <= q < rho.num_qubits:
            raise ValueError(f"qubit index {q} out of range")
    if not keep_sorted:
        return float(np.real(np.trace(rho.matrix)))
    n = rho.num_qubits
    row, col, out = _subsystem_subscripts(n, keep_sorted)
    t = rho.matrix.reshape((2,) * (2 * n))
    k = len(keep_sorted)
    reduced = np.einsum(f"{row}{col}->{out}", t).reshape(2**k, 2**k)
    return DensityMatrix(k, reduced)


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Density matrix of the ``keep`` qubits of a pure state.

    Equivalent to ``partial_trace(density(state), keep)`` without forming
    the full outer product.
    """
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise ValueError("keep set must not be empty")
    for q in keep_sorted:
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"qubit index {q} out of range")
    return DensityMatrix(len(keep_sorted), _reduced_matrix(state, keep_sorted))


def _reduced_matrix(state: StateVector, keep_sorted: list[int]) -> np.ndarray:
    """The unchecked matrix ``reduced_density`` wraps; ``keep_sorted`` ascending."""
    ket, bra, out = _subsystem_subscripts(state.num_qubits, keep_sorted)
    psi = state.as_tensor()
    return np.einsum(f"{ket},{bra}->{out}", psi, psi.conj()).reshape((2 ** len(keep_sorted),) * 2)


def density(state: StateVector) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix."""
    return DensityMatrix(state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def fidelity(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi|rho|psi>, in [0, 1] for a normalized rho."""
    if rho.num_qubits != psi.num_qubits:
        raise ValueError("dimension mismatch between state and density matrix")
    return float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))


def _as_matrix(x: DensityMatrix | np.ndarray) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else np.asarray(x)


def trace_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b."""
    diff = _as_matrix(a) - _as_matrix(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def haar_random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state, for randomized identity checks."""
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, vec / np.linalg.norm(vec))


def haar_random_qubit(rng: np.random.Generator) -> StateVector:
    return haar_random_state(1, rng)

