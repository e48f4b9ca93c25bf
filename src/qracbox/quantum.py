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
* Every measurement projects through one stacked core, ``_projections``
  (``_STACKS`` holds its Bell and computational forms), with one Born
  sum, sum |a|^2: lone projections, and every ``OutcomeTable``, so an
  outcome below ``PROB_FLOOR`` is impossible in all of them.  One
  function, ``outcome_table``, takes a stack of K registers through a
  schedule of measurements level by level, and both executors read its
  table: an exact enumeration its leaves and their probabilities, a
  sampled run (K = 1) its running sums, walked by
  ``OutcomeTable.walk``.  That walk is the one sampler: a lone sampled
  measurement (``bell_measure``, ``measure_computational``) is a
  one-row walk of the uniform its rng's next raw word makes
  (``rng.word_uniform``).

Tolerances are fixed package-wide: 1e-12 for norms, 1e-10 for algebraic
identities.  Statistical checks elsewhere always run on seeded generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin, sqrt
from typing import Iterable, Sequence

import numpy as np

from .rng import word_uniform

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
        if self.num_qubits >= 1 and amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        (checked,) = _checked_states(self.num_qubits, amps[None])
        object.__setattr__(self, "amplitudes", checked)

    def as_tensor(self) -> np.ndarray:
        """View of the amplitudes as a rank-``num_qubits`` tensor."""
        return self.amplitudes.reshape((2,) * self.num_qubits)


def _checked_states(num_qubits: int, stack: np.ndarray) -> np.ndarray:
    """A (K, 2^n) amplitude stack, each row checked as ``StateVector`` checks it, made read-only.

    Pass only a fresh complex stack: it is taken over.
    """
    if num_qubits < 1:
        raise ValueError("state needs at least one qubit")
    if stack.ndim != 2 or stack.shape[1] != 2**num_qubits:
        raise ValueError(f"expected a stack of {num_qubits}-qubit states, got {stack.shape}")
    squares = np.abs(stack)
    squares **= 2  # in place: no second temporary as large as the stack
    norms = np.add.reduce(squares, axis=1).tolist()
    if not all(map(isfinite, norms)):  # any NaN or infinite amplitude lands here
        raise ValueError("state has a non-finite amplitude")
    for norm in norms:
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
    stack.setflags(write=False)
    return stack


def _state_vectors(num_qubits: int, stack: np.ndarray) -> list[StateVector]:
    """``StateVector(num_qubits, a)`` for each row a of a (K, 2^n) stack, checked at once.

    Each state is a row of the stack, made read-only: pass only a fresh complex stack.
    """
    return _wrap(StateVector, num_qubits, "amplitudes", _checked_states(num_qubits, stack))


def _wrap(cls, num_qubits: int, field: str, stack: np.ndarray) -> list:
    """Each row of a checked stack, made read-only, as a ``cls`` built without a second check."""
    stack.setflags(write=False)
    wrapped = [object.__new__(cls) for _ in range(len(stack))]
    for obj, row in zip(wrapped, stack):  # one by one: vars() would give each a dict
        object.__setattr__(obj, "num_qubits", num_qubits)
        object.__setattr__(obj, field, row)
    return wrapped


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix over ``num_qubits`` qubits, of trace 1.

    Conditioned branch outputs are normalized states; their weights are
    kept apart, as branch probabilities.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        (checked,) = density_matrices(self.num_qubits, mat[None])
        object.__setattr__(self, "matrix", checked.matrix)


def density_matrices(num_qubits: int, matrices) -> list[DensityMatrix]:
    """``DensityMatrix(num_qubits, m)`` for each matrix m of a copied stack, checked at once."""
    stack = _checked_matrices(num_qubits, np.array(matrices, dtype=complex))
    return _wrap(DensityMatrix, num_qubits, "matrix", stack)


def _checked_matrices(num_qubits: int, stack: np.ndarray) -> np.ndarray:
    """An (N, d, d) stack, each matrix checked as ``DensityMatrix`` checks it, made read-only.

    Each check runs once over the whole stack (one ``eigvalsh`` call), so
    a bad matrix raises the message it raises alone, whatever its place.
    Pass only a fresh complex stack: it is taken over.
    """
    if stack.ndim != 3 or stack.shape[1:] != (2**num_qubits,) * 2:
        raise ValueError(f"expected a stack of {num_qubits}-qubit matrices, got {stack.shape}")
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
    stack.setflags(write=False)
    return stack


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


def _check_targets(num_qubits: int, targets: Sequence[int]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate qubit indices in {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"qubit index {t} out of range for {num_qubits} qubits")


def apply_unitary(
    state: StateVector, u: UnitaryMatrix, targets: Sequence[int]
) -> StateVector:
    """Apply ``u`` to the named qubits (in the given order), identity elsewhere."""
    targets = list(targets)
    _check_targets(state.num_qubits, targets)
    k = len(targets)
    if u.dim != 2**k:
        raise ValueError(f"unitary of dim {u.dim} does not act on {k} qubits")
    psi = state.as_tensor()
    u_t = u.matrix.reshape((2,) * (2 * k))
    out = np.tensordot(u_t, psi, axes=(list(range(k, 2 * k)), targets))
    out = np.moveaxis(out, list(range(k)), targets)
    return StateVector(state.num_qubits, out.reshape(-1))


def _projections(stack: np.ndarray, n: int, axes: tuple, outcome_amplitudes, collapse, only=None):
    """Every forced outcome of each state of a (K, 2^n) amplitude stack, as arrays.

    Returns the (outcomes, K) Born probabilities, each sum |a|^2 of its
    outcome's amplitudes a, and, state by state and outcome by outcome,
    the state index ``ks``, the outcome index and the collapsed
    amplitudes of each outcome at or above ``PROB_FLOOR``: the kept rows
    of ``outcome_amplitudes``' (outcomes, K, M) stack, over the roots of
    their probabilities, go to ``collapse`` as one stack, which comes
    back checked and read-only.  With ``only`` set, no outcome but that
    one is collapsed.
    """
    _check_targets(n, axes)
    amps = outcome_amplitudes(stack, n, axes)
    probs = np.add.reduce(np.abs(amps) ** 2, axis=2)
    kept = ~(probs < PROB_FLOOR)  # a NaN probability is kept, and fails the check
    if only is not None:
        kept[:only] = kept[only + 1 :] = False
    ks, outcomes = np.nonzero(kept.T)
    posts = collapse(n, axes, outcomes, amps[outcomes, ks] / np.sqrt(probs[outcomes, ks])[:, None])
    return probs, ks, outcomes, posts


def _projection(state: StateVector, project, target, only: int):
    """(probability, collapsed state or None) of outcome ``only`` of one state.

    ``project`` is ``_bell_stack`` or ``_measure_stack``, run on the
    one-row stack of the state; no other outcome is collapsed.
    """
    n = state.num_qubits
    probs, _, _, posts = project(state.amplitudes[None], n, target, only)
    posts = _wrap(StateVector, n, "amplitudes", posts)
    return float(probs[only, 0]), (posts[0] if posts else None)


def _axes_first(stack: np.ndarray, n: int, axes: tuple) -> np.ndarray:
    """The states with ``axes`` first: a C-ordered (2^len(axes), K, M) stack, one copy at most."""
    rest = (q for q in range(n) if q not in axes)
    tensor = stack.reshape((len(stack),) + (2,) * n)
    order = (*(1 + q for q in axes), 0, *(1 + q for q in rest))
    return np.ascontiguousarray(tensor.transpose(order)).reshape(2 ** len(axes), len(stack), -1)


def _bell_amplitudes(stack: np.ndarray, n: int, pair: tuple) -> np.ndarray:
    """<B(i)|state> for each outcome i and state, as one (4, K, M) stack."""
    if len(pair) != 2:
        raise ValueError(f"a Bell measurement needs two qubits, got {pair}")
    if pair == (n - 2, n - 1):  # one state's operand is a view of its amplitudes
        operand = stack.reshape(-1, 4).T
    else:
        operand = _axes_first(stack, n, pair).reshape(4, -1)
    amps = np.empty((4, len(stack), operand.shape[1] // len(stack)), dtype=complex)
    for index in range(4):
        np.dot(_BELL_BRAS[index], operand, out=amps[index].reshape(1, -1))
    return amps


def _bell_collapse(n: int, pair: tuple, outcomes, scaled: np.ndarray) -> np.ndarray:
    """B(i) (x) row for each outcome i and row of ``scaled``, written in place, checked at once."""
    posts = np.empty((len(outcomes),) + (2,) * n, dtype=complex)
    bells = _BELL_TENSOR[outcomes].reshape((len(outcomes), 2, 2) + (1,) * (n - 2))
    scaled = scaled.reshape((len(outcomes), 1, 1) + (2,) * (n - 2))
    order = (*pair, *(q for q in range(n) if q not in pair))
    np.multiply(bells, scaled, out=posts.transpose(0, *(1 + q for q in order)))
    return _checked_states(n, posts.reshape(len(outcomes), 2**n))


def _bell_stack(stack: np.ndarray, n: int, pair: tuple, only=None):
    """``_projections`` of a Bell measurement of ``pair`` on each state of the stack."""
    return _projections(stack, n, pair, _bell_amplitudes, _bell_collapse, only)


def bell_project(
    state: StateVector, pair: Sequence[int], outcome: BellOutcome
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced Bell outcome.

    Returns ``(prob, None)`` when the outcome's probability is below
    ``PROB_FLOOR``.  Each outcome is one ``np.dot(<B(i)| as 1x4,
    operand)``, the projection an ``OutcomeTable`` level makes.
    """
    return _projection(state, _bell_stack, tuple(pair), outcome.index)


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Every outcome of a measurement schedule on K registers, level by level.

    Level l measures the states the level before kept (its parents; the
    K roots at level 0).  ``sums[l]`` holds each parent's running sum
    of Born probabilities, in outcome order, an outcome the core does not
    keep adding 0, so no draw takes it; ``children[l]`` holds the index of
    each kept (parent, outcome)'s state among the next level's parents,
    or among the leaves after the last level, and -1 for a pruned one.
    Children are numbered parent by parent, so each root's leaves are
    one run, in root order.  Leaf i, in path order, is reached by the
    outcomes ``paths[i]`` with probability ``probabilities[i]``; its
    amplitudes are row i of the ``leaves`` stack.  ``memos`` keeps what
    callers derive from the leaves, each under a key of its own.  Every
    array is read-only, so a table may be shared by any number of walks.
    """

    sums: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]
    paths: np.ndarray
    probabilities: np.ndarray
    leaves: np.ndarray
    memos: dict

    def walk(self, uniforms: np.ndarray) -> np.ndarray:
        """The leaf each trial reaches from root 0; row t of ``uniforms`` is trial t's draws.

        At each level every trial takes, for its draw u, the first
        outcome whose running sum exceeds x = u * its parent's total, or
        the last outcome if none does: one gather and compare per
        outcome column, counting the running sums <= x.  The sums never
        decrease, so that count over every column but the last is that
        outcome.  Counted onto the parent's row offset, it
        indexes the flattened ``children``.  No (trials x outcomes)
        array is built.
        """
        ends = np.zeros(len(uniforms), dtype=np.intp)
        for level, (sums, children) in enumerate(zip(self.sums, self.children)):
            columns = sums.T
            x = uniforms[:, level] * columns[-1].take(ends)
            picks = ends * len(columns)
            for column in columns[:-1]:
                picks += column.take(ends) <= x
            ends = children.take(picks)
        return ends


def outcome_table(num_qubits: int, root: np.ndarray, schedule: Sequence[tuple]) -> OutcomeTable:
    """The ``OutcomeTable`` of ``schedule`` on a checked (K, 2^n) stack of root amplitudes.

    ``schedule`` lists the measurements first to last, as ``("bell",
    pair)`` or ``("computational", qubit)``; each level is one call of
    its ``_STACKS`` projector on the stack of every state the level
    before kept, of every root at once.  Each projection is that of its
    state alone, so the leaves of root k are those of root k's own
    table, bit for bit.
    """
    leaves, paths, probabilities = root, np.zeros((len(root), 0), dtype=np.intp), np.ones(len(root))
    sums, children = [], []
    for kind, target in schedule:
        probs, ks, outcomes, leaves = _STACKS[kind](leaves, num_qubits, target)
        kept = np.zeros(probs.T.shape)
        kept[ks, outcomes] = probs[outcomes, ks]
        child = np.full(probs.T.shape, -1, dtype=np.intp)
        child[ks, outcomes] = np.arange(len(ks))
        sums.append(np.cumsum(kept, axis=1))
        children.append(child)
        paths = np.column_stack([paths[ks], outcomes])
        probabilities = probabilities[ks] * probs[outcomes, ks]
    for array in (*sums, *children, paths, probabilities):
        array.setflags(write=False)
    return OutcomeTable(tuple(sums), tuple(children), paths, probabilities, leaves, {})


def _measured(state: StateVector, measurement: tuple, rng: np.random.Generator):
    """One sampled ``measurement`` of ``state``: (outcome index, collapsed state).

    A one-row walk of the table of ``measurement``, on the uniform of
    the rng's next raw word.
    """
    table = outcome_table(state.num_qubits, state.amplitudes[None], (measurement,))
    end = int(table.walk(word_uniform(rng.bit_generator.random_raw((1, 1))))[0])
    (post,) = _wrap(StateVector, state.num_qubits, "amplitudes", table.leaves[end : end + 1])
    return int(table.paths[end, 0]), post


def bell_measure(
    state: StateVector, pair: Sequence[int], rng: np.random.Generator
) -> tuple[BellOutcome, StateVector]:
    """Sample a Bell-basis measurement of the pair with Born probabilities.

    The measured qubits stay in the register, collapsed into the observed
    Bell state.
    """
    index, post = _measured(state, ("bell", tuple(pair)), rng)
    return _BELL_OUTCOMES[index], post


def _take_collapse(n: int, axes: tuple, bits, scaled: np.ndarray) -> np.ndarray:
    """Each row of ``scaled`` where qubit ``axes[0]`` is its bit, in one zeroed, checked stack."""
    posts = np.zeros((len(bits),) + (2,) * n, dtype=complex)
    view = posts.transpose(0, *(1 + q for q in (*axes, *(q for q in range(n) if q not in axes))))
    view[np.arange(len(bits)), bits] = scaled.reshape((len(bits),) + (2,) * (n - 1))
    return _checked_states(n, posts.reshape(len(bits), 2**n))


def _measure_stack(stack: np.ndarray, n: int, qubit: int, only=None):
    """``_projections`` of a computational measurement of ``qubit`` on each state of the stack."""
    return _projections(stack, n, (qubit,), _axes_first, _take_collapse, only)


def measure_project(
    state: StateVector, qubit: int, outcome: int
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for a forced outcome, each a ``np.take``."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    return _projection(state, _measure_stack, qubit, outcome)


# the stacked projector of each kind of measurement, as a schedule names it
_STACKS = {"bell": _bell_stack, "computational": _measure_stack}


def measure_computational(
    state: StateVector, qubit: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Born-rule sample of one qubit; returns (bit, renormalized state)."""
    return _measured(state, ("computational", qubit), rng)


def _subsystem_subscripts(num_qubits: int, keep: Sequence[int]) -> tuple[str, str, str]:
    """einsum subscripts for tracing out everything not in ``keep``."""
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * num_qubits > len(letters):
        raise ValueError("register too large for partial trace")
    row = list(letters[:num_qubits])
    col = [letters[num_qubits + i] if i in keep else row[i] for i in range(num_qubits)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    return "".join(row), "".join(col), out


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Density matrix of the ``keep`` qubits of a pure state.

    The partial trace of ``density(state)`` over the other qubits,
    without forming the full outer product.
    """
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise ValueError("keep set must not be empty")
    for q in keep_sorted:
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"qubit index {q} out of range")
    (matrix,) = _reduced_matrices(state.amplitudes[None], keep_sorted)
    return DensityMatrix(len(keep_sorted), matrix)


def _reduced_matrices(states: np.ndarray, keep_sorted: list[int]) -> np.ndarray:
    """The unchecked matrices ``reduced_density`` wraps, one einsum over an (N, 2^n) stack."""
    n = states.shape[1].bit_length() - 1
    ket, bra, out = _subsystem_subscripts(n, keep_sorted)
    psi = states.reshape((len(states),) + (2,) * n)
    traces = np.einsum(f"...{ket},...{bra}->...{out}", psi, psi.conj())
    return traces.reshape((len(states),) + (2 ** len(keep_sorted),) * 2)


def density(state: StateVector) -> DensityMatrix:
    """|psi><psi| as a DensityMatrix."""
    return DensityMatrix(state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def _as_matrix(x: DensityMatrix | np.ndarray) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else np.asarray(x)


def fidelity(rho: DensityMatrix | np.ndarray, psi: StateVector) -> float:
    """<psi|rho|psi>, in [0, 1] for a normalized rho."""
    matrix = _as_matrix(rho)
    if matrix.shape != (len(psi.amplitudes),) * 2:
        raise ValueError("dimension mismatch between state and density matrix")
    return float(np.real(psi.amplitudes.conj() @ matrix @ psi.amplitudes))


def trace_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b."""
    diff = _as_matrix(a) - _as_matrix(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def haar_random_states(num_qubits: int, count: int, rng: np.random.Generator) -> list[StateVector]:
    """The states of ``count`` ``haar_random_state`` calls, from one ``rng.normal`` draw."""
    draws = rng.normal(size=(count, 2, 2**num_qubits))
    vecs = draws[:, 0] + 1j * draws[:, 1]
    # a norm a row: np.linalg.norm along an axis rounds differently
    vecs /= np.array([np.linalg.norm(vec) for vec in vecs])[:, None]
    return _state_vectors(num_qubits, vecs)


def haar_random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state, for randomized identity checks."""
    return haar_random_states(num_qubits, 1, rng)[0]


def haar_random_qubit(rng: np.random.Generator) -> StateVector:
    return haar_random_state(1, rng)

