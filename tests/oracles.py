"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
kron products, index loops) so it shares no code path with the package:
full unitaries, Bell vectors and probabilities, the loop partial trace,
a Choi matrix applied to an input, the Choi matrix of the ideal channel,
a dilation's output, and Haar-random unitaries as test data.

The last section keeps the exact channel layer as it ran one state and
one pair at a time: the nested enumeration with its per-state
projections, partial traces and relabellings, the branch-sum loop, the
dilation report's per-pair loop and sequential Haar draws.  The stacked
layer must give their floats bit for bit.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


def embed_unitary(u: np.ndarray, targets: list[int], num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix for u acting on `targets`, identity elsewhere.

    Built column by column from basis-state bookkeeping; no axis tricks.
    """
    dim = 2**num_qubits
    k = len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        sub_in = 0
        for t in targets:
            sub_in = (sub_in << 1) | bits[t]
        for sub_out in range(2**k):
            amp = u[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for j, t in enumerate(targets):
                new_bits[t] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def kron_all(vecs: list[np.ndarray]) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = np.kron(out, v)
    return out


def bell_vector(bit1: int, bit0: int) -> np.ndarray:
    """B(t, s) = (X^s (x) Z^t)|Phi+>, built from the defining formula."""
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / sqrt(2)
    return np.kron(_X if bit0 else _I, _Z if bit1 else _I) @ phi_plus


def bell_probabilities(state: np.ndarray, pair: tuple[int, int], num_qubits: int) -> np.ndarray:
    """Outcome probabilities of a Bell measurement via explicit projectors."""
    probs = np.zeros(4)
    for idx in range(4):
        b = bell_vector(idx >> 1, idx & 1)
        proj = embed_unitary(np.outer(b, b.conj()), list(pair), num_qubits)
        probs[idx] = np.real(state.conj() @ proj @ state)
    return probs


def loop_partial_trace(rho: np.ndarray, keep: list[int], num_qubits: int) -> np.ndarray:
    """Partial trace by explicit index loops."""
    keep = sorted(keep)
    traced = [q for q in range(num_qubits) if q not in keep]
    k = len(keep)
    out = np.zeros((2**k, 2**k), dtype=complex)

    def full_index(keep_bits: int, traced_bits: int) -> int:
        bits = [0] * num_qubits
        for j, q in enumerate(keep):
            bits[q] = (keep_bits >> (k - 1 - j)) & 1
        for j, q in enumerate(traced):
            bits[q] = (traced_bits >> (len(traced) - 1 - j)) & 1
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    for r in range(2**k):
        for c in range(2**k):
            for t in range(2 ** len(traced)):
                out[r, c] += rho[full_index(r, t), full_index(c, t)]
    return out


def tv_distance_arrays(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def choi_apply(choi: np.ndarray, rho: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Channel output sum_ij rho[i, j] L(|i><j|), with L(|i><j|) the (i, j) block of J.

    Entry (i*d_out + a, j*d_out + b) of the Choi matrix J is L(|i><j|)[a, b].
    """
    out = np.zeros((d_out, d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            for a in range(d_out):
                for b in range(d_out):
                    out[a, b] += rho[i, j] * choi[i * d_out + a, j * d_out + b]
    return out


def selection_choi() -> np.ndarray:
    """Choi matrix of S: measure the choice, return the chosen slot, discard the other.

    The input i has bits (A', A'', choice), most significant first, and
    entry (i*2 + o, j*2 + p) is S(|i><j|)[o, p]: the choice bits must
    agree (the measurement), and so must the discarded slot's (the
    partial trace).
    """
    choi = np.zeros((16, 16), dtype=complex)
    for i in range(8):
        for j in range(8):
            first_i, second_i, choice_i = i >> 2, (i >> 1) & 1, i & 1
            first_j, second_j, choice_j = j >> 2, (j >> 1) & 1, j & 1
            if choice_i != choice_j:
                continue
            kept_i, dropped_i = (first_i, second_i) if choice_i == 0 else (second_i, first_i)
            kept_j, dropped_j = (first_j, second_j) if choice_j == 0 else (second_j, first_j)
            if dropped_i == dropped_j:
                choi[i * 2 + kept_i, j * 2 + kept_j] = 1
    return choi


def dilation_output(v: np.ndarray, rho: np.ndarray, d_out: int, env_dim: int) -> np.ndarray:
    """Tr_env V rho V' for V into output (x) environment, row o*env_dim + e."""
    big = v @ rho @ v.conj().T
    out = np.zeros((d_out, d_out), dtype=complex)
    for a in range(d_out):
        for b in range(d_out):
            for e in range(env_dim):
                out[a, b] += big[a * env_dim + e, b * env_dim + e]
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed by R's diagonal."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------------------
# the exact channel layer one state and one pair at a time, as it ran before
# it was stacked: references the stacked layer must equal byte for byte
# ---------------------------------------------------------------------------

PROB_FLOOR = 1e-14
_BELL_TENSOR = np.stack([bell_vector(i >> 1, i & 1) for i in range(4)]).reshape(4, 2, 2)
_BELL_BRAS = _BELL_TENSOR.conj().reshape(4, 1, 4)
_SIGNS = np.stack([np.ones((2, 2)), np.outer([1.0, -1.0], [1.0, -1.0])]).reshape(2, 1, 2, 1, 2)


def measure_project(amps: np.ndarray, qubit: int, outcome: int):
    """(probability, collapsed amplitudes or None) of one computational outcome."""
    n = amps.size.bit_length() - 1
    psi = amps.reshape((2,) * n)
    kept = np.take(psi, outcome, axis=qubit)
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob < PROB_FLOOR:
        return prob, None
    post = np.zeros_like(psi)
    idx: list = [slice(None)] * n
    idx[qubit] = outcome
    post[tuple(idx)] = kept / sqrt(prob)
    return prob, post.reshape(-1)


def bell_projections(amps: np.ndarray, pair: tuple[int, int]):
    """(probability, collapsed amplitudes or None) of each Bell outcome of one state."""
    n = amps.size.bit_length() - 1
    p0, p1 = pair
    pair_first = (p0, p1, *(q for q in range(n) if q not in pair))
    operand = amps.reshape((2,) * n).transpose(pair_first).reshape(4, -1)
    projections = []
    for index in range(4):
        coeffs = np.dot(_BELL_BRAS[index], operand).reshape((2,) * (n - 2))
        prob = float(np.sum(np.abs(coeffs) ** 2))
        if prob < PROB_FLOOR:
            projections.append((prob, None))
            continue
        post = np.multiply.outer(_BELL_TENSOR[index], coeffs / sqrt(prob))
        post = np.moveaxis(post, [0, 1], pair)
        projections.append((prob, post.reshape(-1)))
    return projections


def nested_leaves(joint: np.ndarray, inputs: tuple[int, int, int]):
    """Every leaf of an enumeration as (w, first, second, probability, amplitudes).

    ``joint`` with both EPR pairs appended, then the choice and both Bell
    measurements, state by state in nested loops; ``probability`` is
    p_w * p_first * p_second, before the coins' quarter.
    """
    n = joint.size.bit_length() - 1
    q_apr, q_adp, q_r = inputs
    phi_plus = bell_vector(0, 0)
    extended = np.multiply.outer(np.multiply.outer(joint, phi_plus), phi_plus).reshape(-1)
    leaves = []
    for w in (0, 1):
        p_w, after_w = measure_project(extended, q_r, w)
        if after_w is None:
            continue
        for first, (p1, after_first) in enumerate(bell_projections(after_w, (q_apr, n))):
            if after_first is None:
                continue
            for second, (p2, leaf) in enumerate(bell_projections(after_first, (q_adp, n + 2))):
                if leaf is not None:
                    leaves.append((w, first, second, p_w * p1 * p2, leaf))
    return leaves


def corrected_output(leaf: np.ndarray, keep: list[int], correction: tuple[int, int]) -> np.ndarray:
    """One einsum partial trace of one leaf, then its signed relabelling by Z^c1 X^c0."""
    n = leaf.size.bit_length() - 1
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = letters[:n]
    col = "".join(letters[n + i] if i in keep else row[i] for i in range(n))
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    psi = leaf.reshape((2,) * n)
    rho = np.einsum(f"{row},{col}->{out}", psi, psi.conj()).reshape((2 ** len(keep),) * 2)
    c1, c0 = correction
    half = len(rho) // 2
    four = rho.reshape(half, 2, half, 2)
    if c0:
        four = four[:, ::-1, :, ::-1]
    return (four * _SIGNS[c1]).reshape(rho.shape)


def loop_branch_sums(branches, scale=1):
    """Alice's distribution, output sum and per-bits sums, one branch at a time."""
    dist = np.zeros(4)
    total = np.zeros_like(branches[0].output.matrix)
    parts = {(a1, a0): np.zeros_like(total) for a1 in (0, 1) for a0 in (0, 1)}
    for branch in branches:
        dist[branch.alice.index] += branch.probability
        contribution = scale * branch.probability * branch.output.matrix
        total += contribution
        parts[branch.alice.bits] += contribution
    return dist, total, parts


def environment_residual(v: np.ndarray, vec: np.ndarray, d_out: int, env_dim: int):
    """Principal eigenvector and eigenvalue of the environment state of one input."""
    table = (v @ vec).reshape(d_out, env_dim)
    evals, evecs = np.linalg.eigh(np.einsum("ok,ol->kl", table.conj(), table))
    return evecs[:, -1], float(evals[-1])


def residual_overlaps(v: np.ndarray, psi: np.ndarray, phi: np.ndarray, d_out: int, env_dim: int):
    """One pair of the dilation report: residual overlap, smaller purity, input overlap."""
    pair = np.multiply.outer(psi, phi)
    residuals, purities = zip(*(
        environment_residual(v, np.multiply.outer(pair, choice).reshape(-1), d_out, env_dim)
        for choice in np.eye(2, dtype=complex)
    ))
    return (
        float(np.abs(np.vdot(residuals[0], residuals[1]))),
        min(purities),
        float(np.abs(np.vdot(psi, phi))),
    )


def haar_states(num_qubits: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Haar-random amplitudes drawn one state at a time: real parts, then imaginary parts."""
    dim = 2**num_qubits
    states = []
    for _ in range(count):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(vec / np.linalg.norm(vec))
    return states
