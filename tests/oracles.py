"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
kron products, index loops) so it shares no code path with the package:
full unitaries, Bell vectors and probabilities, the loop partial trace,
a Choi matrix applied to an input, the Choi matrix of the ideal channel,
a dilation's output, and Haar-random unitaries as test data.
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
