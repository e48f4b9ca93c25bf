"""Channel reconstruction and structure checks for the box.

Feeding Alice's classical output straight into Bob's classical input
turns the box into an ordinary quantum channel from three qubits
(Alice's two inputs plus Bob's choice) to Bob's output qubit.  This
module reconstructs that channel as a Choi matrix by sending half of a
maximally entangled state through it, splits it into the four
subchannels labeled by Alice's output, builds an isometric dilation,
and machine-checks the structural claims: complete positivity, trace
preservation, the subchannel decomposition, the mixture law for a
superposed choice, and orthogonality of the dilation residuals.  Every
exact claim comes from one enumeration of the box's branches
(``qrac.channel_branches``, a ``qrac.BranchTable`` of arrays, its
distinct outputs one matrix stack) reduced by ``qrac.branch_sums``,
which indexes the table's arrays and builds no per-branch or
per-output object.  Non-signaling's three withheld enumerations, one
per choice omega, run as one stack of three registers
(``qrac._stacked_branches``, in ``_withheld``).  The dilation's pairs
are checked as stacks, a block of pairs at a time
(``_residual_overlaps``).

Two of those enumerations have inputs that depend on nothing: the
maximally entangled probe behind ``tomography()`` and ``subchannels()``
(``_probe_sums``), and the fixed (|+>, |->) contrast pair of
``verify_nonsignaling`` with omega in {|0>, |1>, |+>}
(``_default_contrast``, a ``_withheld`` stack too).  Each is made once
per process, on first use, and its arrays are shared read-only; every
``ChoiMatrix`` built from them is still a validated copy.  So the
saving is for a process that makes several exact reports.  These two
are not the only caches the box's wiring feeds (``qrac._tree`` keeps
the sampled executors' outcome tables, each with its one full play in
its memos, walked and gathered by every later block), so a test that
changes the box must clear all three, as the suite's
``clear_box_caches`` fixture (``tests/conftest.py``) does.

The sampled reports also check their sampler: sampled tomography and
sampled non-signaling count how often their trials reached each leaf
of the outcome table they walk, and ``boxes.leaf_frequency_check``
compares those frequencies with the table's exact leaf probabilities.

Choi convention: index (i*d_out + o), i.e. J = sum_ij |i><j| (x)
L(|i><j|), so the partial trace over the output equals the identity on
the input space exactly when the channel is trace preserving.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, sqrt
from types import MappingProxyType

import numpy as np

from .boxes import check, leaf_frequency_check, tv_distance
from .qrac import (
    _alice_rows,
    _channel_block,
    _check_qubits,
    _round_register,
    _stacked_branches,
    branch_sums,
    channel_branches,
)
from .quantum import KET0, KET1, KET_MINUS, KET_PLUS, StateVector, trace_distance
from .rng import TRIAL_BLOCK, make_rng, stream_words, trial_blocks, trial_count

D_IN = 8
D_OUT = 2

_MIXED = np.eye(2) / 2


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Channel as a state: PSD iff completely positive, checked within 1e-8.

    A sampled estimate is a sum of checked density matrices with
    positive weights, so it passes the same check as an exact one.
    """

    d_in: int
    d_out: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dim = self.d_in * self.d_out
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} Choi matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("Choi matrix has a non-finite entry")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-8:
            raise ValueError("Choi matrix is not Hermitian")
        if float(np.min(np.linalg.eigvalsh(mat))) < -1e-8:
            raise ValueError("Choi matrix is not PSD: channel not completely positive")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.matrix)))

    def input_trace(self) -> np.ndarray:
        """Partial trace over the output; identity iff trace preserving."""
        four = self.matrix.reshape(self.d_in, self.d_out, self.d_in, self.d_out)
        return np.einsum("ioko->ik", four)

    def tp_defect(self) -> float:
        return float(np.max(np.abs(self.input_trace() - np.eye(self.d_in))))

    def to_json_dict(self) -> dict:
        return {
            "d_in": self.d_in,
            "d_out": self.d_out,
            "re": np.real(self.matrix).tolist(),
            "im": np.imag(self.matrix).tolist(),
        }


@dataclass(frozen=True, eq=False)
class SubchannelSet:
    """The four trace-non-increasing pieces labeled by Alice's output."""

    total: ChoiMatrix
    parts: dict[tuple[int, int], ChoiMatrix]

    def __post_init__(self) -> None:
        expected = {(a1, a0) for a1 in (0, 1) for a0 in (0, 1)}
        if set(self.parts) != expected:
            raise ValueError("subchannel set needs all four output labels")
        if self.decomposition_defect() > 1e-8:
            raise ValueError("subchannels do not sum to the full channel")

    def decomposition_defect(self) -> float:
        acc = sum(part.matrix for part in self.parts.values())
        return float(np.max(np.abs(acc - self.total.matrix)))


def _entangled_probe() -> StateVector:
    """Half of a maximally entangled pair on the 8-dim input space.

    Qubits 0-2 are the reference copy, qubits 3-5 feed the channel.
    """
    amps = np.zeros(4**3, dtype=complex)
    for i in range(D_IN):
        amps[i * D_IN + i] = 1 / sqrt(D_IN)
    return StateVector(6, amps)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=1)
def _probe_sums() -> tuple[np.ndarray, MappingProxyType]:
    """The probe enumeration's output sum and per-bits sums, read-only."""
    _, total, parts = branch_sums(channel_branches(_entangled_probe(), (3, 4, 5)), D_IN)
    return _read_only(total), MappingProxyType({k: _read_only(m) for k, m in parts.items()})


def tomography() -> ChoiMatrix:
    """Reconstruct the channel's Choi matrix from every measurement outcome and box coin.

    Each branch of the probe enumeration counts with its exact probability.
    """
    return ChoiMatrix(D_IN, D_OUT, _probe_sums()[0])


def _sampled_tomography(trials: int, seed: int) -> tuple[ChoiMatrix, np.ndarray, np.ndarray]:
    """The Choi matrix averaged over ``trials`` seeded runs, a statistical check of the sampler.

    Returns it, then each probe-table leaf's trial count and exact probability.
    """
    trials = trial_count(trials, 1, "sampled tomography")
    probe = _entangled_probe()
    total = np.zeros((D_IN * D_OUT, D_IN * D_OUT), dtype=complex)
    counts = 0
    for block in trial_blocks(trials):
        words = stream_words(seed, block, 4)
        _, ids, outputs, ends, table = _channel_block(probe, words, (3, 4, 5))
        counts = counts + np.bincount(ends, minlength=len(table.paths))
        terms = D_IN * outputs / trials
        for k in ids.tolist():  # in trial order, so every float is the same
            total += terms[k]
    return ChoiMatrix(D_IN, D_OUT, total), counts, table.probabilities


def subchannels() -> SubchannelSet:
    """Branch-exact reconstruction of the four conditioned subchannels."""
    total, parts = _probe_sums()
    return SubchannelSet(
        total=ChoiMatrix(D_IN, D_OUT, total),
        parts={key: ChoiMatrix(D_IN, D_OUT, mat) for key, mat in parts.items()},
    )


def _omega_from_amplitudes(alpha: complex, beta: complex) -> StateVector:
    try:
        weight = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:  # too large to square, so far from a unit weight
        weight = inf
    if abs(weight - 1.0) > 1e-10:
        raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {weight!r}")
    return StateVector(1, np.array([alpha, beta]) / sqrt(weight))


def mixture_check(
    alpha: complex,
    beta: complex,
    psi: StateVector,
    phi: StateVector,
) -> dict:
    """Check that a superposed choice yields the classical mixture.

    The output for choice qubit alpha|0> + beta|1> must equal
    |alpha|^2 |psi><psi| + |beta|^2 |phi><phi| within 1e-8, and each of
    the four subchannels must emit exactly one quarter of that mixture.
    """
    omega = _omega_from_amplitudes(alpha, beta)
    _, total, parts = branch_sums(channel_branches(_round_register(psi, phi, omega)))

    expected = (
        abs(alpha) ** 2 * np.outer(psi.amplitudes, psi.amplitudes.conj())
        + abs(beta) ** 2 * np.outer(phi.amplitudes, phi.amplitudes.conj())
    )
    full_distance = trace_distance(total, expected)
    sub_distance = max(
        trace_distance(part, expected / 4) for part in parts.values()
    )
    checks = [
        check("mixture-full-channel", full_distance <= 1e-8, full_distance, 1e-8),
        check("mixture-subchannels", sub_distance <= 1e-8, sub_distance, 1e-8),
    ]
    return {
        "metrics": {
            "alpha_sq": abs(alpha) ** 2,
            "beta_sq": abs(beta) ** 2,
            "trace_distance": full_distance,
            "subchannel_max_distance": sub_distance,
            "output": {
                "re": np.real(total).tolist(),
                "im": np.imag(total).tolist(),
            },
        },
        "checks": checks,
    }


@dataclass(frozen=True, eq=False)
class Dilation:
    """Isometry V from the input space into output (x) environment."""

    d_in: int
    d_out: int
    env_dim: int
    isometry: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.isometry, dtype=complex)
        if v.shape != (self.d_out * self.env_dim, self.d_in):
            raise ValueError("isometry has wrong shape")
        if np.max(np.abs(v.conj().T @ v - np.eye(self.d_in))) > 1e-8:
            raise ValueError("V'V != I: not an isometry")
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)

    def isometry_defect(self) -> float:
        v = self.isometry
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.d_in))))

    def environment_state(self, vec: np.ndarray) -> np.ndarray:
        """Reduced environment state for a pure input, or a stack of them, from V|vec>."""
        vec = np.asarray(vec, dtype=complex)
        table = (self.isometry @ vec[..., None]).reshape(*vec.shape[:-1], self.d_out, -1)
        return np.einsum("...ok,...ol->...kl", table.conj(), table)


# Choi eigenvalues at or below this are rounding noise, not Kraus operators
_RANK_TOL = 1e-12


def build_dilation(choi: ChoiMatrix) -> Dilation:
    """Standard isometric dilation from the Choi eigendecomposition.

    The environment dimension is the Choi rank; any valid dilation would
    do, since residual orthogonality is basis independent.
    """
    # complete positivity is checked by ChoiMatrix itself, at the same bound
    if choi.tp_defect() > 1e-8:
        raise ValueError("dilation needs a CPTP Choi matrix")
    evals, evecs = np.linalg.eigh(choi.matrix)
    kept = [k for k in range(len(evals)) if evals[k] > _RANK_TOL]
    env_dim = len(kept)
    v = np.zeros((choi.d_out * env_dim, choi.d_in), dtype=complex)
    for slot, k in enumerate(kept):
        kraus = sqrt(evals[k]) * evecs[:, k].reshape(choi.d_in, choi.d_out).T
        for o in range(choi.d_out):
            v[o * env_dim + slot, :] = kraus[o, :]
    return Dilation(choi.d_in, choi.d_out, env_dim, v)


def _residual_overlaps(dil: Dilation, psis: list[StateVector], phis: list[StateVector]):
    """Yield (residual overlap, smaller residual purity, input overlap) of each pair (psi, phi).

    One environment state call and one ``eigh`` a block of ``TRIAL_BLOCK`` pairs, which bounds
    the arrays held at once; each overlap is a ``vdot`` of contiguous residuals, as for a lone pair.
    """
    for start in range(0, len(psis), TRIAL_BLOCK):
        block = (states[start : start + TRIAL_BLOCK] for states in (psis, phis))
        psi, phi = (np.stack([state.amplitudes for state in states]) for states in block)
        pair = psi[:, :, None] * phi[:, None, :]
        # np.kron(np.kron(psi, phi), choice) for choices |0> and |1>, unreshaped
        vecs = (pair[:, None, :, :, None] * np.eye(2)[:, None, None, :]).reshape(-1, dil.d_in)
        evals, evecs = np.linalg.eigh(dil.environment_state(vecs))
        residuals = np.ascontiguousarray(evecs[:, :, -1])  # the principal eigenvectors
        tops = evals[:, -1].tolist()
        for p in range(len(psi)):
            overlap = float(np.abs(np.vdot(residuals[2 * p], residuals[2 * p + 1])))
            yield overlap, min(tops[2 * p : 2 * p + 2]), float(np.abs(np.vdot(psi[p], phi[p])))


def environment_orthogonality_check(
    dil: Dilation, psi: StateVector, phi: StateVector
) -> dict:
    """Overlap of the non-output residuals for the two basis choices.

    For choice |0> the box emits psi and parks everything else in some
    residual state; for choice |1> it emits phi with another residual.
    Those two residuals must be orthogonal: that is exactly why a
    superposed choice decoheres into a mixture.  The one-pair view of
    ``_residual_overlaps``.
    """
    _check_qubits(psi=psi, phi=phi)
    ((overlap, min_purity, input_overlap),) = _residual_overlaps(dil, [psi], [phi])
    checks = [
        check("residual-orthogonality", overlap <= 1e-6, overlap, 1e-6),
        check("residual-purity", min_purity >= 1 - 1e-6, min_purity, 1e-6),
    ]
    return {
        "metrics": {
            "overlap": overlap,
            "min_residual_purity": min_purity,
            "input_overlap": input_overlap,
        },
        "checks": checks,
    }


def _withheld(pair: tuple[StateVector, StateVector]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Alice's distribution and Bob's output for ``pair`` with Bob's bits fixed.

    One (distribution, output) per choice omega in |0>, |1>, |+>, the
    three registers enumerated as one stack (``qrac._stacked_branches``).
    """
    registers = [_round_register(*pair, omega) for omega in (KET0, KET1, KET_PLUS)]
    return tuple(branch_sums(table)[:2] for table in _stacked_branches(registers, b=(0, 0)))


@lru_cache(maxsize=1)
def _default_contrast() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_withheld`` of the contrast pair (|+>, |->), read-only."""
    return tuple(
        (_read_only(dist), _read_only(total)) for dist, total in _withheld((KET_PLUS, KET_MINUS))
    )


def verify_nonsignaling(
    trials: int,
    seed: int,
    mode: str = "branch-exact",
    *,
    psi: StateVector = KET0,
    phi: StateVector = KET1,
) -> dict:
    """Machine-check that neither party's data depends on the other's input.

    Exact part (always): Alice's output distribution is identical for
    both basis choices and a superposed choice, and Bob's branch-averaged
    output with Alice's bits withheld is maximally mixed for two input
    pairs, (psi, phi) and the fixed contrast pair (|+>, |->).  To check
    the withheld marginal of another pair, pass it as (psi, phi).
    Sampled part (mode="sampled", trials >= 1e4):
    the Alice comparison re-done statistically with tolerance 0.02, and
    how often each w's trials reached each leaf of Alice's outcome table
    against its exact probability (``boxes.leaf_frequency_check``).
    """
    if mode not in ("branch-exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled":
        trials = trial_count(trials, 10**4, "sampled non-signaling verification")

    # a fixed b changes no branch probability and no Alice bit, so the
    # withheld enumerations of (psi, phi) also give Alice's distributions
    own = _withheld((psi, phi))
    contrast = _default_contrast()
    exact_tv = max(
        tv_distance(own[i][0], own[j][0]) for i in range(3) for j in range(i + 1, 3)
    )
    withheld_distance = max(trace_distance(total, _MIXED) for _, total in own + contrast)

    checks = [
        check("alice-distribution-exact", exact_tv <= 1e-12, exact_tv, 1e-12),
        check("bob-withheld-marginal", withheld_distance <= 1e-8, withheld_distance, 1e-8),
    ]
    metrics = {
        "exact_alice_tv": exact_tv,
        "bob_withheld_trace_distance": withheld_distance,
    }

    if mode == "sampled":
        # trial t with choice w plays words 3t .. 3t+2 of stream (seed, w); a block
        # counts its branch rows, each weighing its trial count
        counts = {0: np.zeros(4), 1: np.zeros(4)}
        leaf_counts = {0: 0, 1: 0}
        for w in (0, 1):
            raw = make_rng(seed, w).bit_generator
            for block in trial_blocks(trials):
                words = raw.random_raw(3 * len(block)).reshape(-1, 3)
                table, rows, alice = _alice_rows(psi, phi, words)
                hits = np.bincount(rows, minlength=len(alice))
                counts[w] += np.bincount(alice, weights=hits, minlength=4)
                leaf_counts[w] = leaf_counts[w] + hits.reshape(-1, 4).sum(axis=1)
        sampled_tv = tv_distance(counts[0] / trials, counts[1] / trials)
        checks.append(check("alice-distribution-sampled", sampled_tv <= 0.02, sampled_tv, 0.02))
        # both samples' leaves, each against the table: 2L frequencies of n trials
        leaf, leaf_metrics = leaf_frequency_check(
            np.concatenate([leaf_counts[0], leaf_counts[1]]), np.tile(table.probabilities, 2), trials
        )
        checks.append(leaf)
        metrics.update(leaf_metrics, sampled_alice_tv=sampled_tv, sampled_trials=trials)

    return {"metrics": metrics, "checks": checks}
