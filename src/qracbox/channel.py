"""Channel reconstruction and structure checks for the box.

Feeding Alice's classical output straight into Bob's classical input
turns the box into an ordinary quantum channel from three qubits
(Alice's two inputs plus Bob's choice) to Bob's output qubit.  This
module reconstructs that channel as a Choi matrix by sending half of a
maximally entangled state through it, splits it into the four
subchannels labeled by Alice's output, builds an isometric dilation,
and machine-checks the structural claims: complete positivity, trace
preservation, the subchannel decomposition, the mixture law for a
superposed choice, and orthogonality of the dilation residuals.

Choi convention: index (i*d_out + o), i.e. J = sum_ij |i><j| (x)
L(|i><j|), so the partial trace over the output equals the identity on
the input space exactly when the channel is trace preserving.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .boxes import check, tv_distance
from .qrac import alice_output_distribution, channel_branches, sample_alice_output, sample_channel
from .quantum import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    StateVector,
    tensor,
    trace_distance,
)
from .rng import make_rng

D_IN = 8
D_OUT = 2

_MIXED = np.eye(2) / 2


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Channel as a state: PSD iff completely positive.

    ``atol`` is the validation tolerance; branch-exact reconstructions
    use the default 1e-8 while sampled estimates pass a statistical one.
    """

    d_in: int
    d_out: int
    matrix: np.ndarray
    atol: float = field(default=1e-8, compare=False)

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dim = self.d_in * self.d_out
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} Choi matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("Choi matrix has a non-finite entry")
        if np.max(np.abs(mat - mat.conj().T)) > self.atol:
            raise ValueError("Choi matrix is not Hermitian")
        if float(np.min(np.linalg.eigvalsh(mat))) < -self.atol:
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

    def is_trace_preserving(self, tol: float = 1e-8) -> bool:
        return self.tp_defect() <= tol

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel output for an input density matrix (raw arrays)."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.d_in, self.d_in):
            raise ValueError(f"input must be {self.d_in}x{self.d_in}")
        four = self.matrix.reshape(self.d_in, self.d_out, self.d_in, self.d_out)
        return np.einsum("ij,iajb->ab", rho, four)

    def to_json_dict(self) -> dict:
        return {
            "d_in": self.d_in,
            "d_out": self.d_out,
            "re": np.real(self.matrix).tolist(),
            "im": np.imag(self.matrix).tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict, atol: float = 1e-8) -> "ChoiMatrix":
        mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return cls(int(data["d_in"]), int(data["d_out"]), mat, atol=atol)


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


def _accumulate_choi(branches) -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    total = np.zeros((D_IN * D_OUT, D_IN * D_OUT), dtype=complex)
    parts = {
        (a1, a0): np.zeros_like(total) for a1 in (0, 1) for a0 in (0, 1)
    }
    for branch in branches:
        contribution = D_IN * branch.probability * branch.output.matrix
        total += contribution
        parts[branch.alice.bits] += contribution
    return total, parts


def tomography(
    mode: str = "branch-exact",
    *,
    trials: int | None = None,
    seed: int | None = None,
) -> ChoiMatrix:
    """Reconstruct the channel's Choi matrix.

    Branch-exact mode enumerates every measurement outcome and box coin
    with its exact probability; sampled mode averages ``trials`` seeded
    runs and exists to exercise the statistical harness (its validation
    tolerance scales as 1/sqrt(trials)).
    """
    probe = _entangled_probe()
    if mode == "branch-exact":
        total, _ = _accumulate_choi(channel_branches(probe, (3, 4, 5)))
        return ChoiMatrix(D_IN, D_OUT, total)
    if mode == "sampled":
        if trials is None or seed is None:
            raise ValueError("sampled tomography needs trials and seed")
        total = np.zeros((D_IN * D_OUT, D_IN * D_OUT), dtype=complex)
        for trial in range(trials):
            _, _, rho = sample_channel(probe, make_rng(seed, trial), (3, 4, 5))
            total += D_IN * rho.matrix / trials
        return ChoiMatrix(D_IN, D_OUT, total, atol=max(1e-8, 64 / sqrt(trials)))
    raise ValueError(f"unknown tomography mode {mode!r}")


def subchannels() -> SubchannelSet:
    """Branch-exact reconstruction of the four conditioned subchannels."""
    total, parts = _accumulate_choi(channel_branches(_entangled_probe(), (3, 4, 5)))
    return SubchannelSet(
        total=ChoiMatrix(D_IN, D_OUT, total),
        parts={key: ChoiMatrix(D_IN, D_OUT, mat) for key, mat in parts.items()},
    )


def _omega_from_amplitudes(alpha: complex, beta: complex) -> StateVector:
    weight = abs(alpha) ** 2 + abs(beta) ** 2
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
    branches = channel_branches(tensor([psi, phi, omega]))

    expected = (
        abs(alpha) ** 2 * np.outer(psi.amplitudes, psi.amplitudes.conj())
        + abs(beta) ** 2 * np.outer(phi.amplitudes, phi.amplitudes.conj())
    )
    total = np.zeros((2, 2), dtype=complex)
    parts = {(a1, a0): np.zeros((2, 2), dtype=complex) for a1 in (0, 1) for a0 in (0, 1)}
    for branch in branches:
        contribution = branch.probability * branch.output.matrix
        total += contribution
        parts[branch.alice.bits] += contribution

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

    def evolve_pure(self, vec: np.ndarray) -> np.ndarray:
        """V|vec> as a (d_out, env_dim) coefficient table."""
        return (self.isometry @ np.asarray(vec, dtype=complex)).reshape(
            self.d_out, self.env_dim
        )

    def output_state(self, rho: np.ndarray) -> np.ndarray:
        """Tr_env V rho V', which must reproduce the channel."""
        big = self.isometry @ np.asarray(rho, dtype=complex) @ self.isometry.conj().T
        four = big.reshape(self.d_out, self.env_dim, self.d_out, self.env_dim)
        return np.einsum("aebe->ab", four)

    def environment_state(self, vec: np.ndarray) -> np.ndarray:
        """Reduced environment state for a pure input."""
        table = self.evolve_pure(vec)
        return np.einsum("ok,ol->kl", table.conj(), table)


def build_dilation(choi: ChoiMatrix, *, rank_tol: float = 1e-12) -> Dilation:
    """Standard isometric dilation from the Choi eigendecomposition.

    The environment dimension is the Choi rank; any valid dilation would
    do, since residual orthogonality is basis independent.
    """
    if choi.min_eigenvalue() < -1e-8 or not choi.is_trace_preserving(1e-8):
        raise ValueError("dilation needs a CPTP Choi matrix")
    evals, evecs = np.linalg.eigh(choi.matrix)
    kept = [k for k in range(len(evals)) if evals[k] > rank_tol]
    env_dim = len(kept)
    v = np.zeros((choi.d_out * env_dim, choi.d_in), dtype=complex)
    for slot, k in enumerate(kept):
        kraus = sqrt(evals[k]) * evecs[:, k].reshape(choi.d_in, choi.d_out).T
        for o in range(choi.d_out):
            v[o * env_dim + slot, :] = kraus[o, :]
    return Dilation(choi.d_in, choi.d_out, env_dim, v)


def _principal_state(rho: np.ndarray) -> tuple[np.ndarray, float]:
    evals, evecs = np.linalg.eigh(rho)
    return evecs[:, -1], float(evals[-1])


def environment_orthogonality_check(
    dil: Dilation, psi: StateVector, phi: StateVector
) -> dict:
    """Overlap of the non-output residuals for the two basis choices.

    For choice |0> the box emits psi and parks everything else in some
    residual state; for choice |1> it emits phi with another residual.
    Those two residuals must be orthogonal: that is exactly why a
    superposed choice decoheres into a mixture.
    """
    residuals = []
    purities = []
    for choice in (KET0, KET1):
        vec = np.kron(np.kron(psi.amplitudes, phi.amplitudes), choice.amplitudes)
        env = dil.environment_state(vec)
        chi, top = _principal_state(env)
        residuals.append(chi)
        purities.append(top)
    overlap = float(np.abs(np.vdot(residuals[0], residuals[1])))
    min_purity = min(purities)
    checks = [
        check("residual-orthogonality", overlap <= 1e-6, overlap, 1e-6),
        check("residual-purity", min_purity >= 1 - 1e-6, min_purity, 1e-6),
    ]
    return {
        "metrics": {
            "overlap": overlap,
            "min_residual_purity": min_purity,
            "input_overlap": float(np.abs(np.vdot(psi.amplitudes, phi.amplitudes))),
        },
        "checks": checks,
    }


def verify_nonsignaling(
    trials: int,
    seed: int,
    mode: str = "branch-exact",
    *,
    psi: StateVector = KET0,
    phi: StateVector = KET1,
    contrast_pair: tuple[StateVector, StateVector] | None = None,
) -> dict:
    """Machine-check that neither party's data depends on the other's input.

    Exact part (always): Alice's output distribution is identical for
    both basis choices and a superposed choice, and Bob's branch-averaged
    output with Alice's bits withheld is maximally mixed for two
    different input pairs.  Sampled part (mode="sampled", trials >= 1e4):
    the Alice comparison re-done statistically with tolerance 0.02.
    """
    if mode not in ("branch-exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and trials < 10**4:
        raise ValueError("sampled non-signaling verification needs >= 1e4 trials")
    if contrast_pair is None:
        contrast_pair = (KET_PLUS, KET_MINUS)

    dists = [
        alice_output_distribution(psi, phi, omega)
        for omega in (KET0, KET1, KET_PLUS)
    ]
    exact_tv = max(
        tv_distance(dists[i], dists[j]) for i in range(3) for j in range(i + 1, 3)
    )

    withheld_distance = 0.0
    for pair in (psi, phi), contrast_pair:
        for omega in (KET0, KET1, KET_PLUS):
            branches = channel_branches(tensor([pair[0], pair[1], omega]), b=(0, 0))
            avg = sum(b.probability * b.output.matrix for b in branches)
            withheld_distance = max(withheld_distance, trace_distance(avg, _MIXED))

    checks = [
        check("alice-distribution-exact", exact_tv <= 1e-12, exact_tv, 1e-12),
        check("bob-withheld-marginal", withheld_distance <= 1e-8, withheld_distance, 1e-8),
    ]
    metrics = {
        "exact_alice_tv": exact_tv,
        "bob_withheld_trace_distance": withheld_distance,
    }

    if mode == "sampled":
        counts = {0: np.zeros(4), 1: np.zeros(4)}
        for w in (0, 1):
            rng = make_rng(seed, w)
            for _ in range(trials):
                counts[w][sample_alice_output(psi, phi, w, rng).index] += 1
        sampled_tv = tv_distance(counts[0] / trials, counts[1] / trials)
        checks.append(check("alice-distribution-sampled", sampled_tv <= 0.02, sampled_tv, 0.02))
        metrics["sampled_alice_tv"] = sampled_tv
        metrics["sampled_trials"] = trials

    return {"metrics": metrics, "checks": checks}
