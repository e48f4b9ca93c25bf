"""Two-party metered execution and the experiment front end.

A metered round is straight-line code: Bob measures his choice, Alice
runs her side and sends her output through a MeteredChannel, Bob runs
his side on what arrived.  Every message flows Alice to Bob, and the
channel log is the round's transcript.  Budgets are asserted as hard
equalities; a violation is a protocol bug and aborts the run.

Experiments are described by a plain config (JSON-mirrored), always
carry a seed, and produce a report with a fixed shape::

    {config, metrics, tallies, checks: [{name, pass, value, tolerance}],
     version}

Reports serialize through ``canonical_json``: keys sorted, floats at 17
significant digits, no whitespace variation, so the same config and
seed always reproduce the same bytes.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields
from math import isfinite
from typing import Any

import numpy as np

from ._version import __version__
from .boxes import check, rac_all_cases, rac_round, tv_distance, verify_rac_privacy
from .channel import (
    build_dilation,
    environment_orthogonality_check,
    mixture_check,
    subchannels,
    tomography,
    verify_nonsignaling,
)
from .metering import (
    MeteredChannel,
    ProtocolError,
    QRAC_BUDGET,
    QUBIT_ONLY_BUDGET,
    RACBOX_BUDGET,
    RoundTranscript,
    Tally,
)
from .qrac import (
    AliceClassicalOutput,
    DenseCodingPair,
    QracResources,
    _choice_tree,
    branch_sums,
    channel_branches,
    dense_decode,
    dense_encode,
    qrac_alice,
    qrac_bob,
)
from .quantum import (
    KET0,
    KET1,
    DensityMatrix,
    StateVector,
    fidelity,
    haar_random_qubit,
    make_pure_qubit,
    tensor,
)
from .rng import fair_bits, make_rng

EXPERIMENTS = (
    "qrac",
    "qrac-qubit-only",
    "racbox",
    "tomography",
    "mixture",
    "nonsignaling",
    "dilation",
)


class ConfigError(ValueError):
    """The experiment description itself is unusable."""


# ---------------------------------------------------------------------------
# state specs and configs
# ---------------------------------------------------------------------------

def parse_state_spec(spec: str) -> StateVector:
    """Parse "bloch:theta,phi" or "amp:re0,im0,re1,im1" into a qubit state.

    Amplitude specs are auto-normalized; drifting more than 1e-6 from
    unit norm triggers a warning so silent bad inputs stay visible.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise ConfigError(f"bad state spec {spec!r}")
    scheme, _, body = spec.partition(":")
    try:
        values = [float(v) for v in body.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad state spec {spec!r}: {exc}") from None
    if not all(isfinite(v) for v in values):
        raise ConfigError(f"state spec has a non-finite number: {spec!r}")
    if scheme == "bloch":
        if len(values) != 2:
            raise ConfigError(f"bloch spec needs two angles, got {spec!r}")
        return make_pure_qubit(values[0], values[1])
    if scheme == "amp":
        if len(values) != 4:
            raise ConfigError(f"amp spec needs four numbers, got {spec!r}")
        amps = np.array([values[0] + 1j * values[1], values[2] + 1j * values[3]])
        norm = float(np.linalg.norm(amps))
        if norm == 0.0 or not isfinite(norm):
            raise ConfigError(f"amp spec norm must be finite and non-zero: {spec!r}")
        if abs(norm - 1.0) > 1e-6:
            warnings.warn(f"state spec {spec!r} renormalized (norm was {norm!r})")
        try:
            return StateVector(1, amps / norm)
        except ValueError as exc:  # too small to normalize in double precision
            raise ConfigError(f"amp spec cannot be normalized: {spec!r}: {exc}") from None
    raise ConfigError(f"unknown state spec scheme {scheme!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, replayable description of one experiment run."""

    experiment: str
    seed: int
    trials: int = 1000
    mode: str = "branch-exact"
    psi: str = "amp:1,0,0,0"
    phi: str = "amp:0,0,1,0"
    omega: str | None = None
    alpha: tuple[float, float] | None = None
    beta: tuple[float, float] | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed is mandatory and must be an integer")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be in [0, 2**64)")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 0:
            raise ConfigError("trials must be a non-negative integer")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a file path")
        if self.mode not in ("branch-exact", "sampled"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if (self.alpha is None) != (self.beta is None):
            raise ConfigError("alpha and beta must be given together")
        if self.alpha is not None and self.omega is not None:
            raise ConfigError("give either omega or (alpha, beta), not both")
        if self.alpha is not None:
            if not all(isfinite(x) for x in (*self.alpha, *self.beta)):
                raise ConfigError("alpha and beta must be finite")
            weight = abs(self._alpha_complex()) ** 2 + abs(self._beta_complex()) ** 2
            if abs(weight - 1.0) > 1e-10:
                raise ConfigError("|alpha|^2 + |beta|^2 must be 1 within 1e-10")
        # parse eagerly so bad specs fail at config time
        parse_state_spec(self.psi)
        parse_state_spec(self.phi)
        if self.omega is not None:
            parse_state_spec(self.omega)

    def _alpha_complex(self) -> complex:
        assert self.alpha is not None
        return complex(self.alpha[0], self.alpha[1])

    def _beta_complex(self) -> complex:
        assert self.beta is not None
        return complex(self.beta[0], self.beta[1])

    def resolved_psi(self) -> StateVector:
        return parse_state_spec(self.psi)

    def resolved_phi(self) -> StateVector:
        return parse_state_spec(self.phi)

    def resolved_omega_amplitudes(self) -> tuple[complex, complex]:
        """(alpha, beta) of Bob's choice qubit, default |0>."""
        if self.alpha is not None:
            return self._alpha_complex(), self._beta_complex()
        if self.omega is not None:
            amps = parse_state_spec(self.omega).amplitudes
            return complex(amps[0]), complex(amps[1])
        return 1.0 + 0j, 0j

    def resolved_omega(self) -> StateVector:
        alpha, beta = self.resolved_omega_amplitudes()
        amps = np.array([alpha, beta])
        return StateVector(1, amps / np.linalg.norm(amps))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in data:
            raise ConfigError("config needs an experiment name")
        if "seed" not in data:
            raise ConfigError("config needs a seed")
        kwargs = dict(data)
        for key in ("alpha", "beta"):
            if kwargs.get(key) is not None:
                pair = kwargs[key]
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ConfigError(f"{key} must be a [re, im] pair")
                try:
                    kwargs[key] = (float(pair[0]), float(pair[1]))
                except (TypeError, ValueError):
                    raise ConfigError(f"{key} must be a [re, im] pair of numbers") from None
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "trials": self.trials,
            "mode": self.mode,
            "psi": self.psi,
            "phi": self.phi,
            "omega": self.omega,
            "alpha": list(self.alpha) if self.alpha is not None else None,
            "beta": list(self.beta) if self.beta is not None else None,
            "out": self.out,
        }


# ---------------------------------------------------------------------------
# metered rounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundResult:
    output: DensityMatrix
    transcript: RoundTranscript
    w: int
    alice: AliceClassicalOutput


def run_qrac_protocol(
    psi: StateVector,
    phi: StateVector,
    omega: StateVector,
    seed: int,
    *,
    trial: int = 0,
    dense: bool = False,
) -> RoundResult:
    """One metered round: Bob measures omega, Alice sends, Bob decodes.

    Alice's two bits cross the channel as two classical bits, or with
    ``dense`` as one dense-coded qubit.  Randomness is drawn from the
    (seed, trial) stream in the order box coins, omega, both Bell
    measurements, dense decoding.
    """
    rng = make_rng(seed, trial)
    res = QracResources(rng)
    w, _ = _choice_tree(omega.num_qubits, omega.amplitudes.tobytes()).draw(rng)
    alice = qrac_alice(psi, phi, res)
    channel = MeteredChannel()
    if dense:
        payload = dense_encode(alice.a1, alice.a0, DenseCodingPair())
        channel.send("A->B", "qubit", "dense-coded-output", payload)
        received = dense_decode(payload, rng).bits
        if received != alice.bits:
            raise ProtocolError("dense decoding disagreed with Alice's output")
    else:
        channel.send("A->B", "classical-bit", "a1", alice.a1)
        channel.send("A->B", "classical-bit", "a0", alice.a0)
        received = alice.bits
    output = qrac_bob(w, received, res)
    return RoundResult(output, channel.transcript(), w, alice)


@dataclass(frozen=True)
class RacRoundResult:
    output: int
    transcript: RoundTranscript
    a0: int
    a1: int
    w: int


def run_rac_protocol(
    a0: int,
    a1: int,
    w: int,
    rng: np.random.Generator | None = None,
    *,
    coin: int | None = None,
) -> RacRoundResult:
    """One metered classical RAC round: Alice's masked bit is the only message."""
    played = rac_round(a0, a1, w, rng, coin=coin)
    channel = MeteredChannel()
    channel.send("A->B", "classical-bit", "m", played.message)
    return RacRoundResult(played.output, channel.transcript(), a0, a1, w)


# ---------------------------------------------------------------------------
# budget assertions and reports
# ---------------------------------------------------------------------------

def meter_assert(transcript: RoundTranscript, budget: Tally) -> dict:
    """Hard equality of transcript tallies against a budget.

    Returns a check entry; ``value`` is the number of mismatched tally
    fields, with a diff in ``detail`` on failure.
    """
    actual = transcript.totals.as_dict()
    expected = budget.as_dict()
    diffs = [
        f"{key}: expected {expected[key]}, got {actual[key]}"
        for key in expected
        if expected[key] != actual[key]
    ]
    entry = check("budget", not diffs, float(len(diffs)), 0.0)
    entry["detail"] = "; ".join(diffs) if diffs else None
    return entry


def _assert_budget(transcript: RoundTranscript, budget: Tally, context: str) -> None:
    entry = meter_assert(transcript, budget)
    if not entry["pass"]:
        excerpt = ", ".join(
            f"{m.direction} {m.kind} {m.payload}" for m in transcript.messages[-8:]
        )
        raise ProtocolError(
            f"budget violation in {context}: {entry['detail']} (log: {excerpt})"
        )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_qrac(config: ExperimentConfig, dense: bool) -> tuple[dict, list, Tally, list, list]:
    psi, phi, omega = config.resolved_psi(), config.resolved_phi(), config.resolved_omega()
    budget = QUBIT_ONLY_BUDGET if dense else QRAC_BUDGET
    rounds = max(config.trials, 1)
    label = "qrac-qubit-only" if dense else "qrac"

    tallies = Tally()
    fidelities = []
    histogram = [0, 0, 0, 0]
    rows = []
    for trial in range(rounds):
        result = run_qrac_protocol(psi, phi, omega, config.seed, trial=trial, dense=dense)
        _assert_budget(result.transcript, budget, f"{label} trial {trial}")
        tallies = tallies + result.transcript.totals
        target = psi if result.w == 0 else phi
        f = fidelity(result.output, target)
        fidelities.append(f)
        histogram[result.alice.index] += 1
        rows.append([trial, result.w, result.alice.a1, result.alice.a0, f])

    min_f = min(fidelities)
    checks = [
        check("budget-every-round", True, 0.0, 0.0),
        check("recovery-fidelity", min_f >= 1 - 1e-10, min_f, 1e-10),
    ]
    metrics = {
        "rounds": rounds,
        "min_fidelity": min_f,
        "mean_fidelity": float(np.mean(fidelities)),
        "alice_histogram": histogram,
    }
    sampled_tv = tv_distance([h / rounds for h in histogram], [0.25] * 4)
    metrics["alice_uniformity_tv"] = sampled_tv
    if rounds >= 10**4:
        # the 0.02 tolerance is calibrated for large samples
        checks.append(check("alice-uniformity-sampled", sampled_tv <= 0.02, sampled_tv, 0.02))
    if config.mode == "branch-exact":
        branches = channel_branches(tensor([psi, phi, omega]))
        exact_min = min(
            fidelity(b.output, psi if b.w == 0 else phi) for b in branches
        )
        exact_tv = tv_distance(branch_sums(branches)[0], [0.25] * 4)
        checks.append(check("recovery-fidelity-exact", exact_min >= 1 - 1e-10, exact_min, 1e-10))
        checks.append(check("alice-uniformity-exact", exact_tv <= 1e-12, exact_tv, 1e-12))
        metrics["exact_min_fidelity"] = exact_min
        metrics["exact_alice_uniformity_tv"] = exact_tv
    header = ["trial", "w", "a1", "a0", "fidelity"]
    return metrics, checks, tallies, header, rows


def _exp_racbox(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    if config.trials < 1000:
        raise ConfigError("racbox experiment needs trials >= 1000 for the privacy check")
    cases = rac_all_cases()
    correct = sum(r.output == (r.a0 if r.w == 0 else r.a1) for r in cases)

    tallies = Tally()
    rows = []
    sampled_correct = 0
    for trial in range(config.trials):
        # inputs and box coin share the trial's stream, in that order
        a0, a1, w, coin = fair_bits(make_rng(config.seed, trial), 4)
        result = run_rac_protocol(a0, a1, w, coin=coin)
        _assert_budget(result.transcript, RACBOX_BUDGET, f"racbox trial {trial}")
        tallies = tallies + result.transcript.totals
        ok = result.output == (a0 if w == 0 else a1)
        sampled_correct += ok
        rows.append([trial, a0, a1, w, result.output, int(ok)])

    privacy = verify_rac_privacy(config.trials, config.seed)
    checks = [
        check("rac-exhaustive-correct", correct == 16, float(correct), None),
        check("rac-sampled-correct", sampled_correct == config.trials, float(sampled_correct), None),
        check("budget-every-round", True, 0.0, 0.0),
        *privacy["checks"],
    ]
    metrics = {
        "exhaustive_cases": 16,
        "exhaustive_correct": correct,
        "rounds": config.trials,
        **privacy["metrics"],
    }
    header = ["trial", "a0", "a1", "w", "output", "correct"]
    return metrics, checks, tallies, header, rows


def _exp_tomography(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    if config.mode == "sampled":
        if config.trials < 1:
            raise ConfigError("sampled tomography needs trials >= 1")
        choi = tomography(mode="sampled", trials=config.trials, seed=config.seed)
        exact = tomography()
        deviation = float(np.max(np.abs(choi.matrix - exact.matrix)))
        checks = [
            check("sampled-trials-sufficient", config.trials >= 1000, float(config.trials), 1000.0),
            check("choi-trace-preserving", choi.tp_defect() <= choi.atol, choi.tp_defect(), choi.atol),
        ]
        metrics = {
            "mode": "sampled",
            "trials": config.trials,
            "min_eigenvalue": choi.min_eigenvalue(),
            "tp_defect": choi.tp_defect(),
            "deviation_from_exact": deviation,
            "statistical_tolerance": choi.atol,
            "choi": choi.to_json_dict(),
        }
        return metrics, checks, Tally(), [], []

    decomposition = subchannels()
    choi = decomposition.total
    weight_defect = max(
        float(np.max(np.abs(part.input_trace() - np.eye(8) / 4)))
        for part in decomposition.parts.values()
    )
    checks = [
        check("choi-psd", choi.min_eigenvalue() >= -1e-8, choi.min_eigenvalue(), 1e-8),
        check("choi-trace-preserving", choi.tp_defect() <= 1e-8, choi.tp_defect(), 1e-8),
        check(
            "subchannel-decomposition",
            decomposition.decomposition_defect() <= 1e-8,
            decomposition.decomposition_defect(),
            1e-8,
        ),
        check("subchannel-weights", weight_defect <= 1e-8, weight_defect, 1e-8),
    ]
    metrics = {
        "mode": "branch-exact",
        "min_eigenvalue": choi.min_eigenvalue(),
        "tp_defect": choi.tp_defect(),
        "decomposition_defect": decomposition.decomposition_defect(),
        "subchannel_weight_defect": weight_defect,
        "choi": choi.to_json_dict(),
    }
    return metrics, checks, Tally(), [], []


def _exp_mixture(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    alpha, beta = config.resolved_omega_amplitudes()
    report = mixture_check(alpha, beta, config.resolved_psi(), config.resolved_phi())
    return report["metrics"], report["checks"], Tally(), [], []


def _exp_nonsignaling(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    if config.mode == "sampled" and config.trials < 10**4:
        raise ConfigError("sampled nonsignaling verification needs trials >= 10000")
    report = verify_nonsignaling(
        config.trials,
        config.seed,
        config.mode,
        psi=config.resolved_psi(),
        phi=config.resolved_phi(),
    )
    return report["metrics"], report["checks"], Tally(), [], []


def _exp_dilation(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    dil = build_dilation(tomography())
    rng = make_rng(config.seed)
    # the configured pair, one orthogonal pair, plus random pairs
    pairs = [(config.resolved_psi(), config.resolved_phi()), (KET0, KET1)]
    for _ in range(max(config.trials, 50)):
        pairs.append((haar_random_qubit(rng), haar_random_qubit(rng)))

    max_overlap = 0.0
    min_purity = 1.0
    rows = []
    for index, (psi, phi) in enumerate(pairs):
        report = environment_orthogonality_check(dil, psi, phi)
        max_overlap = max(max_overlap, report["metrics"]["overlap"])
        min_purity = min(min_purity, report["metrics"]["min_residual_purity"])
        rows.append(
            [index, report["metrics"]["input_overlap"], report["metrics"]["overlap"]]
        )

    checks = [
        check("isometry", dil.isometry_defect() <= 1e-8, dil.isometry_defect(), 1e-8),
        check("environment-dimension", dil.env_dim <= 16, float(dil.env_dim), 16.0),
        check("residual-orthogonality-max", max_overlap <= 1e-6, max_overlap, 1e-6),
        check("residual-purity-min", min_purity >= 1 - 1e-6, min_purity, 1e-6),
    ]
    metrics = {
        "environment_dimension": dil.env_dim,
        "isometry_defect": dil.isometry_defect(),
        "pairs_checked": len(pairs),
        "max_overlap": max_overlap,
        "min_residual_purity": min_purity,
    }
    header = ["pair", "input_overlap", "residual_overlap"]
    return metrics, checks, Tally(), header, rows


_DISPATCH = {
    "qrac": lambda cfg: _exp_qrac(cfg, dense=False),
    "qrac-qubit-only": lambda cfg: _exp_qrac(cfg, dense=True),
    "racbox": _exp_racbox,
    "tomography": _exp_tomography,
    "mixture": _exp_mixture,
    "nonsignaling": _exp_nonsignaling,
    "dilation": _exp_dilation,
}


def run_experiment(config: ExperimentConfig, csv_path: str | None = None) -> dict:
    """Run one experiment and assemble its report.

    The report echoes the resolved config, so feeding it back through
    ExperimentConfig.from_dict replays the run byte for byte.
    """
    if config.experiment not in _DISPATCH:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    metrics, checks, tallies, header, rows = _DISPATCH[config.experiment](config)
    if csv_path is not None:
        _write_csv(csv_path, header, rows)
    return {
        "version": __version__,
        "config": config.to_dict(),
        "metrics": metrics,
        "tallies": tallies.as_dict(),
        "checks": checks,
    }


def open_output(path: str, newline: str | None = None):
    """Open an output file for writing; one that cannot be opened is a ConfigError."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_csv(path: str, header: list, rows: list) -> None:
    with open_output(path, newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(float(value), ".17g")


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)
