"""Two-party metered execution and the experiment front end.

Rounds are played and metered a block of trials at a time: Bob
measures his choice, Alice runs her side and sends her output through
one MeteredChannel for the block, Bob runs his side on what arrived.  A
lone round (``run_qrac_protocol``) is a block of one trial.  Every
message flows Alice to Bob, and the channel log is each round's
transcript.  Budgets are asserted as hard equalities; a violation is a
protocol bug and aborts the run.

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
from math import isfinite, sqrt
from typing import Any, Sequence

import numpy as np

from ._version import __version__
from .boxes import (
    PRBoxes,
    check,
    leaf_frequency_check,
    rac_round,
    rac_wiring,
    tv_distance,
    verify_rac_privacy,
)
from .channel import (
    _omega_from_amplitudes,
    _residual_overlaps,
    _sampled_tomography,
    build_dilation,
    mixture_check,
    subchannels,
    tomography,
    verify_nonsignaling,
)
from .metering import (
    ConfigError,
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
    _density,
    _round_register,
    _sampled_rounds,
    branch_sums,
    channel_branches,
    dense_decode_block,
)
from .quantum import (
    KET0,
    KET1,
    DensityMatrix,
    StateVector,
    fidelity,
    haar_random_states,
    make_pure_qubit,
)
from .rng import bit_columns, make_rng, stream_words, trial_blocks, word_uniform

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
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        if not isfinite(norm):
            raise ConfigError(f"amp spec norm overflows double precision: {spec!r}")
        if norm == 0.0 and any(values):
            raise ConfigError(f"amp spec norm underflows double precision: {spec!r}")
        if norm == 0.0:
            raise ConfigError(f"amp spec norm must be non-zero: {spec!r}")
        try:
            state = StateVector(1, amps / norm)
        except ValueError as exc:  # too small to normalize in double precision
            raise ConfigError(f"amp spec cannot be normalized: {spec!r}: {exc}") from None
        if abs(norm - 1.0) > 1e-6:  # warned only once the spec is accepted
            warnings.warn(f"state spec {spec!r} renormalized (norm was {norm!r})")
        return state
    raise ConfigError(f"unknown state spec scheme {scheme!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, replayable description of one experiment run.

    Checked on construction, however built; alpha and beta are kept as floats.
    Each state spec is parsed once, there, and ``resolved_*`` return the
    validated states it gave; they are not fields, so they take no part
    in ``to_dict``, ``from_dict`` or equality.
    """

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
        for key in ("alpha", "beta"):
            pair = getattr(self, key)
            if pair is not None:
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ConfigError(f"{key} must be a [re, im] pair")
                if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair):
                    raise ConfigError(f"{key} must be a [re, im] pair of numbers")
                try:
                    object.__setattr__(self, key, (float(pair[0]), float(pair[1])))
                except OverflowError:  # an int too large for a float
                    raise ConfigError("alpha and beta must be finite") from None
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
            amplitudes = complex(*self.alpha), complex(*self.beta)
            try:
                omega = _omega_from_amplitudes(*amplitudes)
            except ValueError:
                raise ConfigError("|alpha|^2 + |beta|^2 must be 1 within 1e-10") from None
        # parsed eagerly, so bad specs fail at config time
        psi, phi = parse_state_spec(self.psi), parse_state_spec(self.phi)
        if self.alpha is None:
            spec = (1, 0) if self.omega is None else parse_state_spec(self.omega).amplitudes
            amplitudes = complex(spec[0]), complex(spec[1])
            omega = _omega_from_amplitudes(*amplitudes)
        object.__setattr__(self, "_states", (psi, phi, amplitudes, omega))

    def resolved_psi(self) -> StateVector:
        return self._states[0]

    def resolved_phi(self) -> StateVector:
        return self._states[1]

    def resolved_omega_amplitudes(self) -> tuple[complex, complex]:
        """(alpha, beta) of Bob's choice qubit, default |0>."""
        return self._states[2]

    def resolved_omega(self) -> StateVector:
        return self._states[3]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in data:
            raise ConfigError("config needs an experiment name")
        if "seed" not in data:
            raise ConfigError("config needs a seed")
        return cls(**data)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in ("alpha", "beta"):
            if data[key] is not None:
                data[key] = list(data[key])
        return data


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
    ``dense`` as one dense-coded qubit.  The round is trial ``trial`` of
    a ``qrac`` report of this seed (``qrac-qubit-only`` with ``dense``):
    ``_qrac_block`` on that trial alone, from the first words of stream
    (seed, trial); its output and transcript are row 0's.
    """
    words = make_rng(seed, trial).bit_generator.random_raw((1, 5 if dense else 4))
    w, (a1, a0), ids, outputs, channel, _ = _qrac_block(psi, phi, omega, [trial], words, dense)
    alice = AliceClassicalOutput(int(a1[0]), int(a0[0]))
    return RoundResult(_density(outputs, ids[0]), channel.transcript(0), int(w[0]), alice)


@dataclass(frozen=True)
class RacRoundResult:
    output: int
    transcript: RoundTranscript
    a0: int
    a1: int
    w: int


def run_rac_protocol(a0: int, a1: int, w: int, rng: np.random.Generator) -> RacRoundResult:
    """One metered classical RAC round: Alice's masked bit is the only message.

    The box coin is ``int(rng.integers(2))``.  The single-trial reference
    executor of ``racbox``: trial i of a report is this round with
    ``rng = make_rng(seed, i)`` after three ``int(rng.integers(2))``
    draws, which are (a0, a1, w).
    """
    played = rac_round(a0, a1, w, rng)
    channel = MeteredChannel()
    channel.send("A->B", "classical-bit", "m", played.message)
    return RacRoundResult(played.output, channel.transcript(), a0, a1, w)


# ---------------------------------------------------------------------------
# budget assertions and reports
# ---------------------------------------------------------------------------

def _assert_budget(transcript: RoundTranscript, budget: Tally, context: str) -> None:
    """Hard equality of transcript tallies against a budget."""
    actual = transcript.totals.as_dict()
    expected = budget.as_dict()
    diffs = [
        f"{key}: expected {expected[key]}, got {actual[key]}"
        for key in expected
        if expected[key] != actual[key]
    ]
    if diffs:
        excerpt = ", ".join(
            f"{m.direction} {m.kind} {m.payload}" for m in transcript.messages[-8:]
        )
        raise ProtocolError(
            f"budget violation in {context}: {'; '.join(diffs)} (log: {excerpt})"
        )


def _assert_block_budget(channel: MeteredChannel, budget: Tally, label: str) -> Tally:
    """Hold every round of a block to the budget; returns the block's tally.

    The first round over budget fails as a lone round would, named by
    its trial.
    """
    over = channel.over_budget(budget)
    if over.size:
        first = int(over[0])
        context = f"{label} trial {int(channel.rounds[first])}"
        _assert_budget(channel.transcript(first), budget, context)
    return channel.totals()


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _qrac_block(
    psi: StateVector,
    phi: StateVector,
    omega: StateVector,
    trials: Sequence[int],
    words: np.ndarray,
    dense: bool,
) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray, MeteredChannel, tuple]:
    """Rounds ``trials`` of a qrac report at once, each metered and held to the budget.

    Row t of ``words`` holds raw words 0-3 of trial t's stream, and with
    ``dense`` word 4, the dense decoding (see ``rng``); a block of trial
    i alone, ``run_qrac_protocol(..., trial=i)``, replays trial i.
    Returns w, Alice's bits (a1, a0), each trial's index into the stack
    of distinct outputs (Bob's chosen qubit) of the full play of Alice's
    table and that stack, the block's channel, and how many trials
    reached each leaf of the round with the leaves' exact probabilities.
    """
    label = "qrac-qubit-only" if dense else "qrac"
    w, alice, ids, outputs, leaves, probabilities = _sampled_rounds(psi, phi, omega, words)
    channel = MeteredChannel(trials)
    if dense:
        sent = 2 * alice[0] + alice[1]
        channel.send("A->B", "qubit", "dense-coded-output", sent)
        wrong = np.flatnonzero(dense_decode_block(sent, word_uniform(words[:, 4])) != sent)
        if wrong.size:
            raise ProtocolError(
                f"dense decoding disagreed with Alice's output in {label} "
                f"trial {int(trials[wrong[0]])}"
            )
    else:
        channel.send("A->B", "classical-bit", "a1", alice[0])
        channel.send("A->B", "classical-bit", "a0", alice[1])
    _assert_block_budget(channel, QUBIT_ONLY_BUDGET if dense else QRAC_BUDGET, label)
    leaf_counts = np.bincount(leaves, minlength=len(probabilities))
    return w, alice, ids, outputs, channel, (leaf_counts, probabilities)


def _exp_qrac(
    config: ExperimentConfig, dense: bool, with_rows: bool = True
) -> tuple[dict, list, Tally, list, list]:
    psi, phi, omega = config.resolved_psi(), config.resolved_phi(), config.resolved_omega()
    rounds = max(config.trials, 1)

    tallies = Tally()
    fidelities = []
    histogram = np.zeros(4, dtype=np.int64)
    leaf_counts = 0
    rows = []
    for trials in trial_blocks(rounds):
        words = stream_words(config.seed, trials, 5 if dense else 4)
        w, (a1, a0), ids, outputs, channel, (counts, probabilities) = _qrac_block(
            psi, phi, omega, trials, words, dense
        )
        tallies = tallies + channel.totals()
        leaf_counts = leaf_counts + counts
        # an output is Bob's qubit of one pair, so it belongs to one choice;
        # one fidelity for each output the block reached
        values = np.zeros(len(outputs))
        for k, c in dict(zip(ids.tolist(), w.tolist())).items():
            values[k] = fidelity(outputs[k], (psi, phi)[c])
        f = values[ids]
        fidelities.append(f)
        histogram += np.bincount(2 * a1 + a0, minlength=4)
        if with_rows:
            columns = (trials, w, a1, a0, f)
            rows += map(list, zip(*(column.tolist() for column in columns)))
    fidelities = np.concatenate(fidelities)
    histogram = histogram.tolist()

    min_f = float(fidelities.min())
    leaf, leaf_metrics = leaf_frequency_check(leaf_counts, probabilities, rounds)
    checks = [check("recovery-fidelity", min_f >= 1 - 1e-10, min_f, 1e-10), leaf]
    metrics = {
        "rounds": rounds,
        "min_fidelity": min_f,
        "mean_fidelity": float(np.mean(fidelities)),
        "alice_histogram": histogram,
        **leaf_metrics,
    }
    sampled_tv = tv_distance([h / rounds for h in histogram], [0.25] * 4)
    metrics["alice_uniformity_tv"] = sampled_tv
    if rounds >= 10**4:
        # the 0.02 tolerance is calibrated for large samples
        checks.append(check("alice-uniformity-sampled", sampled_tv <= 0.02, sampled_tv, 0.02))
    if config.mode == "branch-exact":
        branches = channel_branches(_round_register(psi, phi, omega))
        # coin branches share their output: one fidelity per distinct output, of one w
        distinct = dict(zip(branches.output.tolist(), branches.w.tolist()))
        exact_min = min(
            fidelity(branches.outputs[i], psi if w == 0 else phi) for i, w in distinct.items()
        )
        exact_tv = tv_distance(branch_sums(branches)[0], [0.25] * 4)
        checks.append(check("recovery-fidelity-exact", exact_min >= 1 - 1e-10, exact_min, 1e-10))
        checks.append(check("alice-uniformity-exact", exact_tv <= 1e-12, exact_tv, 1e-12))
        metrics["exact_min_fidelity"] = exact_min
        metrics["exact_alice_uniformity_tv"] = exact_tv
    header = ["trial", "w", "a1", "a0", "fidelity"]
    return metrics, checks, tallies, header, rows


def _exp_racbox(
    config: ExperimentConfig, with_rows: bool = True
) -> tuple[dict, list, Tally, list, list]:
    # first, so a trial count below its floor plays no round
    privacy = verify_rac_privacy(config.trials, config.seed)
    correct = privacy["metrics"]["exhaustive_correct"]

    tallies = Tally()
    rows = []
    sampled_correct = 0
    for trials in trial_blocks(config.trials):
        # inputs, then the box coin: words 0-1 of each trial's stream
        a0, a1, w, coin = bit_columns(stream_words(config.seed, trials, 2)).T
        message, output = rac_wiring(a0, a1, w, PRBoxes(coin))
        channel = MeteredChannel(trials)
        channel.send("A->B", "classical-bit", "m", message)
        tallies = tallies + _assert_block_budget(channel, RACBOX_BUDGET, "racbox")
        ok = (output == np.where(w == 0, a0, a1)).astype(int)
        sampled_correct += int(ok.sum())
        if with_rows:
            columns = (trials, a0, a1, w, output, ok)
            rows += map(list, zip(*(column.tolist() for column in columns)))

    checks = [
        check("rac-exhaustive-correct", correct == 16, float(correct), None),
        check("rac-sampled-correct", sampled_correct == config.trials, float(sampled_correct), None),
        *privacy["checks"],
    ]
    metrics = {"rounds": config.trials, **privacy["metrics"]}
    header = ["trial", "a0", "a1", "w", "output", "correct"]
    return metrics, checks, tallies, header, rows


def _exp_tomography(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    if config.mode == "sampled":
        choi, leaf_counts, probabilities = _sampled_tomography(config.trials, config.seed)
        tolerance = max(1e-8, 64 / sqrt(config.trials))
        exact = tomography()
        deviation = float(np.max(np.abs(choi.matrix - exact.matrix)))
        tp_defect = choi.tp_defect()
        leaf, leaf_metrics = leaf_frequency_check(leaf_counts, probabilities, config.trials)
        checks = [
            check("sampled-trials-sufficient", config.trials >= 1000, float(config.trials), 1000.0),
            check("choi-trace-preserving", tp_defect <= tolerance, tp_defect, tolerance),
            leaf,
        ]
        metrics = {
            **leaf_metrics,
            "mode": "sampled",
            "trials": config.trials,
            "min_eigenvalue": choi.min_eigenvalue(),
            "tp_defect": tp_defect,
            "deviation_from_exact": deviation,
            "statistical_tolerance": tolerance,
            "choi": choi.to_json_dict(),
        }
        return metrics, checks, Tally(), [], []

    decomposition = subchannels()
    choi = decomposition.total
    min_eigenvalue = choi.min_eigenvalue()
    tp_defect = choi.tp_defect()
    decomposition_defect = decomposition.decomposition_defect()
    weight_defect = max(
        float(np.max(np.abs(part.input_trace() - np.eye(8) / 4)))
        for part in decomposition.parts.values()
    )
    checks = [
        check("choi-psd", min_eigenvalue >= -1e-8, min_eigenvalue, 1e-8),
        check("choi-trace-preserving", tp_defect <= 1e-8, tp_defect, 1e-8),
        check("subchannel-decomposition", decomposition_defect <= 1e-8, decomposition_defect, 1e-8),
        check("subchannel-weights", weight_defect <= 1e-8, weight_defect, 1e-8),
    ]
    metrics = {
        "mode": "branch-exact",
        "min_eigenvalue": min_eigenvalue,
        "tp_defect": tp_defect,
        "decomposition_defect": decomposition_defect,
        "subchannel_weight_defect": weight_defect,
        "choi": choi.to_json_dict(),
    }
    return metrics, checks, Tally(), [], []


def _exp_mixture(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    alpha, beta = config.resolved_omega_amplitudes()
    report = mixture_check(alpha, beta, config.resolved_psi(), config.resolved_phi())
    return report["metrics"], report["checks"], Tally(), [], []


def _exp_nonsignaling(config: ExperimentConfig) -> tuple[dict, list, Tally, list, list]:
    report = verify_nonsignaling(
        config.trials,
        config.seed,
        config.mode,
        psi=config.resolved_psi(),
        phi=config.resolved_phi(),
    )
    return report["metrics"], report["checks"], Tally(), [], []


def _exp_dilation(
    config: ExperimentConfig, with_rows: bool = True
) -> tuple[dict, list, Tally, list, list]:
    dil = build_dilation(tomography())
    defect = dil.isometry_defect()
    # the configured pair, one orthogonal pair, plus random pairs
    haar = haar_random_states(1, 2 * max(config.trials, 50), make_rng(config.seed))
    psis = [config.resolved_psi(), KET0, *haar[0::2]]
    phis = [config.resolved_phi(), KET1, *haar[1::2]]
    max_overlap, min_purity, rows = 0.0, 1.0, []
    for index, (overlap, purity, inputs) in enumerate(_residual_overlaps(dil, psis, phis)):
        max_overlap = max(max_overlap, overlap)
        min_purity = min(min_purity, purity)
        if with_rows:
            rows.append([index, inputs, overlap])

    checks = [
        check("isometry", defect <= 1e-8, defect, 1e-8),
        check("residual-orthogonality-max", max_overlap <= 1e-6, max_overlap, 1e-6),
        check("residual-purity-min", min_purity >= 1 - 1e-6, min_purity, 1e-6),
    ]
    metrics = {
        "environment_dimension": dil.env_dim,
        "isometry_defect": defect,
        "pairs_checked": len(psis),
        "max_overlap": max_overlap,
        "min_residual_purity": min_purity,
    }
    header = ["pair", "input_overlap", "residual_overlap"]
    return metrics, checks, Tally(), header, rows


# experiment -> f(config, with_rows); the CSV rows of qrac, qrac-qubit-only,
# racbox and dilation are built only when with_rows is true
_DISPATCH = {
    "qrac": lambda cfg, with_rows: _exp_qrac(cfg, False, with_rows),
    "qrac-qubit-only": lambda cfg, with_rows: _exp_qrac(cfg, True, with_rows),
    "racbox": _exp_racbox,
    "tomography": lambda cfg, _: _exp_tomography(cfg),
    "mixture": lambda cfg, _: _exp_mixture(cfg),
    "nonsignaling": lambda cfg, _: _exp_nonsignaling(cfg),
    "dilation": _exp_dilation,
}
EXPERIMENTS = tuple(_DISPATCH)


def run_experiment(config: ExperimentConfig, csv_path: str | None = None) -> dict:
    """Run one experiment and assemble its report.

    The report echoes the resolved config, so feeding it back through
    ExperimentConfig.from_dict replays the run byte for byte.
    """
    experiment = _DISPATCH[config.experiment]
    metrics, checks, tallies, header, rows = experiment(config, csv_path is not None)
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
    if not isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".17g")


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
    elif isinstance(obj, (list, tuple)) and all(type(item) is float for item in obj):
        out.append("[" + ",".join(map(_format_float, obj)) + "]")
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
