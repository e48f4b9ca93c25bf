"""Seeded report lists for the three benchmark workloads.

A workload is a fixed list of CLI reports.  Every input qubit is drawn
Haar-randomly from the workload seed and handed to the CLI as an
``amp:`` spec; every report also gets its own seed.  The same workload
seed always yields the same argv lists, so the same report bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Trial counts.  Each stays at or above the floor the package enforces:
# sampled non-signaling needs >= 1e4 trials, racbox >= 1000, and
# sampled tomography fails its sufficiency check below 1000.  Sampled
# non-signaling runs at 2e4: at 1e4 its fixed 0.02 total-variation
# tolerance raises a false alarm on about 1.6% of seeds (a multinomial
# simulation of two uniform 4-bin samples), at 2e4 on about 0.02%.
QRAC_TRIALS = 1000
NONSIGNALING_SAMPLED_TRIALS = 20000
TOMOGRAPHY_SAMPLED_TRIALS = 1000
DILATION_TRIALS = 100
RACBOX_TRIALS = 10000
MIXTURE_INTERIOR_POINTS = 5

WORKLOADS = ("rounds", "channel", "racbox")


@dataclass(frozen=True)
class Report:
    """One CLI invocation and what its report must show."""

    metric: str | None  # the per-experiment latency it is timed under, if any
    experiment: str  # the experiment name the report echoes
    seed: int
    argv: tuple[str, ...]
    expected_tallies: dict


def _tallies(**counts: int) -> dict:
    """Expected report tallies: the given counts, zero elsewhere."""
    return {"bits_a_to_b": 0, "bits_b_to_a": 0, "qubits_a_to_b": 0, "qubits_b_to_a": 0, **counts}


class _Inputs:
    """Draws report seeds and Haar-random qubits from one seeded stream."""

    def __init__(self, workload: str, seed: int) -> None:
        self._rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def seed(self) -> int:
        return int(self._rng.integers(2**32))

    def qubit(self) -> str:
        vec = self._rng.normal(size=2) + 1j * self._rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        # repr of a Python float: an np.float64 repr is "np.float64(...)",
        # which the CLI rejects as a bad state spec
        parts = (vec[0].real, vec[0].imag, vec[1].real, vec[1].imag)
        return "amp:" + ",".join(repr(float(x)) for x in parts)

    def unit_interval(self) -> float:
        return float(self._rng.random())


def _report(metric, experiment, seed, argv, tallies=None) -> Report:
    full = tuple(str(a) for a in (*argv, "--seed", seed))
    return Report(metric, experiment, seed, full, tallies or _tallies())


def _rounds(draw: _Inputs) -> list[Report]:
    # arguments evaluate left to right: each report's seed, then its qubits
    return [
        _report(
            "qrac_s", "qrac", draw.seed(),
            ["run", "--experiment", "qrac", "--trials", QRAC_TRIALS,
             "--psi", draw.qubit(), "--phi", draw.qubit(), "--omega", draw.qubit()],
            _tallies(bits_a_to_b=2 * QRAC_TRIALS),
        ),
        _report(
            "qrac_qubit_only_s", "qrac-qubit-only", draw.seed(),
            ["run", "--experiment", "qrac-qubit-only", "--trials", QRAC_TRIALS,
             "--psi", draw.qubit(), "--phi", draw.qubit(), "--omega", draw.qubit()],
            _tallies(qubits_a_to_b=QRAC_TRIALS),
        ),
        _report(
            "nonsignaling_sampled_s", "nonsignaling", draw.seed(),
            ["verify-nonsignaling", "--mode", "sampled", "--trials", NONSIGNALING_SAMPLED_TRIALS,
             "--psi", draw.qubit(), "--phi", draw.qubit()],
        ),
        _report(
            "tomography_sampled_s", "tomography", draw.seed(),
            ["tomography", "--mode", "sampled", "--trials", TOMOGRAPHY_SAMPLED_TRIALS],
        ),
    ]


def _channel(draw: _Inputs) -> list[Report]:
    reports = [
        _report("tomography_s", "tomography", draw.seed(), ["tomography"]),
        _report(
            "nonsignaling_s", "nonsignaling", draw.seed(),
            ["verify-nonsignaling", "--psi", draw.qubit(), "--phi", draw.qubit()],
        ),
        _report(
            "dilation_s", "dilation", draw.seed(),
            ["dilation", "--trials", DILATION_TRIALS, "--psi", draw.qubit(), "--phi", draw.qubit()],
        ),
    ]
    # at the endpoints the choice measurement prunes half the branches
    weights = [0.0, 1.0] + [draw.unit_interval() for _ in range(MIXTURE_INTERIOR_POINTS)]
    for alpha_sq in weights:
        reports.append(_report(
            "mixture_s", "mixture", draw.seed(),
            ["mixture", "--alpha-sq", repr(alpha_sq), "--psi", draw.qubit(), "--phi", draw.qubit()],
        ))
    return reports


def _racbox(draw: _Inputs) -> list[Report]:
    return [_report(
        None, "racbox", draw.seed(),
        ["racbox", "--trials", RACBOX_TRIALS],
        _tallies(bits_a_to_b=RACBOX_TRIALS),
    )]


_BUILDERS = {"rounds": _rounds, "channel": _channel, "racbox": _racbox}


def build(workload: str, seed: int) -> list[Report]:
    """The workload's report list for one seed."""
    return _BUILDERS[workload](_Inputs(workload, seed))
