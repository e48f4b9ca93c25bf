"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a red criterion still reports its measured value.
"""
from __future__ import annotations

import time
from itertools import product
from math import sqrt

import numpy as np

from qracbox.boxes import (
    PRBox,
    enumerate_pr_outputs,
    rac_all_cases,
    verify_rac_privacy,
)
from qracbox.channel import (
    build_dilation,
    environment_orthogonality_check,
    mixture_check,
    subchannels,
    tomography,
    verify_nonsignaling,
)
from qracbox.harness import (
    ExperimentConfig,
    canonical_json,
    run_experiment,
    run_qrac_protocol,
    run_rac_protocol,
)
from qracbox.metering import QRAC_BUDGET, QUBIT_ONLY_BUDGET, RACBOX_BUDGET
from qracbox.qrac import channel_branches
from qracbox.quantum import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    fidelity,
    haar_random_qubit,
    tensor,
    trace_distance,
)
from qracbox.rng import make_rng

MIXED = np.eye(2) / 2


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} | {detail}")


def test_criterion_1_recovery():
    """200 random input pairs, both choices, all 64 branches each: exact recovery."""
    rng = make_rng(101)
    started = time.perf_counter()
    worst = 1.0
    for _ in range(200):
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        for w, target in ((0, psi), (1, phi)):
            branches = channel_branches(tensor([psi, phi, KET0 if w == 0 else KET1]))
            assert len(branches) == 64
            worst = min(worst, min(fidelity(b.output, target) for b in branches))
    elapsed = time.perf_counter() - started
    ok = worst >= 1 - 1e-10 and elapsed < 10.0
    report_line(1, "recovery", ok, f"min branch fidelity {worst:.3e}, runtime {elapsed:.2f}s")
    assert worst >= 1 - 1e-10
    assert elapsed < 10.0


def test_criterion_2_budget():
    """Hard communication budgets on 100% of rounds, all round kinds."""
    violations = 0
    rounds = 0
    rng = make_rng(102)
    for seed in range(40):
        psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
        for omega in (KET0, KET1, KET_PLUS):
            std = run_qrac_protocol(psi, phi, omega, seed)
            dense = run_qrac_protocol(psi, phi, omega, seed, dense=True)
            violations += std.transcript.totals != QRAC_BUDGET
            violations += dense.transcript.totals != QUBIT_ONLY_BUDGET
            violations += any(m.direction != "A->B" for m in std.transcript.messages)
            violations += any(m.direction != "A->B" for m in dense.transcript.messages)
            rounds += 2
    for trial in range(200):
        stream = make_rng(103, trial)
        a0, a1, w = (int(stream.integers(2)) for _ in range(3))
        rac = run_rac_protocol(a0, a1, w, stream)
        violations += rac.transcript.totals != RACBOX_BUDGET
        rounds += 1
    ok = violations == 0
    report_line(2, "budget", ok, f"{rounds} rounds, {violations} violations")
    assert violations == 0


def test_criterion_3_mixture_law():
    """Superposed choice gives the weighted mixture; subchannels give 1/4 of it."""
    rng = make_rng(104)
    worst_full = 0.0
    worst_sub = 0.0
    for alpha_sq in (0.0, 0.25, 0.5, 0.75, 1.0):
        for _ in range(20):
            psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
            report = mixture_check(sqrt(alpha_sq), sqrt(1 - alpha_sq), psi, phi)
            worst_full = max(worst_full, report["metrics"]["trace_distance"])
            worst_sub = max(worst_sub, report["metrics"]["subchannel_max_distance"])
    balanced = mixture_check(sqrt(0.5), sqrt(0.5), KET0, KET1)
    out = np.asarray(balanced["metrics"]["output"]["re"]) + 1j * np.asarray(
        balanced["metrics"]["output"]["im"]
    )
    special = trace_distance(out, MIXED)
    ok = worst_full <= 1e-8 and worst_sub <= 1e-8 and special <= 1e-8
    report_line(
        3,
        "mixture law",
        ok,
        f"full {worst_full:.2e}, subchannels {worst_sub:.2e}, balanced case {special:.2e}",
    )
    assert worst_full <= 1e-8
    assert worst_sub <= 1e-8
    assert special <= 1e-8


def test_criterion_4_channel_structure():
    """Choi PSD and trace preserving; subchannels sum to the full channel."""
    decomposition = subchannels()
    choi = decomposition.total
    min_eig = choi.min_eigenvalue()
    tp = choi.tp_defect()
    decomp = decomposition.decomposition_defect()
    ok = min_eig >= -1e-8 and tp <= 1e-8 and decomp <= 1e-8
    report_line(
        4,
        "channel structure",
        ok,
        f"min eigenvalue {min_eig:.2e}, TP defect {tp:.2e}, decomposition {decomp:.2e}",
    )
    assert min_eig >= -1e-8
    assert tp <= 1e-8
    assert decomp <= 1e-8


def test_criterion_5_nonsignaling():
    """Exact independence of each side's data from the other's input."""
    exact = verify_nonsignaling(0, 105, psi=KET0, phi=KET1)
    tv_exact = exact["metrics"]["exact_alice_tv"]
    withheld = exact["metrics"]["bob_withheld_trace_distance"]
    contrast = verify_nonsignaling(0, 105, psi=KET_PLUS, phi=KET0)
    withheld = max(withheld, contrast["metrics"]["bob_withheld_trace_distance"])
    sampled = verify_nonsignaling(10**5, 106, mode="sampled")
    tv_sampled = sampled["metrics"]["sampled_alice_tv"]
    ok = tv_exact <= 1e-12 and withheld <= 1e-8 and tv_sampled <= 0.02
    report_line(
        5,
        "non-signaling",
        ok,
        f"exact TV {tv_exact:.2e}, withheld marginal {withheld:.2e}, "
        f"sampled TV {tv_sampled:.4f} at 1e5 trials",
    )
    assert tv_exact <= 1e-12
    assert withheld <= 1e-8
    assert tv_sampled <= 0.02


def test_criterion_6_dilation_orthogonality():
    """Residual overlap at most 1e-6 on >= 50 pairs, orthogonal cases included."""
    dil = build_dilation(tomography())
    rng = make_rng(107)
    pairs = [(KET0, KET1), (KET0, KET_PLUS), (KET_PLUS, KET_MINUS)]
    pairs += [(haar_random_qubit(rng), haar_random_qubit(rng)) for _ in range(50)]
    worst = 0.0
    for psi, phi in pairs:
        report = environment_orthogonality_check(dil, psi, phi)
        worst = max(worst, report["metrics"]["overlap"])
    ok = worst <= 1e-6
    report_line(6, "dilation orthogonality", ok, f"max overlap {worst:.2e} over {len(pairs)} pairs")
    assert worst <= 1e-6


def test_criterion_7_pr_box_law():
    """A XOR B = x*y always; marginals uniform exactly and statistically."""
    for x, y in product((0, 1), repeat=2):
        for prob, a, b in enumerate_pr_outputs(x, y):
            assert a ^ b == x * y
        assert sum(p for p, a, _ in enumerate_pr_outputs(x, y) if a == 0) == 0.5
        assert sum(p for p, _, b in enumerate_pr_outputs(x, y) if b == 0) == 0.5

    trials = 10**5
    rng = make_rng(108)
    failures = 0
    a_zeros = 0
    b_zeros = 0
    for _ in range(trials):
        x, y = int(rng.integers(2)), int(rng.integers(2))
        box = PRBox(rng)
        a = box.alice(x)
        b = box.bob(y)
        failures += (a ^ b) != x * y
        a_zeros += a == 0
        b_zeros += b == 0
    a_dev = abs(a_zeros / trials - 0.5)
    b_dev = abs(b_zeros / trials - 0.5)
    ok = failures == 0 and a_dev < 0.01 and b_dev < 0.01
    report_line(
        7,
        "PR-box law",
        ok,
        f"{failures} violations in {trials} rounds, marginal deviations "
        f"{a_dev:.4f}/{b_dev:.4f}",
    )
    assert failures == 0
    assert a_dev < 0.01
    assert b_dev < 0.01


def test_criterion_8_classical_rac():
    """All 16 cases correct; privacy exact under coin enumeration."""
    cases = rac_all_cases()
    correct = sum(r.output == (r.a0 if r.w == 0 else r.a1) for r in cases)
    privacy = verify_rac_privacy(trials=10**5, seed=109)
    bob_tv = privacy["metrics"]["exact_bob_tv"]
    alice_tv = privacy["metrics"]["exact_alice_tv"]
    ok = correct == 16 and bob_tv == 0.0 and alice_tv == 0.0
    report_line(
        8,
        "classical RAC",
        ok,
        f"{correct}/16 exhaustive cases, privacy TV bob {bob_tv}, alice {alice_tv}",
    )
    assert correct == 16
    assert bob_tv == 0.0
    assert alice_tv == 0.0


def test_criterion_9_reproducibility():
    """Identical config and seed reproduce the JSON report byte for byte."""
    configs = [
        ExperimentConfig(experiment="qrac", seed=110, trials=500, mode="sampled"),
        ExperimentConfig(experiment="qrac-qubit-only", seed=111, trials=200, mode="sampled"),
        ExperimentConfig(experiment="racbox", seed=112, trials=1500),
        ExperimentConfig(experiment="mixture", seed=113, alpha=(sqrt(0.5), 0.0), beta=(0.0, sqrt(0.5))),
        ExperimentConfig(experiment="tomography", seed=114, mode="sampled", trials=1200),
    ]
    mismatches = 0
    for config in configs:
        first = canonical_json(run_experiment(config))
        second = canonical_json(run_experiment(config))
        replayed = canonical_json(
            run_experiment(ExperimentConfig.from_dict(run_experiment(config)["config"]))
        )
        mismatches += first != second
        mismatches += first != replayed
    ok = mismatches == 0
    report_line(9, "reproducibility", ok, f"{len(configs)} configs replayed byte-identically")
    assert mismatches == 0
