"""Classical nonsignaling devices.

A PR-box is realized with a hidden uniform coin: Alice's output is the
coin itself, Bob's is coin XOR x*y.  That reproduces the defining
correlation A XOR B = x*y with uniform marginals, makes non-signaling
structurally evident (Alice's output never touches y), and lets tests
enumerate the coin exhaustively instead of sampling.

On top of one PR-box sits the standard one-bit random access code:
Alice feeds x = a0 XOR a1 into the box and publishes m = a0 XOR A; Bob
feeds his choice w and outputs m XOR B, which always equals a_w.

The law (``pr_law``) and the RAC wiring (``rac_wiring``) are written
once, as XOR/AND expressions: on ints for one ``PRBox``, or on int
arrays for a batch of boxes (``PRBoxes``), one per round of a block.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from math import log, sqrt

import numpy as np

from .metering import ProtocolError
from .rng import trial_blocks, trial_count, word_bits


def check(name: str, passed: bool, value: float | None, tolerance: float | None) -> dict:
    """One report check entry: {name, pass, value, tolerance}."""
    return {"name": name, "pass": bool(passed), "value": value, "tolerance": tolerance}


def _check_bit(value: int, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


class PRBox:
    """One-shot bipartite box with outputs satisfying A XOR B = x*y.

    Each side may input exactly once.  Alice's output is available
    immediately; Bob's output needs Alice's input on record, since it is
    the only place the product x*y can be evaluated.
    """

    __slots__ = ("_coin", "_x", "_y")

    def __init__(self, rng: np.random.Generator | None = None, *, coin: int | None = None):
        if coin is None:
            if rng is None:
                raise ValueError("provide either an rng or a forced coin")
            coin = int(rng.integers(2))
        self._coin = _check_bit(coin, "coin")
        self._x: int | None = None
        self._y: int | None = None

    @property
    def coin(self) -> int:
        return self._coin

    def alice(self, x: int) -> int:
        """Record Alice's input and return her output A = coin."""
        if self._x is not None:
            raise ProtocolError("Alice's side of the PR-box was already used")
        self._x = _check_bit(x, "x")
        return self._coin

    def bob(self, y: int) -> int:
        """Record Bob's input and return his output B = coin XOR x*y."""
        if self._y is not None:
            raise ProtocolError("Bob's side of the PR-box was already used")
        if self._x is None:
            raise ProtocolError("Bob's output needs Alice's input on record")
        self._y = _check_bit(y, "y")
        return pr_law(self._coin, self._x, self._y)


class PRBoxes:
    """A batch of fresh PR-boxes, one per round, driven by int arrays.

    The batched executors' ``PRBox``: the same law, applied to a whole
    block of rounds at once.  Its callers are fixed wiring that feeds
    Alice's side first and each side once, so it keeps no per-box checks.
    """

    __slots__ = ("coin", "_x")

    def __init__(self, coin: np.ndarray):
        self.coin = np.asarray(coin, dtype=np.intp)
        self._x = None

    def alice(self, x):
        self._x = x
        return self.coin

    def bob(self, y):
        return pr_law(self.coin, self._x, y)


def pr_law(coin, x, y):
    """Bob's output coin XOR x*y of a box whose Alice output is ``coin``.

    The PR-box law, for ints or int arrays: A XOR B = x*y.
    """
    return coin ^ (x & y)


def enumerate_pr_outputs(x: int, y: int) -> list[tuple[float, int, int]]:
    """All (probability, A, B) triples of a fresh box for fixed inputs."""
    _check_bit(x, "x")
    _check_bit(y, "y")
    return [(0.5, coin, pr_law(coin, x, y)) for coin in (0, 1)]


@dataclass(frozen=True)
class RacRound:
    """One completed round of the one-bit random access code."""

    a0: int
    a1: int
    w: int
    coin: int
    message: int
    output: int


def rac_round(
    a0: int,
    a1: int,
    w: int,
    rng: np.random.Generator | None = None,
    *,
    coin: int | None = None,
) -> RacRound:
    """Run the classical RAC on a fresh PR-box; output always equals a_w."""
    _check_bit(a0, "a0")
    _check_bit(a1, "a1")
    _check_bit(w, "w")
    box = PRBox(rng, coin=coin)
    message, output = rac_wiring(a0, a1, w, box)
    return RacRound(a0, a1, w, box.coin, message, output)


def rac_wiring(a0, a1, w, box):
    """The RAC on one box: (message m = a0 XOR A, Bob's output m XOR B).

    Alice feeds a0 XOR a1; for ints and a ``PRBox``, or int arrays and
    ``PRBoxes`` for a batch of rounds.
    """
    message = a0 ^ box.alice(a0 ^ a1)
    return message, message ^ box.bob(w)


def rac_all_cases() -> list[RacRound]:
    """Every (a0, a1, w, coin) combination, for exhaustive correctness checks."""
    return [
        rac_round(a0, a1, w, coin=coin)
        for a0, a1, w, coin in product((0, 1), repeat=4)
    ]


def tv_distance(p, q) -> float:
    """Total variation distance between two distributions over one index set."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))))


# the false-alarm rate of every leaf-frequency check, stated in each report
LEAF_DELTA = 1e-6


def leaf_frequency_check(counts, probabilities, trials: int) -> tuple[dict, dict]:
    """Check how often sampled rounds reached each leaf against its exact probability.

    ``counts[i]`` of ``trials`` rounds reached leaf i, of exact outcome-table
    probability ``probabilities[i]``; the value is max |counts[i]/trials -
    probabilities[i]| over the L leaves.  Each frequency is a mean of
    ``trials`` indicators, so by Hoeffding's inequality and a union bound a
    correct sampler exceeds sqrt(ln(2L/delta) / (2 trials)) with probability
    at most delta = ``LEAF_DELTA``.  Returns the check and the metrics that
    state L and delta.
    """
    deviation = float(np.max(np.abs(np.asarray(counts) / trials - probabilities)))
    tolerance = sqrt(log(2 * len(probabilities) / LEAF_DELTA) / (2 * trials))
    metrics = {"leaf_count": len(probabilities), "leaf_false_alarm_rate": LEAF_DELTA}
    return check("leaf-frequency", deviation <= tolerance, deviation, tolerance), metrics


# the (a0, a1, w) of a sampled privacy trial's rounds, one box coin each:
# Bob's view at w = 0 for a1 = 0, 1; Alice's at (a0, a1) = (0, 1) for
# w = 0, 1; Bob's view at w = 1 for a0 = 0, 1
_PRIVACY_ROUNDS = ((0, 0, 0), (0, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 1))


def _privacy_counts(trials: int, seed: int) -> np.ndarray:
    """How often each of ``_PRIVACY_ROUNDS`` showed each (m, B), index 2*m + B, in ``trials`` trials.

    A round's inputs are fixed, so its (m, B) depends on its coin alone:
    each round is wired once, on coins (0, 1), and a trial's round shows
    the row of its coin.  The coins are the six a trial draws from three
    PCG64 words, drawn a block at a time; of n trials, a round's coin-0
    row is shown n - k times and its coin-1 row k times, k being how many
    of its n coins came up 1.  A block's n x 3 words are transposed once
    into a contiguous (3, n) array, so each word's two coin bits are
    counted along a contiguous row.
    """
    keys = np.array([
        2 * message + (message ^ output)
        for message, output in (
            rac_wiring(a0, a1, w, PRBoxes(np.arange(2))) for a0, a1, w in _PRIVACY_ROUNDS
        )
    ])
    ones = 0  # round 2j reads the low half of word j, round 2j + 1 its high half
    rng = np.random.default_rng(seed)
    for block in trial_blocks(trials):
        words = np.ascontiguousarray(rng.bit_generator.random_raw(3 * len(block)).reshape(-1, 3).T)
        low, high = word_bits(words)
        ones = ones + np.column_stack([low.sum(axis=1), high.sum(axis=1)]).ravel()
    counts = np.zeros((len(_PRIVACY_ROUNDS), 4))
    rows = np.arange(len(_PRIVACY_ROUNDS))[:, None]
    np.add.at(counts, (rows, keys), np.column_stack([trials - ones, ones]))
    return counts


def verify_rac_privacy(trials: int, seed: int) -> dict:
    """Check that the RAC leaks nothing it should not.

    Exhaustive part: both views are read off one pass over
    ``rac_all_cases``, each case weighing 1/2 for its coin.  Bob's view
    (m, B) must be independent of the bit he did not ask for, and
    Alice's view (A) independent of w.  The same pass counts the cases
    whose output is a_w, as the metrics ``exhaustive_cases`` and
    ``exhaustive_correct``; the ``racbox`` report checks that count.
    Sampled part: Bob's view at (w=0, a0=0) for either a1 and at (w=1,
    a1=0) for either a0, the larger of the two distances, and Alice's at
    (a0=0, a1=1) for either w, from `trials` seeded rounds, with total
    variation tolerance max(0.02, 6/sqrt(trials)).  Each of those six
    rounds has fixed inputs, so it is wired once per coin value and its
    trials are counted by coin (``_privacy_counts``): the counts of
    wiring every trial, from the same PCG64 words.
    """
    trials = trial_count(trials, 10**3, "privacy verification")

    bob_views = defaultdict(lambda: np.zeros(4))  # (w, a_w, a_other) -> (m, B)
    alice_views = defaultdict(lambda: np.zeros(2))  # (a0, a1, w) -> A
    cases = rac_all_cases()
    correct = 0
    for r in cases:
        a_w, a_other = (r.a0, r.a1) if r.w == 0 else (r.a1, r.a0)
        correct += r.output == a_w
        b_out = r.message ^ r.output  # B as Bob received it
        bob_views[r.w, a_w, a_other][2 * r.message + b_out] += 0.5
        alice_views[r.a0, r.a1, r.w][r.a0 ^ r.message] += 0.5  # A = a0 XOR m
    exact_bob_tv = max(
        tv_distance(bob_views[w, a_w, 0], bob_views[w, a_w, 1])
        for w in (0, 1)
        for a_w in (0, 1)
    )
    exact_alice_tv = max(
        tv_distance(alice_views[a0, a1, 0], alice_views[a0, a1, 1])
        for a0 in (0, 1)
        for a1 in (0, 1)
    )

    counts = _privacy_counts(trials, seed)
    bob = counts[[0, 1, 4, 5]] / trials
    sampled_bob_tv = max(tv_distance(bob[0], bob[1]), tv_distance(bob[2], bob[3]))
    alice = counts[2:4].reshape(2, 2, 2).sum(axis=2) / trials  # A = a0 XOR m = m
    sampled_alice_tv = tv_distance(alice[0], alice[1])
    # 0.02 at the reference operating point of 1e5 trials; scaled above
    # that for smaller samples, where noise alone exceeds 0.02
    sampled_tol = max(0.02, 6.0 / float(np.sqrt(trials)))

    checks = [
        check("rac-privacy-bob-exact", exact_bob_tv == 0.0, exact_bob_tv, 0.0),
        check("rac-privacy-alice-exact", exact_alice_tv == 0.0, exact_alice_tv, 0.0),
        check("rac-privacy-bob-sampled", sampled_bob_tv <= sampled_tol, sampled_bob_tv, sampled_tol),
        check(
            "rac-privacy-alice-sampled",
            sampled_alice_tv <= sampled_tol,
            sampled_alice_tv,
            sampled_tol,
        ),
    ]
    return {
        "metrics": {
            "exhaustive_cases": len(cases),
            "exhaustive_correct": correct,
            "trials": trials,
            "exact_bob_tv": exact_bob_tv,
            "exact_alice_tv": exact_alice_tv,
            "sampled_bob_tv": sampled_bob_tv,
            "sampled_alice_tv": sampled_alice_tv,
        },
        "checks": checks,
    }
