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

import numpy as np

from .metering import ProtocolError
from .rng import bit_columns, trial_blocks, trial_count


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


def verify_rac_privacy(trials: int, seed: int) -> dict:
    """Check that the RAC leaks nothing it should not.

    Exhaustive part: both views are read off one pass over
    ``rac_all_cases``, each case weighing 1/2 for its coin.  Bob's view
    (m, B) must be independent of the bit he did not ask for, and
    Alice's view (A) independent of w.  The same pass counts the cases
    whose output is a_w, as the metrics ``exhaustive_cases`` and
    ``exhaustive_correct``; the ``racbox`` report checks that count.
    Sampled part: Bob's view at (w=0, a0=0) for either a1, and Alice's
    at (a0=0, a1=1) for either w, from `trials` seeded rounds, with
    total variation tolerance max(0.02, 6/sqrt(trials)).
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

    # sampled comparison at fixed (w=0, a0=0), varying the unasked bit a1;
    # a trial plays four rounds on the four coins of two PCG64 words
    bob_counts = {0: np.zeros(4), 1: np.zeros(4)}
    alice_counts = {0: np.zeros(2), 1: np.zeros(2)}
    rng = np.random.default_rng(seed)
    for block in trial_blocks(trials):
        coins = bit_columns(rng.bit_generator.random_raw(2 * len(block)).reshape(-1, 2))
        for a1 in (0, 1):
            message, output = rac_wiring(0, a1, 0, PRBoxes(coins[:, a1]))
            bob_counts[a1] += np.bincount(2 * message + (message ^ output), minlength=4)
        for w in (0, 1):
            message, _ = rac_wiring(0, 1, w, PRBoxes(coins[:, 2 + w]))
            alice_counts[w] += np.bincount(0 ^ message, minlength=2)
    sampled_bob_tv = tv_distance(bob_counts[0] / trials, bob_counts[1] / trials)
    sampled_alice_tv = tv_distance(alice_counts[0] / trials, alice_counts[1] / trials)
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
