"""Message transcripts and communication metering for two-party rounds.

Every message that crosses between Alice and Bob goes through a
MeteredChannel, which keeps an ordered log for one round or for a block
of rounds run at once, and tallies every round apart.  A round's
transcript derives its per-direction tallies from that log, so the two
cannot disagree.
Budgets are hard equalities: a standard box round costs exactly two
classical bits Alice to Bob, the dense-coded variant exactly one qubit,
and the classical RAC exactly one bit.  Nothing ever flows Bob to Alice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

DIRECTIONS = ("A->B", "B->A")
KINDS = ("classical-bit", "qubit")


class ProtocolError(RuntimeError):
    """A device or party was driven outside its contract."""


class ConfigError(ValueError):
    """The experiment description itself is unusable."""


@dataclass(frozen=True)
class Message:
    """One metered transmission.

    ``payload`` is the label that appears in transcripts; ``content`` is
    the simulated cargo (a bit or a quantum state) and has no identity.
    """

    direction: str
    kind: str
    payload: str
    content: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")


@dataclass(frozen=True)
class Tally:
    """Per-direction message counts."""

    bits_a_to_b: int = 0
    bits_b_to_a: int = 0
    qubits_a_to_b: int = 0
    qubits_b_to_a: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "bits_a_to_b": self.bits_a_to_b,
            "bits_b_to_a": self.bits_b_to_a,
            "qubits_a_to_b": self.qubits_a_to_b,
            "qubits_b_to_a": self.qubits_b_to_a,
        }

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(
            self.bits_a_to_b + other.bits_a_to_b,
            self.bits_b_to_a + other.bits_b_to_a,
            self.qubits_a_to_b + other.qubits_a_to_b,
            self.qubits_b_to_a + other.qubits_b_to_a,
        )


QRAC_BUDGET = Tally(bits_a_to_b=2)
QUBIT_ONLY_BUDGET = Tally(qubits_a_to_b=1)
RACBOX_BUDGET = Tally(bits_a_to_b=1)


# the Tally fields, in order, by message route
_ROUTES = (("A->B", "classical-bit"), ("B->A", "classical-bit"), ("A->B", "qubit"), ("B->A", "qubit"))


def aggregate(messages: tuple[Message, ...]) -> Tally:
    counts = [0] * len(_ROUTES)
    for m in messages:
        counts[_ROUTES.index((m.direction, m.kind))] += 1
    return Tally(*counts)


@dataclass(frozen=True)
class RoundTranscript:
    """Ordered record of one round's messages; its totals are read off the log."""

    messages: tuple[Message, ...]

    @property
    def totals(self) -> Tally:
        """Per-direction counts of ``messages``."""
        return aggregate(self.messages)


class MeteredChannel:
    """Ordered message log of one round, or of a block of rounds run at once.

    ``rounds`` numbers the channel's rounds (a block's trials); by default
    it carries one round, numbered 0.  A message goes out in every round,
    or only in the rounds ``rows`` selects; in a block its content holds
    one entry per round.  ``counts[r]`` is round r's tally, in ``Tally``
    field order.
    """

    def __init__(self, rounds: Sequence[int] = (0,)) -> None:
        self.rounds = rounds
        self._log: list[tuple[Message, Any]] = []
        self.counts = np.zeros((len(rounds), len(_ROUTES)), dtype=np.int64)

    def send(
        self, direction: str, kind: str, payload: str, content: Any = None, rows: Any = slice(None)
    ) -> Message:
        msg = Message(direction, kind, payload, content)
        self._log.append((msg, rows))
        self.counts[rows, _ROUTES.index((direction, kind))] += 1
        return msg

    def over_budget(self, budget: Tally) -> np.ndarray:
        """Indices of the rounds whose tally is not ``budget``."""
        return np.flatnonzero((self.counts != list(budget.as_dict().values())).any(axis=1))

    def transcript(self, index: int = 0) -> RoundTranscript:
        """The messages of round ``index``, in the order sent."""
        sent = []
        for msg, rows in self._log:
            mask = np.zeros(len(self.rounds), dtype=bool)
            mask[rows] = True
            if mask[index]:
                sent.append(msg)
        return RoundTranscript(tuple(sent))

    def totals(self) -> Tally:
        """The tally of every round together."""
        return Tally(*self.counts.sum(axis=0).tolist())
