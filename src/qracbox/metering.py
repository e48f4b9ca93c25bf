"""Message transcripts and communication metering for two-party rounds.

Every message that crosses between Alice and Bob goes through a
MeteredChannel, which keeps an ordered log; its transcript carries the
per-direction tallies.
Budgets are hard equalities: a standard box round costs exactly two
classical bits Alice to Bob, the dense-coded variant exactly one qubit,
and the classical RAC exactly one bit.  Nothing ever flows Bob to Alice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

DIRECTIONS = ("A->B", "B->A")
KINDS = ("classical-bit", "qubit")


class ProtocolError(RuntimeError):
    """A device or party was driven outside its contract."""


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


def aggregate(messages: tuple[Message, ...]) -> Tally:
    counts = {(d, k): 0 for d in DIRECTIONS for k in KINDS}
    for m in messages:
        counts[(m.direction, m.kind)] += 1
    return Tally(
        bits_a_to_b=counts[("A->B", "classical-bit")],
        bits_b_to_a=counts[("B->A", "classical-bit")],
        qubits_a_to_b=counts[("A->B", "qubit")],
        qubits_b_to_a=counts[("B->A", "qubit")],
    )


@dataclass(frozen=True)
class RoundTranscript:
    """Ordered record of one round's messages with per-direction totals."""

    messages: tuple[Message, ...]
    totals: Tally

    def __post_init__(self) -> None:
        if aggregate(self.messages) != self.totals:
            raise ValueError("transcript totals do not match the message log")

    @classmethod
    def from_messages(cls, messages: tuple[Message, ...]) -> "RoundTranscript":
        return cls(messages, aggregate(messages))


class MeteredChannel:
    """Ordered, tallied message log for one round."""

    def __init__(self) -> None:
        self._log: list[Message] = []

    def send(self, direction: str, kind: str, payload: str, content: Any = None) -> Message:
        msg = Message(direction, kind, payload, content)
        self._log.append(msg)
        return msg

    def transcript(self) -> RoundTranscript:
        return RoundTranscript.from_messages(tuple(self._log))
