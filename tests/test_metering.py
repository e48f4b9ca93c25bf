"""Tests for message transcripts and tallies."""
from __future__ import annotations

import pytest

from qracbox.metering import (
    QRAC_BUDGET,
    QUBIT_ONLY_BUDGET,
    RACBOX_BUDGET,
    Message,
    MeteredChannel,
    RoundTranscript,
    Tally,
    aggregate,
)


def test_tally_matches_log_aggregation():
    ch = MeteredChannel()
    ch.send("A->B", "classical-bit", "a1", 1)
    ch.send("A->B", "classical-bit", "a0", 0)
    t = ch.transcript()
    assert t.totals == Tally(bits_a_to_b=2)
    assert aggregate(t.messages) == t.totals


def test_transcript_totals_are_read_off_the_log():
    msgs = (Message("A->B", "qubit", "payload"), Message("A->B", "classical-bit", "m"))
    assert RoundTranscript(msgs).totals == Tally(bits_a_to_b=1, qubits_a_to_b=1)
    assert RoundTranscript(()).totals == Tally()


def test_invalid_direction_and_kind_rejected():
    with pytest.raises(ValueError):
        Message("A->C", "classical-bit", "x")
    with pytest.raises(ValueError):
        Message("A->B", "byte", "x")


def test_budget_constants():
    assert QRAC_BUDGET.as_dict() == {
        "bits_a_to_b": 2,
        "bits_b_to_a": 0,
        "qubits_a_to_b": 0,
        "qubits_b_to_a": 0,
    }
    assert QUBIT_ONLY_BUDGET.qubits_a_to_b == 1
    assert RACBOX_BUDGET.bits_a_to_b == 1


def test_tally_addition():
    assert Tally(1, 0, 2, 0) + Tally(0, 1, 0, 3) == Tally(1, 1, 2, 3)


def test_message_content_carries_no_identity():
    assert Message("A->B", "qubit", "q", content=1) == Message("A->B", "qubit", "q", content=2)
