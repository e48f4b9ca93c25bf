"""Deterministic, counter-based random streams.

Randomness flows from Philox 4x64 generators keyed by the pair
(seed, stream).  The per-trial experiments (``qrac``,
``qrac-qubit-only``, the rounds of ``racbox`` and sampled
``tomography``) draw trial i from the stream keyed (seed, i), so any of
their trials can be replayed in isolation and trials may run in any
order, or in parallel, without changing results.  The exceptions, each
pinned by the reports' bytes:

* sampled ``nonsignaling`` draws every trial with Bob's choice w from
  the one stream (seed, w), trial after trial, so trial i can only be
  replayed by replaying trials 0..i-1 of that choice first;
* ``dilation`` draws all its random input pairs from stream (seed, 0);
* the sampled privacy check of ``racbox`` (``boxes.verify_rac_privacy``)
  draws from ``np.random.default_rng(seed)``, a PCG64 generator, not
  from a Philox stream.

Fair bits (PR-box coins and the racbox inputs) are drawn two to a raw
64-bit word by ``fair_bits``, which returns exactly what as many
``int(rng.integers(2))`` calls would: ``integers(2)`` takes the top bit
of the next 32-bit draw, and a bit generator spends each 64-bit word
low half first, then high half.  That holds only while no half word is
buffered, which is true after any even number of ``integers(2)`` calls
and any number of ``random()`` calls (they spend whole words).  Every
caller draws an even count from such a generator; a lone ``PRBox(rng)``
still draws its coin with ``rng.integers(2)``.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _PhiloxKey(ISeedSequence):
    """Hands Philox its (seed, stream) key as-is.

    ``Philox(key=...)`` would first seed itself from OS entropy, on every
    call, and then overwrite that state with the key; this gives the same
    key, counter and state without the entropy draw.
    """

    __slots__ = ("_key",)

    def __init__(self, seed: int, stream: int):
        self._key = np.array([seed, stream], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._key


def _word(value, name: str) -> int:
    """``value`` as a Python int in [0, 2**64); no other type is coerced."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if 0 <= int(value) < 2**64:
            return int(value)
    raise ValueError(f"{name} must be an integer in [0, 2**64)")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the Philox stream keyed (seed, stream)."""
    key = _PhiloxKey(_word(seed, "seed"), _word(stream, "stream"))
    return np.random.Generator(np.random.Philox(key))


def fair_bits(rng: np.random.Generator, count: int) -> list[int]:
    """``count`` successive ``int(rng.integers(2))`` draws, for an even count.

    Each raw word yields two bits: the top bit of its low half, then the
    top bit of its high half.  ``rng`` must hold no buffered half word
    (see the module docstring).
    """
    if count % 2:
        raise ValueError("fair_bits draws two bits per word; count must be even")
    bits = []
    for word in rng.bit_generator.random_raw(count // 2).tolist():
        bits += ((word >> 31) & 1, word >> 63)
    return bits
