"""Deterministic, counter-based random streams.

Randomness flows from Philox 4x64-10 generators keyed by the pair
(seed, stream).  Philox is counter based (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC 2011): raw word k of a stream
is a fixed function of the key and of k, so a report's draws can be
computed for all of its trials at once (``stream_words``) instead of
one generator per trial.  Which raw word feeds which draw:

* ``qrac`` and ``qrac-qubit-only``, trial i, stream (seed, i): word 0
  the two box coins, word 1 the uniform that measures Bob's choice
  qubit omega, words 2 and 3 Alice's two Bell measurements, word 4
  (``qrac-qubit-only`` only) the dense decoding;
* ``racbox``, trial i, stream (seed, i): word 0 the inputs a0, a1,
  word 1 the choice w and the box coin;
* sampled ``tomography``, trial i, stream (seed, i): word 0 the choice
  measurement, words 1 and 2 the Bell measurements, word 3 the coins;
* sampled ``nonsignaling``, every trial with Bob's choice w from the one
  stream (seed, w): words 3t, 3t+1 and 3t+2 for trial t, the coins and
  Alice's two Bell measurements;
* the sampled privacy check of ``racbox`` (``boxes.verify_rac_privacy``)
  draws from ``np.random.default_rng(seed)``, a PCG64 generator, not a
  Philox stream: words 2t and 2t+1 hold trial t's four box coins;
* ``dilation`` draws its random input pairs from stream (seed, 0).

A word becomes two fair bits by ``word_bits`` (PR-box coins and the
racbox inputs) and a uniform in [0, 1) by ``word_uniform`` (one per
measurement), the rules of ``int(rng.integers(2))`` and ``rng.random()``
in numpy 2: ``integers(2)`` takes the top bit of the next 32-bit draw,
a bit generator spends a word low half first, and ``random()`` keeps
the top 53 bits of a whole word.

Reports are computed in blocks of ``TRIAL_BLOCK`` trials, and any trial
of a per-trial stream can be replayed alone by the single-trial
executors (``harness.run_qrac_protocol``, ``harness.run_rac_protocol``,
``qrac.sample_channel``) on ``make_rng(seed, i)``.  Those are plain
reference code: they draw through numpy's ``Generator`` API, a coin
with ``integers(2)`` and a measurement with ``random()``, and share no
word rule with the batched executors.  The tests pin ``stream_words`` to
``np.random.Philox`` and the two word rules to those draws, so a numpy
that changed Philox would fail a test instead of silently changing
reports.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

# trials computed together by the batched executors: it bounds the size
# of every intermediate array of a report
TRIAL_BLOCK = 4096


def _word(value, name: str) -> int:
    """``value`` as a Python int in [0, 2**64); no other type is coerced."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if 0 <= int(value) < 2**64:
            return int(value)
    raise ValueError(f"{name} must be an integer in [0, 2**64)")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the Philox stream keyed (seed, stream)."""
    key = np.array([_word(seed, "seed"), _word(stream, "stream")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def word_bits(word):
    """The two fair bits of a raw word, or of each word of a uint64 array.

    The top bit of the low half, then the top bit of the high half: what
    two successive ``int(rng.integers(2))`` calls return.
    """
    return (word >> 31) & 1, word >> 63


def word_uniform(word):
    """The uniform in [0, 1) that ``rng.random()`` makes of a raw word."""
    return (word >> 11) * (1.0 / 9007199254740992.0)


def bit_columns(words: np.ndarray) -> np.ndarray:
    """Each row's words as fair bits, two a word by ``word_bits``, as int columns."""
    low, high = word_bits(words)
    return np.stack([low, high], axis=-1).reshape(len(words), -1).astype(np.intp)


def trial_count(trials, floor: int, what: str) -> int:
    """``trials`` as a Python int, if it is an integer >= ``floor``; else ValueError."""
    if isinstance(trials, (int, np.integer)) and not isinstance(trials, bool) and trials >= floor:
        return int(trials)
    raise ValueError(f"{what} needs an integer number of trials >= {floor}")


def trial_blocks(count: int) -> Iterator[np.ndarray]:
    """Trials 0 .. count-1 as consecutive uint64 blocks of ``TRIAL_BLOCK``."""
    block = TRIAL_BLOCK
    for start in range(0, count, block):
        yield np.arange(start, min(start + block, count), dtype=np.uint64)


# Philox 4x64-10 multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)


def _mulhilo(m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of m * b, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, b_hi = b & _LOW32, b >> 32
    t = m_hi * b_lo + ((m_lo * b_lo) >> 32)
    u = m_lo * b_hi + (t & _LOW32)
    return m_hi * b_hi + (t >> 32) + (u >> 32), np.uint64(m) * b


def stream_words(seed: int, streams: np.ndarray, count: int) -> np.ndarray:
    """Raw words 0 .. count-1 of the Philox streams (seed, s) for s in ``streams``.

    Row j equals ``make_rng(seed, streams[j]).bit_generator.random_raw(count)``.
    A stream's counter starts at 1 and each counter gives four words;
    numpy uint64 arithmetic wraps modulo 2**64, as Philox does.
    """
    seed = _word(seed, "seed")
    blocks = -(-count // 4)
    shape = (len(streams), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed, np.asarray(streams, dtype=np.uint64)[:, None]
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(streams), 4 * blocks)[:, :count]
