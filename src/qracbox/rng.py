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
"""
from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the Philox stream keyed (seed, stream)."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must be an integer in [0, 2**64)")
    if not 0 <= int(stream) < 2**64:
        raise ValueError("stream must be an integer in [0, 2**64)")
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
