"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest

from qracbox import channel, qrac, quantum


def _box_caches() -> list:
    """Every ``functools.lru_cache`` defined in the modules the box's wiring feeds."""
    return [
        value
        for module in (quantum, qrac, channel)
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and value.__module__ == module.__name__
    ]


@pytest.fixture
def clear_box_caches():
    """Clear every cache of ``quantum``, ``qrac`` and ``channel`` around a test.

    The caches are ``qrac._tree`` (the sampled executors' outcome tables,
    with Bob's outputs in their memos) and ``channel._probe_sums`` and ``_default_contrast``
    (whole enumerations), so a test that changes the box would otherwise
    read the honest box from them.  Yields the clearing function, which
    returns the caches it cleared; call it after the change.  Teardown
    clears them again, so later tests rebuild from the honest box.
    """

    def clear() -> list:
        caches = _box_caches()
        for cache in caches:
            cache.cache_clear()
        return caches

    clear()
    yield clear
    clear()
