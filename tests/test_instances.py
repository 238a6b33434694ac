"""Unit tests for the shared sweep-instance cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import instances
from repro.geometry.points import uniform_points


@pytest.fixture(autouse=True)
def _fresh_cache():
    instances.clear_cache()
    yield
    instances.clear_cache()


def test_values_match_uniform_points():
    np.testing.assert_array_equal(
        instances.get_points(100, 3), uniform_points(100, seed=3)
    )


def test_cache_hits_return_same_object():
    a = instances.get_points(50, 0)
    b = instances.get_points(50, 0)
    assert a is b
    info = instances.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1


def test_returned_array_is_read_only():
    pts = instances.get_points(10, 1)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5
    # Callers that need a mutable copy can take one.
    cp = pts.copy()
    cp[0, 0] = 0.5


def test_distinct_keys_are_distinct_instances():
    a = instances.get_points(20, 0)
    b = instances.get_points(20, 1)
    c = instances.get_points(21, 0)
    assert a is not b and a is not c
    assert instances.cache_info()["misses"] == 3


def test_lru_eviction(monkeypatch):
    monkeypatch.setattr(instances, "_CACHE_SIZE", 2)
    a = instances.get_points(10, 0)
    instances.get_points(10, 1)
    instances.get_points(10, 2)  # evicts (10, 0)
    assert instances.cache_info()["size"] == 2
    b = instances.get_points(10, 0)  # rebuilt, not the cached object
    assert b is not a
    np.testing.assert_array_equal(a, b)


def test_clear_cache_resets_counters():
    instances.get_points(10, 0)
    instances.get_points(10, 0)
    instances.clear_cache()
    assert instances.cache_info() == {
        "hits": 0,
        "misses": 0,
        "size": 0,
        "max_size": instances._CACHE_SIZE,
    }
