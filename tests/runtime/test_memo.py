"""Tests for the in-memory LRU memoization tier."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.memo import LRUCache


class TestBasics:
    def test_miss_then_hit(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {
            "size": 1,
            "maxsize": 4,
            "hits": 1,
            "misses": 1,
        }

    def test_contains_and_len(self):
        cache: LRUCache[int, int] = LRUCache(maxsize=4)
        cache.put(1, 10)
        assert 1 in cache
        assert 2 not in cache
        assert len(cache) == 1

    def test_clear_keeps_stats(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1


class TestEviction:
    def test_evicts_least_recently_used(self):
        cache: LRUCache[int, int] = LRUCache(maxsize=2)
        cache.put(1, 1)
        cache.put(2, 2)
        cache.get(1)  # 2 becomes LRU
        cache.put(3, 3)
        assert 1 in cache and 3 in cache
        assert 2 not in cache

    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ConfigurationError):
            LRUCache(maxsize=0)


class TestPickling:
    def test_pickle_ships_configuration_only(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=7)
        cache.put("a", 1)
        cache.get("a")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 7
        assert len(clone) == 0
        assert clone.stats()["hits"] == 0
        # The clone is fully functional.
        clone.put("b", 2)
        assert clone.get("b") == 2


class TestEnsureCapacity:
    def test_grows_capacity(self):
        cache = LRUCache(maxsize=2)
        cache.ensure_capacity(10)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 10

    def test_never_shrinks(self):
        cache = LRUCache(maxsize=16)
        cache.ensure_capacity(4)
        assert cache.maxsize == 16

    def test_keeps_existing_entries(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.ensure_capacity(8)
        assert cache.get("a") == 1
        assert cache.get("b") == 2

    def test_rejects_non_positive_minsize(self):
        cache = LRUCache(maxsize=2)
        with pytest.raises(ConfigurationError):
            cache.ensure_capacity(0)
