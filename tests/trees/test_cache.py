"""Tests for the versioned contraction cache."""

import numpy as np
import pytest

from repro.trees.cache import CacheEntry, ContractionCache


class TestCacheEntry:
    def test_validity_depends_on_contracted_versions_only(self):
        entry = CacheEntry(modes=frozenset({0, 1}), array=np.zeros(2),
                           versions_used={2: 3, 3: 1})
        assert entry.is_valid([9, 9, 3, 1])
        assert not entry.is_valid([9, 9, 4, 1])

    def test_nbytes(self):
        entry = CacheEntry(modes=frozenset({0}), array=np.zeros((4, 2)), versions_used={})
        assert entry.nbytes == 64


class TestContractionCache:
    def test_put_and_exact_lookup(self):
        cache = ContractionCache()
        cache.put([0, 1], np.ones((2, 2)), {2: 0})
        entry = cache.get_exact([0, 1], [0, 0, 0])
        assert entry is not None
        assert entry.modes == frozenset({0, 1})

    def test_stale_entry_not_returned(self):
        cache = ContractionCache()
        cache.put([0, 1], np.ones(2), {2: 0})
        assert cache.get_exact([0, 1], [0, 0, 1]) is None
        assert cache.find_valid([0, 0, 1], {0}) is None

    def test_find_valid_prefers_smallest_superset(self):
        cache = ContractionCache()
        cache.put([0, 1, 2], np.ones(3), {3: 0})
        cache.put([0, 1], np.ones(2), {2: 0, 3: 0})
        best = cache.find_valid([0, 0, 0, 0], {0})
        assert best is not None
        assert best.modes == frozenset({0, 1})

    def test_find_valid_requires_containment(self):
        cache = ContractionCache()
        cache.put([1, 2], np.ones(2), {0: 0})
        assert cache.find_valid([0, 0, 0], {0}) is None

    def test_find_valid_multi_mode_target(self):
        cache = ContractionCache()
        cache.put([0, 1, 3], np.ones(3), {2: 0})
        assert cache.find_valid([0] * 4, {0, 3}) is not None
        assert cache.find_valid([0] * 4, {0, 2}) is None

    def test_hits_and_misses_counted(self):
        cache = ContractionCache()
        cache.put([0], np.ones(1), {1: 0})
        cache.find_valid([0, 0], {0})
        cache.find_valid([0, 0], {1})
        assert cache.hits == 1
        assert cache.misses == 1

    def test_replacing_entry_updates_array(self):
        cache = ContractionCache()
        cache.put([0], np.zeros(2), {1: 0})
        cache.put([0], np.ones(2), {1: 1})
        entry = cache.get_exact([0], [0, 1])
        assert entry is not None
        assert np.all(entry.array == 1.0)

    def test_invalidate_stale_drops_only_invalid(self):
        cache = ContractionCache()
        cache.put([0], np.ones(1), {1: 0})
        cache.put([1], np.ones(1), {0: 0})
        dropped = cache.invalidate_stale([1, 0])  # mode 0 was updated
        assert dropped == 1
        assert cache.get_exact([0], [1, 0]) is not None
        assert cache.get_exact([1], [1, 0]) is None

    def test_empty_mode_set_rejected(self):
        cache = ContractionCache()
        with pytest.raises(ValueError):
            cache.put([], np.ones(1), {})

    def test_clear_and_total_bytes(self):
        cache = ContractionCache()
        cache.put([0], np.zeros(4), {})
        assert cache.total_bytes == 32
        cache.clear()
        assert len(cache) == 0
