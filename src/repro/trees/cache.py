"""Versioned cache of partially contracted MTTKRP intermediates.

A cache entry stores the intermediate ``M^(S)`` (remaining-mode set ``S`` with
a trailing rank axis) together with the *version* of every factor matrix that
was contracted into it.  The entry is reusable for a later request exactly
when none of those factors has been updated since — this is the invariant that
makes both the per-sweep dimension tree and the cross-sweep MSDT correct
without ever recomputing a contraction that is still valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["CacheEntry", "ContractionCache"]


@dataclass
class CacheEntry:
    """One cached intermediate ``M^(S)``."""

    modes: FrozenSet[int]
    array: np.ndarray
    versions_used: Dict[int, int] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def is_valid(self, current_versions: Sequence[int]) -> bool:
        """True when every contracted factor still has the recorded version."""
        return all(current_versions[m] == v for m, v in self.versions_used.items())


class ContractionCache:
    """Cache of rank-carrying intermediates keyed by their remaining-mode set."""

    def __init__(self):
        self._entries: Dict[FrozenSet[int], CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    # -- bookkeeping ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> Iterable[CacheEntry]:
        return list(self._entries.values())

    # -- insertion ---------------------------------------------------------------
    def put(self, modes: Iterable[int], array: np.ndarray,
            versions_used: Mapping[int, int]) -> CacheEntry:
        """Insert (or replace) the intermediate for remaining-mode set ``modes``."""
        key = frozenset(int(m) for m in modes)
        if not key:
            raise ValueError("cannot cache an intermediate with no remaining modes")
        entry = CacheEntry(modes=key, array=array, versions_used=dict(versions_used))
        self._entries[key] = entry
        return entry

    def invalidate_stale(self, current_versions: Sequence[int]) -> int:
        """Drop every entry invalidated by the current factor versions.

        Returns the number of dropped entries.  Amortizing providers call this
        after every factor update, which bounds the cache to the
        intermediates still valid; correctness never depends on it.
        """
        stale = [k for k, e in self._entries.items() if not e.is_valid(current_versions)]
        for k in stale:
            del self._entries[k]
        return len(stale)

    # -- lookup -------------------------------------------------------------------
    def find_valid(self, current_versions: Sequence[int],
                   containing: Iterable[int]) -> CacheEntry | None:
        """Smallest valid cached intermediate whose mode set contains ``containing``.

        "Smallest" means fewest remaining modes, i.e. the most contracted (and
        therefore cheapest to finish) ancestor of the requested result.
        """
        target = frozenset(int(m) for m in containing)
        best: CacheEntry | None = None
        for entry in self._entries.values():
            if not target.issubset(entry.modes):
                continue
            if not entry.is_valid(current_versions):
                continue
            if best is None or len(entry.modes) < len(best.modes):
                best = entry
        if best is not None:
            self.hits += 1
        else:
            self.misses += 1
        return best

    def get_exact(self, modes: Iterable[int],
                  current_versions: Sequence[int]) -> CacheEntry | None:
        """Valid entry for exactly this remaining-mode set, if present."""
        key = frozenset(int(m) for m in modes)
        entry = self._entries.get(key)
        if entry is not None and entry.is_valid(current_versions):
            return entry
        return None
