"""Content-addressed result cache with LRU eviction.

A cache entry is keyed by *what was computed*: the content digests of the
input series plus the :meth:`RunConfig.cache_key` of the **effective**
run configuration.  Keying on the effective (post-admission) config is
deliberate: in the reduced-precision modes the tile count changes the
numerics (each tile restarts the Eq. (1) recurrence), so two runs of the
same series at different tilings or modes are different results and must
not alias.

Eviction is least-recently-used, bounded both by entry count and by the
total payload bytes (profile + index arrays), and hit/miss/eviction
counters feed :class:`~repro.service.metrics.ServiceMetrics`.

:class:`PrecalcStatsCache` is the second, finer-grained cache of this
module — the same byte-bounded LRU over another payload.  It stores
per-series *window-statistics planes* (mu/inv/df/dg) for the engine's
plan-level precalc amortisation layer, so repeated jobs on the same
series — the service's dominant traffic pattern — skip the O(n·m·d)
statistics pass even when the result itself misses (different tiling,
different m pairing, first run of an A/B pair).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..core.config import RunConfig
from ..core.result import MatrixProfileResult

__all__ = ["ResultCache", "PrecalcStatsCache", "cache_key"]


def cache_key(
    reference_digest: str, query_digest: str | None, m: int, config: RunConfig
) -> str:
    """Stable content-addressed key for one computed profile."""
    return f"{reference_digest}:{query_digest or 'self'}:{m}:{config.cache_key()}"


class _ByteBoundedLRU:
    """Thread-safe LRU bounded by entry count and summed payload bytes.

    Subclasses name the payload: :meth:`_entry_bytes` sizes one entry.
    Oldest entries are evicted first when either bound is exceeded.
    ``on_lookup`` (if given) is called with ``True``/``False`` per lookup,
    outside the lock.
    """

    def __init__(self, max_entries: int, max_bytes: int, on_lookup=None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.on_lookup = on_lookup
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    @staticmethod
    def _entry_bytes(entry) -> int:
        raise NotImplementedError

    def get(self, key):
        """Look up ``key``; counts a hit (and refreshes recency) or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if self.on_lookup is not None:
            self.on_lookup(entry is not None)
        return entry

    def put(self, key, entry) -> None:
        """Insert (or refresh) an entry, evicting LRU entries as needed."""
        nbytes = self._entry_bytes(entry)
        with self._lock:
            if key in self._entries:
                self._bytes -= self._entry_bytes(self._entries.pop(key))
            self._entries[key] = entry
            self._bytes += nbytes
            while self._entries and (
                len(self._entries) > self.max_entries or self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= self._entry_bytes(evicted)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def payload_bytes(self) -> int:
        return self._bytes

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict[str, int | float]:
        """Counter snapshot for metrics/reporting."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "payload_bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }


class ResultCache(_ByteBoundedLRU):
    """Thread-safe LRU cache of :class:`MatrixProfileResult` objects.

    Parameters
    ----------
    max_entries:
        Hard cap on the number of cached results.
    max_bytes:
        Cap on the summed profile+index payload bytes.  Oldest entries
        are evicted first when either bound is exceeded.
    """

    def __init__(self, max_entries: int = 128, max_bytes: int = 256 * 1024 * 1024):
        super().__init__(max_entries, max_bytes)

    @staticmethod
    def _entry_bytes(result: MatrixProfileResult) -> int:
        return int(result.profile.nbytes + result.index.nbytes)


class PrecalcStatsCache(_ByteBoundedLRU):
    """Thread-safe LRU store of per-series window-statistics planes.

    The plug-in ``store`` of the engine's
    :class:`~repro.engine.precalc_cache.PrecalcPlaneCache`: keys are the
    engine's content-addressed role keys (series-layout digest + shape +
    dtype + m + mode — precalc-relevant fields only, so jobs differing
    in tiling, strategy or result-affecting knobs still share the
    planes), values are dicts of numpy planes.  Entries are treated as
    immutable by the engine — tiles slice them read-only.

    ``on_lookup`` (if given) is called with ``True``/``False`` per
    lookup; the service wires it to
    :meth:`~repro.service.metrics.ServiceMetrics.record_stats_cache`.
    """

    def __init__(
        self,
        max_entries: int = 64,
        max_bytes: int = 256 * 1024 * 1024,
        on_lookup=None,
    ):
        super().__init__(max_entries, max_bytes, on_lookup)

    @staticmethod
    def _entry_bytes(entry: dict) -> int:
        return int(sum(arr.nbytes for arr in entry.values()))
