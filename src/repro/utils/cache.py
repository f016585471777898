"""One thread-safe, versioned LRU behind every cache tier in the repo.

The router's response cache, each replica engine's response cache and
a compiled model's plan cache are all a :class:`VersionedLRU`; they
differ only in what they store and which registry they publish into.

**Counters.**  Hits, misses and evictions are
:class:`~repro.obs.metrics.Counter` objects in a
:class:`~repro.obs.MetricsRegistry` under ``<prefix>.hits`` /
``.misses`` / ``.evictions``, plus an ``<prefix>.epoch`` gauge holding
the current version.  The cache is their only writer, so what a
registry observer reads is exactly the cache's own tally.
``get(key, count=False)`` is an uncounted probe; :meth:`count_hit` /
:meth:`count_miss` credit an outcome decided outside ``get`` (the
engine's in-flight dedup).

**Staleness.**  Every writer follows one protocol: snapshot
:attr:`version` when the work is dispatched, then
``put(key, value, version=snapshot)``.  :meth:`bump` drops every entry
and advances the version under the same lock, so after it returns no
old entry can be read and no write dispatched before it can land.

``capacity == 0`` disables storage: ``get`` returns ``None`` and counts
a miss, ``put`` stores and evicts nothing.  Values are stored as given;
callers that hand cached values to user code freeze them first
(:func:`~repro.core.response.freeze_response`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.obs.metrics import MetricsRegistry


class VersionedLRU:
    """Bounded, thread-safe LRU with a version that :meth:`bump` advances."""

    def __init__(self, capacity: int,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "cache"):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._version = 0
        self._hits = self.registry.counter(f"{prefix}.hits")
        self._misses = self.registry.counter(f"{prefix}.misses")
        self._evictions = self.registry.counter(f"{prefix}.evictions")
        self._epoch = self.registry.gauge(f"{prefix}.epoch")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def version(self) -> int:
        """The version a ``put`` must carry to be stored."""
        with self._lock:
            return self._version

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def count_hit(self) -> None:
        """Credit one hit decided outside ``get`` (e.g. in-flight dedup)."""
        self._hits.inc()

    def count_miss(self) -> None:
        """Record one miss decided outside ``get``."""
        self._misses.inc()

    def get(self, key: Hashable, count: bool = True) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            if count:
                (self._hits if value is not None else self._misses).inc()
            return value

    def put(self, key: Hashable, value: Any,
            version: Optional[int] = None) -> bool:
        """Store ``value`` unless ``version`` is no longer current.

        Returns whether the value was stored: ``False`` for a write
        dispatched before the latest :meth:`bump`, and always when the
        cache is disabled.
        """
        with self._lock:
            if version is not None and version != self._version:
                return False
            if self.capacity == 0:
                return False
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()
            return True

    def bump(self) -> int:
        """Drop every entry and advance the version; returns the new one."""
        with self._lock:
            self._entries.clear()
            self._version += 1
            self._epoch.set(self._version)
            return self._version
