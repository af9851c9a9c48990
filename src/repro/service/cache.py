"""Facility-keyed reference-profile cache with LRU eviction.

Every :class:`~repro.core.localizer.STPPLocalizer` needs a
:class:`~repro.core.reference.ReferenceProfile` — the DTW matching template.
A single session builds it once; a **fleet** of sessions (one per portal,
hundreds per facility) must not: the reference depends only on the facility's
reference configuration, never on the portal, so all of a facility's sessions
can share one immutable profile.

:class:`ProfileCacheRegistry` is that sharing point, generalizing the
process-wide ``functools.lru_cache`` behind
:func:`~repro.core.reference.shared_canonical_reference` (which
:class:`~repro.core.localizer.BatchLocalizer` instances lean on) into an
explicit, injectable object with the properties a serving layer needs:

* **facility-keyed**: entries are keyed by ``(facility_id, <build params>)``
  — two facilities with the *same* reference configuration still get
  *distinct* entries, so one facility's recalibration or eviction can never
  touch another's sessions;
* **bounded, LRU-evicted**: a process serving many facilities holds at most
  ``capacity`` profiles; the least recently *used* entry is evicted first;
* **build-once under concurrency**: when many threads request a missing key
  at once, exactly one runs the builder; the others wait and receive the
  same fully-constructed object (no duplicate construction, no torn
  publication — pinned by ``tests/test_profile_cache.py``);
* **observable**: ``stats()`` reports hits/misses/builds/evictions so tests
  (and dashboards) can assert that sharing actually happens.

The registry is value-agnostic — :meth:`get_or_build` caches anything — but
its fleet-facing entry point is :meth:`reference_for`, which derives the
cache key from a facility id and an :class:`~repro.core.localizer.STPPConfig`
and builds via :func:`~repro.core.reference.canonical_reference`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, TYPE_CHECKING

from ..core.reference import ReferenceProfile, canonical_reference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.localizer import STPPConfig

DEFAULT_CACHE_CAPACITY = 32
"""Default number of cached profiles (facilities served without re-builds)."""


class ProfileCacheRegistry:
    """A thread-safe, bounded, LRU get-or-build cache for shared profiles.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; inserting beyond it evicts the
        least recently used entry.  Must be at least 1.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._pending: dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._builds = 0
        self._evictions = 0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> tuple[Hashable, ...]:
        """Cached keys in LRU order: the first returned is evicted next."""
        with self._lock:
            return tuple(self._entries)

    def stats(self) -> dict[str, int]:
        """Counters snapshot: hits, misses, builds, evictions, entries."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "builds": self._builds,
                "evictions": self._evictions,
                "entries": len(self._entries),
            }

    def clear(self) -> None:
        """Drop every cached entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    # -- the cache protocol ------------------------------------------------

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it at most once.

        On a hit the entry is promoted to most-recently-used and returned.
        On a miss, the first caller runs ``builder()`` *outside* the registry
        lock (builds can be slow — a reference profile is a full simulated
        sweep) while concurrent callers for the same key wait on an event;
        the value is published to the cache, and only then are waiters
        released — they observe either the complete entry or nothing, never
        a partially-constructed one.  A builder that raises releases the
        waiters (which retry, typically re-raising the same error) and
        caches nothing.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return self._entries[key]
                event = self._pending.get(key)
                if event is None:
                    self._pending[key] = threading.Event()
                    self._misses += 1
                    break  # this caller builds
            # Another thread is building this key: wait for publication,
            # then loop back (hit on success, rebuild on builder failure).
            event.wait()

        try:
            value = builder()
        except BaseException:
            with self._lock:
                self._pending.pop(key).set()
            raise
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._builds += 1
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._pending.pop(key).set()
        return value

    # -- the fleet-facing entry point --------------------------------------

    def reference_for(
        self, facility_id: str, config: "STPPConfig"
    ) -> ReferenceProfile:
        """The facility's shared reference profile for ``config``.

        The key includes ``facility_id`` on purpose: even when two facilities
        run identical reference parameters, their entries stay separate
        (facility isolation — evicting or recalibrating one never invalidates
        the other).  The builder is the *uncached*
        :func:`~repro.core.reference.canonical_reference`, so the registry's
        ``builds`` counter reports real constructions — the regression pin
        that sessions sharing a registry never rebuild a facility's profile.
        """
        key = (
            str(facility_id),
            float(config.reference_perpendicular_distance_m),
            float(config.reference_speed_mps),
            int(config.reference_periods),
        )
        return self.get_or_build(
            key,
            lambda: canonical_reference(
                perpendicular_distance_m=config.reference_perpendicular_distance_m,
                speed_mps=config.reference_speed_mps,
                periods=config.reference_periods,
            ),
        )
