"""Thread-safe caches for the concurrent serving layer.

Two caches share the same LRU core:

* :class:`LRUCache` — a small mutex-guarded mapping with *move-to-end
  promotion on hit* (a true LRU, unlike the FIFO ``dict.pop(next(...))``
  eviction it replaces). :meth:`LRUCache.get_or_add` gives the
  parsed-query cache its "one canonical value per key" guarantee without
  holding the lock across the factory call.

* :class:`QueryResultCache` — the epoch-invalidated query-result cache.
  Every entry is tagged with the database *generation* it was computed
  at; a lookup hits only when the tag matches the reader's generation
  exactly, so a stale entry can never be served. On each write the
  committing writer re-examines the live entries against the write's
  *delta* (the data actually removed/added):

  - an entry whose condition is **positive** (its negation-normal form
    has no negated leaves and no foreign leaf kinds) can only gain or
    lose matches through data that reach one of its *footprint paths*
    (every positive leaf holds existentially over the values its path
    reaches). If no delta datum reaches any footprint path, the result
    is provably unchanged, and the entry is **re-tagged** to the new
    generation instead of evicted — hot read-mostly workloads keep
    their cache across unrelated writes;
  - everything else (negated leaves, ``select`` without a ``where``,
    unknown condition subclasses, entries left behind by laggard
    readers at older generations) is evicted.

  Entries are not limited to single-set selections: aggregate results
  and two-input join results cache under the same machinery. A join
  entry's footprint is the *union* of both sides' condition paths plus
  the join-key paths
  (:func:`repro.query.compile.join_invalidation_profile`), and it is
  ``safe`` only when both sides are positive — so a write that touches
  only the probe side still evicts or re-tags correctly, never serving
  a stale joined result.

  Whether a write touches a footprint path is decided by walking the
  path over each delta datum. The walk is capped: a write whose delta
  holds more than :data:`PRECISION_CAP` data treats every footprint
  path as touched.

The memory model is the CPython one: entries are only mutated under the
cache mutex, and the generation tag is re-checked against the reader's
pinned state on every hit, so readers never observe a result from a
different generation than the one they asked for.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.data import Data, DataSet

__all__ = ["LRUCache", "QueryResultCache", "PRECISION_CAP"]

#: A parsed attribute path.
Steps = tuple[str, ...]

#: Writes whose delta exceeds this many data stop walking footprint
#: paths over it and conservatively treat them all as touched.
PRECISION_CAP = 128


class LRUCache:
    """A mutex-guarded LRU mapping: hits promote, overflow evicts the
    least recently used entry.

    ``capacity <= 0`` disables the cache entirely (every ``get`` misses,
    every ``put`` is a no-op) so callers never need a second code path.
    """

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: Hashable, default: object = None) -> object:
        """Return the cached value, promoting the entry to most recent."""
        with self._lock:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                return default
            return self._entries[key]

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh an entry, evicting the LRU on overflow."""
        if self._capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def get_or_add(self, key: Hashable,
                   factory: Callable[[], object]) -> object:
        """Return the cached value, computing and caching it on a miss.

        The factory runs *outside* the lock (it may be slow or raise);
        when two threads race, the first stored value wins and both
        callers observe the same object thereafter.
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        computed = factory()
        if self._capacity <= 0:
            return computed
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            self._entries[key] = computed
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
            return computed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass(slots=True)
class _ResultEntry:
    generation: int
    result: "DataSet"
    #: Footprint: every path the condition's leaves mention.
    paths: frozenset[Steps]
    #: True when the condition is positive (see module docs) and the
    #: footprint argument applies; False forces eviction on any write.
    safe: bool


class QueryResultCache:
    """Generation-tagged LRU of query results with precise invalidation.

    Readers call :meth:`lookup`/:meth:`store` with the generation of the
    state they executed against; the single writer calls :meth:`commit`
    once per mutation batch, *before* publishing the new state, so no
    reader at the new generation can ever hit a stale entry.
    """

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._entries: OrderedDict[str, _ResultEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.retags = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def lookup(self, text: str, generation: int) -> "DataSet | None":
        """The cached result for ``text`` at exactly ``generation``."""
        if self._capacity <= 0:
            return None
        with self._lock:
            entry = self._entries.get(text)
            if entry is None or entry.generation != generation:
                self.misses += 1
                return None
            self._entries.move_to_end(text)
            self.hits += 1
            return entry.result

    def store(self, text: str, generation: int, result: "DataSet",
              paths: frozenset[Steps], safe: bool) -> None:
        """Cache a freshly computed result.

        A laggard reader (one that executed against an already-replaced
        state) never clobbers a newer entry: the store is dropped when
        an entry tagged with a later generation is present.
        """
        if self._capacity <= 0:
            return
        with self._lock:
            entry = self._entries.get(text)
            if entry is not None and entry.generation > generation:
                return
            self._entries[text] = _ResultEntry(
                generation, result, paths, safe)
            self._entries.move_to_end(text)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def commit(self, old_generation: int, new_generation: int,
               delta: "Iterable[Data]") -> None:
        """Writer-side epoch step: re-tag unaffected entries, evict the
        rest.

        ``delta`` is the net set of data the write removed plus added.
        A footprint path is touched when some delta datum reaches it,
        or, past :data:`PRECISION_CAP` data, always.
        """
        if self._capacity <= 0 or not self._entries:
            return
        # Imported here: the query package imports this module.
        from repro.query.paths import path_exists

        delta = list(delta)
        with self._lock:
            candidates = [
                (text, entry) for text, entry in self._entries.items()
                if entry.safe and entry.generation == old_generation]
            footprint = {
                path
                for _, entry in candidates for path in entry.paths}
            if len(delta) <= PRECISION_CAP:
                touched = {path for path in footprint
                           if any(path_exists(datum.object, path)
                                  for datum in delta)}
            else:
                touched = footprint
            surviving = {
                text for text, entry in candidates
                if not (entry.paths & touched)}
            for text in list(self._entries):
                entry = self._entries[text]
                if text in surviving:
                    entry.generation = new_generation
                    self.retags += 1
                else:
                    del self._entries[text]
                    self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self.evictions += len(self._entries)
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters for benchmarks and diagnostics."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "retags": self.retags,
                "evictions": self.evictions,
            }
