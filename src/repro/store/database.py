"""A small persistent database of semistructured data.

The paper's §4 names "how to implement the semistructured data model"
as open work; this module is that implementation at library scale:

* a :class:`Database` holds one :class:`~repro.core.data.DataSet` plus a
  marker index and lazily built key indexes, all published together as
  one immutable **state record** (:class:`_DBState`) tagged with a
  monotonically increasing *generation*;
* **MVCC-style concurrency**: every mutation
  (``insert``/``remove``/``update``/``set_attribute``/``merge_in``)
  serializes behind a writer lock, patches the indexes copy-on-write
  and publishes the next generation by swapping one attribute — readers
  never lock, never block, and never observe a torn write, because a
  single read of ``self._state`` pins a complete consistent view
  (:meth:`Database.view` hands that pin out explicitly for multi-query
  reads at one generation);
* an **epoch-invalidated query-result cache**
  (:class:`~repro.store.cache.QueryResultCache`): textual query results
  are cached per generation, and a write whose delta is disjoint from a
  cached query's footprint paths re-tags the entry to the new
  generation instead of evicting it, so read-mostly workloads keep
  their cache across unrelated writes;
* content-addressed updates: ``insert``/``remove`` return nothing and
  mutate the database, but all returned data values stay immutable;
* durability through atomic file replacement — write to a temp file,
  ``flush`` + ``fsync`` it (and the containing directory on POSIX),
  then ``os.replace`` — so a crash never leaves a half-written or
  silently empty database behind. Two on-disk formats:
  ``format="json"`` (the tagged-JSON codec, human-greppable) and
  ``format="binary"`` (:mod:`repro.binary_codec` — deduplicated value
  table, streamed data, and the key-index signatures persisted
  alongside the data so a cold :meth:`load` starts key-index-warm: the
  saved buckets are validated against a content digest of the dataset
  section and only rebuilt on mismatch);
* ``merge_in`` ingests another source as a net
  :class:`~repro.store.bulk.UnionDiff` against the maintained index,
  so an ingest touches only the data the ``∪K`` step actually
  changed;
* **incremental durability** through a write-ahead log
  (:mod:`repro.store.wal`): a store opened with :meth:`Database.open`
  appends every committed batch's net diff to an fsynced log *before*
  publishing the new state, replays log-on-top-of-snapshot when
  reopening (torn tails truncated, never fatal), compacts snapshot +
  log past a size threshold on a background thread, and recovers to
  any logged generation (:meth:`Database.recover_to`);
* **group commit**, the one way a durable commit reaches the log:
  each committer encodes its frame body *outside* the writer lock,
  registers a :class:`~repro.store.wal.CommitTicket` and blocks on the
  :class:`~repro.store.wal.GroupCommitter` barrier; one elected
  leader writes and fsyncs the whole batch with a single syscall pair
  and publishes the batch's final state, so the dominant fsync cost
  amortizes across every writer in the batch. A lone writer leads its
  own one-frame batch (``commit_interval`` coalesces even
  non-overlapping writers, and :meth:`Database.apply_many` lets bulk
  ingest ride one frame).

The memory-model assumption is CPython's: publishing a fully built
state record by assigning one attribute is atomic under the GIL, and
every reader works off the single record it read first. DESIGN.md
("Concurrency and caching") spells out the protocol.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import warnings
from pathlib import Path
from typing import IO, Callable, Collection, Hashable, Iterable, Iterator

from repro import binary_codec
from repro.binary_codec import Decoder, Encoder
from repro.core.compatibility import check_key
from repro.core.data import Data, DataSet
from repro.core.errors import CodecError
from repro.core.intern import intern_data
from repro.core.objects import Marker, SSObject, Tuple
from repro.json_codec.codec import decode_dataset, encode_dataset
from repro.store.bulk import union_diff
from repro.store.cache import LRUCache, QueryResultCache
from repro.store.fsutil import fsync_directory
from repro.store.index import KeyIndex
from repro.store.persistent import PMap, PSet
from repro.store.wal import (
    CommitTicket,
    GroupCommitter,
    WalFrame,
    WriteAheadLog,
    _maybe_crash,
    encode_frame_body,
    scan_wal,
    wal_path,
)

__all__ = ["Database", "DatabaseView"]

#: Format marker written into every JSON database file.
_FORMAT = "repro-database"
_VERSION = 1

#: Magic prefix of binary database files (followed by the container
#: version, the embedded codec version, a flags varint and — from
#: container version 2 — the snapshot's generation varint).
_BINARY_MAGIC = b"RPDB"
_BINARY_VERSION = 3

#: Container versions this build can read (1 has no generation field;
#: 1 and 2 carry an attribute-index section before the key section,
#: so only their data is read and their key indexes rebuild lazily).
_BINARY_READABLE = (1, 2, 3)

#: Container flag: the store interns its objects.
_FLAG_INTERNED = 1

#: Signature kinds in the persisted key-index section.
_SIG_WHOLE = 0
_SIG_TUPLE = 1

#: Parsed textual queries cached per database (plans and compiled
#: predicates live on the cached condition objects).
_QUERY_CACHE_SIZE = 128

#: Default capacity of the per-generation query-result cache.
_RESULT_CACHE_SIZE = 256

#: Default WAL size (bytes) past which a durable database compacts:
#: the snapshot is rewritten at the current generation and the log is
#: truncated to the frames committed after it.
_COMPACT_BYTES = 4 << 20


class _DBState:
    """One published generation: data plus every derived index.

    Instances are immutable once published (the only post-publish
    writes are the benign lazy :meth:`dataset` and :meth:`columns`
    memos); a single read of ``Database._state`` therefore pins a
    complete, mutually consistent view of the store.

    ``data`` is a :class:`~repro.store.persistent.PSet` and
    ``marker_index`` a :class:`~repro.store.persistent.PMap` of
    ``marker -> set of data``: a successor shares all but the buckets
    its delta touches, so publishing a generation costs the delta plus
    one bucket table, not a copy of the store (DESIGN.md §7).
    """

    __slots__ = ("generation", "data", "marker_index", "key_indexes",
                 "_dataset", "_columns")

    def __init__(self, generation: int, data: PSet,
                 marker_index: PMap,
                 key_indexes: dict[frozenset[str], KeyIndex],
                 dataset: DataSet | None = None,
                 columns=None):
        self.generation = generation
        self.data = data
        self.marker_index = marker_index
        self.key_indexes = key_indexes
        self._dataset = dataset
        self._columns = columns

    def dataset(self) -> DataSet:
        """The frozen :class:`DataSet`, built on first use per
        generation.

        Only the paths that need the whole set ask for it: row scans,
        ``naive=True`` and snapshots. The planned query
        path takes its size from ``len(data)`` and passes this bound
        method along unresolved, like :meth:`columns`, so a columnar
        read never pays the O(n) freeze. The memo assignment races
        benignly: two readers may both build structurally equal sets,
        one wins, both are correct.
        """
        cached = self._dataset
        if cached is None:
            cached = DataSet(self.data)
            self._dataset = cached
        return cached

    def columns(self):
        """The generation's columnar shredding, built on first use.

        Like :meth:`dataset`, the memo races benignly. Generations
        created by ``_apply`` inherit a copy-on-write ``patched()``
        store instead of rebuilding, so once any generation has paid
        the shred, every successor updates incrementally.
        """
        cached = self._columns
        if cached is None:
            from repro.store.columnar import ColumnStore

            cached = ColumnStore.build(self.dataset())
            self._columns = cached
        return cached

    def with_key_indexes(self, key_indexes) -> "_DBState":
        """Same generation, one more lazily built key index."""
        return _DBState(self.generation, self.data, self.marker_index,
                        key_indexes, self._dataset, self._columns)


def _build_marker_index(data: Collection[Data]) -> PMap:
    """marker → the set of data whose marker part mentions it.

    The (marker, datum) pairs go straight into a table sized for one
    key per pair (:meth:`PMap.grouped`). A plain marker, the common
    case, skips building ``Data.markers``.
    """
    pairs = [(datum.marker, datum) for datum in data
             if type(datum.marker) is Marker]
    pairs += [(marker, datum) for datum in data
              if type(datum.marker) is not Marker
              for marker in datum.markers]
    return PMap.grouped(pairs, len(pairs))


def _patched_markers(marker_index: PMap, removed: Iterable[Data],
                     added: Iterable[Data]) -> PMap:
    """Copy-on-write marker-index patch: each touched marker gets a new
    set (published sets are never mutated), everything else is shared
    through the :class:`PMap` edit."""
    index = marker_index.edit()
    for datum in removed:
        for marker in datum.markers:
            entries = index.get(marker)
            if entries is None or datum not in entries:
                continue
            if len(entries) == 1:
                del index[marker]
            else:
                index[marker] = entries - {datum}
    for datum in added:
        for marker in datum.markers:
            entries = index.get(marker)
            index[marker] = ({datum} if entries is None
                             else entries | {datum})
    return index.finish()


def _patched_data(data: PSet, removed: Iterable[Data],
                  added: Iterable[Data]) -> PSet:
    """``(data - removed) | added`` sharing every untouched bucket."""
    edit = data.edit()
    for datum in removed:
        edit.discard(datum)
    for datum in added:
        edit.add(datum)
    return edit.finish()


def _net_delta(data: PSet, removed: Iterable[Data],
               added: Collection[Data],
               ) -> tuple[tuple[Data, ...], tuple[Data, ...]]:
    """The net ``(removed, added)`` of one write batch against ``data``.

    A datum listed on both sides stays; only present data are removed
    and only absent data are added. Each side keeps the iteration order
    of its argument, which the index patches and ``PSet`` fills follow.
    A set ``added`` answers the both-sides test as it is; any other
    collection is copied into one first.
    """
    listed = added if isinstance(added, (set, frozenset)) else set(added)
    return (tuple(datum for datum in removed
                  if datum in data and datum not in listed),
            tuple(datum for datum in added if datum not in data))


class Database:
    """An updatable, persistable collection of semistructured data.

    With ``intern_objects=True`` (the default) every stored datum is
    hash-consed on the way in (:mod:`repro.core.intern`): structurally
    equal objects share one canonical representative, so key-index
    signatures, compatibility checks and Definition 12 merges all hit
    the identity-keyed memo. Interning preserves equality, so
    lookups and results are unchanged — only faster. Pass
    ``intern_objects=False`` to store data exactly as given.

    The store is safe for concurrent use: reads (queries, lookups,
    snapshots, views) are lock-free against the last published
    generation, writes serialize behind an internal writer lock.
    ``result_cache_size`` bounds the epoch-invalidated query-result
    cache (``0`` disables it). ``index_paths`` names attribute paths
    whose column indexes :meth:`create_index` builds up front.
    """

    def __init__(self, data: Iterable[Data] = (), *,
                 intern_objects: bool = True,
                 index_paths: Iterable[str] = (),
                 result_cache_size: int = _RESULT_CACHE_SIZE):
        self._intern = intern_objects
        initial = set(self._canonical(datum) for datum in data)
        state = _DBState(
            generation=0,
            data=PSet(initial),
            marker_index=_build_marker_index(initial),
            key_indexes={},
        )
        self._init_runtime(state, result_cache_size)
        for path in index_paths:
            self.create_index(path)

    def _init_runtime(self, state: _DBState,
                      result_cache_size: int = _RESULT_CACHE_SIZE) -> None:
        """Attach the mutable runtime (locks, caches) around a state."""
        self._lock = threading.RLock()
        self._parsed_cache = LRUCache(_QUERY_CACHE_SIZE)
        self._results = QueryResultCache(result_cache_size)
        # Durability runtime: populated by Database.open; a plain
        # in-memory database never touches the log.
        self._wal: WriteAheadLog | None = None
        self._path: Path | None = None
        self._snapshot_format = "binary"
        self._compact_bytes = _COMPACT_BYTES
        self._auto_compact = False
        self._compact_lock = threading.Lock()
        self._compact_spawn = threading.Lock()
        self._compact_thread: threading.Thread | None = None
        # Group-commit runtime. ``_publish_lock`` keeps the pair
        # "(log contents, published state)" mutually consistent: every
        # append+publish — a leader's batch, a compaction's pin and
        # swap — happens inside it. Lock order is strictly
        # ``_lock → _publish_lock``; nothing acquires the writer lock
        # while holding the publish lock.
        self._publish_lock = threading.Lock()
        self._committer: GroupCommitter | None = None
        self._state = state
        # The head of the commit chain: the latest *built* state,
        # published or not. Writers extend the chain off ``_head``
        # under the writer lock; the batch leader publishes to
        # ``_state`` once the frames are durable. With no pending
        # tickets the two are the same object.
        self._head = state

    def _canonical(self, datum: Data) -> Data:
        return intern_data(datum) if self._intern else datum

    # -- basic collection protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self._state.data)

    def __contains__(self, datum: object) -> bool:
        return datum in self._state.data

    def __iter__(self) -> Iterator[Data]:
        return iter(self.snapshot())

    @property
    def generation(self) -> int:
        """The published generation; bumped by every effective write."""
        return self._state.generation

    def snapshot(self) -> DataSet:
        """An immutable view of the current contents.

        The :class:`DataSet` is built on first use and kept for the
        generation: the first ``snapshot()`` (or row scan or
        ``naive=True`` read) after a write pays the O(n) freeze once,
        and columnar queries never pay it.
        """
        return self._state.dataset()

    def view(self) -> "DatabaseView":
        """Pin the current generation for a consistent multi-read.

        The view serves queries, lookups and snapshots against exactly
        the state published at creation time, unaffected by concurrent
        writers — the cheap MVCC read transaction.
        """
        return DatabaseView(self, self._state)

    # -- internal state for compatibility helpers ----------------------------

    @property
    def _data(self) -> PSet:
        return self._state.data

    @property
    def _key_indexes(self) -> dict[frozenset[str], KeyIndex]:
        return self._state.key_indexes

    # -- updates ---------------------------------------------------------------

    def _precompute(self, removed: Iterable[Data],
                    added: Iterable[Data]):
        """Optimistically compute the net delta and encode the frame
        body *outside* the writer lock.

        The body (one codec record per datum) is the expensive part of
        a commit; the delta is derived against the head state as of
        this instant and encoded speculatively against the log table,
        with that head pinned in the result. Under the lock,
        :meth:`_apply_locked` reuses delta and body wholesale when the
        head is still the same object — the common, uncontended case —
        and falls back to recomputing both when a concurrent writer
        moved the chain. The body stays valid however many frames
        become durable meanwhile (its refs only reach the table entries
        it saw); a compaction that replaces the table makes the log
        re-encode it at append time.
        """
        head = self._head
        delta_removed, delta_added = _net_delta(head.data, set(removed),
                                                set(added))
        if not delta_removed and not delta_added:
            return None
        return (head, delta_removed, delta_added,
                encode_frame_body(delta_removed, delta_added,
                                  table=self._wal.table))

    def _apply_locked(self, removed: Iterable[Data],
                      added: Iterable[Data], pre=None,
                      ) -> tuple[tuple[Data, ...], tuple[Data, ...],
                                 CommitTicket | None]:
        """Extend the commit chain by one write batch (writer lock
        held); returns ``(net removed, net added, ticket)``.

        The next state is assembled copy-on-write off the chain head.
        How it becomes visible depends on whether a log is attached:

        * transient (no log): cache epoch committed and the state
          published inline;
        * durable: the frame is encoded (reusing ``pre`` from
          :meth:`_precompute` when the delta still matches), a
          :class:`CommitTicket` is registered, and the *caller* must
          block on the committer barrier via :meth:`_finish` — after
          releasing the writer lock, so a waiting follower never
          stalls other writers' chain building.
        """
        state = self._head
        if pre is not None and pre[0] is state:
            # Uncontended fast path: the head the speculative encode
            # ran against is still the head, so its delta (and frame
            # body) are exact — nothing to recompute under the lock.
            _, delta_removed, delta_added, body = pre
        else:
            body = None
            delta_removed, delta_added = _net_delta(
                state.data, set(removed), set(added))
        if not delta_removed and not delta_added:
            return (), (), None
        new_data = _patched_data(state.data, delta_removed, delta_added)
        # The columnar shredding patches copy-on-write like every other
        # index — but only if some generation already built it; an
        # unshreded store stays lazy (columns=None) across writes.
        prev_columns = state._columns
        next_state = _DBState(
            generation=state.generation + 1,
            data=new_data,
            marker_index=_patched_markers(
                state.marker_index, delta_removed, delta_added),
            key_indexes={
                key: index.patched(delta_removed, delta_added)
                for key, index in state.key_indexes.items()},
            columns=(None if prev_columns is None
                     else prev_columns.patched(delta_removed,
                                               delta_added)),
        )
        cache_step = (state.generation, next_state.generation,
                      delta_removed + delta_added)
        log = self._wal
        if log is None:
            self._results.commit(*cache_step)
            self._head = next_state
            self._state = next_state
            return delta_removed, delta_added, None
        # The leader stamps the generation onto the speculatively
        # encoded body (fast path above); a contended commit pays the
        # encode here, under the lock.
        if body is None:
            body = encode_frame_body(delta_removed, delta_added,
                                     table=log.table)
        ticket = CommitTicket(next_state.generation, body,
                              state=next_state, cache_step=cache_step)
        self._head = next_state
        self._committer.register(ticket)
        return delta_removed, delta_added, ticket

    def _finish(self, outcome) -> tuple[tuple[Data, ...],
                                        tuple[Data, ...]]:
        """Block until an :meth:`_apply_locked` outcome is durable.

        Must be called *without* the writer lock: a group-commit
        follower parks here until its batch's fsync retires (or
        re-raises the batch's append error), and holding the writer
        lock across that wait would both serialize unrelated writers
        and deadlock against the leader's abort path.
        """
        delta_removed, delta_added, ticket = outcome
        if ticket is not None:
            self._committer.commit(ticket)
        return delta_removed, delta_added

    def _apply(self, removed: Iterable[Data], added: Iterable[Data],
               ) -> tuple[tuple[Data, ...], tuple[Data, ...]]:
        """Apply one write batch; returns the net ``(removed, added)``.

        The narrowed write path: the frame body is encoded outside the
        writer lock (:meth:`_precompute`), only the chain extension —
        diff renormalization against the head, copy-on-write index
        patching, ticket registration — serializes under the lock
        (:meth:`_apply_locked`), and the durability wait happens after
        the lock is released (:meth:`_finish`). By the time this
        returns the write is durable to the configured degree and
        published, and no reader can ever observe a generation whose
        frame is not on disk.
        """
        pre = None
        if self._wal is not None:
            pre = self._precompute(removed, added)
        with self._lock:
            outcome = self._apply_locked(removed, added, pre)
        return self._finish(outcome)

    def _on_batch_durable(self, batch: "list[CommitTicket]") -> None:
        """Publish one durable batch (leader-only, inside the publish
        lock, after the batch's single fsync retired).

        Cache epochs advance per ticket in generation order, then the
        batch's final state is published with one assignment — a
        reader either sees the pre-batch generation or the post-batch
        one with every cache entry already committed past it.
        """
        for ticket in batch:
            try:
                self._results.commit(*ticket.cache_step)
            except BaseException:  # pragma: no cover - defensive
                # The cache is an optimization; never let it block the
                # publish of frames that are already durable.
                self._results.clear()
        self._state = batch[-1].state
        if self._auto_compact and self._wal.size >= self._compact_bytes:
            self._spawn_compaction()

    def _on_batch_abort(self, batch: "list[CommitTicket]",
                        exc: BaseException) -> None:
        """Reset the commit chain after a failed batch append.

        The leader calls this *outside* the publish lock, so taking
        the writer lock here is safe. Every state built on top of the
        failed batch is abandoned: the head snaps back to the last
        published state, and tickets still queued behind the batch are
        failed too — their generations can no longer reach the log.
        """
        with self._lock:
            self._head = self._state
            doomed = self._committer.drain_pending()
        self._committer.fail(doomed, exc)

    def insert(self, datum: Data) -> bool:
        """Insert a datum; returns ``False`` when already present."""
        datum = self._canonical(datum)
        _, added = self._apply((), (datum,))
        return bool(added)

    def insert_all(self, data: Iterable[Data]) -> int:
        """Insert many; returns how many were new.

        One batch, one generation: the whole insert publishes a single
        new state and pays cache invalidation once, not per datum.
        """
        batch = [self._canonical(datum) for datum in data]
        _, added = self._apply((), batch)
        return len(added)

    def apply_many(self, removed: Iterable[Data] = (),
                   added: Iterable[Data] = (),
                   ) -> tuple[int, int]:
        """Apply one bulk batch — removals and insertions together —
        as a single commit; returns the net ``(removed, added)``
        counts.

        The whole batch is one generation bump, one WAL frame and one
        fsync, so bulk ingest does not pay the commit protocol per
        datum. Data already absent (for removals) or present (for
        insertions) fall out of the net diff; a batch whose net diff
        is empty publishes nothing.

        Removals are canonicalized like insertions, so a removed datum
        is the stored instance and its frame record refers to the log
        table instead of re-encoding the datum.
        """
        batch = tuple(self._canonical(datum) for datum in added)
        delta_removed, delta_added = self._apply(
            tuple(self._canonical(datum) for datum in removed), batch)
        return len(delta_removed), len(delta_added)

    def remove(self, datum: Data) -> bool:
        """Remove a datum; returns ``False`` when absent."""
        removed, _ = self._apply((self._canonical(datum),), ())
        return bool(removed)

    def update(self, marker: Marker | str,
               transform: "Callable[[Data], Data]") -> int:
        """Rewrite every datum carrying ``marker`` through ``transform``.

        Returns how many data were actually changed. ``transform``
        receives each datum and returns its replacement (data are
        immutable, so updates are replacements). The whole rewrite is
        one atomic batch: readers observe either every replacement or
        none.
        """
        if isinstance(marker, str):
            marker = Marker(marker)
        with self._lock:
            # Read-compute-write against the chain head, atomically
            # with the chain extension: pending (registered, not yet
            # published) commits are visible to the transform.
            head = self._head
            targets = list(head.marker_index.get(marker, ()))
            removals: list[Data] = []
            additions: list[Data] = []
            changed = 0
            for datum in targets:
                replacement = transform(datum)
                if not isinstance(replacement, Data):
                    raise CodecError(
                        "update transform must return a Data value")
                if replacement != datum:
                    removals.append(datum)
                    additions.append(self._canonical(replacement))
                    changed += 1
            outcome = self._apply_locked(removals, additions)
        self._finish(outcome)
        return changed

    def set_attribute(self, marker: Marker | str, label: str,
                      value: SSObject) -> int:
        """Set one tuple attribute on every datum carrying ``marker``.

        Binding to ``⊥`` removes the attribute. Non-tuple objects are
        left untouched. Returns the number of data changed.
        """

        def rewrite(datum: Data) -> Data:
            if isinstance(datum.object, Tuple):
                return Data(datum.marker,
                            datum.object.with_field(label, value))
            return datum

        return self.update(marker, rewrite)

    # -- lookups ----------------------------------------------------------------

    def by_marker(self, marker: Marker | str) -> DataSet:
        """All data whose marker part mentions ``marker``."""
        if isinstance(marker, str):
            marker = Marker(marker)
        return DataSet(self._state.marker_index.get(marker, set()))

    def _key_index(self, key: frozenset[str],
                   pinned: _DBState | None = None) -> KeyIndex:
        """The key index of the published state, built and published
        on first use — or of a ``pinned`` state, which gets a private
        build once a writer has moved past its data (no other
        generation's index may answer for it)."""
        state = self._state if pinned is None else pinned
        index = state.key_indexes.get(key)
        if index is not None:
            return index
        with self._lock:
            if pinned is not None and pinned.data is not self._state.data:
                return KeyIndex(pinned.data, key)
            # Re-check: another thread may have built it meanwhile.
            state = self._state
            index = state.key_indexes.get(key)
            if index is None:
                index = KeyIndex(state.data, key)
                key_indexes = dict(state.key_indexes)
                key_indexes[key] = index
                # Same generation: adding an index changes no result.
                replacement = state.with_key_indexes(key_indexes)
                if self._head is state:
                    self._head = replacement
                with self._publish_lock:
                    # Identity-checked store-back: a group-commit
                    # leader may have published a newer generation
                    # while the index was building — never regress
                    # the published state to cache an index on it.
                    if self._state is state:
                        self._state = replacement
            return index

    def _head_key_index(self, key: frozenset[str]) -> KeyIndex:
        """The key index for the *chain head* (writer lock held).

        Writers that diff against the head (``merge_in``) need an
        index consistent with pending commits, not just the published
        state; head indexes are patched forward per commit, so once
        built here the index stays warm along the whole chain.
        """
        head = self._head
        index = head.key_indexes.get(key)
        if index is not None:
            return index
        index = KeyIndex(head.data, key)
        key_indexes = dict(head.key_indexes)
        key_indexes[key] = index
        replacement = head.with_key_indexes(key_indexes)
        self._head = replacement
        with self._publish_lock:
            if self._state is head:
                self._state = replacement
        return index

    def compatible_with(self, datum: Data,
                        key: Iterable[str]) -> DataSet:
        """All stored data compatible with ``datum`` wrt ``key``
        (index-accelerated)."""
        return self._compatible_at(None, datum, key)

    def _compatible_at(self, pinned: _DBState | None, datum: Data,
                       key: Iterable[str]) -> DataSet:
        index = self._key_index(check_key(key), pinned)
        return DataSet(index.partners(datum))

    # -- column indexes -------------------------------------------------------

    def create_index(self, path: str) -> None:
        """Build an attribute path's column indexes now.

        Queries answer ``Eq`` and ordered leaves on scalar entries from
        the path column's eq-index, and every value leaf on or-valued
        and set-valued entries from its possible-value index; a query
        otherwise builds each on first use. This builds both on the
        chain head's column store (shredding the store first if no
        generation has), so the first query on the path does not pay
        the build. Successors carry the built indexes across writes;
        a compacting rebuild of the column store, which renumbers
        positions, drops them, and the next query rebuilds. A path no
        row reaches has no column, and nothing to build.

        The cost is one bitset per distinct value: small on a
        low-cardinality path, but a unique-valued path holds one
        bitset per row (DESIGN.md §2).
        """
        from repro.query.paths import parse_path

        steps = parse_path(path)
        with self._lock:
            # The head, so the carry starts from pending commits too.
            column = self._head.columns().column(steps)
            if column is not None:
                column.eq_index()
                column.possible_index()

    # -- queries -----------------------------------------------------------------

    def _parsed(self, text: str):
        def parse():
            from repro.query.parser import parse_query_spec

            return parse_query_spec(text)

        return self._parsed_cache.get_or_add(text, parse)

    def _cache_profile(self, spec) -> tuple[frozenset, bool]:
        """``(footprint, safe)`` of a parsed query for the result cache.

        A ``select`` without a ``where`` matches everything — every
        write changes it, so it is never re-taggable. Aggregate specs
        additionally fold their aggregate and group paths into the
        footprint: the condition paths alone already gate which rows a
        delta can add or drop, but the wider footprint keeps the entry
        honest if the profile rules are ever loosened.
        """
        if spec.condition is None:
            return frozenset(), False
        from repro.query.compile import invalidation_profile

        paths, safe = invalidation_profile(spec.condition)
        if spec.aggregates is not None:
            from repro.query.paths import parse_path

            widened = set(paths)
            for agg in spec.aggregates:
                if agg.path is not None:
                    widened.add(agg.steps)
            if spec.group is not None:
                widened.add(parse_path(spec.group))
            paths = frozenset(widened)
        return paths, safe

    def _query_at(self, state: _DBState, text: str, *,
                  naive: bool = False) -> DataSet:
        """Execute a textual query against one pinned state."""
        spec = self._parsed(text)
        if spec.is_aggregate:
            return self._aggregate_at(state, text, spec, naive=naive)
        if naive:
            # The definitional oracle: no cache, no planner.
            return spec.query(state.dataset()).run(naive=True)
        cached = self._results.lookup(text, state.generation)
        if cached is not None:
            return cached
        # ``dataset`` and ``columns`` stay bound methods: the frozen set
        # is only built for a row scan, and the shredding (once per
        # lineage) only if the planner picks the columnar strategy for
        # this condition.
        result = spec.query(state.dataset, columns=state.columns,
                            size=len(state.data)).run()
        paths, safe = self._cache_profile(spec)
        self._results.store(text, state.generation, result, paths, safe)
        return result

    def _aggregate_at(self, state: _DBState, text: str, spec, *,
                      naive: bool = False) -> dict:
        """Execute a textual aggregate query against one pinned state.

        Routes like :meth:`_query_at`: result-cached per generation,
        ``naive=True`` is the uncached per-row oracle.
        """
        if naive:
            return spec.run_aggregate(state.dataset(), naive=True)
        cached = self._results.lookup(text, state.generation)
        if cached is not None:
            return cached
        result = spec.run_aggregate(state.dataset,
                                    columns=state.columns,
                                    size=len(state.data))
        paths, safe = self._cache_profile(spec)
        self._results.store(text, state.generation, result, paths, safe)
        return result

    def query(self, text: str, *, naive: bool = False) -> DataSet:
        """Run a textual query (``select ... where ...``) on the
        current contents.

        Parsed queries are cached by text (a true LRU), results are
        cached per generation with epoch invalidation, and execution
        routes through the planner with this database's column store
        attached. ``naive=True`` forces the definitional full scan (the
        oracle), bypassing every cache.
        """
        return self._query_at(self._state, text, naive=naive)

    def explain(self, text: str, *, analyze: bool = False):
        """The :class:`~repro.query.planner.Plan` for a textual query.

        The plan names the physical strategy (``columnar`` /
        ``row-scan``) and the planner's estimated row count;
        ``analyze=True`` also executes it and reports ``actual_rows``.
        Aggregate queries return an
        :class:`~repro.query.planner.AggregatePlan` wrapping the
        selection plan.
        """
        state = self._state
        spec = self._parsed(text)
        query = spec.query(state.dataset, columns=state.columns,
                           size=len(state.data))
        if spec.is_aggregate:
            return query.explain_aggregate(spec.aggregates, spec.group,
                                           analyze=analyze)
        return query.explain(analyze=analyze)

    # -- joins -------------------------------------------------------------------

    def _join_query(self, state: _DBState, left_text: str,
                    right_text: str, on):
        from repro.core.errors import QueryError
        from repro.query.join import JoinQuery

        left_spec = self._parsed(left_text)
        right_spec = self._parsed(right_text)
        if left_spec.is_aggregate or right_spec.is_aggregate:
            raise QueryError("join inputs must be selection queries, "
                             "not aggregates")
        size = len(state.data)
        left = left_spec.query(state.dataset, columns=state.columns,
                               size=size)
        right = right_spec.query(state.dataset, columns=state.columns,
                                 size=size)
        return JoinQuery(left, right, on), left_spec, right_spec

    def join_query(self, left_text: str, right_text: str,
                   on: "str | tuple[str, ...]", *,
                   naive: bool = False) -> list:
        """Join two textual selections of this store on key path(s).

        Each text is a ``select`` query whose *condition* picks one
        join input (both read the same pinned generation — the common
        self-join-across-sources shape of the paper's multi-source
        data). Returns :class:`~repro.query.join.JoinRow` pairs in
        canonical order; ``maybe`` rows matched only under some
        resolution of an or-value / ⊥. Results are cached per
        generation under a composite key whose footprint spans *both*
        inputs, so a write to either side — probe side included —
        invalidates correctly. ``naive=True`` runs the nested-loop
        oracle, uncached.
        """
        state = self._state
        join, left_spec, right_spec = self._join_query(
            state, left_text, right_text, on)
        if naive:
            return join.rows(naive=True)
        key = (f"join on {', '.join(join._on)}: "
               f"[{left_text}] [{right_text}]")
        cached = self._results.lookup(key, state.generation)
        if cached is not None:
            return cached
        rows = join.rows()
        from repro.query.compile import join_invalidation_profile
        from repro.query.paths import parse_path

        paths, safe = join_invalidation_profile(
            left_spec.condition, right_spec.condition,
            tuple(parse_path(path) for path in join._on))
        self._results.store(key, state.generation, rows, paths, safe)
        return rows

    def explain_join(self, left_text: str, right_text: str,
                     on: "str | tuple[str, ...]", *,
                     analyze: bool = False):
        """The :class:`~repro.query.planner.JoinPlan` for
        :meth:`join_query` (build/probe sides, strategy, estimated vs
        actual rows per side)."""
        join, _, _ = self._join_query(self._state, left_text,
                                      right_text, on)
        return join.explain(analyze=analyze)

    def cache_stats(self) -> dict[str, int]:
        """Result-cache counters (hits/misses/retags/evictions)."""
        return self._results.stats()

    def close(self) -> None:
        """Release the write-ahead log.

        A running background compaction is joined first so the log and
        snapshot are left in a consistent resting state. Closing is
        safe at any time: every committed generation is already on
        disk, so close() adds no durability of its own.
        """
        thread = self._compact_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=60)
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- merging ------------------------------------------------------------------

    def merge_in(self, source: DataSet, key: Iterable[str]) -> int:
        """Union a new source into the database (Definition 12).
        Returns the resulting size.

        The step is applied as a net diff: only the data the ``∪K``
        actually replaced or introduced touch the marker index and the
        maintained key indexes, and the whole step is one atomic batch
        — concurrent readers see the store before or after the merge,
        never partway.
        """
        checked = check_key(key)
        if self._intern:
            # The raw element set: interning only fills a set, and the
            # canonical order would sort by structural_key per datum.
            source = DataSet(intern_data(datum) for datum in (
                source._data if isinstance(source, DataSet) else source))
        elif not isinstance(source, DataSet):
            source = DataSet(source)
        with self._lock:
            # Diff against the chain head so pending commits are part
            # of the union, atomically with the chain extension.
            head = self._head
            data = head.data
            diff = union_diff(data, self._head_key_index(checked), source)
            outcome = self._apply_locked(
                diff.removed,
                tuple(self._canonical(datum) for datum in diff.added))
        delta_removed, delta_added = self._finish(outcome)
        return len(data) - len(delta_removed) + len(delta_added)

    # -- incremental durability --------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log (``None`` unless opened with
        :meth:`open`)."""
        return self._wal

    @classmethod
    def open(cls, path: str | Path, *,
             intern_objects: bool = True,
             index_paths: Iterable[str] = (),
             result_cache_size: int = _RESULT_CACHE_SIZE,
             compact_bytes: int = _COMPACT_BYTES,
             auto_compact: bool = True,
             fsync: bool = True,
             commit_interval: float = 0.0) -> "Database":
        """Open a durable database: snapshot plus write-ahead log.

        ``path`` is the snapshot file (created on first compaction if
        missing); the log lives beside it at ``<path>.wal``. Recovery
        replays the log's longest intact frame prefix on top of the
        snapshot — a torn or corrupt tail is truncated, never fatal —
        and lands on exactly the last durably committed generation.
        From then on every committed write batch is appended to the
        log and fsynced *before* the new generation is published, so a
        crash (power loss, SIGKILL) at any instant loses at most the
        single commit whose frame never reached the disk.

        Once the log exceeds ``compact_bytes``, a background thread
        rewrites the snapshot at the current generation and truncates
        the log (``auto_compact=False`` leaves that to explicit
        :meth:`compact` calls). ``fsync=False`` trades the per-commit
        fsync away for speed (contents survive process death but not
        power loss). :meth:`load` reads the snapshot alone, with no
        log attached.

        Commits go through the :class:`~repro.store.wal.GroupCommitter`:
        concurrent writers' frames are batched and fsynced by one
        elected leader with a single syscall pair, amortizing the
        dominant commit cost, and a lone writer leads its own
        one-frame batch. ``commit_interval`` (seconds, at most 1.0)
        makes a fresh leader linger before draining the queue so even
        writers that never overlap in time coalesce into one batch —
        each commit then waits up to the interval, in exchange for
        far fewer fsyncs under a steady trickle of writers.

        ``intern_objects`` applies to a freshly created store; an
        existing snapshot keeps its own interning flag.
        ``result_cache_size`` sizes the query-result cache and
        ``index_paths`` are built after recovery (via
        :meth:`create_index`), for a fresh store and an existing
        snapshot alike.
        """
        target = Path(path)
        if target.exists():
            database = cls.load(target)
            database._results = QueryResultCache(result_cache_size)
            with open(target, "rb") as probe:
                magic = probe.read(len(_BINARY_MAGIC))
            snapshot_format = ("binary" if magic == _BINARY_MAGIC
                               else "json")
        else:
            database = cls((), intern_objects=intern_objects,
                           result_cache_size=result_cache_size)
            snapshot_format = "binary"
        log_path = wal_path(target)
        scan = scan_wal(log_path, intern=database._intern)
        if scan.exists and scan.header_valid:
            if (scan.base_generation or 0) > database.generation:
                raise CodecError(
                    f"write-ahead log {log_path} starts at generation "
                    f"{scan.base_generation}, ahead of the snapshot "
                    f"(generation {database.generation})")
            database._replay_frames(scan.frames)
        log = WriteAheadLog(log_path,
                            base_generation=database.generation,
                            interned=database._intern, fsync=fsync,
                            scan=scan)
        if log.last_generation != database.generation:
            # The snapshot is ahead of every logged frame (an
            # out-of-band save, or a log from an older incarnation):
            # the frames are already reflected, and the next append
            # must chain from the snapshot's generation.
            log.rebase(database.generation)
        database._path = target
        database._snapshot_format = snapshot_format
        database._compact_bytes = compact_bytes
        database._auto_compact = auto_compact
        database._wal = log
        database._committer = GroupCommitter(
            log, commit_interval=commit_interval,
            commit_lock=database._publish_lock,
            on_durable=database._on_batch_durable,
            on_abort=database._on_batch_abort)
        for indexed in index_paths:
            database.create_index(indexed)
        return database

    @classmethod
    def recover_to(cls, path: str | Path,
                   generation: int | None = None) -> "Database":
        """Point-in-time recovery: the store as of one logged
        generation.

        Replays the write-ahead log beside ``path`` only up to
        ``generation`` (default: the last intact frame) and returns a
        plain in-memory database pinned there — no log is attached, so
        inspecting (or :meth:`save`-ing) the historical state never
        forks the durable history. Raises :class:`CodecError` for a
        generation older than the snapshot (compaction discarded its
        history) or newer than anything logged.
        """
        target = Path(path)
        database = cls.load(target) if target.exists() else cls()
        scan = scan_wal(wal_path(target), intern=database._intern)
        frames: list[WalFrame] = []
        if scan.exists and scan.header_valid:
            if (scan.base_generation or 0) > database.generation:
                raise CodecError(
                    f"write-ahead log starts at generation "
                    f"{scan.base_generation}, ahead of the snapshot "
                    f"(generation {database.generation})")
            frames = scan.frames
        top = max(database.generation,
                  frames[-1].generation if frames else 0)
        if generation is None:
            generation = top
        if generation < database.generation:
            raise CodecError(
                f"generation {generation} predates the snapshot "
                f"(generation {database.generation}); compaction "
                f"discarded its history")
        if generation > top:
            raise CodecError(
                f"generation {generation} was never logged "
                f"(latest recoverable is {top})")
        database._replay_frames(frames, upto=generation)
        return database

    def _replay_frames(self, frames: Iterable[WalFrame],
                       upto: int | None = None) -> None:
        """Rebuild this store's state from logged frames (open-time
        only — no locks, no cache commits, no log appends).

        Replay is idempotent: each frame's diff is renormalized
        against the running contents, so frames the snapshot already
        contains (the crash-mid-compaction window) fall out as no-ops
        while the final generation still lands on the last frame
        replayed. Key indexes are patched copy-on-write per frame,
        keeping a key-index-warm snapshot load warm through replay.
        """
        state = self._state
        data = state.data
        marker_index = state.marker_index
        key_indexes = state.key_indexes
        generation = state.generation
        changed = False
        for frame in frames:
            if upto is not None and frame.generation > upto:
                break
            generation = max(generation, frame.generation)
            delta_removed, delta_added = _net_delta(data, frame.removed,
                                                    frame.added)
            if not delta_removed and not delta_added:
                continue
            changed = True
            data = _patched_data(data, delta_removed, delta_added)
            marker_index = _patched_markers(marker_index, delta_removed,
                                            delta_added)
            key_indexes = {
                key: index.patched(delta_removed, delta_added)
                for key, index in key_indexes.items()}
        if not changed and generation == state.generation:
            return
        self._state = _DBState(
            generation=generation,
            data=data,
            marker_index=marker_index,
            key_indexes=key_indexes,
            dataset=None if changed else state._dataset,
        )
        self._head = self._state

    def compact(self) -> None:
        """Rewrite the snapshot at the current generation and truncate
        the log to the frames committed after it.

        Crash-safe at every instant: the new snapshot temp and the new
        log temp are both fsynced before either replace; the snapshot
        is replaced *first*, so a crash between the two replaces
        leaves new-snapshot + old-log — and replaying the old log's
        frames over the new snapshot is a no-op by idempotent replay.
        Writers keep committing while the snapshot temp is written;
        the pin and the brief swap serialize behind the publish lock —
        the lock every batch leader's append + publish runs under — so
        the pinned state and the log's kept tail (every frame appended
        after the pin) are always mutually consistent and no freshly
        appended frame can be dropped. The new log holds that tail
        re-encoded through a fresh log table: its frames reference
        entries of frames the compaction drops.
        """
        log = self._wal
        if log is None:
            raise CodecError(
                "compact() requires a durable database "
                "(Database.open(path))")
        with self._compact_lock:
            with self._publish_lock:
                state = self._state
                log.keep_tail()
            try:
                self._compact_pinned(log, state)
            finally:
                log.drop_tail()

    def _compact_pinned(self, log: WriteAheadLog, state: _DBState) -> None:
        """Write ``state``'s snapshot, then swap it and the re-encoded
        tail in (compaction lock held, tail kept since the pin)."""
        target = self._path
        assert target is not None
        target.parent.mkdir(parents=True, exist_ok=True)
        snapshot_temp: str | None = self._write_snapshot_temp(
            state, target, self._snapshot_format)
        try:
            with self._publish_lock:
                log_temp: str | None
                log_temp, table = log.rewrite_temp(state.generation)
                try:
                    _maybe_crash("compact-pre-snapshot-swap")
                    os.replace(snapshot_temp, target)
                    snapshot_temp = None
                    fsync_directory(target.parent)
                    _maybe_crash("compact-pre-wal-swap")
                    log.swap(log_temp, state.generation, table)
                    log_temp = None
                finally:
                    if log_temp and os.path.exists(log_temp):
                        os.unlink(log_temp)
        finally:
            if snapshot_temp and os.path.exists(snapshot_temp):
                os.unlink(snapshot_temp)

    def _spawn_compaction(self) -> None:
        """Kick off one background compaction (at most one at a time).

        The one caller is a group-commit batch leader, inside the
        publish lock but not the writer lock; the spawn check keeps its
        own tiny lock rather than lean on either.
        """
        with self._compact_spawn:
            thread = self._compact_thread
            if thread is not None and thread.is_alive():
                return

            def run() -> None:
                try:
                    self.compact()
                except BaseException as exc:  # pragma: no cover - disk I/O
                    warnings.warn(
                        f"background WAL compaction failed: {exc}",
                        RuntimeWarning, stacklevel=2)

            thread = threading.Thread(target=run,
                                      name="repro-wal-compact",
                                      daemon=True)
            self._compact_thread = thread
            thread.start()

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str | Path, *, format: str = "json") -> None:
        """Write the database to ``path`` atomically and durably.

        The payload goes to a temp file in the target directory, is
        flushed and fsynced, and only then ``os.replace``d over the
        target (the directory entry is fsynced too on POSIX) — a crash
        at any point leaves either the old file or the new one, never a
        torn or empty write. The written contents are one generation:
        the state is pinned once, so a concurrent writer cannot tear
        the file's dataset/index sections apart.

        ``format="binary"`` writes the :mod:`repro.binary_codec`
        container: the dataset streamed through a deduplicating value
        table, followed by the current key-index signatures keyed to a
        content digest, so :meth:`load` can restore the key indexes
        without recomputing a single signature.
        """
        if format not in ("json", "binary"):
            raise CodecError(
                f"unknown database format {format!r} "
                f"(expected 'json' or 'binary')")
        state = self._state
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        temp_name = self._write_snapshot_temp(state, target, format)
        try:
            os.replace(temp_name, target)
            fsync_directory(target.parent)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise

    def _write_snapshot_temp(self, state: _DBState, target: Path,
                             format: str) -> str:
        """Write one pinned state to an fsynced temp file beside
        ``target``; returns the temp name (caller replaces/unlinks)."""
        descriptor, temp_name = tempfile.mkstemp(
            dir=target.parent, prefix=target.name, suffix=".tmp")
        try:
            if format == "binary":
                with os.fdopen(descriptor, "wb") as handle:
                    self._write_binary(handle, state)
                    handle.flush()
                    os.fsync(handle.fileno())
            else:
                payload = {
                    "format": _FORMAT,
                    "version": _VERSION,
                    "generation": state.generation,
                    "dataset": encode_dataset(state.dataset()),
                }
                with os.fdopen(descriptor, "w") as handle:
                    json.dump(payload, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        return temp_name

    @classmethod
    def load(cls, path: str | Path, *,
             format: str | None = None) -> "Database":
        """Read a database written by :meth:`save`.

        The on-disk format is auto-detected (binary files start with a
        magic prefix); pass ``format="json"``/``"binary"`` to force.
        Binary loads restore the persisted key indexes when the stored
        content digest matches the dataset section, and rebuild them
        otherwise.
        """
        if format is None:
            try:
                with open(path, "rb") as probe:
                    magic = probe.read(len(_BINARY_MAGIC))
            except OSError as exc:
                raise CodecError(
                    f"cannot read database {path}: {exc}") from exc
            format = "binary" if magic == _BINARY_MAGIC else "json"
        if format == "binary":
            try:
                with open(path, "rb") as handle:
                    return cls._read_binary(handle)
            except OSError as exc:
                raise CodecError(
                    f"cannot read database {path}: {exc}") from exc
        if format != "json":
            raise CodecError(
                f"unknown database format {format!r} "
                f"(expected 'json' or 'binary')")
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            # ValueError covers JSONDecodeError and the UnicodeDecodeError
            # a binary file raises when force-read as JSON text.
            raise CodecError(f"cannot read database {path}: {exc}") from exc
        if not isinstance(payload, dict) or \
                payload.get("format") != _FORMAT:
            raise CodecError(f"{path} is not a repro database file")
        if payload.get("version") != _VERSION:
            raise CodecError(
                f"unsupported database version {payload.get('version')!r}")
        generation = payload.get("generation", 0)
        if not isinstance(generation, int) or generation < 0:
            raise CodecError(
                f"invalid snapshot generation {generation!r}")
        database = cls(decode_dataset(payload["dataset"]))
        if generation:
            state = database._state
            database._state = _DBState(
                generation, state.data, state.marker_index,
                state.key_indexes, state._dataset)
            database._head = database._state
        return database

    # -- binary container ---------------------------------------------------------

    def _write_binary(self, handle: IO[bytes], state: _DBState) -> None:
        """Stream the binary container: header, dataset, END, digest,
        key-index section.

        The dataset section iterates the pinned state's raw element set
        (no canonical sort — ``structural_key`` recursion stays off the
        persistence path). The key section references data by their
        position in the written stream and subobjects by their codec
        value-table refs, so persisting the key indexes costs varints,
        not re-encoded values.
        """
        # An interned database never holds two structurally equal but
        # distinct objects, so identity dedup alone is complete there.
        encoder = Encoder(handle, hasher=hashlib.sha256(), header=False,
                          dedup_shapes=not self._intern)
        encoder.write_bytes(_BINARY_MAGIC)
        encoder.write_uvarint(_BINARY_VERSION)
        encoder.write_uvarint(binary_codec.VERSION)
        encoder.write_uvarint(_FLAG_INTERNED if self._intern else 0)
        encoder.write_uvarint(state.generation)
        # order maps id(datum) -> pre-packed position varint: the key
        # section references each datum ~once per key index, so
        # packing the position once amortizes across all of them.
        order: dict[int, bytes] = {}
        for position, datum in enumerate(state.data):
            order[id(datum)] = binary_codec.pack_uvarint(position)
            encoder.write_datum(datum)
        encoder.write_end()
        # Digest of everything up to and including END pins the key
        # section to this exact dataset encoding.
        encoder.write_string(encoder.hexdigest())
        self._write_key_section(encoder, order, state.key_indexes)
        encoder.flush()

    @staticmethod
    def _write_data_refs(encoder: Encoder, data: Iterable[Data],
                         order: dict[int, bytes]) -> None:
        refs = [order[id(datum)] for datum in data]
        encoder.write_uvarint(len(refs))
        encoder.write_bytes(b"".join(refs))

    def _write_key_section(self, encoder: Encoder,
                           order: dict[int, bytes],
                           key_indexes: dict[frozenset[str], KeyIndex],
                           ) -> None:
        encoder.write_uvarint(len(key_indexes))
        for key, index in key_indexes.items():
            encoder.write_uvarint(len(key))
            for attr in sorted(key):
                encoder.write_string(attr)
            encoder.write_uvarint(len(index.buckets))
            for sig, bucket in index.buckets.items():
                self._write_signature(encoder, sig)
                self._write_data_refs(encoder, bucket, order)
            self._write_data_refs(encoder, index.scan_list, order)
            self._write_data_refs(encoder, index.never_list, order)

    @staticmethod
    def _write_signature(encoder: Encoder, sig: Hashable) -> None:
        kind, payload = sig  # buckets never hold NEVER/UNINDEXABLE
        if kind == "whole":
            encoder.write_uvarint(_SIG_WHOLE)
            encoder.write_ref(payload)
        else:
            encoder.write_uvarint(_SIG_TUPLE)
            encoder.write_uvarint(len(payload))
            for label, attr in payload:
                encoder.write_string(label)
                encoder.write_ref(attr)

    @classmethod
    def _read_binary(cls, handle: IO[bytes]) -> "Database":
        decoder = Decoder(handle, hasher=hashlib.sha256(), header=False)
        magic = decoder.read_bytes(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise CodecError("not a repro binary database file")
        container_version = decoder.read_uvarint()
        if container_version not in _BINARY_READABLE:
            raise CodecError(
                f"unsupported database version {container_version!r}")
        codec_version = decoder.read_uvarint()
        if codec_version != binary_codec.VERSION:
            raise CodecError(
                f"unsupported binary codec version {codec_version!r} "
                f"(this build reads version {binary_codec.VERSION})")
        interned = bool(decoder.read_uvarint() & _FLAG_INTERNED)
        # Version 1 predates the generation field; such snapshots
        # reopen at generation 0 (they never had a paired WAL).
        generation = (decoder.read_uvarint()
                      if container_version >= 2 else 0)
        decoder.intern = interned
        data_order = list(decoder.iter_data())
        if not decoder.ended:
            # EOF landed on a frame boundary before the END marker — a
            # truncated file must never load as a smaller database.
            raise CodecError(
                "truncated binary database: dataset section has no "
                "END frame")
        dataset_digest = decoder.hexdigest()

        # ``PSet`` fills its buckets in set order. The snapshot writer
        # iterates this set, and a bucket's order depends on its
        # insertion order, so filling straight from ``data_order``
        # would reorder the data section of a re-saved snapshot.
        data = PSet(data_order)
        key_indexes: dict[frozenset[str], KeyIndex] = {}

        # The key section is an optimization, never a correctness
        # dependency: any parse problem or digest mismatch falls back
        # to rebuilding from the data (keeping the recorded keys when
        # the section structure itself was readable). Versions 1 and 2
        # put an attribute-index section first; nothing reads it, so
        # their key indexes rebuild lazily on first use.
        if container_version >= 3:
            key_structs: list | None = None
            stored_digest = None
            try:
                stored_digest = decoder.read_string()
                key_structs = cls._read_key_section(decoder, data_order)
            except CodecError:
                pass
            if stored_digest == dataset_digest and key_structs is not None:
                key_indexes = {
                    key: KeyIndex.restore(key, buckets, scan, never)
                    for key, buckets, scan, never in key_structs}
            elif key_structs:
                key_indexes = {key: KeyIndex(data, key)
                               for key, _, _, _ in key_structs}

        database = cls.__new__(cls)
        database._intern = interned
        database._init_runtime(_DBState(
            generation=generation,
            data=data,
            marker_index=_build_marker_index(data),
            key_indexes=key_indexes,
        ))
        return database

    @staticmethod
    def _read_data_ref_list(decoder: Decoder,
                            data_order: list[Data]) -> list[Data]:
        """The data a varint position list references, in written order
        (key-index buckets are lists, so no set needs building)."""
        count = decoder.read_uvarint()
        refs = decoder.read_uvarint_seq(count)
        try:
            return list(map(data_order.__getitem__, refs))
        except IndexError:
            bad = next(ref for ref in refs if ref >= len(data_order))
            raise CodecError(
                f"invalid datum reference {bad} in index section") \
                from None

    @classmethod
    def _read_key_section(cls, decoder: Decoder,
                          data_order: list[Data]) -> list:
        structs = []
        for _ in range(decoder.read_uvarint()):
            key = frozenset(decoder.read_label()
                            for _ in range(decoder.read_uvarint()))
            buckets = [(cls._read_signature(decoder),
                        cls._read_data_ref_list(decoder, data_order))
                       for _ in range(decoder.read_uvarint())]
            scan = cls._read_data_ref_list(decoder, data_order)
            never = cls._read_data_ref_list(decoder, data_order)
            structs.append((key, buckets, scan, never))
        return structs

    @staticmethod
    def _read_signature(decoder: Decoder) -> Hashable:
        # Tuple signatures dominate (every fully-keyed datum gets one),
        # so they are dispatched first with bound locals.
        kind = decoder.read_uvarint()
        if kind == _SIG_TUPLE:
            read_label = decoder.read_label
            read_uvarint = decoder.read_uvarint
            node = decoder.node
            return ("tuple", tuple(
                (read_label(), node(read_uvarint()))
                for _ in range(read_uvarint())))
        if kind == _SIG_WHOLE:
            return ("whole", decoder.node(decoder.read_uvarint()))
        raise CodecError(f"unknown signature kind {kind!r}")


class DatabaseView:
    """A pinned read transaction: one generation, many reads.

    Obtained from :meth:`Database.view`. Every method answers against
    the state published when the view was taken — a concurrent writer
    can advance the database arbitrarily without the view noticing.
    Cached results consulted (and contributed) by :meth:`query` are
    tagged with the view's generation, so a view never reads a result
    from any other generation.
    """

    __slots__ = ("_database", "_state")

    def __init__(self, database: Database, state: _DBState):
        self._database = database
        self._state = state

    @property
    def generation(self) -> int:
        return self._state.generation

    def __len__(self) -> int:
        return len(self._state.data)

    def __contains__(self, datum: object) -> bool:
        return datum in self._state.data

    def __iter__(self) -> Iterator[Data]:
        return iter(self.snapshot())

    def snapshot(self) -> DataSet:
        """The pinned generation's frozen contents."""
        return self._state.dataset()

    def by_marker(self, marker: Marker | str) -> DataSet:
        """All pinned data whose marker part mentions ``marker``."""
        if isinstance(marker, str):
            marker = Marker(marker)
        return DataSet(self._state.marker_index.get(marker, set()))

    def compatible_with(self, datum: Data,
                        key: Iterable[str]) -> DataSet:
        """All pinned data compatible with ``datum`` wrt ``key``."""
        return self._database._compatible_at(self._state, datum, key)

    def query(self, text: str, *, naive: bool = False) -> DataSet:
        """Run a textual query against the pinned generation."""
        return self._database._query_at(self._state, text, naive=naive)

    def explain(self, text: str, *, analyze: bool = False):
        """The plan the pinned generation would use for a query."""
        state = self._state
        return self._database._parsed(text).query(
            state.dataset, columns=state.columns,
            size=len(state.data)).explain(analyze=analyze)
