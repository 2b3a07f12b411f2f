"""Storage layer: key indexing, accelerated operations and persistence.

The paper defers implementation; this package provides it:

* :class:`~repro.store.index.KeyIndex` — hash index over key signatures
  (compatibility is plain equality for indexable kinds; see the module
  docs for the exceptions);
* :func:`~repro.store.bulk.blocked_union` — ``∪K`` as a k-way
  signature-blocked left fold of whole sources (the merge engine's
  default; ablation S5), and :func:`~repro.store.bulk.union_diff`, one
  ``∪K`` step into an indexed store as the net
  :class:`~repro.store.bulk.UnionDiff` behind ``Database.merge_in``;
* :func:`~repro.store.ops.indexed_intersection` /
  :func:`~repro.store.ops.indexed_difference` — ``∩K``/``−K`` in
  O(n + m) instead of O(n·m), bit-identical results;
* :class:`~repro.store.database.Database` — an updatable, file-backed
  collection with incrementally maintained marker and key indexes,
  MVCC generation snapshots (:class:`~repro.store.database.DatabaseView`
  pins one generation for lock-free reads) and an epoch-invalidated
  query-result cache (:class:`~repro.store.cache.QueryResultCache`);
* :class:`~repro.store.wal.WriteAheadLog` — incremental durability:
  ``Database.open(path)`` logs every committed batch's net diff
  through group commit (CRC-framed, fsynced before the MVCC publish),
  replays log-on-top-of-snapshot on reopen, compacts past a size
  threshold and recovers to any logged generation
  (``Database.recover_to``);
* :class:`~repro.store.columnar.ColumnStore` — the physical layout:
  canonical tuples shredded into per-attribute columns (flat primitive
  arrays plus present/irregular sidecar bitsets, too-irregular rows in
  a row-fallback residue) powering the planner's columnar scan
  strategy. Each column's eq-index and possible-value index map a
  ``(type, value)`` to the bitset of rows whose path reaches it: the
  store's one inverted index, built lazily or up front through
  ``Database.create_index``, and carried across writes.
"""

from repro.store.bulk import UnionDiff, blocked_union
from repro.store.cache import LRUCache, QueryResultCache
from repro.store.columnar import (
    Column,
    ColumnStore,
    bit_positions,
)
from repro.store.database import Database, DatabaseView
from repro.store.index import (
    NEVER_MATCHES,
    UNINDEXABLE,
    KeyIndex,
    signature,
)
from repro.store.ops import indexed_difference, indexed_intersection
from repro.store.fsutil import fsync_directory
from repro.store.wal import (
    CommitTicket,
    GroupCommitter,
    WalFrame,
    WalScan,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "KeyIndex", "signature", "NEVER_MATCHES", "UNINDEXABLE",
    "indexed_intersection", "indexed_difference",
    "blocked_union", "UnionDiff",
    "Database", "DatabaseView", "LRUCache", "QueryResultCache",
    "WriteAheadLog", "WalFrame", "WalScan", "scan_wal",
    "CommitTicket", "GroupCommitter", "fsync_directory",
    "ColumnStore", "Column", "bit_positions",
]
