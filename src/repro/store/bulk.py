"""Blocked bulk-merge pipeline.

The engine's Definition 12 fold ``((S1 ∪K S2) ∪K S3) ∪K …`` re-pairs the
whole accumulator against every new source. This module restructures the
fold around the key index without changing a single output datum:

**Signature blocking** (:func:`blocked_union`). Every datum of every
source is classified once by :func:`~repro.store.index.signature`. For
indexable data signature equality is *exactly* Definition 6
compatibility (see :mod:`repro.store.index`), and ``O ∪K O' `` of two
block-mates keeps their common key-attribute values (Definition 9 cases
merge equal values to themselves), so each signature block is closed
under the fold and disjoint from every other block. The global k-way
fold therefore factors into independent per-block folds whose
concatenation is structurally identical to the naive pairwise fold —
including the fold *order*, which matters because ``∪K`` is commutative
but not associative. Unindexable data (tuple-valued key attributes) can
only ever pair with each other and fold pairwise in one scan block;
never-matching data (``⊥``/partial set under a key attribute) pass
through untouched.

**One step into a live store** (:func:`union_diff`). The other shape
of ``∪K``: one source folded into a set that already has a
:class:`~repro.store.index.KeyIndex`, as
:meth:`~repro.store.database.Database.merge_in` does. The step probes
that index and returns the exact :class:`UnionDiff` (data removed, data
added), which lets the store patch its marker and key indexes instead
of rebuilding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, Sequence

from repro.core.compatibility import check_key, compatible_data
from repro.core.data import Data, DataSet
from repro.store.index import NEVER_MATCHES, UNINDEXABLE, KeyIndex, signature
from repro.store.ops import _same_datum

__all__ = ["blocked_union", "UnionDiff"]

#: A block's per-source contributions, in source order. Sources that
#: contribute nothing to a block are skipped (an empty operand leaves a
#: Definition 12 union step unchanged).
_Slabs = list[list[Data]]


# ---------------------------------------------------------------------------
# Signature partitioning
# ---------------------------------------------------------------------------

def _partition_sources(
        sources: Sequence[DataSet], key: AbstractSet[str],
) -> tuple[dict[Hashable, _Slabs], _Slabs, list[Data]]:
    """Split all sources into signature blocks, the scan block and the
    pass-through list, preserving source order inside each block."""
    blocks: dict[Hashable, _Slabs] = {}
    scan_slabs: _Slabs = []
    never: list[Data] = []
    for source in sources:
        local: dict[Hashable, list[Data]] = {}
        local_scan: list[Data] = []
        for datum in source:
            classified = signature(datum, key)
            if classified == NEVER_MATCHES:
                never.append(datum)
            elif classified == UNINDEXABLE:
                local_scan.append(datum)
            else:
                local.setdefault(classified, []).append(datum)
        for classified, rows in local.items():
            blocks.setdefault(classified, []).append(rows)
        if local_scan:
            scan_slabs.append(local_scan)
    return blocks, scan_slabs, never


# ---------------------------------------------------------------------------
# Per-block folds
# ---------------------------------------------------------------------------

def _fold_block(slabs: _Slabs, key: frozenset[str]) -> list[Data]:
    """Fold one indexable block in source order.

    All cross-pairs inside a block are compatible, so each step is the
    full cross-product of Definition 11 unions; the inter-step ``set``
    reproduces the structural dedup the naive fold gets from building a
    :class:`DataSet` after every step.
    """
    state: Iterable[Data] = slabs[0]
    for rows in slabs[1:]:
        state = {first if _same_datum(first, second)
                 else first.union(second, key)
                 for first in state for second in rows}
    return list(state)


def _fold_scan(slabs: _Slabs, key: frozenset[str]) -> list[Data]:
    """Fold the scan block (tuple-valued key attributes) pairwise.

    Each step pairs the accumulator with the next slab by a compatibility
    scan: scan data only ever pair with scan data, and their unions keep
    a tuple under the key attribute, so the block stays closed. Matched
    slab data are tracked by identity; unmatched ones join the step.
    """
    state: Iterable[Data] = slabs[0]
    for rows in slabs[1:]:
        step: list[Data] = []
        matched: set[int] = set()
        for first in state:
            partners = [second for second in rows
                        if compatible_data(first, second, key)]
            if not partners:
                step.append(first)
                continue
            matched.update(map(id, partners))
            step.extend(first if _same_datum(first, second)
                        else first.union(second, key)
                        for second in partners)
        step.extend(second for second in rows if id(second) not in matched)
        state = set(step)
    return list(state)


# ---------------------------------------------------------------------------
# The k-way entry point
# ---------------------------------------------------------------------------

def blocked_union(sources: Iterable[DataSet | Iterable[Data]],
                  key: Iterable[str]) -> DataSet:
    """K-way ``∪K`` of ``sources`` in order, via signature blocking.

    Structurally identical to the naive left fold
    ``((S1 ∪K S2) ∪K S3) ∪K …`` of :meth:`DataSet.union` — the engine's
    equivalence tests and the pipeline benchmark assert this on every
    run.
    """
    checked = check_key(key)
    normalized = [source if isinstance(source, DataSet)
                  else DataSet(source) for source in sources]
    if not normalized:
        return DataSet()
    if len(normalized) == 1:
        return normalized[0]
    blocks, scan_slabs, never = _partition_sources(normalized, checked)
    result: list[Data] = []
    for slabs in blocks.values():
        # Single-source blocks have nothing to pair with: pass through.
        if len(slabs) == 1:
            result.extend(slabs[0])
        else:
            result.extend(_fold_block(slabs, checked))
    if scan_slabs:
        result.extend(_fold_scan(scan_slabs, checked))
    result.extend(never)
    return DataSet(result)


# ---------------------------------------------------------------------------
# One step into a live store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnionDiff:
    """Net effect of one ``∪K``-step on an accumulator."""

    removed: tuple[Data, ...]
    added: tuple[Data, ...]


def union_diff(current: AbstractSet[Data], index: KeyIndex,
               source: DataSet) -> UnionDiff:
    """Diff form of ``current ∪K source`` probed through ``index``.

    ``index`` must index exactly ``current``; its key is the ``K`` of
    the step. Matched accumulator data are replaced by their
    Definition 11 unions; unmatched source data join. The diff is
    *net*: a datum produced by the step that already sits in
    ``current`` is neither removed nor added. The step only fills
    sets, so it iterates a :class:`DataSet`'s raw element set, not its
    canonical order (which sorts by ``structural_key``).
    """
    key = index.key
    to_remove: set[Data] = set()
    to_add: set[Data] = set()
    for datum in (source._data if isinstance(source, DataSet)
                  else source):
        partners = index.partners(datum)
        if not partners:
            to_add.add(datum)
            continue
        for partner in partners:
            to_remove.add(partner)
            to_add.add(partner if _same_datum(partner, datum)
                       else partner.union(datum, key))
    return UnionDiff(
        removed=tuple(datum for datum in to_remove if datum not in to_add),
        added=tuple(datum for datum in to_add if datum not in current),
    )
