"""Index-accelerated Definition 12 intersection and difference.

Drop-in replacements for :meth:`DataSet.intersection` / ``difference``
that build a :class:`~repro.store.index.KeyIndex` over the second
operand and probe it instead of scanning all pairs. Results are
**identical** to the naive operations (``tests/store/test_ops.py`` and
the ``benchmarks/bench_ablation.py`` runs assert this); only the pairing
step changes from O(n·m) to O(n + m) for indexable data. ``∪K`` has its
own fast paths in :mod:`repro.store.bulk`.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.compatibility import check_key
from repro.core.data import Data, DataSet
from repro.core.intern import equal as _equal
from repro.store.index import KeyIndex

__all__ = ["indexed_intersection", "indexed_difference"]


def _same_datum(first: Data, second: Data) -> bool:
    """Equality with the interned fast path (identity / both-canonical)."""
    if first is second:
        return True
    return (_equal(first.marker, second.marker)
            and _equal(first.object, second.object))


def indexed_intersection(first: DataSet, second: DataSet,
                         key: Iterable[str]) -> DataSet:
    """``S1 ∩K S2`` via a key index on ``S2``."""
    checked = check_key(key)
    index = KeyIndex(second, checked)
    result: list[Data] = []
    for datum in first:
        # d ∩K d = d, so identical partners skip the merge (the analogous
        # shortcut is NOT taken for difference, where d −K d ≠ d).
        result.extend(datum if _same_datum(datum, partner)
                      else datum.intersection(partner, checked)
                      for partner in index.partners(datum))
    return DataSet(result)


def indexed_difference(first: DataSet, second: DataSet,
                       key: Iterable[str]) -> DataSet:
    """``S1 −K S2`` via a key index on ``S2``."""
    checked = check_key(key)
    index = KeyIndex(second, checked)
    result: list[Data] = []
    for datum in first:
        partners = index.partners(datum)
        if not partners:
            result.append(datum)
        else:
            result.extend(datum.difference(partner, checked)
                          for partner in partners)
    return DataSet(result)
