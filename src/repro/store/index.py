"""Key indexing for data sets.

Definition 12 as written is an all-pairs compatibility scan — O(|S1|·|S2|).
The paper (§4) defers implementation concerns; this module supplies the
obvious accelerator: a hash index on key signatures.

The index is *exact*: for the object kinds that can appear under a key
attribute, Definition 6 compatibility degenerates to plain equality
(atoms, markers, ``⊥``-free or-values compared set-wise, complete sets
compared whole), so equal-signature hashing finds exactly the compatible
pairs. The two remaining kinds need care:

* ``⊥`` and partial sets are compatible with *nothing* — data carrying
  them under a key attribute can never pair and are classified
  :data:`NEVER_MATCHES`;
* tuple-valued key attributes recurse with the same ``K``
  (Definition 6(5)), which is not plain equality — such data are
  classified :data:`UNINDEXABLE` and fall back to pairwise scanning.

:meth:`KeyIndex.partners` is the one partner lookup on top: the
candidates filtered by Definition 6 under the index's key. The fast
``∩K``/``−K`` of :mod:`repro.store.ops`, ``union_diff`` in
:mod:`repro.store.bulk` (the step behind ``Database.merge_in``), the
three-way sync and the change report all pair through it.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable, Iterable, Sequence

from repro.core.compatibility import compatible_data
from repro.core.intern import MEMO as _MEMO
from repro.core.intern import is_interned as _is_interned
from repro.core.intern import memo_put as _memo_put
from repro.core.data import Data
from repro.store.persistent import PMap
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
)

__all__ = ["NEVER_MATCHES", "UNINDEXABLE", "signature", "KeyIndex"]

#: Sentinel: this datum cannot be compatible with anything (⊥ or a
#: partial set under a key attribute).
NEVER_MATCHES = "never"

#: Sentinel: this datum needs pairwise checking (tuple under a key
#: attribute, or a non-tuple object).
UNINDEXABLE = "scan"


def _attr_signature(value: SSObject) -> Hashable | None:
    """Hashable stand-in for one key attribute value, or ``None`` when
    compatibility is not plain equality for this kind."""
    if isinstance(value, (Atom, Marker, CompleteSet)):
        return value
    if isinstance(value, OrValue):
        if value.contains_bottom():
            return NEVER_MATCHES
        return value
    return None


def signature(datum: Data, key: AbstractSet[str]) -> Hashable:
    """Classify a datum for the index.

    Returns a hashable signature tuple for indexable data, or one of
    :data:`NEVER_MATCHES` / :data:`UNINDEXABLE`. Signatures of interned
    objects are kept in the identity memo (:mod:`repro.core.intern`),
    so rebuilding indexes over a hash-consed store never re-walks an
    object twice.
    """
    obj = datum.object
    if _is_interned(obj):
        memo_key = ("signature", id(obj), frozenset(key))
        cached = _MEMO.get(memo_key)
        if cached is None:
            cached = _memo_put(memo_key, _signature_impl(obj, key))
        return cached
    return _signature_impl(obj, key)


def _signature_impl(obj: SSObject, key: AbstractSet[str]) -> Hashable:
    if not isinstance(obj, Tuple):
        # Non-tuple objects follow the general Definition 6 cases, where
        # compatibility IS equality for indexable kinds; markers, atoms,
        # or-values and complete sets index directly. ⊥ and partial sets
        # are compatible with nothing.
        if obj is BOTTOM or isinstance(obj, PartialSet):
            return NEVER_MATCHES
        attr = _attr_signature(obj)
        if attr == NEVER_MATCHES:
            return NEVER_MATCHES
        return ("whole", attr)
    parts: list[tuple[str, Hashable]] = []
    for label in sorted(key):
        value = obj.get(label)
        if value is BOTTOM or isinstance(value, PartialSet):
            return NEVER_MATCHES
        attr = _attr_signature(value)
        if attr == NEVER_MATCHES:
            return NEVER_MATCHES
        if attr is None:
            return UNINDEXABLE
        parts.append((label, attr))
    return ("tuple", tuple(parts))


class KeyIndex:
    """Hash index of a data collection by key signature.

    An index never changes once built: :meth:`patched` derives the
    successor for a batch delta and leaves ``self`` as it was, so a
    published :class:`~repro.store.database.Database` generation keeps
    its index while the next one is built. ``buckets`` is a
    :class:`~repro.store.persistent.PMap` of ``signature -> list of
    data``; published bucket lists and side lists are never mutated.
    """

    def __init__(self, data: Iterable[Data] = (),
                 key: AbstractSet[str] = frozenset()):
        self._key = frozenset(key)
        buckets: dict[Hashable, list[Data]] = {}
        #: Data requiring pairwise compatibility checks.
        self.scan_list: list[Data] = []
        #: Data that can never pair with anything.
        self.never_list: list[Data] = []
        for datum in data:
            classified = signature(datum, self._key)
            if classified == NEVER_MATCHES:
                self.never_list.append(datum)
            elif classified == UNINDEXABLE:
                self.scan_list.append(datum)
            else:
                buckets.setdefault(classified, []).append(datum)
        self.buckets = PMap(buckets)

    @property
    def key(self) -> frozenset[str]:
        return self._key

    @classmethod
    def restore(cls, key: AbstractSet[str],
                buckets: Sequence[tuple[Hashable, list[Data]]],
                scan_list: list[Data],
                never_list: list[Data]) -> "KeyIndex":
        """Rehydrate an index from persisted structures without
        recomputing any signatures.

        ``buckets`` lists the ``(signature, data)`` pairs as decoded;
        they fill the bucket table directly. The caller (binary
        snapshot load) vouches that each signature is exactly what
        :func:`signature` would produce for its data under ``key`` —
        the snapshot layer guarantees this by persisting the
        signatures alongside the data and validating the pairing
        digest before restoring.
        """
        index = cls((), key)
        index.buckets = PMap.from_items(buckets, len(buckets))
        index.scan_list = scan_list
        index.never_list = never_list
        return index

    def patched(self, removed: Iterable[Data],
                added: Iterable[Data]) -> "KeyIndex":
        """A new index reflecting a batch delta; ``self`` is untouched.

        Copy-on-write: the buckets map is edited through
        :meth:`PMap.edit <repro.store.persistent.PMap.edit>`, which
        copies one bucket table and the hash buckets the delta touches,
        and each signature's list (or side list) is copied at most
        once, the first time the delta touches it. Everything else
        stays shared with the old index, so the cost follows the delta,
        not the store. A datum of ``removed`` that the index does not
        hold is ignored.
        """
        index = KeyIndex.__new__(KeyIndex)
        index._key = self._key
        buckets = self.buckets.edit()
        index.scan_list = self.scan_list
        index.never_list = self.never_list
        copied: set[Hashable] = set()
        copied_scan = copied_never = False

        for datum in removed:
            classified = signature(datum, self._key)
            if classified == NEVER_MATCHES:
                if not copied_never:
                    index.never_list = list(index.never_list)
                    copied_never = True
                try:
                    index.never_list.remove(datum)
                except ValueError:
                    pass
            elif classified == UNINDEXABLE:
                if not copied_scan:
                    index.scan_list = list(index.scan_list)
                    copied_scan = True
                try:
                    index.scan_list.remove(datum)
                except ValueError:
                    pass
            else:
                bucket = buckets.get(classified)
                if bucket is None:
                    continue
                if classified not in copied:
                    bucket = list(bucket)
                    buckets[classified] = bucket
                    copied.add(classified)
                try:
                    bucket.remove(datum)
                except ValueError:
                    continue
                if not bucket:
                    del buckets[classified]

        for datum in added:
            classified = signature(datum, self._key)
            if classified == NEVER_MATCHES:
                if not copied_never:
                    index.never_list = list(index.never_list)
                    copied_never = True
                index.never_list.append(datum)
            elif classified == UNINDEXABLE:
                if not copied_scan:
                    index.scan_list = list(index.scan_list)
                    copied_scan = True
                index.scan_list.append(datum)
            else:
                bucket = buckets.get(classified)
                if bucket is None or classified not in copied:
                    bucket = list(bucket) if bucket is not None else []
                    buckets[classified] = bucket
                    copied.add(classified)
                bucket.append(datum)
        index.buckets = buckets.finish()
        return index

    def candidates(self, datum: Data) -> list[Data]:
        """Data that *might* be compatible with ``datum``.

        Exact bucket mates for indexable data; nothing for
        never-matching data; the scan list for unindexable probes. A
        datum with a tuple-valued key attribute cannot be compatible
        with one whose attribute is non-tuple (Definition 6), nor with
        one holding ``⊥`` or a partial set under a key attribute
        (decision D3), so the scan list and the buckets never pair
        with each other, and the never list pairs with nothing.
        """
        classified = signature(datum, self._key)
        if classified == NEVER_MATCHES:
            return []
        if classified == UNINDEXABLE:
            return self.scan_list
        return self.buckets.get(classified, [])

    def partners(self, datum: Data) -> list[Data]:
        """Indexed data compatible with ``datum`` under the index's key
        (Definition 6): :meth:`candidates` filtered by
        :func:`~repro.core.compatibility.compatible_data`."""
        key = self._key
        return [candidate for candidate in self.candidates(datum)
                if compatible_data(datum, candidate, key)]

    def everything(self) -> list[Data]:
        """All indexed data (bucket order, then scan, then never)."""
        out: list[Data] = []
        for bucket in self.buckets.values():
            out.extend(bucket)
        out.extend(self.scan_list)
        out.extend(self.never_list)
        return out

    def __len__(self) -> int:
        return (sum(len(bucket) for bucket in self.buckets.values())
                + len(self.scan_list) + len(self.never_list))
