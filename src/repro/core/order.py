"""A total structural order over model objects.

The model itself only defines the *less informative* partial order
(Definition 3, :mod:`repro.core.informativeness`). Display, canonical text
output and deterministic iteration over sets additionally need an arbitrary
but *total* and *stable* order on heterogeneous objects, which Python cannot
provide for mixed ``str``/``int`` values. :func:`structural_key` supplies
one: it maps every object to a nested tuple that Python can compare.

The order is an implementation detail — it has no semantic meaning in the
paper — but it is part of the library's observable behaviour (pretty-printed
or-values and sets list their members in this order), so it is stable and
tested.

This module also owns the *canonical data order* (DESIGN.md decision
D1): data ``m : O`` compare by the marker part's key, then by the
object's. :func:`sort_data` and :class:`DataKey` are the only
implementations of it, and both compute an object's key only for data
whose marker keys tie. Markers name entities, so on a store they are
nearly all distinct, and a sort that never keys the objects never
walks them.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Sequence

from repro.core.intern import MEMO as _MEMO
from repro.core.intern import is_interned as _is_interned
from repro.core.intern import memo_put as _memo_put
from repro.core.objects import (
    Atom,
    Bottom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
)

# Rank of each kind in the total order. Bottom sorts first so the "least
# informative" object is also structurally smallest, which reads naturally
# in sorted output.
_KIND_RANK = {
    "bottom": 0,
    "atom": 1,
    "marker": 2,
    "or": 3,
    "partial_set": 4,
    "complete_set": 5,
    "tuple": 6,
}

# Atoms of different Python types compare by a type rank first: booleans,
# then numbers, then strings. bool is checked before int because bool is a
# subclass of int.
_ATOM_TYPE_RANK = {bool: 0, int: 1, float: 1, str: 2}
_ATOM_KIND = _KIND_RANK["atom"]


def structural_key(obj: SSObject) -> tuple:
    """Return a nested tuple that totally orders model objects.

    Keys of equal objects are equal; keys of distinct objects differ. The
    key is comparable with keys of any other object, whatever the kinds.
    Keys of interned objects (:mod:`repro.core.intern`) are computed once
    and cached in the identity memo under the bare ``id(obj)``.
    """
    if _is_interned(obj):
        cached = _MEMO.get(id(obj))
        if cached is None:
            cached = _memo_put(id(obj), _structural_key(obj))
        return cached
    return _structural_key(obj)


def _structural_key(obj: SSObject) -> tuple:
    if isinstance(obj, Bottom):
        return (_KIND_RANK["bottom"],)
    if isinstance(obj, Atom):
        return atom_key(obj.value)
    if isinstance(obj, Marker):
        return (_KIND_RANK["marker"], obj.name)
    if isinstance(obj, OrValue):
        members = sorted(structural_key(d) for d in obj.disjuncts)
        return (_KIND_RANK["or"], len(members), tuple(members))
    if isinstance(obj, (PartialSet, CompleteSet)):
        members = sorted(structural_key(e) for e in obj.elements)
        return (_KIND_RANK[obj.kind], len(members), tuple(members))
    if isinstance(obj, Tuple):
        fields = tuple(
            (label, structural_key(value)) for label, value in obj.items()
        )
        return (_KIND_RANK["tuple"], len(fields), fields)
    raise TypeError(f"not a model object: {type(obj).__name__}")


def atom_key(value) -> tuple:
    """``structural_key(Atom(value))`` without building the atom: what
    the columnar kernels key a primitive from a column's value array
    with."""
    type_rank = _ATOM_TYPE_RANK[type(value)]
    if type_rank == 0:
        # Compare booleans among themselves as ints, but keep them in
        # their own type bucket so Atom(True) != Atom(1) sorts apart.
        return (_ATOM_KIND, 0, int(value))
    if type_rank == 1:
        # Atom(5) and Atom(5.0) are distinct atoms with equal numbers:
        # the type breaks the tie, ints first.
        return (_ATOM_KIND, 1, value, type(value) is float)
    return (_ATOM_KIND, type_rank, value)


def sort_objects(objects: Iterable[SSObject]) -> list[SSObject]:
    """Return ``objects`` as a list sorted by :func:`structural_key`."""
    return sorted(objects, key=structural_key)


_marker_of = attrgetter("marker")
_first = itemgetter(0)
_second = itemgetter(1)


def _object_key(datum) -> tuple:
    return structural_key(datum.object)


def sort_data(data: Iterable) -> list:
    """Return ``data`` (:class:`~repro.core.data.Data`) as a list in
    canonical data order: by the marker part's :func:`structural_key`,
    then, among data whose marker keys are equal, by the object's.

    The first pass sorts on the marker keys alone, so every comparison
    is a plain tuple comparison. Each run of equal marker keys is then
    sorted by object key; data outside such runs never have their
    objects keyed. The result depends only on the keys, never on the
    iteration order of ``data``.
    """
    rows = list(data)
    pairs = sorted(zip(map(structural_key, map(_marker_of, rows)), rows),
                   key=_first)
    ordered = list(map(_second, pairs))
    keys = list(map(_first, pairs))
    start = stop = 0
    # ``index`` runs over the positions whose marker key equals the
    # previous one; consecutive ones extend the current tie run.
    for index in compress(range(1, len(keys)),
                          map(eq, islice(keys, 1, None), keys)):
        if index != stop:
            ordered[start:stop] = sorted(ordered[start:stop],
                                         key=_object_key)
            start = index - 1
        stop = index + 1
    ordered[start:stop] = sorted(ordered[start:stop], key=_object_key)
    return ordered


class DataKey:
    """The canonical data order (:func:`sort_data`) as a key object,
    for bisection and small sorts.

    Comparisons compare the marker keys and fall back to the object
    keys only when those are equal; an object's key is computed on
    the first such tie and kept.
    """

    __slots__ = ("datum", "marker", "_object")

    def __init__(self, datum):
        self.datum = datum
        self.marker = structural_key(datum.marker)
        self._object = None

    def object_key(self) -> tuple:
        """The object's :func:`structural_key`, computed once."""
        key = self._object
        if key is None:
            key = self._object = structural_key(self.datum.object)
        return key

    def __lt__(self, other: "DataKey") -> bool:
        if self.marker != other.marker:
            return self.marker < other.marker
        return (self.datum is not other.datum
                and self.object_key() < other.object_key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataKey):
            return NotImplemented
        return self.datum is other.datum or (
            self.marker == other.marker
            and self.object_key() == other.object_key())


def object_depth(obj: SSObject) -> int:
    """Return the nesting depth of ``obj`` (atoms/markers/⊥ have depth 0)."""
    if isinstance(obj, OrValue):
        children: Sequence[SSObject] = tuple(obj.disjuncts)
    elif isinstance(obj, (PartialSet, CompleteSet)):
        children = tuple(obj.elements)
    elif isinstance(obj, Tuple):
        children = tuple(value for _, value in obj.items())
    else:
        return 0
    if not children:
        return 1
    return 1 + max(object_depth(child) for child in children)


def object_size(obj: SSObject) -> int:
    """Return the number of nodes in ``obj``'s structure tree."""
    if isinstance(obj, OrValue):
        children: Sequence[SSObject] = tuple(obj.disjuncts)
    elif isinstance(obj, (PartialSet, CompleteSet)):
        children = tuple(obj.elements)
    elif isinstance(obj, Tuple):
        children = tuple(value for _, value in obj.items())
    else:
        return 1
    return 1 + sum(object_size(child) for child in children)
