"""Semistructured data ``m : O`` and data sets (Definitions 2, 11, 12).

A :class:`Data` couples a *marker part* with an *object*. The marker part
identifies the entity: a single :class:`~repro.core.objects.Marker` for
source data, an or-value of markers for data produced by ``∪K`` (several
source markers naming the same entity), or ``⊥`` for data produced by
``∩K``/``−K`` where identity no longer matters.

A :class:`DataSet` is an immutable set of :class:`Data` with the lifted
union/intersection/difference of Definition 12 and the ``⊴`` order of
Definition 5. Data sets model whole sources — a BibTeX file is a data set;
a web page is a single datum.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Iterator

from repro.core.compatibility import check_key, compatible_data
from repro.core.errors import InvalidMarkerError
from repro.core.guard import guarded as _guarded
from repro.core.informativeness import (
    data_less_informative,
    dataset_less_informative,
)
from repro.core.objects import (
    BOTTOM,
    Marker,
    OrValue,
    SSObject,
    Tuple,
)
from repro.core.operations import difference, intersection, union
from repro.core.order import sort_data
# Unused here; perfbench counts structural_key calls per module name.
from repro.core.order import structural_key  # noqa: F401
from repro.core.visitor import contains_kind


def _check_marker_part(marker: SSObject) -> SSObject:
    """Validate the left-hand side of ``m : O``.

    Definition 2 allows a non-empty or-value of markers; the operations of
    Definition 11 additionally produce ``⊥`` markers, so the admissible
    marker parts are: a marker, an or-value whose disjuncts are all
    markers, or ``⊥``.
    """
    if isinstance(marker, Marker) or marker is BOTTOM:
        return marker
    if isinstance(marker, OrValue) and all(
            isinstance(disjunct, Marker) for disjunct in marker.disjuncts):
        return marker
    raise InvalidMarkerError(
        f"the marker part of semistructured data must be a marker, an "
        f"or-value of markers, or bottom; got {marker!r}"
    )


class Data:
    """One semistructured datum ``m : O`` (Definition 2).

    Immutable value object; equality and hashing cover both the marker part
    and the object, so a :class:`DataSet` can hold two data with equal
    objects but different markers (as in the paper's Example 6 source
    files).
    """

    __slots__ = ("marker", "object", "_hash_cache")

    def __init__(self, marker: SSObject | str, obj: SSObject):
        if isinstance(marker, str):
            marker = Marker(marker)
        object.__setattr__(self, "marker", _check_marker_part(marker))
        if not isinstance(obj, SSObject):
            raise InvalidMarkerError(
                f"the object part must be a model object, got "
                f"{type(obj).__name__}"
            )
        object.__setattr__(self, "object", obj)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Data is immutable")

    @property
    def markers(self) -> frozenset[Marker]:
        """The set of source markers naming this datum (empty for ``⊥``)."""
        if isinstance(self.marker, Marker):
            return frozenset((self.marker,))
        if isinstance(self.marker, OrValue):
            return frozenset(
                disjunct for disjunct in self.marker.disjuncts
                if isinstance(disjunct, Marker)
            )
        return frozenset()

    def is_real(self) -> bool:
        """Definition 2 *real* data, per DESIGN.md decision D7.

        Real data carry exactly one marker and contain no or-values (no
        recorded conflicts). Everything else — or-marked, ``⊥``-marked, or
        conflict-bearing — is *virtual*, i.e. producible only by the
        algebra, not by a single source.
        """
        return (isinstance(self.marker, Marker)
                and not contains_kind(self.object, "or"))

    def is_virtual(self) -> bool:
        """Negation of :meth:`is_real`."""
        return not self.is_real()

    def union(self, other: "Data", key: Iterable[str], *,
              naive: bool = False) -> "Data":
        """Definition 11: ``m1 ∪K m2 : O1 ∪K O2``."""
        checked = check_key(key)
        return Data(union(self.marker, other.marker, checked, naive=naive),
                    union(self.object, other.object, checked, naive=naive))

    def intersection(self, other: "Data", key: Iterable[str], *,
                     naive: bool = False) -> "Data":
        """Definition 11: ``m1 ∩K m2 : O1 ∩K O2``."""
        checked = check_key(key)
        return Data(
            intersection(self.marker, other.marker, checked, naive=naive),
            intersection(self.object, other.object, checked, naive=naive))

    def difference(self, other: "Data", key: Iterable[str], *,
                   naive: bool = False) -> "Data":
        """Definition 11: ``m1 −K m2 : O1 −K O2``."""
        checked = check_key(key)
        return Data(
            difference(self.marker, other.marker, checked, naive=naive),
            difference(self.object, other.object, checked, naive=naive))

    def compatible(self, other: "Data", key: Iterable[str], *,
                   naive: bool = False) -> bool:
        """Definition 7 compatibility (markers play no role)."""
        return compatible_data(self, other, check_key(key), naive=naive)

    def less_informative(self, other: "Data", *,
                         naive: bool = False) -> bool:
        """Definition 4: ``self ⊴ other``."""
        return data_less_informative(self, other, naive=naive)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Data):
            return NotImplemented
        return self.marker == other.marker and self.object == other.object

    def __hash__(self) -> int:
        # Cached: data live in sets everywhere (DataSet, index postings,
        # key buckets), so each datum is hashed many times over its life.
        try:
            return self._hash_cache
        except AttributeError:
            value = hash(("repro.data", self.marker, self.object))
            object.__setattr__(self, "_hash_cache", value)
            return value

    def __repr__(self) -> str:
        return f"{self.marker!r}:{self.object!r}"


class DataSet:
    """An immutable set of semistructured data (Definitions 5 and 12)."""

    __slots__ = ("_data", "_marker_map", "_sorted")

    # Guarded: freezing the set hashes every datum, and structural
    # hashing recurses as deep as the deepest object.
    @_guarded
    def __init__(self, data: Iterable[Data] = ()):
        items = frozenset(data)
        for item in items:
            if not isinstance(item, Data):
                raise InvalidMarkerError(
                    f"DataSet elements must be Data, got "
                    f"{type(item).__name__}"
                )
        object.__setattr__(self, "_data", items)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DataSet is immutable")

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Data]:
        # The canonical order is memoized like ``find``'s marker map:
        # sets are immutable, and every consumer of the order — query
        # scans, shard splits, columnar shredding — iterates the same
        # set many times.
        try:
            ordered = self._sorted
        except AttributeError:
            ordered = tuple(sort_data(self._data))
            object.__setattr__(self, "_sorted", ordered)
        return iter(ordered)

    def __contains__(self, item: object) -> bool:
        return item in self._data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataSet):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(("repro.dataset", self._data))

    def __repr__(self) -> str:
        inner = ",\n ".join(repr(item) for item in self)
        return f"{{{inner}}}"

    def add(self, datum: Data) -> "DataSet":
        """Return a new set including ``datum``."""
        return DataSet(self._data | {datum})

    def find(self, marker: Marker | str) -> Data | None:
        """Return the datum whose marker part mentions ``marker``, if any.

        An or-marked datum matches any of its source markers. When several
        data mention the marker the structurally smallest is returned.

        The marker→datum map is built lazily on first use and kept for
        the lifetime of the set (data sets are immutable, so it can
        never go stale); repeated lookups are O(1) instead of a scan.
        """
        if isinstance(marker, str):
            marker = Marker(marker)
        try:
            mapping = self._marker_map
        except AttributeError:
            mapping = {}
            # Canonical iteration order: the first datum seen for a
            # marker is the structurally smallest, as documented.
            for datum in self:
                for mentioned in datum.markers:
                    mapping.setdefault(mentioned, datum)
            object.__setattr__(self, "_marker_map", mapping)
        return mapping.get(marker)

    def filter(self, predicate: Callable[[Data], bool]) -> "DataSet":
        """Return the subset whose data satisfy ``predicate``."""
        return DataSet(d for d in self._data if predicate(d))

    def real(self) -> "DataSet":
        """Return the subset of real data (Definition 2)."""
        return self.filter(Data.is_real)

    def virtual(self) -> "DataSet":
        """Return the subset of virtual data (Definition 2)."""
        return self.filter(Data.is_virtual)

    # -- Definition 12 ------------------------------------------------------

    @_guarded
    def union(self, other: "DataSet", key: Iterable[str], *,
              naive: bool = False) -> "DataSet":
        """``S1 ∪K S2``: unmatched data pass through; compatible cross
        pairs are replaced by their Definition 11 union."""
        checked = check_key(key)
        result, pairs = self._unmatched_and_pairs(other, checked, naive)
        result.extend(
            d1.union(d2, checked, naive=naive) for d1, d2 in pairs
        )
        return DataSet(result)

    @_guarded
    def intersection(self, other: "DataSet",
                     key: Iterable[str], *,
                     naive: bool = False) -> "DataSet":
        """``S1 ∩K S2``: Definition 11 intersections of compatible pairs."""
        checked = check_key(key)
        return DataSet(
            d1.intersection(d2, checked, naive=naive)
            for d1 in self._data for d2 in other._data
            if compatible_data(d1, d2, checked, naive=naive)
        )

    @_guarded
    def difference(self, other: "DataSet", key: Iterable[str], *,
                   naive: bool = False) -> "DataSet":
        """``S1 −K S2``: data of ``S1`` with no compatible partner, plus
        Definition 11 differences of compatible pairs."""
        checked = check_key(key)
        result: list[Data] = []
        for d1 in self._data:
            partners = [d2 for d2 in other._data
                        if compatible_data(d1, d2, checked, naive=naive)]
            if not partners:
                result.append(d1)
            else:
                result.extend(d1.difference(d2, checked, naive=naive)
                              for d2 in partners)
        return DataSet(result)

    def _unmatched_and_pairs(
            self, other: "DataSet", key: AbstractSet[str],
            naive: bool = False,
    ) -> tuple[list[Data], list[tuple[Data, Data]]]:
        unmatched: list[Data] = []
        pairs: list[tuple[Data, Data]] = []
        for d1 in self._data:
            partners = [d2 for d2 in other._data
                        if compatible_data(d1, d2, key, naive=naive)]
            if partners:
                pairs.extend((d1, d2) for d2 in partners)
            else:
                unmatched.append(d1)
        for d2 in other._data:
            if not any(compatible_data(d1, d2, key, naive=naive)
                       for d1 in self._data):
                unmatched.append(d2)
        return unmatched, pairs

    def less_informative(self, other: "DataSet", *,
                         naive: bool = False) -> bool:
        """Definition 5: ``self ⊴ other``."""
        return dataset_less_informative(self._data, other._data,
                                        naive=naive)

    def reduced(self) -> "DataSet":
        """Drop data strictly ⊴ another datum (subsumption reduction).

        A datum below another adds no information — e.g. after unioning
        a set with an older snapshot of itself, the stale entries are
        strictly dominated by the merged ones. Removal is lossless with
        respect to the ⊴ order. Quadratic; meant for result cleanup.
        """
        items = list(self._data)
        survivors = [
            datum for datum in items
            if not any(datum != other and data_less_informative(datum,
                                                                other)
                       for other in items)
        ]
        return DataSet(survivors)

    def markers(self) -> frozenset[Marker]:
        """All source markers mentioned by any datum."""
        result: set[Marker] = set()
        for datum in self._data:
            result.update(datum.markers)
        return frozenset(result)

    def of_type(self, type_attr: str, value: str) -> "DataSet":
        """Return data whose tuple object has ``type_attr`` equal to
        ``Atom(value)`` — the paper's informal grouping into classes."""
        from repro.core.objects import Atom

        wanted = Atom(value)
        return self.filter(
            lambda d: isinstance(d.object, Tuple)
            and d.object.get(type_attr) == wanted
        )
