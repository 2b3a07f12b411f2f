"""Persistent (copy-on-write) collections for published store state.

Every write to a :class:`~repro.store.database.Database` publishes a
new generation while readers keep the old one, so each structure a
generation holds must be *persistent*: the successor shares almost
everything with its parent, and the parent stays readable unchanged.
Before this module a commit copied each whole-store structure (the
data set, the marker index, the key-index buckets and the column
store's arrays), so a 1-row write cost time and young-GC work in
proportion to the store. The three types here make a commit cost the
delta plus a small table:

* :class:`PMap` / :class:`PSet` — a two-level hash table: a power-of-two
  *table* of small ``dict``/``set`` buckets, picked by the low bits of
  ``hash(key)``. An edit copies the table (one pointer per bucket) and
  each bucket it touches, once. The bucket count doubles whenever the
  size passes :data:`BUCKET_LOAD` entries per bucket, so the table copy
  stays about ``size / BUCKET_LOAD`` pointers and a bucket copy about
  ``BUCKET_LOAD`` entries. This is the flat first cut of Bagwell's
  hash array mapped trie ("Ideal Hash Trees", 2001; the structure
  behind CPython's ``contextvars``, PEP 567): the trie would make the
  table copy logarithmic too, and measurement on the store's sizes
  found the table copy too small to need it (EXPERIMENTS.md).
* :class:`PagedList` — an append-only sequence: the flat list it was
  built from, then fixed :data:`PAGE_SIZE` pages. An append copies the
  page table and the last page; the head and every full page are
  shared by all later versions.

Published instances are never mutated. Edits go through a private
editor (:meth:`PMap.edit`, :meth:`PSet.edit`) that copies on first
touch and hands back a *new* instance from ``finish()``; so two edits
of one parent (the sibling successors an aborted commit batch leaves
behind) never see each other, and a reader holding any version sees
exactly what it saw when it got it.

Read kernels never call a Python method per element: iteration chains
the buckets or pages at C level, and :meth:`PagedList.gather` /
:meth:`PMap.values_at` fetch many positions in one call.
The page size and the bucket load are module constants, not options.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence, Set
from itertools import chain
from typing import Iterable, Iterator

__all__ = ["PMap", "PSet", "PagedList", "BUCKET_LOAD", "PAGE_SIZE"]

#: Past this many entries per bucket on average, a table doubles.
BUCKET_LOAD = 64

#: log2 of :data:`PAGE_SIZE`.
_PAGE_SHIFT = 9

#: Entries per :class:`PagedList` page.
PAGE_SIZE = 1 << _PAGE_SHIFT

_PAGE_MASK = PAGE_SIZE - 1


def _table_size(count: int) -> int:
    """The smallest power-of-two bucket count holding ``count``
    entries at :data:`BUCKET_LOAD` or fewer per bucket."""
    buckets = 1
    while buckets * BUCKET_LOAD < count:
        buckets <<= 1
    return buckets


# -- hash tables ---------------------------------------------------------------


class _Table:
    """The layout :class:`PMap` and :class:`PSet` share: a power-of-two
    list of small ``dict``/``set`` buckets, picked by the low bits of
    ``hash(key)``."""

    __slots__ = ("_table", "_mask", "_size")

    @classmethod
    def _of(cls, table: list, size: int):
        made = cls.__new__(cls)
        made._table = table
        made._mask = len(table) - 1
        made._size = size
        return made

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key) -> bool:
        return key in self._table[hash(key) & self._mask]

    def __iter__(self) -> Iterator:
        return chain.from_iterable(self._table)


class PMap(_Table, Mapping):
    """An immutable hash map with cheap edited copies.

    Serves the read protocol of a ``dict``: ``len``, iteration (keys),
    ``in``, ``[key]``, :meth:`get`, :meth:`items`, :meth:`values` and
    ``==`` against any mapping. :meth:`items` and :meth:`values`
    return iterators, not views. Iteration order is bucket order, not
    insertion order.
    """

    __slots__ = ()

    def __init__(self, items: "Mapping | Iterable[tuple]" = ()):
        source = items if isinstance(items, dict) else dict(items)
        made = self.from_items(source.items(), len(source))
        self._table = made._table
        self._mask = made._mask
        self._size = made._size

    @classmethod
    def from_items(cls, items: Iterable[tuple], count: int) -> "PMap":
        """The map of the ``(key, value)`` pairs ``items``; a later
        pair replaces an earlier one with the same key, as in a
        ``dict``.

        The pairs go straight into a table sized for ``count`` entries
        (their number, or an estimate), with no intermediate ``dict``
        to build and spread: one hash picks each key's bucket, and the
        bucket's insert is the only other.
        """
        table: list[dict] = [{} for _ in range(_table_size(count))]
        mask = len(table) - 1
        for key, value in items:
            table[hash(key) & mask][key] = value
        return cls._filled(table)

    @classmethod
    def _filled(cls, table: list[dict]) -> "PMap":
        """A map over a table just filled in place, respread into a
        larger table if the count it was sized for fell short."""
        made = cls._of(table, sum(map(len, table)))
        if made._size > len(table) * BUCKET_LOAD:
            made = cls(made.items())
        return made

    @classmethod
    def grouped(cls, items: Iterable[tuple], count: int) -> "PMap":
        """The map from each key of the ``(key, value)`` pairs
        ``items`` to the ``set`` of the values paired with it, filled
        like :meth:`from_items` (``count`` sizes the table for that
        many keys)."""
        table: list[dict] = [{} for _ in range(_table_size(count))]
        mask = len(table) - 1
        for key, value in items:
            table[hash(key) & mask].setdefault(key, set()).add(value)
        return cls._filled(table)

    def __getitem__(self, key):
        return self._table[hash(key) & self._mask][key]

    def get(self, key, default=None):
        return self._table[hash(key) & self._mask].get(key, default)

    def items(self) -> Iterator[tuple]:
        return chain.from_iterable(map(dict.items, self._table))

    def values(self) -> Iterator:
        return chain.from_iterable(map(dict.values, self._table))

    _entries = items

    def values_at(self, keys: Iterable) -> list:
        """``[self[key] for key in keys]`` without a method call per
        key."""
        table = self._table
        mask = self._mask
        return [table[hash(key) & mask][key] for key in keys]

    def edit(self) -> "_MapEditor":
        """A private editor whose ``finish()`` returns the edited copy;
        this map is never touched."""
        return _MapEditor(self)

    def __repr__(self) -> str:
        return f"PMap({dict(self.items())!r})"


class PSet(_Table, Set):
    """An immutable hash set with cheap edited copies (see
    :class:`PMap`). Serves ``len``, iteration, ``in`` and the
    comparison operators of :class:`collections.abc.Set`; ``==``
    holds against a ``frozenset`` with the same members."""

    __slots__ = ()

    def __init__(self, items: Iterable = ()):
        source = items if isinstance(items, (set, frozenset)) else set(items)
        table: list[set] = [set() for _ in range(_table_size(len(source)))]
        mask = len(table) - 1
        for item in source:
            table[hash(item) & mask].add(item)
        self._table = table
        self._mask = mask
        self._size = len(source)

    _entries = _Table.__iter__

    def edit(self) -> "_SetEditor":
        """A private editor whose ``finish()`` returns the edited copy;
        this set is never touched."""
        return _SetEditor(self)

    def __repr__(self) -> str:
        return f"PSet({set(self)!r})"


class _Editor:
    """Copy-on-write edits of one :class:`PMap` or :class:`PSet`.

    The table is copied on the first write and each bucket on its
    first write; reads see the edits so far. ``finish()`` publishes the
    result, spread into a doubled table if the size outgrew it, and
    resets the editor onto it, so a published table is never written
    again.
    """

    __slots__ = ("_base", "_table", "_mask", "_size", "_copied")

    def __init__(self, base: _Table):
        self._base = base
        self._table = base._table
        self._mask = base._mask
        self._size = base._size
        self._copied: set[int] | None = None

    def _bucket(self, key):
        index = hash(key) & self._mask
        copied = self._copied
        if copied is None:
            self._table = list(self._table)
            copied = self._copied = set()
        if index in copied:
            return self._table[index]
        bucket = self._table[index] = self._table[index].copy()
        copied.add(index)
        return bucket

    def __contains__(self, key) -> bool:
        return key in self._table[hash(key) & self._mask]

    def finish(self):
        if self._copied is None:
            return self._base
        result = self._base._of(self._table, self._size)
        if self._size > len(self._table) * BUCKET_LOAD:
            result = type(result)(result._entries())
        self.__init__(result)
        return result


class _MapEditor(_Editor):
    __slots__ = ()

    def get(self, key, default=None):
        return self._table[hash(key) & self._mask].get(key, default)

    def __setitem__(self, key, value) -> None:
        bucket = self._bucket(key)
        if key not in bucket:
            self._size += 1
        bucket[key] = value

    def __delitem__(self, key) -> None:
        del self._bucket(key)[key]
        self._size -= 1


class _SetEditor(_Editor):
    __slots__ = ()

    def add(self, item) -> None:
        if item not in self:
            self._bucket(item).add(item)
            self._size += 1

    def discard(self, item) -> None:
        if item in self:
            self._bucket(item).discard(item)
            self._size -= 1


# -- append-only lists ---------------------------------------------------------


class PagedList(Sequence):
    """An immutable sequence whose appended copies share its storage.

    The entries the list was built with form its *head*, one flat list
    that every later version shares and none copies. Appended entries
    go to fixed pages of :data:`PAGE_SIZE` after it, all full but the
    last. :meth:`extended` copies the page table and the last page, so
    an append costs O(appended so far / PAGE_SIZE + PAGE_SIZE),
    whatever the head's length. Serves ``len``, ``[index]`` and
    iteration; :meth:`gather` is the bulk read. A ``list`` argument
    becomes the head as it is, not copied: the caller hands it over.
    """

    __slots__ = ("_head", "_pages", "_size")

    def __init__(self, items: Iterable = ()):
        self._head = items if isinstance(items, list) else list(items)
        self._pages: list[list] = []
        self._size = len(self._head)

    @classmethod
    def _of(cls, head: list, pages: list, size: int) -> "PagedList":
        made = cls.__new__(cls)
        made._head = head
        made._pages = pages
        made._size = size
        return made

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int):
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("PagedList index out of range")
        index -= len(self._head)
        if index < 0:
            return self._head[index]
        return self._pages[index >> _PAGE_SHIFT][index & _PAGE_MASK]

    def __iter__(self) -> Iterator:
        return chain(self._head, chain.from_iterable(self._pages))

    def __repr__(self) -> str:
        return f"PagedList({list(self)!r})"

    def gather(self, positions: "list[int]") -> list:
        """The entries at ``positions`` (an ascending list, in range),
        in order.

        One bisect splits the positions at the head's end. The head
        part is a C-level ``map`` over the flat head; the paged part is
        one comprehension with two subscripts per entry. No Python call
        per entry (EXPERIMENTS.md has the gather measurements).
        """
        head = self._head
        cut = bisect_left(positions, len(head))
        if cut == len(positions):
            return list(map(head.__getitem__, positions))
        out = list(map(head.__getitem__, positions[:cut]))
        pages = self._pages
        base = len(head)
        out += [pages[(position - base) >> _PAGE_SHIFT]
                [(position - base) & _PAGE_MASK]
                for position in positions[cut:]]
        return out

    def extended(self, items: Iterable) -> "PagedList":
        """This list followed by ``items``; ``self`` is untouched."""
        items = items if isinstance(items, list) else list(items)
        if not items:
            return self
        pages = list(self._pages)
        taken = 0
        fill = (self._size - len(self._head)) & _PAGE_MASK
        if fill:
            taken = PAGE_SIZE - fill
            pages[-1] = pages[-1] + items[:taken]
        for start in range(taken, len(items), PAGE_SIZE):
            pages.append(items[start:start + PAGE_SIZE])
        return PagedList._of(self._head, pages, self._size + len(items))
