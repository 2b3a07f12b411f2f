"""Hash-consing (interning) of model objects.

Every operation of the paper — the ``⊴`` order (Definitions 3-5),
key-compatibility (Definitions 6-7) and the key-based operations
(Definitions 8-12) — bottoms out in deep structural comparison of
immutable objects. Interning makes structurally equal objects
*pointer-identical*, which turns those comparisons into O(1) identity
checks and makes results memoizable by object identity:

>>> from repro.core.builder import tup
>>> from repro.core.intern import intern
>>> a = intern(tup(type="Article", title="Oracle"))
>>> b = intern(tup(title="Oracle", type="Article"))
>>> a is b
True

The pool is the *enabler* of the fast paths in
:mod:`repro.core.informativeness`, :mod:`repro.core.compatibility`,
:mod:`repro.core.operations` and :mod:`repro.core.order`, and of the
key-index signatures, path alternatives and join keys of the store and
query layers. Their results live in one identity memo, :data:`MEMO`,
which this module owns beside the default pool. A fast path consults
it only when **all** of its operands are interned, under a key that
names what it caches, then the operands' ids, then the key set or path
(``("union", id(a), id(b), K)``; a structural key is the bare
``id(obj)``). That is sound because

* objects are immutable, so a computed relation can never change;
* the pool keeps a strong reference to every canonical representative,
  so an interned ``id()`` can never be recycled while the pool lives;
* :func:`clear_pool` empties the memo together with the pool, so stale
  identities can never be consulted;
* :func:`memo_put` empties the memo once it holds :data:`MEMO_CAP`
  entries, which drops answers but never makes one wrong, since the
  pool still pins every id.

The ``naive=True`` escape hatch on the public operations bypasses all of
this and runs the original definitional code — the reference oracle that
``tests/properties/test_differential.py`` continuously checks the fast
paths against.

Interning is opt-in: plain constructors never intern. The codecs
(``repro.json_codec``, ``repro.text``, ``repro.bibtex``) take an
``intern=True`` flag, and :class:`repro.store.database.Database` interns
every row by default, so heavy merge and query traffic runs on shared,
memo-friendly structure. The pool holds strong references — long-running
processes that churn through unbounded fresh structure should call
:func:`clear_pool` at quiescent points.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.data import Data, DataSet

__all__ = [
    "InternPool", "intern", "intern_data", "intern_dataset",
    "is_interned", "equal", "clear_pool", "intern_stats",
]


class InternPool:
    """A pool of canonical object representatives.

    ``intern`` maps every structurally equal object to one canonical
    instance (recursively, so canonical objects share canonical
    substructure). The pool holds strong references; ``clear`` empties it.
    """

    __slots__ = ("_table", "_ids", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict[SSObject, SSObject] = {}
        self._ids: set[int] = set()
        #: Lookups answered from the pool.
        self.hits = 0
        #: Lookups that admitted a new canonical representative.
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, obj: SSObject) -> SSObject:
        """Return the canonical representative of ``obj``.

        The result is structurally equal to ``obj`` (``==``) and
        pointer-identical across repeated calls with equal arguments. The
        singleton ``⊥`` is its own canonical form.
        """
        if obj is BOTTOM:
            return obj
        if not isinstance(obj, SSObject):
            raise TypeError(
                f"intern() takes model objects, got {type(obj).__name__}")
        if id(obj) in self._ids:
            self.hits += 1
            return obj
        canonical = self._table.get(obj)
        if canonical is not None:
            self.hits += 1
            return canonical
        rebuilt = self._rebuild(obj)
        self._table[rebuilt] = rebuilt
        self._ids.add(id(rebuilt))
        self.misses += 1
        return rebuilt

    def adopt(self, obj: SSObject) -> SSObject:
        """Intern ``obj`` whose children are already canonical.

        A decoder that builds objects bottom-up from pool
        representatives (:mod:`repro.binary_codec`) knows every child
        is canonical, so the :meth:`_rebuild` walk of :meth:`intern`
        would return ``obj`` unchanged — this skips it and admits
        ``obj`` directly on a table miss. Calling this with
        non-canonical children would poison the pool; it is for codec
        internals, not general use.
        """
        if obj is BOTTOM:
            return obj
        if id(obj) in self._ids:
            self.hits += 1
            return obj
        canonical = self._table.setdefault(obj, obj)
        if canonical is obj:
            self._ids.add(id(obj))
            self.misses += 1
        else:
            self.hits += 1
        return canonical

    def _rebuild(self, obj: SSObject) -> SSObject:
        """Return ``obj`` with all children replaced by canonical ones.

        Reuses ``obj`` itself when every child is already canonical.
        Interning children cannot merge distinct ones (structural equality
        is preserved), so reconstruction never changes arity.
        """
        if isinstance(obj, (Atom, Marker)):
            return obj
        if isinstance(obj, OrValue):
            children = [self.intern(d) for d in obj.disjuncts]
            if all(c is d for c, d in zip(children, obj.disjuncts)):
                return obj
            return OrValue(children)
        if isinstance(obj, (PartialSet, CompleteSet)):
            children = [self.intern(e) for e in obj.elements]
            if all(c is e for c, e in zip(children, obj.elements)):
                return obj
            return type(obj)(children)
        if isinstance(obj, Tuple):
            fields = [(label, self.intern(value))
                      for label, value in obj.items()]
            if all(v is w for (_, v), (_, w) in zip(fields, obj.items())):
                return obj
            return Tuple(fields)
        raise TypeError(
            f"cannot intern {type(obj).__name__}")  # pragma: no cover

    def is_interned(self, obj: SSObject) -> bool:
        """``True`` iff ``obj`` is a canonical representative of this
        pool (``⊥`` always is)."""
        return obj is BOTTOM or id(obj) in self._ids

    def clear(self) -> None:
        """Empty the pool and reset its counters."""
        self._table.clear()
        self._ids.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Pool size and hit/miss counters, for benchmarks and tests."""
        return {"size": len(self._table), "hits": self.hits,
                "misses": self.misses}


#: The process-wide default pool used by the memoized fast paths.
_DEFAULT_POOL = InternPool()

#: Entries :data:`MEMO` holds before an insert empties it.
MEMO_CAP = 1 << 18

#: The identity memo of the fast paths: results of pure functions of
#: objects interned in the default pool, keyed by their ids (see the
#: module docstring for the key shape). Fast paths look their keys up
#: in it directly; :func:`memo_put` is its one insert.
MEMO: dict = {}


def memo_put(key: Hashable, value):
    """Store ``value`` in :data:`MEMO` under ``key`` and return it.

    The memo is emptied first once it holds :data:`MEMO_CAP` entries.
    The check and the insert take no lock, so concurrent inserts can
    leave it at most one entry per thread past the cap.
    """
    if len(MEMO) >= MEMO_CAP:
        MEMO.clear()
    MEMO[key] = value
    return value


def intern(obj: SSObject) -> SSObject:
    """Intern ``obj`` in the default pool (see :class:`InternPool`)."""
    return _DEFAULT_POOL.intern(obj)


def adopt(obj: SSObject) -> SSObject:
    """Intern an object with already-canonical children in the default
    pool (see :meth:`InternPool.adopt`). Codec-internal; deliberately
    not exported via ``__all__``."""
    return _DEFAULT_POOL.adopt(obj)


def is_interned(obj: SSObject) -> bool:
    """``True`` iff ``obj`` is canonical in the default pool."""
    return obj is BOTTOM or id(obj) in _DEFAULT_POOL._ids


def equal(first: SSObject, second: SSObject) -> bool:
    """Structural equality with an O(1) fast path for interned operands.

    When both operands are canonical representatives of the default pool,
    structural equality coincides with identity, so a deep comparison is
    never needed. Mixed or un-interned operands fall back to ``==``.
    """
    if first is second:
        return True
    if is_interned(first) and is_interned(second):
        return False
    return first == second


def intern_data(datum: "Data") -> "Data":
    """Return ``datum`` with its marker part and object interned.

    :class:`~repro.core.data.Data` itself is not pooled — only the model
    objects it wraps — but the returned datum compares equal to the
    argument and shares canonical substructure with every other interned
    datum.
    """
    from repro.core.data import Data

    marker = intern(datum.marker)
    obj = intern(datum.object)
    if marker is datum.marker and obj is datum.object:
        return datum
    return Data(marker, obj)


def intern_dataset(dataset: Iterable["Data"]) -> "DataSet":
    """Intern every datum of a data set (or iterable of data)."""
    from repro.core.data import DataSet

    return DataSet(intern_data(datum) for datum in dataset)


def clear_pool() -> None:
    """Empty the default pool and the fast paths' identity memo."""
    _DEFAULT_POOL.clear()
    MEMO.clear()


def intern_stats() -> dict[str, int]:
    """Statistics of the default pool, with the size of its identity
    memo under ``memo``."""
    return {**_DEFAULT_POOL.stats(), "memo": len(MEMO)}
