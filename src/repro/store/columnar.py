"""Columnar shredding of canonical data: the physical layout layer.

Logically every datum is an object tree (⊥, or-values, partial sets —
the paper's full algebra). Physically, most rows in a large store are
tuples of mostly-scalar attributes, and residual-heavy queries that
walk each tree row by row leave an order of magnitude on the table.
This module decouples the two: a :class:`ColumnStore` *shreds* a
snapshot's data into **path-keyed columns** — flat Python lists of
primitives plus bitset sidecars, one column per full label path
(Dremel-style: the column for ``author.name.last`` is keyed
``("author", "name", "last")``) — and the column-at-a-time evaluator
(:func:`repro.query.compile.compile_columnar`) answers conditions with
big-int bitset algebra instead of per-row tree walks.

Shredding recurses through plain nested tuples, with per-*entry*
fallbacks instead of the old whole-row residue:

* a path bound to a plain :class:`~repro.core.objects.Atom` becomes a
  **scalar** entry: its primitive value lands in the column's flat
  array and the ``present`` bit is set;
* a path bound to a plain nested :class:`~repro.core.objects.Tuple`
  (within the shred-depth cap) becomes a **tuple-interior** entry: the
  ``present`` and ``tuples`` bits are set and the tuple's own fields
  shred into deeper path columns — a missing intermediate, a missing
  leaf and an or-valued intermediate each leave a *different* bit
  pattern, which is what keeps the tri-state algebra exact on nested
  paths;
* a path bound to a marker, an or-value or a (partial/complete) set
  whose flattened members are all leaves becomes an **irregular**
  entry: ``present`` records whether the path reaches at least one
  value, and the entry's *possible* values index from the extras
  sidecar (:meth:`Column.possible_index`). Condition leaves are
  existential over reached values, so eq/ne/ordered/contains answer
  **exactly** on irregular entries whose possible values are all plain
  atoms; only entries with a non-atomic possible value stay in the
  per-row "maybe" set — columns carry tri-state answers, they never
  pretend partial data is complete;
* a path whose value mixes tuples into an or-value or set, carries a
  ``Tuple`` *subclass*, or sits at the shred-depth cap becomes an
  **opaque** entry (``opaque`` ⊆ ``irregular``): the value itself is
  evaluated per-row like any irregular entry, and every *descendant*
  path inherits a "maybe" on that row
  (:meth:`ColumnStore.ancestor_opaque`) because nothing below it was
  shredded;
* only genuinely irregular *rows* remain in the **residue**: top-level
  ``Tuple`` subclasses, and non-tuple tops that hide tuples inside
  sets or or-values. The row scan remains their evaluator.

Top-level non-tuple objects (atoms, markers, ⊥, sets of leaves) shred
to field-less rows — every column is absent, which is precisely what
every path reaches on them.

The resulting masks make three facts *exact* for shredded rows, and
the evaluator leans on all of them:

1. a path reaches exactly its column's entries on every row without an
   opaque ancestor — at any depth;
2. on rows where some proper prefix of the path is opaque, the answer
   is "maybe" and nothing stronger;
3. ``present`` is existence, and an irregular entry's possible values
   are exactly its sidecar's spread members — or-value/⊥ uncertainty
   widens the definite sets only through the existential reading the
   row predicates share, never beyond it.

Stores are immutable. :meth:`ColumnStore.patched` produces the next
generation copy-on-write, mirroring ``AttrIndex.patched``: removals
only set tombstone bits (scan results are masked, arrays never shrink
eagerly), additions append, and past a drift threshold the store
rebuilds compactly. A column's lazily built state — eq-index,
possible-value index, scan memo — lives as long as its positions do:
the successor inherits it (extended by the appended rows where they
reach the column), and only the compacting rebuild, which renumbers
positions, starts from nothing. The store-level memos never cross a
generation. Classification is fully iterative and the
entry points are routed through :mod:`repro.core.guard`, so
pathologically deep objects cannot blow the recursion limit — a tuple
chain deeper than :data:`DEFAULT_SHRED_DEPTH` simply truncates into an
opaque entry at the cap.

:func:`write_column_shard` / :func:`read_column_shard` put the same
layout on the binary-codec wire, so the parallel executor ships column
shards — not object trees — to its workers; nested rows are
re-materialized from their path entries on the receiving side.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Sequence

from repro.core.data import Data, DataSet
from repro.core.guard import guarded as _guarded
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
from repro.core.order import structural_key

__all__ = ["Column", "ColumnStore", "bit_positions",
           "write_column_shard", "read_column_shard",
           "DEFAULT_SHRED_DEPTH"]

#: A parsed attribute path — the column key.
Path = tuple[str, ...]

#: Set-bit offsets within one byte value, for fast bitset iteration.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1)
    for value in range(256))

#: Past this many tombstoned positions (and more dead than alive),
#: ``patched`` rebuilds compactly instead of patching.
_REBUILD_DEAD = 64

#: Ordered-comparison scans memoized per column, capped per store.
_SCAN_MEMO_CAP = 128

#: Plain nested tuples shred into path columns down to this depth;
#: deeper tuples become opaque entries at the cap (configurable per
#: store via ``ColumnStore.build(shred_depth=...)``).
DEFAULT_SHRED_DEPTH = 8

def bit_positions(bits: int) -> list[int]:
    """Ascending positions of the set bits of a non-negative int.

    The workhorse of bitset→row translation: byte-at-a-time through a
    256-entry offset table, so sparse masks cost O(size/8) regardless
    of how few bits are set.
    """
    if bits <= 0:
        return []
    out: list[int] = []
    raw = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for index, byte in enumerate(raw):
        if byte:
            base = index << 3
            out.extend(base + bit for bit in _BYTE_BITS[byte])
    return out


class _BitBuilder:
    """Accumulate single bits into an int without quadratic shifting.

    ``bits |= 1 << i`` per row is O(n) per update on big ints; a
    bytearray keeps each update O(1) and converts once at the end.
    """

    __slots__ = ("_buf",)

    def __init__(self, size: int):
        self._buf = bytearray((size + 7) >> 3)

    def set(self, position: int) -> None:
        self._buf[position >> 3] |= 1 << (position & 7)

    def value(self) -> int:
        return int.from_bytes(self._buf, "little")


def _canonical_key(datum: Data) -> tuple:
    return (structural_key(datum.marker), structural_key(datum.object))


#: Entry classification results (see the module docs).
_SCALAR = "scalar"
_IRREGULAR = "irregular"
_OPAQUE = "opaque"


def _classify_value(value: SSObject):
    """Classify one non-interior path value; iterative, never recursive.

    Returns ``(_SCALAR, primitive)``, ``(_IRREGULAR, reaches_any)`` or
    ``(_OPAQUE, True)``. Plain tuples within the depth cap never reach
    here — the shredder recurses into them instead; tuples that do
    (subclasses, members of sets/or-values, depth-capped chains) make
    the entry opaque: the value is per-row like any irregular entry,
    and descendants of the path are unknowable from the columns.
    """
    if type(value) is Atom:
        return (_SCALAR, value.value)
    if isinstance(value, Tuple):
        # A Tuple subclass (or a plain tuple past the depth cap): a
        # reachable value whose interior the columns do not cover.
        return (_OPAQUE, True)
    if isinstance(value, (OrValue, PartialSet, CompleteSet)):
        present = False
        stack = list(value.disjuncts if isinstance(value, OrValue)
                     else value.elements)
        while stack:
            node = stack.pop()
            if isinstance(node, Tuple):
                # A tuple hiding inside a set/or-value: reachable (the
                # tuple is a value), interior uncovered.
                return (_OPAQUE, True)
            if isinstance(node, (PartialSet, CompleteSet)):
                stack.extend(node.elements)
            elif isinstance(node, OrValue):
                stack.extend(node.disjuncts)
            elif node is not BOTTOM:
                present = True
        return (_IRREGULAR, present)
    if value is BOTTOM:
        # Unreachable in canonical tuples (⊥ fields are stripped), but
        # classify it anyway: ⊥ reaches nothing.
        return (_IRREGULAR, False)
    # Markers and leaf-like subclasses: reachable, per-row for values.
    return (_IRREGULAR, True)


def _sorted_ranges(index: dict) -> tuple:
    """Sorted ``(values, bitsets)`` parallel lists per comparable class
    — numbers (bool excluded) and strings — from a ``(type, value) ->
    bitset`` index. The substrate of :func:`_range_bits`."""
    numeric: list[tuple] = []
    strings: list[tuple] = []
    for (kind, value), bits in index.items():
        if kind is bool:
            continue
        if kind is int or kind is float:
            numeric.append((value, bits))
        elif kind is str:
            strings.append((value, bits))
    numeric.sort(key=lambda pair: pair[0])
    strings.sort(key=lambda pair: pair[0])
    return (
        [value for value, _ in numeric],
        [bits for _, bits in numeric],
        [value for value, _ in strings],
        [bits for _, bits in strings],
    )


def _range_bits(ranges: tuple, op_name: str, bound) -> int:
    """OR of the distinct-value bitsets satisfying the ordered
    comparison: O(log distinct) bisect plus one OR per matching
    distinct value, independent of row count."""
    num_values, num_bits, str_values, str_bits = ranges
    if isinstance(bound, str):
        sorted_values, sorted_bits = str_values, str_bits
    else:
        sorted_values, sorted_bits = num_values, num_bits
    if op_name == "lt":
        selected = sorted_bits[:bisect_left(sorted_values, bound)]
    elif op_name == "le":
        selected = sorted_bits[:bisect_right(sorted_values, bound)]
    elif op_name == "ge":
        selected = sorted_bits[bisect_left(sorted_values, bound):]
    else:  # "gt"
        selected = sorted_bits[bisect_right(sorted_values, bound):]
    bits = 0
    for chunk in selected:
        bits |= chunk
    return bits


def _shreddable_top(obj: SSObject) -> bool:
    """Whether a non-tuple top-level object shreds to a field-less row.

    True exactly when no path can reach a value inside it through a
    tuple — i.e. its flattened members contain no tuples.
    """
    if isinstance(obj, Tuple):
        return False
    if isinstance(obj, (OrValue, PartialSet, CompleteSet)):
        stack = list(obj.disjuncts if isinstance(obj, OrValue)
                     else obj.elements)
        while stack:
            node = stack.pop()
            if isinstance(node, Tuple):
                return False
            if isinstance(node, (PartialSet, CompleteSet)):
                stack.extend(node.elements)
            elif isinstance(node, OrValue):
                stack.extend(node.disjuncts)
        return True
    return True  # atoms, markers, ⊥, leaf-like subclasses


class Column:
    """One attribute path's physical column.

    ``values`` is a flat list indexed by row position: the primitive
    atom value at scalar positions, ``None`` elsewhere (atom values are
    never ``None``, so no sentinel collision). ``present``,
    ``irregular``, ``tuples`` and ``opaque`` are position bitsets:
    ``tuples`` marks tuple-interior entries (the value at this path is
    a plain nested tuple whose fields live in deeper columns), and
    ``opaque`` ⊆ ``irregular`` marks entries whose *descendants* the
    columns do not cover. ``extras`` maps irregular positions to the
    original field object (needed to re-materialize rows from the
    wire). Bits at tombstoned positions are masked by the store, never
    cleared here.
    """

    __slots__ = ("values", "present", "irregular", "tuples", "opaque",
                 "extras", "_eq_index", "_scan_memo", "_ordered_index",
                 "_irr_index", "_irr_ordered")

    def __init__(self, values: list, present: int, irregular: int,
                 tuples: int, opaque: int, extras: dict[int, SSObject]):
        self.values = values
        self.present = present
        self.irregular = irregular
        self.tuples = tuples
        self.opaque = opaque
        self.extras = extras
        self._eq_index: dict | None = None
        self._scan_memo: dict = {}
        self._ordered_index: tuple | None = None
        self._irr_index: tuple | None = None
        self._irr_ordered: tuple | None = None

    def eq_index(self) -> dict:
        """The lazily built hash index: ``(type, value) -> position
        bitset`` over the column's scalar entries.

        This is the vectorized substrate for value-partitioned work:
        equality leaves, the aggregate kernels and the sorted range
        index read it directly (one bitset per distinct value, no
        per-row dispatch). Returned dict is shared and must not be
        mutated.

        Lifetime: once built, the index outlives this column's
        generation. :meth:`ColumnStore.patched` hands the same dict to
        the successor when the appended rows leave this path alone, and
        a copy with the appended rows' bitsets shifted in when they
        reach it. A successor whose parent never built the index builds
        its own on first use. Tombstoned positions keep their bits here;
        the store masks them at query time.
        """
        self.eq_bits(0)  # force the lazy build
        return self._eq_index

    def distinct_count(self) -> int:
        """Distinct scalar values (planner join/group statistics)."""
        return len(self.eq_index())

    def numeric_stats(self, mask: int):
        """``(count, total, min, max)`` over the numeric scalar entries
        at positions in ``mask`` — the one-pass fold behind columnar
        ``sum``/``min``/``max`` (booleans excluded, like the ordered
        comparisons)."""
        values = self.values
        count = 0
        total = 0
        minimum = None
        maximum = None
        for position in bit_positions(mask):
            value = values[position]
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                count += 1
                total += value
                if minimum is None or value < minimum:
                    minimum = value
                if maximum is None or value > maximum:
                    maximum = value
        return count, total, minimum, maximum

    def eq_bits(self, primitive) -> int:
        """Unmasked positions whose scalar entry type-strictly equals
        ``primitive`` (mirrors ``Atom.__eq__``: ``1``, ``True`` and
        ``1.0`` are three different keys)."""
        index = self._eq_index
        if index is None:
            buckets: dict[tuple, _BitBuilder] = {}
            size = len(self.values)
            for position, value in enumerate(self.values):
                if value is None:
                    continue
                key = (type(value), value)
                builder = buckets.get(key)
                if builder is None:
                    builder = buckets[key] = _BitBuilder(size)
                builder.set(position)
            index = {key: builder.value()
                     for key, builder in buckets.items()}
            self._eq_index = index
        return index.get((type(primitive), primitive), 0)

    def _range_index(self) -> tuple:
        """Sorted ``(values, bitsets)`` pairs per comparable class —
        numbers (bool excluded) and strings — built once from the eq
        index. Range scans become a bisect plus an OR over the matching
        distinct-value bitsets instead of a per-row pass."""
        index = self._ordered_index
        if index is None:
            index = self._ordered_index = _sorted_ranges(self.eq_index())
        return index

    def _memoized(self, key: tuple) -> int:
        """``key[0](self, key)`` through the scan memo.

        A memo key is ``(scan, *operands)`` where ``scan`` is one of the
        module's ``_scan_*`` functions: a position-wise function of the
        column's entries, so :meth:`ColumnStore.patched` can extend any
        entry by running its scan on the appended rows alone. Readers
        race benignly on the memo (equal values, capped by clearing).
        """
        memo = self._scan_memo
        bits = memo.get(key)
        if bits is None:
            bits = key[0](self, key)
            if len(memo) >= _SCAN_MEMO_CAP:
                memo.clear()
            memo[key] = bits
        return bits

    def ordered_bits(self, op_name: str, bound) -> int:
        """Unmasked positions whose scalar entry satisfies the ordered
        comparison; type-specialized like the compiled row predicate
        (numbers with numbers, strings with strings, never booleans).

        Answered from the sorted range index: O(log distinct) bisect
        plus one OR per matching distinct value, independent of row
        count."""
        return self._memoized((_scan_ordered, op_name, type(bound), bound))

    def possible_index(self) -> tuple[dict, int]:
        """``(buckets, fallback_bits)`` over the irregular entries'
        *possible* values, resolved once from the extras sidecar.

        ``buckets`` maps ``(type, value) -> position bitset`` for every
        plain-atom value an irregular entry can spread to (or-value
        disjuncts, set members — the same reached values the row
        predicates see); ``fallback_bits`` marks positions with at
        least one non-atomic possible value (markers, tuples inside
        opaque entries, leaf-like subclasses), which value predicates
        must still evaluate per-row. Because every condition leaf is
        existential over reached values, the buckets let the leaf
        kernels answer eq/ne/ordered/contains *exactly* on atom-only
        irregular rows instead of demoting them all to maybes."""
        index = self._irr_index
        if index is None:
            size = len(self.values)
            buckets: dict[tuple, _BitBuilder] = {}
            fallback = _BitBuilder(size)
            for position, extra in self.extras.items():
                stack = [extra]
                while stack:
                    value = stack.pop()
                    if type(value) is Atom:
                        key = (type(value.value), value.value)
                        builder = buckets.get(key)
                        if builder is None:
                            builder = buckets[key] = _BitBuilder(size)
                        builder.set(position)
                    elif isinstance(value, (PartialSet, CompleteSet)):
                        stack.extend(value.elements)
                    elif isinstance(value, OrValue):
                        stack.extend(value.disjuncts)
                    elif value is not BOTTOM:
                        fallback.set(position)
            index = self._irr_index = (
                {key: builder.value()
                 for key, builder in buckets.items()},
                fallback.value())
        return index

    def fallback_bits(self) -> int:
        """Irregular positions whose possible values are not all plain
        atoms — the rows value predicates still check per-row."""
        return self.possible_index()[1]

    def possible_eq_bits(self, primitive) -> int:
        """Irregular positions where some possible value type-strictly
        equals ``primitive`` — on those rows ``Eq`` definitely matches
        (the predicate is existential over reached values)."""
        return self.possible_index()[0].get((type(primitive), primitive),
                                            0)

    def possible_differs_bits(self, primitive) -> int:
        """Irregular positions where some possible atom value differs
        from ``primitive`` — the existential reading of ``Ne``."""
        return self._memoized((_scan_possible_differs, type(primitive),
                               primitive))

    def possible_ordered_bits(self, op_name: str, bound) -> int:
        """Irregular positions where some possible atom value satisfies
        the ordered comparison (same type rules as ``ordered_bits``)."""
        return self._memoized((_scan_possible_ordered, op_name,
                               type(bound), bound))

    def possible_contains_bits(self, needle: str) -> int:
        """Irregular positions where some possible string value
        contains ``needle``."""
        return self._memoized((_scan_possible_contains, needle))

    def contains_bits(self, needle: str) -> int:
        """Unmasked positions whose scalar string entry contains
        ``needle``."""
        return self._memoized((_scan_contains, needle))

    # -- copy-on-write successors (see ColumnStore.patched) --------------------

    def _padded(self, pad: list) -> "Column":
        """This column followed by ``pad``, ``None`` entries for appended
        rows that do not reach its path.

        No entry changes, so the successor keeps this column's bitsets,
        sidecar and built indexes as they are, and a private copy of the
        scan memo (one ``dict.copy()``: readers may be inserting, and a
        copy is never iterated half-way through an insert).
        """
        column = Column(self.values + pad, self.present, self.irregular,
                        self.tuples, self.opaque, self.extras)
        column._eq_index = self._eq_index
        column._ordered_index = self._ordered_index
        column._irr_index = self._irr_index
        column._irr_ordered = self._irr_ordered
        column._scan_memo = self._scan_memo.copy()
        return column

    def _extended(self, tail: "Column", shift: int) -> "Column":
        """This column followed by ``tail``, the same path's column over
        the appended rows alone, whose positions start at ``shift``.

        Every lazily built structure is a position-wise function of the
        entries, so where this column built one, the successor's is
        this one OR'd with the tail's shifted up by ``shift``: the eq
        and possible-value indexes merge per key, and each memo entry
        is recomputed on the tail (the memo is snapshotted first, since
        readers may be inserting). Structures this column never built,
        and the sorted range indexes, stay lazy in the successor.
        """
        extras = dict(self.extras)
        extras.update((shift + position, value)
                      for position, value in tail.extras.items())
        column = Column(self.values + tail.values,
                        self.present | tail.present << shift,
                        self.irregular | tail.irregular << shift,
                        self.tuples | tail.tuples << shift,
                        self.opaque | tail.opaque << shift,
                        extras)
        eq_index = self._eq_index
        if eq_index is not None:
            column._eq_index = _merge_shifted(eq_index, tail.eq_index(),
                                              shift)
        irr_index = self._irr_index
        if irr_index is not None:
            buckets, fallback = tail.possible_index()
            column._irr_index = (
                _merge_shifted(irr_index[0], buckets, shift),
                irr_index[1] | fallback << shift)
        memo = column._scan_memo
        for key, bits in self._scan_memo.copy().items():
            extra = key[0](tail, key)
            memo[key] = bits | extra << shift if extra else bits
        return column


def _merge_shifted(index: dict, tail: dict, shift: int) -> dict:
    """A copy of a ``key -> bitset`` index with ``tail``'s bitsets
    shifted up by ``shift`` and OR'd in per key."""
    merged = dict(index)
    for key, bits in tail.items():
        merged[key] = merged.get(key, 0) | bits << shift
    return merged


# The scan memo's scans: ``scan(column, key)`` with ``key`` the memo key
# ``(scan, *operands)`` (see ``Column._memoized``).


def _scan_ordered(column: Column, key: tuple) -> int:
    return _range_bits(column._range_index(), key[1], key[3])


def _scan_contains(column: Column, key: tuple) -> int:
    needle = key[1]
    builder = _BitBuilder(len(column.values))
    for position, value in enumerate(column.values):
        if isinstance(value, str) and needle in value:
            builder.set(position)
    return builder.value()


def _scan_possible_differs(column: Column, key: tuple) -> int:
    target = key[1:]
    bits = 0
    for value_key, chunk in column.possible_index()[0].items():
        if value_key != target:
            bits |= chunk
    return bits


def _scan_possible_ordered(column: Column, key: tuple) -> int:
    index = column._irr_ordered
    if index is None:
        index = column._irr_ordered = _sorted_ranges(
            column.possible_index()[0])
    return _range_bits(index, key[1], key[3])


def _scan_possible_contains(column: Column, key: tuple) -> int:
    needle = key[1]
    bits = 0
    for (kind, value), chunk in column.possible_index()[0].items():
        if kind is str and needle in value:
            bits |= chunk
    return bits


class _ColumnBuilder:
    __slots__ = ("values", "present", "irregular", "tuples", "opaque",
                 "extras")

    def __init__(self, size: int):
        self.values: list = [None] * size
        self.present = _BitBuilder(size)
        self.irregular = _BitBuilder(size)
        self.tuples = _BitBuilder(size)
        self.opaque = _BitBuilder(size)
        self.extras: dict[int, SSObject] = {}

    def finish(self) -> Column:
        return Column(self.values, self.present.value(),
                      self.irregular.value(), self.tuples.value(),
                      self.opaque.value(), self.extras)


class ColumnStore:
    """Shredded path columns plus a row-fallback residue for one
    snapshot.

    Positions are stable row indices into :attr:`rows`; all masks are
    big-int bitsets over positions. Instances are immutable once built
    (column scan memos and the opaque-ancestor memo are the only lazy
    writes, and they are benign), so one store can serve lock-free
    readers like every other per-generation structure in this repo.
    """

    __slots__ = ("_rows", "_positions", "_columns", "_labels", "_paths",
                 "_shredded", "_dead", "_size", "_ordered",
                 "_universe", "_residue", "_alive_count",
                 "_shred_depth", "_opaque_memo", "_alt_memo")

    def __init__(self, rows: list[Data], positions: dict[Data, int],
                 columns: dict[Path, Column], shredded: int, dead: int,
                 ordered: bool, shred_depth: int = DEFAULT_SHRED_DEPTH):
        self._rows = rows
        self._positions = positions
        self._columns = columns
        self._paths = tuple(sorted(columns))
        self._labels = tuple(".".join(path) for path in self._paths)
        self._shredded = shredded
        self._dead = dead
        self._size = len(rows)
        self._ordered = ordered
        self._shred_depth = shred_depth
        alive = ((1 << self._size) - 1) & ~dead
        self._universe = shredded & alive
        self._residue = alive & ~shredded
        self._alive_count = alive.bit_count()
        self._opaque_memo: dict[Path, int] = {}
        self._alt_memo: dict = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    @_guarded
    def build(cls, data: Iterable[Data], *,
              ordered: bool | None = None,
              shred_depth: int = DEFAULT_SHRED_DEPTH) -> "ColumnStore":
        """Shred ``data`` (distinct data) into a fresh store.

        ``ordered`` records whether row positions follow the canonical
        data order; it defaults to ``True`` for a :class:`DataSet`
        (whose iteration is canonical) and ``False`` otherwise. Pass
        ``ordered=True`` for a pre-sorted slice (a parallel shard).
        ``shred_depth`` caps path recursion: plain tuples at paths of
        that length become opaque entries instead of shredding deeper.
        """
        if ordered is None:
            ordered = isinstance(data, DataSet)
        rows = list(data)
        size = len(rows)
        shredded = _BitBuilder(size)
        builders: dict[Path, _ColumnBuilder] = {}
        stack: list[tuple[Path, Tuple]] = []
        for position, datum in enumerate(rows):
            obj = datum.object
            if type(obj) is Tuple:
                shredded.set(position)
                stack.append(((), obj))
                while stack:
                    prefix, node = stack.pop()
                    for label, value in node.items():
                        path = prefix + (label,)
                        column = builders.get(path)
                        if column is None:
                            column = builders[path] = _ColumnBuilder(size)
                        if (type(value) is Tuple
                                and len(path) < shred_depth):
                            column.present.set(position)
                            column.tuples.set(position)
                            stack.append((path, value))
                            continue
                        kind, payload = _classify_value(value)
                        if kind is _SCALAR:
                            column.values[position] = payload
                            column.present.set(position)
                        elif kind is _OPAQUE:
                            column.present.set(position)
                            column.irregular.set(position)
                            column.opaque.set(position)
                            column.extras[position] = value
                        elif payload:  # irregular entry reaching >=1 value
                            column.present.set(position)
                            column.irregular.set(position)
                            column.extras[position] = value
                        # irregular reaching nothing: all bits stay
                        # clear — indistinguishable from absent for
                        # every path.
            elif _shreddable_top(obj):
                shredded.set(position)  # field-less row
            # else: residue row (Tuple subclass top, tuples hiding in a
            # non-tuple top)
        columns = {path: builder.finish()
                   for path, builder in builders.items()}
        positions = {datum: position
                     for position, datum in enumerate(rows)}
        return cls(rows, positions, columns, shredded.value(), 0,
                   ordered, shred_depth)

    @_guarded
    def patched(self, removed: Iterable[Data],
                added: Iterable[Data]) -> "ColumnStore":
        """The next generation's store, copy-on-write.

        Removals tombstone positions (masks carry liveness; arrays are
        shared untouched). Additions append — re-adding a tombstoned
        datum resurrects its position. When tombstones outnumber live
        rows the store rebuilds compactly in canonical order, and the
        rebuilt store starts with every lazy structure unbuilt.

        Otherwise each column's lazily built state carries over: its
        eq-index, possible-value index and scan memo (see
        :meth:`Column.eq_index` for the lifetime rule). A column the
        appended rows do not reach keeps the parent's index objects and
        a copy of its memo; a column they reach gets the parent's
        structures with the appended rows' shifted in, but only those
        the parent had built. This is exact because each structure is a
        position-wise function of the entries, positions only append, a
        resurrected position holds the same datum, and tombstones are
        masked by :attr:`universe_mask` at query time. The write pays
        one dict copy per built index on a reached column (proportional
        to its distinct keys) plus one tail scan per memo entry there.

        The store-level memos (``ancestor_opaque``, :attr:`alt_memo`)
        start empty in every successor. ``alt_memo`` must: it is keyed
        by position, and sibling successors of one parent, which an
        aborted commit batch leaves behind, put different rows at the
        same new positions.
        """
        dead = self._dead
        removal_mask = _BitBuilder(self._size)
        for datum in removed:
            position = self._positions.get(datum)
            if position is not None:
                removal_mask.set(position)
        dead |= removal_mask.value()

        appended: list[Data] = []
        resurrect = _BitBuilder(self._size)
        for datum in added:
            position = self._positions.get(datum)
            if position is None:
                appended.append(datum)
            elif dead >> position & 1:
                resurrect.set(position)
        dead &= ~resurrect.value()

        old_size = self._size
        dead_count = dead.bit_count()
        if (dead_count > _REBUILD_DEAD
                and 2 * dead_count > old_size + len(appended)):
            alive = [self._rows[position]
                     for position in bit_positions(
                         ((1 << old_size) - 1) & ~dead)]
            alive.extend(appended)
            alive.sort(key=_canonical_key)
            return ColumnStore.build(alive, ordered=True,
                                     shred_depth=self._shred_depth)
        if not appended:
            return ColumnStore(self._rows, self._positions, self._columns,
                               self._shredded, dead, self._ordered,
                               self._shred_depth)

        tail = ColumnStore.build(appended, ordered=False,
                                 shred_depth=self._shred_depth)
        positions = dict(self._positions)
        for offset, datum in enumerate(tail._rows):
            positions[datum] = old_size + offset
        pad = [None] * len(appended)
        columns: dict[Path, Column] = {}
        for path, column in self._columns.items():
            tail_column = tail._columns.get(path)
            columns[path] = (column._padded(pad) if tail_column is None
                             else column._extended(tail_column, old_size))
        head_pad = [None] * old_size
        for path, tail_column in tail._columns.items():
            if path in columns:
                continue
            columns[path] = Column(
                head_pad + tail_column.values,
                tail_column.present << old_size,
                tail_column.irregular << old_size,
                tail_column.tuples << old_size,
                tail_column.opaque << old_size,
                {old_size + position: value
                 for position, value in tail_column.extras.items()})
        return ColumnStore(self._rows + tail._rows, positions, columns,
                           self._shredded | tail._shredded << old_size,
                           dead, False, self._shred_depth)

    # -- introspection ---------------------------------------------------------

    @property
    def rows(self) -> list[Data]:
        """The position-indexed row list (tombstones included)."""
        return self._rows

    @property
    def size(self) -> int:
        """Total positions, live and tombstoned."""
        return self._size

    @property
    def alive_count(self) -> int:
        """Live rows (shredded plus residue)."""
        return self._alive_count

    @property
    def shredded_count(self) -> int:
        """Live rows answered by the columns."""
        return self._universe.bit_count()

    @property
    def residue_count(self) -> int:
        """Live rows only the row scan can answer."""
        return self._residue.bit_count()

    @property
    def labels(self) -> tuple[str, ...]:
        """Shredded paths as dotted strings, sorted."""
        return self._labels

    @property
    def paths(self) -> tuple[Path, ...]:
        """Shredded path keys, sorted."""
        return self._paths

    @property
    def shred_depth(self) -> int:
        """The depth cap plain nested tuples shred down to."""
        return self._shred_depth

    @property
    def ordered(self) -> bool:
        """Whether ascending position is canonical data order."""
        return self._ordered

    @property
    def universe_mask(self) -> int:
        """Bitset of live shredded rows — the complement base for
        negation in the tri-state evaluator."""
        return self._universe

    @property
    def residue_mask(self) -> int:
        """Bitset of live residue rows (always per-row evaluated)."""
        return self._residue

    @property
    def alt_memo(self) -> dict:
        """Per-snapshot memo for the query layer's per-row alternatives
        resolver: ``(position, steps) -> alternatives``. Rows and
        positions are immutable for the store's lifetime, so resolved
        alternatives stay valid across queries — the aggregate kernels
        share this dict instead of re-walking irregular rows on every
        invocation (capped by the caller, benign under races like the
        scan memos). It is never carried to a :meth:`patched`
        successor: siblings of one parent put different rows at the
        same new positions."""
        return self._alt_memo

    def column(self, path) -> "Column | None":
        """The physical column for an attribute path, if any row
        shredded it (the aggregate/join kernels' entry point).

        ``path`` is a step tuple; a plain string is parsed on dots.
        """
        if isinstance(path, str):
            path = tuple(path.split("."))
        else:
            path = tuple(path)
        return self._columns.get(path)

    def ancestor_opaque(self, steps) -> int:
        """Live shredded rows where some *proper prefix* of ``steps``
        is an opaque entry: the columns cannot answer the path there —
        every predicate is "maybe" on those rows. Memoized per path.
        """
        steps = tuple(steps)
        bits = self._opaque_memo.get(steps)
        if bits is None:
            bits = 0
            for depth in range(1, len(steps)):
                column = self._columns.get(steps[:depth])
                if column is not None:
                    bits |= column.opaque
            bits &= self._universe
            self._opaque_memo[steps] = bits
        return bits

    def path_masks(self, steps) -> "tuple[Column | None, int, int]":
        """``(column, scalar_mask, per_row_mask)`` for a path — the
        shared entry point of the join and aggregate kernels.

        ``scalar_mask`` holds the live rows whose value at the path is
        a single scalar readable from ``column.values``;
        ``per_row_mask`` holds the live shredded rows that need the
        per-row resolver (irregular entries, tuple-interior values,
        opaque ancestors). Rows in neither mask definitely reach
        nothing at the path.
        """
        steps = tuple(steps)
        column = self._columns.get(steps)
        ancestors = self.ancestor_opaque(steps)
        if column is None:
            return None, 0, ancestors
        universe = self._universe
        scalar = (column.present & ~column.irregular
                  & ~column.tuples) & universe
        per_row = ((column.irregular | column.tuples)
                   & universe) | ancestors
        return column, scalar, per_row

    def positions_mask(self, positions: Iterable[int]) -> int:
        """Ascending-or-not positions folded into one bitset."""
        builder = _BitBuilder(self._size)
        for position in positions:
            builder.set(position)
        return builder.value()

    # -- leaf evaluation -------------------------------------------------------
    #
    # Every method returns ``(true_bits, maybe_bits)`` — disjoint
    # subsets of ``universe_mask``. Rows in neither set *definitively*
    # fail the leaf. Exactness relies on the shred invariants: on rows
    # without an opaque ancestor a path reaches exactly its column's
    # entries (at any depth), and rows *with* an opaque ancestor carry
    # no entry at the path — they surface only through the
    # ancestor-opaque maybe mask, so the two sets never overlap.
    #
    # Irregular entries are *not* automatic maybes: every condition
    # leaf is existential over the path's reached values, so an
    # or-valued or set-valued entry resolves exactly from the possible
    # values in its extras sidecar (``Column.possible_index``). Only
    # entries with a non-atomic possible value (``fallback_bits``) and
    # opaque-ancestor rows remain per-row.

    def leaf_eq(self, steps: Sequence[str],
                target: SSObject) -> tuple[int, int]:
        steps = tuple(steps)
        column = self._columns.get(steps)
        ancestors = self.ancestor_opaque(steps)
        if column is None:
            return (0, ancestors)
        universe = self._universe
        if type(target) is Atom:
            # A tuple-interior value is a Tuple: never equal to an atom.
            true = (column.eq_bits(target.value)
                    | column.possible_eq_bits(target.value)) & universe
            maybe = ((column.fallback_bits() & universe) | ancestors)
            return (true, maybe & ~true)
        # Scalar atoms never equal a non-atom target; irregular rows
        # (marker or mixed leaves) and tuple-interior values go per-row.
        return (0, ((column.irregular | column.tuples) & universe)
                | ancestors)

    def leaf_ne(self, steps: Sequence[str],
                target: SSObject) -> tuple[int, int]:
        steps = tuple(steps)
        column = self._columns.get(steps)
        ancestors = self.ancestor_opaque(steps)
        if column is None:
            return (0, ancestors)
        universe = self._universe
        scalar = (column.present & ~column.irregular
                  & ~column.tuples) & universe
        if type(target) is Atom:
            # A tuple-interior value always differs from an atom.
            true = ((scalar & ~column.eq_bits(target.value))
                    | (column.tuples & universe)
                    | (column.possible_differs_bits(target.value)
                       & universe))
            maybe = ((column.fallback_bits() & universe) | ancestors)
            return (true, maybe & ~true)
        # An atom always differs from a non-atom; a tuple-interior
        # value might equal a Tuple target — per-row.
        return (scalar, ((column.irregular | column.tuples) & universe)
                | ancestors)

    def leaf_ordered(self, steps: Sequence[str], op_name: str,
                     bound) -> tuple[int, int]:
        steps = tuple(steps)
        column = self._columns.get(steps)
        ancestors = self.ancestor_opaque(steps)
        if column is None:
            return (0, ancestors)
        universe = self._universe
        # Tuple-interior values never satisfy the type-specialized
        # comparison: definite misses, like non-numeric scalars.
        true = (column.ordered_bits(op_name, bound)
                | column.possible_ordered_bits(op_name, bound)) & universe
        maybe = (column.fallback_bits() & universe) | ancestors
        return (true, maybe & ~true)

    def leaf_contains(self, steps: Sequence[str],
                      needle: str) -> tuple[int, int]:
        steps = tuple(steps)
        column = self._columns.get(steps)
        ancestors = self.ancestor_opaque(steps)
        if column is None:
            return (0, ancestors)
        universe = self._universe
        true = (column.contains_bits(needle)
                | column.possible_contains_bits(needle)) & universe
        maybe = (column.fallback_bits() & universe) | ancestors
        return (true, maybe & ~true)

    def leaf_exists(self, steps: Sequence[str]) -> tuple[int, int]:
        steps = tuple(steps)
        column = self._columns.get(steps)
        ancestors = self.ancestor_opaque(steps)
        if column is None:
            return (0, ancestors)
        # ``present`` is existence even on irregular and tuple-interior
        # rows: the bit is set exactly when the path reaches >=1 non-⊥
        # value. Opaque-ancestor rows have no entry here, so the maybe
        # mask stays disjoint by construction.
        return (column.present & self._universe,
                ancestors & ~column.present)

    # -- selection -------------------------------------------------------------

    def match_positions(self, program, predicate:
                        Callable[[SSObject], bool]) -> list[int]:
        """Ascending live positions matching a compiled columnar
        ``program``, with ``predicate`` (the compiled row condition)
        deciding maybe-rows and the residue."""
        true_bits, maybe_bits = program(self)
        check = maybe_bits | self._residue
        definite = bit_positions(true_bits)
        if not check:
            return definite
        rows = self._rows
        checked = [position for position in bit_positions(check)
                   if predicate(rows[position].object)]
        if not definite:
            return checked
        if not checked:
            return definite
        import heapq

        return list(heapq.merge(definite, checked))

    def matches(self, program, predicate:
                Callable[[SSObject], bool]) -> list[Data]:
        """Matching rows in canonical data order (the row-scan order)."""
        selected = [self._rows[position]
                    for position in self.match_positions(program,
                                                         predicate)]
        if not self._ordered:
            selected.sort(key=_canonical_key)
        return selected


# -- wire format ---------------------------------------------------------------


def write_column_shard(encoder, store: ColumnStore) -> None:
    """Serialize a freshly built (tombstone-free) store column-wise.

    Layout: row count; the residue and field-less rows as full data
    (position-tagged); the shredded mask; then the tuple rows as one
    marker stream plus per-column tagged entry streams — path labels
    travel once per column instead of once per row, and the codec's
    value table still deduplicates repeated values across columns.
    Entry tags: 0 absent, 1 scalar, 2 irregular, 3 opaque,
    4 tuple-interior (no payload — the interior's fields are in the
    deeper columns).
    """
    size = store.size
    tuple_positions = []
    object_positions = []
    rows = store.rows
    shredded = store.universe_mask
    for position in range(size):
        if (shredded >> position & 1
                and type(rows[position].object) is Tuple):
            tuple_positions.append(position)
        else:
            object_positions.append(position)
    encoder.write_uvarint(size)
    encoder.write_uvarint(len(object_positions))
    for position in object_positions:
        encoder.write_uvarint(position)
        encoder.write_datum(rows[position])
    mask_raw = shredded.to_bytes((size + 7) >> 3 or 1, "little")
    encoder.write_uvarint(len(mask_raw))
    encoder.write_bytes(mask_raw)
    for position in tuple_positions:
        encoder.write_object(rows[position].marker)
    paths = store.paths
    encoder.write_uvarint(len(paths))
    for path in paths:
        encoder.write_uvarint(len(path))
        for label in path:
            encoder.write_string(label)
        column = store._columns[path]
        values = column.values
        irregular = column.irregular
        tuples = column.tuples
        opaque = column.opaque
        extras = column.extras
        present = column.present
        for position in tuple_positions:
            if opaque >> position & 1:
                encoder.write_uvarint(3)
                encoder.write_object(extras[position])
            elif irregular >> position & 1:
                encoder.write_uvarint(2)
                encoder.write_object(extras[position])
            elif tuples >> position & 1:
                encoder.write_uvarint(4)
            elif present >> position & 1:
                encoder.write_uvarint(1)
                encoder.write_object(Atom(values[position]))
            else:
                encoder.write_uvarint(0)


#: Marks a tuple-interior entry in the decoder's per-row entry list.
_INTERIOR = object()


def _assemble_row(items: list) -> Tuple:
    """Rebuild one nested tuple row from its ``(path, value)`` entries.

    ``items`` arrives sorted by path (the column iteration order) with
    every interior tuple explicitly present (tag 4, value
    ``_INTERIOR``) *before* its children — tuple-prefix order
    guarantees both — so a single stack pass reassembles the nesting
    with sorted fields at every level, ready for the trusted
    ``Tuple._from_sorted_fields`` constructor.
    """
    root: list = []
    stack: list[tuple[Path, list]] = [((), root)]
    for path, value in items:
        while len(stack) > 1 and path[:len(stack[-1][0])] != stack[-1][0]:
            prefix, fields = stack.pop()
            stack[-1][1].append(
                (prefix[-1], Tuple._from_sorted_fields(tuple(fields))))
        if value is _INTERIOR:
            stack.append((path, []))
        else:
            stack[-1][1].append((path[-1], value))
    while len(stack) > 1:
        prefix, fields = stack.pop()
        stack[-1][1].append(
            (prefix[-1], Tuple._from_sorted_fields(tuple(fields))))
    return Tuple._from_sorted_fields(tuple(root))


def read_column_shard(decoder) -> ColumnStore:
    """Decode :func:`write_column_shard` output into a live store.

    Tuple rows are re-materialized from the path-column entries through
    the trusted ``Tuple._from_sorted_fields`` constructor (paths arrive
    strictly sorted, values are never ⊥, interiors rebuild bottom-up) —
    the rebuilt rows are predicate-equivalent to the originals, which
    is all position-based query answering needs.
    """
    size = decoder.read_uvarint()
    rows: list[Data | None] = [None] * size
    object_count = decoder.read_uvarint()
    for _ in range(object_count):
        position = decoder.read_uvarint()
        rows[position] = decoder.read_datum()
    mask_len = decoder.read_uvarint()
    shredded = int.from_bytes(decoder.read_bytes(mask_len), "little")
    tuple_positions = [position for position in range(size)
                       if rows[position] is None]
    markers = [decoder.read_object() for _ in tuple_positions]
    column_count = decoder.read_uvarint()
    columns: dict[Path, Column] = {}
    entries: dict[int, list] = {position: []
                                for position in tuple_positions}
    for _ in range(column_count):
        length = decoder.read_uvarint()
        path = tuple(decoder.read_string() for _ in range(length))
        builder = _ColumnBuilder(size)
        for position in tuple_positions:
            tag = decoder.read_uvarint()
            if tag == 0:
                continue
            if tag == 4:
                builder.present.set(position)
                builder.tuples.set(position)
                entries[position].append((path, _INTERIOR))
                continue
            value = decoder.read_object()
            if tag == 1:
                builder.values[position] = value.value
                builder.present.set(position)
            else:
                builder.present.set(position)
                builder.irregular.set(position)
                if tag == 3:
                    builder.opaque.set(position)
                builder.extras[position] = value
            entries[position].append((path, value))
        columns[path] = builder.finish()
    for position, marker in zip(tuple_positions, markers):
        rows[position] = Data(marker, _assemble_row(entries[position]))
    positions = {datum: position
                 for position, datum in enumerate(rows)}
    return ColumnStore(rows, positions, columns, shredded, 0, True)
