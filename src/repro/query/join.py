"""Vectorized hash equi-joins over partial data.

A pair of data *joins* on a key path when some value reached by the
path on the left equals one reached on the right (the same existential
reading every predicate in this engine uses). Partiality makes the
match tri-state, exactly like the columnar scan's definite/maybe
algebra:

* **definite** — a common value is reached in *every* resolution of
  both sides' or-values (scalar values and set members);
* **maybe** — a common value exists only under *some* resolution (an
  or-value disjunct, or a ⊥-possible branch): the pair appears in the
  join output with ``maybe=True`` instead of being silently kept or
  dropped;
* otherwise the pair is out.

Multi-path joins require every path to match; the pair is definite
only when every path matches definitely.

Execution strategies, fastest first — all proven equal by the
differential suite:

* **columnar hash join** — both sides read scalar keys
  column-at-a-time: the selection bitset is decoded once and each
  selected row keys on ``(type, value)`` from the column's flat
  primitive array, so the build costs the selected rows, not the
  column's distinct values (no eq-index is built or walked). The
  smaller selection is the build side. Only rows with irregular keys
  (or-values, sets) and residue rows fall back to per-row key
  extraction;
* **per-row hash join** — the same hash algorithm with per-row key
  extraction (used when no column store covers a side);
* **nested-loop join** (``naive=True``) — the definitional O(n·m)
  oracle.

Per-row key extraction (:func:`join_keys`) is memoized identity-keyed
through the interning pool — like the ⊴/∪K signature memos — so
repeated joins against the same generation skip the walk entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.data import Data, DataSet
from repro.core.errors import QueryError
from repro.core.intern import is_interned as _is_interned
from repro.core.intern import on_clear as _on_clear
from repro.core.objects import Atom, SSObject
from repro.core.order import structural_key
from repro.query.aggregates import Bounds, path_alternatives
from repro.query.ast import Query
from repro.query.compile import compile_columnar, compile_condition
from repro.query.paths import evaluate_path, parse_path
from repro.query.planner import (
    JoinPlan,
    _resolve_columns,
    choose_build_side,
    explain_plan,
    plan_join,
)
from repro.store.cache import LRUCache

__all__ = ["JoinRow", "JoinQuery", "join_keys", "pair_match",
           "hash_join", "nested_loop_join"]


@dataclass(frozen=True)
class JoinRow:
    """One joined pair; ``maybe`` marks a partial-information match."""

    left: Data
    right: Data
    maybe: bool = False


#: Capacity of the join-key memo below. Generous — a 100k-row join per
#: side fits — but bounded: before the LRU the memo grew without limit
#: for the lifetime of the intern pool.
_KEY_MEMO_CAPACITY = 262_144

#: Identity-keyed join-key memo: ``(id(obj), steps) -> (definite,
#: possible)``. Entries are only written for interned objects (whose
#: ids are pinned by the pool's strong references); the memo clears
#: with the pool and evicts least-recently-used past the cap.
_KEY_MEMO = LRUCache(_KEY_MEMO_CAPACITY)
_on_clear(_KEY_MEMO.clear)


def _normalize_key(value: SSObject):
    """Hashable, type-strict key for a reached value: atoms unwrap to
    ``(type, primitive)`` (matching the column eq-index keys), other
    objects key by themselves."""
    if type(value) is Atom:
        return (type(value.value), value.value)
    return value


def _keys_of(obj: SSObject,
             steps: tuple[str, ...]) -> tuple[frozenset, frozenset]:
    alternatives = path_alternatives(obj, steps)
    if alternatives is None:
        possible = frozenset(_normalize_key(value) for value
                             in evaluate_path(obj, steps, spread=True))
        return frozenset(), possible
    sets = [frozenset(_normalize_key(value) for value in alt)
            for alt in alternatives]
    definite = frozenset.intersection(*sets)
    possible = frozenset().union(*sets)
    return definite, possible


def join_keys(obj: SSObject,
              steps: Sequence[str]) -> tuple[frozenset, frozenset]:
    """``(definite, possible)`` join keys of one row at a path.

    ``definite`` keys are reached under every resolution of the row's
    or-values; ``possible`` ⊇ ``definite`` adds the keys reached under
    some resolution. Memoized identity-keyed for interned rows.
    """
    steps = tuple(steps)
    if _is_interned(obj):
        memo_key = (id(obj), steps)
        cached = _KEY_MEMO.get(memo_key)
        if cached is None:
            cached = _keys_of(obj, steps)
            _KEY_MEMO.put(memo_key, cached)
        return cached
    return _keys_of(obj, steps)


def pair_match(left: SSObject, right: SSObject,
               on_steps: Sequence[tuple[str, ...]]) -> str | None:
    """``"definite"``, ``"maybe"`` or ``None`` for one candidate pair."""
    definite = True
    for steps in on_steps:
        left_definite, left_possible = join_keys(left, steps)
        right_definite, right_possible = join_keys(right, steps)
        if not left_definite.isdisjoint(right_definite):
            continue
        if left_possible.isdisjoint(right_possible):
            return None
        definite = False
    return "definite" if definite else "maybe"


def _canonical(datum: Data) -> tuple:
    return (structural_key(datum.marker), structural_key(datum.object))


def _finish(pairs: dict) -> list[JoinRow]:
    rows = [JoinRow(left, right, maybe)
            for (left, right), maybe in pairs.items()]
    rows.sort(key=lambda row: (_canonical(row.left),
                               _canonical(row.right)))
    return rows


def nested_loop_join(left_rows: Sequence[Data],
                     right_rows: Sequence[Data],
                     on: Sequence[str]) -> list[JoinRow]:
    """The definitional O(n·m) oracle every hash strategy must equal."""
    on_steps = tuple(parse_path(path) for path in on)
    pairs: dict = {}
    for left in left_rows:
        for right in right_rows:
            match = pair_match(left.object, right.object, on_steps)
            if match is not None:
                pairs[(left, right)] = match == "maybe"
    return _finish(pairs)


# -- hash join -----------------------------------------------------------------


class _Side:
    """One join input: its selected rows plus (optionally) the column
    store and selection bitset that make the vectorized path legal."""

    __slots__ = ("rows", "store", "mask")

    def __init__(self, rows: list[Data], store=None, mask: int | None = None):
        self.rows = rows
        self.store = store
        self.mask = mask

    @property
    def vectorized(self) -> bool:
        return self.store is not None and self.mask is not None


def _build_maps(side: _Side, steps: tuple[str, ...]):
    """``(definite_map, maybe_map)``: normalized key → build rows.

    Vectorized when the side has a column store: the selected scalar
    entries of the key path's column — nested paths included — are
    decoded once and keyed ``(type, value)`` straight from the flat
    value array, so the work follows the selected rows, not the
    column's distinct values; only rows with irregular keys,
    tuple-valued keys or opaque ancestors, plus the residue, walk
    per-row.
    """
    from repro.store.columnar import bit_positions

    definite_map: dict = {}
    maybe_map: dict = {}

    def add_per_row(datum: Data) -> None:
        definite, possible = join_keys(datum.object, steps)
        for key in definite:
            definite_map.setdefault(key, []).append(datum)
        for key in possible - definite:
            maybe_map.setdefault(key, []).append(datum)

    if not side.vectorized:
        for datum in side.rows:
            add_per_row(datum)
        return definite_map, maybe_map

    store, mask = side.store, side.mask
    rows = store.rows
    shredded = store.universe_mask & mask
    column, scalar_bits, per_row_bits = store.path_masks(steps)
    if column is not None:
        values = column.values
        for position in bit_positions(scalar_bits & shredded):
            value = values[position]
            key = (type(value), value)
            bucket = definite_map.get(key)
            if bucket is None:
                definite_map[key] = [rows[position]]
            else:
                bucket.append(rows[position])
    per_row = (per_row_bits & shredded) | (store.residue_mask & mask)
    for position in bit_positions(per_row):
        add_per_row(rows[position])
    return definite_map, maybe_map


def hash_join(left: _Side | Sequence[Data], right: _Side | Sequence[Data],
              on: Sequence[str], *, build: str = "right",
              ) -> list[JoinRow]:
    """Hash join on the first key path, verifying any further paths per
    candidate pair. ``build`` names the hashed side."""
    if not on:
        raise QueryError("join needs at least one key path")
    if isinstance(left, (list, tuple)):
        left = _Side(list(left))
    if isinstance(right, (list, tuple)):
        right = _Side(list(right))
    on_steps = tuple(parse_path(path) for path in on)
    rest = on_steps[1:]
    swap = build == "left"
    build_side, probe_side = (left, right) if swap else (right, left)
    definite_map, maybe_map = _build_maps(build_side, on_steps[0])

    pairs: dict = {}

    def emit(probe_datum: Data, partner: Data, maybe: bool) -> None:
        if rest:
            verdict = pair_match(probe_datum.object, partner.object, rest)
            if verdict is None:
                return
            maybe = maybe or verdict == "maybe"
        key = ((partner, probe_datum) if swap else (probe_datum, partner))
        current = pairs.get(key)
        if current is None or (current and not maybe):
            pairs[key] = maybe

    def probe_with(datum: Data, definite: frozenset,
                   possible: frozenset) -> None:
        for key in definite:
            for partner in definite_map.get(key, ()):
                emit(datum, partner, False)
        for key in possible:
            uncertain = key not in definite
            for partner in definite_map.get(key, ()):
                if uncertain:
                    emit(datum, partner, True)
            for partner in maybe_map.get(key, ()):
                emit(datum, partner, True)

    if probe_side.vectorized:
        from repro.store.columnar import bit_positions

        store, mask = probe_side.store, probe_side.mask
        rows = store.rows
        shredded = store.universe_mask & mask
        column, scalar_bits, per_row_bits = store.path_masks(on_steps[0])
        per_row = ((store.residue_mask & mask)
                   | (per_row_bits & shredded))
        if column is not None:
            values = column.values
            for position in bit_positions(scalar_bits & shredded):
                value = values[position]
                key = (type(value), value)
                datum = rows[position]
                for partner in definite_map.get(key, ()):
                    emit(datum, partner, False)
                for partner in maybe_map.get(key, ()):
                    emit(datum, partner, True)
        for position in bit_positions(per_row):
            datum = rows[position]
            definite, possible = join_keys(datum.object, on_steps[0])
            probe_with(datum, definite, possible)
    else:
        for datum in probe_side.rows:
            definite, possible = join_keys(datum.object, on_steps[0])
            probe_with(datum, definite, possible)
    return _finish(pairs)


# -- the fluent join query -----------------------------------------------------


class JoinQuery:
    """A two-input equi-join, built by :meth:`Query.join`.

    The inputs' *conditions* select each side (their projections,
    ordering and limits do not apply — the join reads whole rows);
    execution picks the vectorized build/probe paths whenever a side
    has a usable column store attached.
    """

    def __init__(self, left: Query, right: "Query | DataSet",
                 on: "str | Sequence[str]"):
        if isinstance(right, DataSet):
            right = Query(right)
        if not isinstance(right, Query):
            raise QueryError("join expects a Query or DataSet "
                             "right-hand side")
        self._left = left
        self._right = right
        self._on = ((on,) if isinstance(on, str) else tuple(on))
        if not self._on:
            raise QueryError("join needs at least one key path")
        for path in self._on:
            parse_path(path)

    # -- per-side selection ----------------------------------------------------

    @staticmethod
    def _side(query: Query, naive: bool) -> _Side:
        dataset = query._dataset
        condition = query._condition
        if naive:
            rows = [datum for datum in dataset
                    if condition is None or condition.matches(datum.object)]
            return _Side(rows)
        store = _resolve_columns(query._columns, len(dataset))
        if condition is None:
            rows = list(dataset)
            if store is None:
                return _Side(rows)
            return _Side(rows, store,
                         store.universe_mask | store.residue_mask)
        predicate = compile_condition(condition)
        program = compile_columnar(condition)
        if store is None or program is None:
            rows = [datum for datum in dataset
                    if predicate(datum.object)]
            return _Side(rows)
        positions = store.match_positions(program, predicate)
        rows = [store.rows[position] for position in positions]
        return _Side(rows, store, store.positions_mask(positions))

    # -- execution -------------------------------------------------------------

    def rows(self, *, naive: bool = False) -> list[JoinRow]:
        """Joined pairs in canonical (left, right) order.

        ``naive=True`` runs the nested-loop oracle over naively
        selected sides.
        """
        left = self._side(self._left, naive)
        right = self._side(self._right, naive)
        if naive:
            return nested_loop_join(left.rows, right.rows, self._on)
        return hash_join(left, right, self._on,
                         build=choose_build_side(len(left.rows),
                                                 len(right.rows)))

    def count(self) -> "int | Bounds":
        """Number of joined pairs — a ``[lo, hi]`` when maybe-matches
        make the exact count unknowable."""
        rows = self.rows()
        maybe = sum(1 for row in rows if row.maybe)
        if maybe:
            return Bounds(len(rows) - maybe, len(rows))
        return len(rows)

    # -- planning --------------------------------------------------------------

    def explain(self, *, analyze: bool = False) -> JoinPlan:
        """The join plan; ``analyze=True`` also executes and fills the
        actual row counts per side and pair counts.

        The estimates come from each side's selection plan and the
        build column's statistics; the build side is the one
        :meth:`rows` hashes, so ``analyze=True`` executes the plan it
        reports."""
        left = self._side(self._left, False)
        right = self._side(self._right, False)
        build = choose_build_side(len(left.rows), len(right.rows))
        plan = plan_join(
            self._on,
            explain_plan(self._left._condition, self._left._index,
                         columns=self._left._columns,
                         size=len(self._left._dataset)),
            explain_plan(self._right._condition, self._right._index,
                         columns=self._right._columns,
                         size=len(self._right._dataset)),
            len(self._left._dataset), len(self._right._dataset),
            build_store=(left if build == "left" else right).store,
            build=build)
        if not analyze:
            return plan
        rows = hash_join(left, right, self._on, build=build)
        maybe = sum(1 for row in rows if row.maybe)
        from dataclasses import replace

        return replace(plan, actual_left=len(left.rows),
                       actual_right=len(right.rows),
                       actual_pairs=len(rows), actual_maybe=maybe)
