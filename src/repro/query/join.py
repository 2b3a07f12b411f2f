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

Per-row key extraction (:func:`join_keys`) is kept in the identity memo
of :mod:`repro.core.intern` for interned rows — like ⊴, ∪K and the
key-index signatures — so repeated joins against the same generation
skip the walk entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.data import Data, DataSet
from repro.core.errors import QueryError
from repro.core.intern import MEMO as _MEMO
from repro.core.intern import is_interned as _is_interned
from repro.core.intern import memo_put as _memo_put
from repro.core.objects import Atom, SSObject
from repro.core.order import DataKey
# Unused here; perfbench counts structural_key calls per module name.
from repro.core.order import structural_key  # noqa: F401
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
from repro.store.columnar import bit_positions

__all__ = ["JoinRow", "JoinQuery", "join_keys", "pair_match",
           "hash_join", "nested_loop_join"]


@dataclass(frozen=True)
class JoinRow:
    """One joined pair; ``maybe`` marks a partial-information match."""

    left: Data
    right: Data
    maybe: bool = False


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
    some resolution. Kept in the identity memo for interned rows.
    """
    steps = tuple(steps)
    if _is_interned(obj):
        memo_key = ("join_keys", id(obj), steps)
        cached = _MEMO.get(memo_key)
        if cached is None:
            cached = _memo_put(memo_key, _keys_of(obj, steps))
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


def _finish(pairs: dict) -> list[JoinRow]:
    rows = [JoinRow(left, right, maybe)
            for (left, right), maybe in pairs.items()]
    rows.sort(key=lambda row: (DataKey(row.left), DataKey(row.right)))
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
        positions = bit_positions(scalar_bits & shredded)
        for value, datum in zip(column.values.gather(positions),
                                rows.gather(positions)):
            key = (type(value), value)
            bucket = definite_map.get(key)
            if bucket is None:
                definite_map[key] = [datum]
            else:
                bucket.append(datum)
    per_row = (per_row_bits & shredded) | (store.residue_mask & mask)
    for datum in rows.gather(bit_positions(per_row)):
        add_per_row(datum)
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
        store, mask = probe_side.store, probe_side.mask
        rows = store.rows
        shredded = store.universe_mask & mask
        column, scalar_bits, per_row_bits = store.path_masks(on_steps[0])
        per_row = ((store.residue_mask & mask)
                   | (per_row_bits & shredded))
        if column is not None:
            positions = bit_positions(scalar_bits & shredded)
            for value, datum in zip(column.values.gather(positions),
                                    rows.gather(positions)):
                key = (type(value), value)
                for partner in definite_map.get(key, ()):
                    emit(datum, partner, False)
                for partner in maybe_map.get(key, ()):
                    emit(datum, partner, True)
        for datum in rows.gather(bit_positions(per_row)):
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
        condition = query._condition
        if naive:
            rows = [datum for datum in query._data()
                    if condition is None or condition.matches(datum.object)]
            return _Side(rows)
        store = _resolve_columns(query._columns, query._count())
        if condition is None:
            rows = list(query._data())
            if store is None:
                return _Side(rows)
            return _Side(rows, store,
                         store.universe_mask | store.residue_mask)
        predicate = compile_condition(condition)
        program = compile_columnar(condition)
        if store is None or program is None:
            rows = [datum for datum in query._data()
                    if predicate(datum.object)]
            return _Side(rows)
        mask = store.match_mask(program, predicate)
        return _Side(store.rows.gather(bit_positions(mask)), store, mask)

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
            explain_plan(self._left._condition,
                         columns=self._left._columns,
                         size=self._left._count()),
            explain_plan(self._right._condition,
                         columns=self._right._columns,
                         size=self._right._count()),
            self._left._count(), self._right._count(),
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
