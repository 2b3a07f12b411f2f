"""The planned execution engine for queries.

The naive read path walks the whole data set and evaluates the full
condition against every datum. This module plans instead, with one of
two strategies:

1. if the snapshot has a columnar shredding
   (:class:`repro.store.columnar.ColumnStore`) and the condition
   compiles to a bitset program
   (:func:`~repro.query.compile.compile_columnar`), the **columnar
   scan** answers the shredded rows with bitset algebra over the column
   eq-index and possible-value index, and row-evaluates only the
   maybe-sidecar and residue rows;
2. otherwise the **row scan** — the compiled full scan
   (:func:`~repro.query.compile.compile_condition`) — runs; it is still
   faster than ``matches``, and always available.

``order_by`` + ``limit`` push down to ``heapq.nsmallest`` / ``nlargest``
so a top-k query never sorts the full match set. On a columnar
selection the sort keys of rows with a scalar entry at the order path
come from the column's value array; only the other rows that reach a
value there are keyed one at a time.

Results are *identical* to the naive scan: columnar definite sets are
exact by the shred invariants (every condition leaf is existential over
the values its path reaches, and the column indexes key exactly those
values), and ordering reproduces the stable-sort/missing-last semantics
of ``Query._selected_naive`` tie for tie. The plan-vs-scan equality
oracle (tests and ``benchmarks/bench_query_planner.py``) asserts
exactly that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.data import Data, DataSet
from repro.core.order import atom_key, structural_key
from repro.query.ast import Condition
from repro.query.compile import compile_columnar, compile_condition
from repro.query.paths import evaluate_path
from repro.store.columnar import bit_positions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.columnar import ColumnStore

__all__ = ["Plan", "JoinPlan", "AggregatePlan", "select_data",
           "explain_plan", "plan_join", "plan_aggregate"]


@dataclass(frozen=True)
class Plan:
    """The strategy :func:`select_data` chose, for ``Query.explain()``."""

    strategy: str                    # "columnar" or "row-scan"
    residual: str | None = None      # repr of the row-checked condition
    order_pushdown: bool = False     # heapq top-k instead of full sort
    reason: str = ""
    estimated_rows: int | None = None   # planner's upper-bound estimate
    actual_rows: int | None = None      # filled by explain(analyze=True)
    shredded_rows: int | None = None    # columnar: rows the columns answer
    residue_rows: int | None = None     # columnar: per-row fallback rows
    lines: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        lines = [f"{self.strategy}: {self.reason}"]
        if self.residual is not None:
            lines.append(f"residual filter: {self.residual}")
        if self.order_pushdown:
            lines.append("order+limit: heapq top-k pushdown")
        if self.shredded_rows is not None:
            lines.append(f"shredded rows: {self.shredded_rows}")
        if self.residue_rows is not None:
            lines.append(f"residue rows: {self.residue_rows}")
        if self.estimated_rows is not None:
            lines.append(f"estimated rows: ~{self.estimated_rows}")
        if self.actual_rows is not None:
            lines.append(f"actual rows: {self.actual_rows}")
        object.__setattr__(self, "lines", tuple(lines))

    def describe(self) -> str:
        return "\n".join(self.lines)


def _sort_key(steps: Sequence[str], descending: bool):
    """``(sort_key, present, missing)``: the per-row sort key over a
    path and the two flags it uses.

    A row keys as ``(present, structural key of the smallest reached
    value)``, or as ``missing`` when the path reaches nothing. The
    flags put missing rows last in either direction: descending ranks
    by ``nlargest``, so there present rows carry the larger flag.
    """
    present, missing = (1, (0,)) if descending else (0, (1,))

    def sort_key(datum: Data) -> tuple:
        values = evaluate_path(datum.object, steps, spread=True)
        return (present, structural_key(values[0])) if values else missing

    return sort_key, present, missing


def _take(items: Sequence, key, descending: bool,
          limit: int | None) -> list:
    """A stable sort of ``items`` by ``key``, cut to ``limit``; with a
    limit below ``len(items)``, a ``heapq`` top-k selection (both heapq
    selectors are documented equivalent to a stable
    ``sorted(...)[:n]``)."""
    if limit is not None and limit < len(items):
        pick = heapq.nlargest if descending else heapq.nsmallest
        return pick(limit, items, key=key)
    ordered = sorted(items, key=key, reverse=descending)
    return ordered if limit is None else ordered[:limit]


def _order_limit(selected: list[Data],
                 order: tuple[Sequence[str], bool] | None,
                 limit: int | None) -> list[Data]:
    """Order/limit over canonically-sorted matches.

    Reproduces the naive semantics exactly: stable sort by the smallest
    reached value, data the path does not reach last in either
    direction, ties in canonical order.
    """
    if order is None:
        return selected if limit is None else selected[:limit]
    steps, descending = order
    sort_key = _sort_key(steps, descending)[0]
    return _take(selected, sort_key, descending, limit)


def _columnar_order_limit(store: "ColumnStore", mask: int,
                          order: tuple[Sequence[str], bool],
                          limit: int | None) -> list[Data]:
    """:func:`_order_limit` over the rows of a columnar selection
    ``mask``, with the sort keys read from the column where it can.

    A row whose entry at the order path is a scalar
    (:meth:`~repro.store.columnar.ColumnStore.path_masks`) keys from
    ``Column.values``: its path reaches exactly that atom, and
    :func:`~repro.core.order.atom_key` is the atom's structural key.
    Irregular, tuple-interior, opaque-ancestor and residue rows take
    the per-row key; every other row reaches nothing and takes the
    missing key. The selection runs over row indices in canonical
    order, so ties keep the oracle's order.
    """
    steps, descending = order
    sort_key, present, missing = _sort_key(steps, descending)
    positions, rows = store.in_canonical_order(bit_positions(mask))
    keys: dict[int, tuple] = {}
    column, scalar, per_row = store.path_masks(steps)
    if column is not None:
        scalars = bit_positions(scalar & mask)
        keys.update(zip(scalars, [(present, atom_key(value)) for value
                                  in column.values.gather(scalars)]))
    slow = bit_positions((per_row | store.residue_mask) & mask)
    keys.update(zip(slow, map(sort_key, store.rows.gather(slow))))
    ranks = list(map(keys.get, positions, repeat(missing)))
    chosen = _take(range(len(rows)), ranks.__getitem__, descending, limit)
    return [rows[index] for index in chosen]


def _resolve_columns(columns, size: int | None) -> "ColumnStore | None":
    """Resolve a column-store argument into a usable store, or ``None``.

    ``columns`` may be a store, a zero-argument callable producing one
    lazily (the ``_DBState.columns`` bound method), or ``None``. Stores
    that don't cover the data being queried (stale, or a different
    snapshot) and stores with nothing shredded are rejected — the row
    scan is always correct.
    """
    if columns is None:
        return None
    store = columns() if callable(columns) else columns
    if store is None or not store.shredded_count:
        return None
    if size is not None and store.alive_count != size:
        return None
    return store


def select_data(dataset: "DataSet | Callable[[], DataSet]",
                condition: Condition | None,
                order: tuple[Sequence[str], bool] | None = None,
                limit: int | None = None,
                columns=None, size: int | None = None) -> list[Data]:
    """Plan and execute a selection; result order matches the naive scan.

    ``columns`` optionally names the snapshot's
    :class:`~repro.store.columnar.ColumnStore` (or a lazy callable
    producing it) for the columnar scan strategy. ``dataset`` may be a
    zero-argument callable producing the set, with ``size`` its row
    count: the columnar strategy then never calls it.
    """
    def resolve() -> DataSet:
        return dataset() if callable(dataset) else dataset

    if size is None:
        size = len(resolve())
    if condition is None:
        selected = list(resolve())
        return _order_limit(selected, order, limit)
    # Compile first: operand validation must surface identically on
    # every strategy. The column store only resolves (and a lazy one
    # only builds) when the condition actually compiled.
    predicate = compile_condition(condition)
    program = compile_columnar(condition)
    store = (_resolve_columns(columns, size)
             if program is not None else None)
    if store is not None:
        if order is not None:
            return _columnar_order_limit(
                store, store.match_mask(program, predicate), order, limit)
        selected = store.matches(program, predicate)
    else:
        selected = [datum for datum in resolve()
                    if predicate(datum.object)]
    return _order_limit(selected, order, limit)


def explain_plan(condition: Condition | None,
                 order: tuple[Sequence[str], bool] | None = None,
                 limit: int | None = None,
                 columns=None,
                 size: int | None = None) -> Plan:
    """The plan :func:`select_data` would choose, without executing it.

    ``estimated_rows`` is an upper bound: the definite columnar matches
    plus every maybe/residue row a per-row check could still admit
    (``size`` for a blind row scan).
    """
    pushdown = order is not None and limit is not None
    if condition is None:
        return Plan(strategy="row-scan", order_pushdown=pushdown,
                    estimated_rows=size,
                    reason="no condition: every datum matches")
    program = compile_columnar(condition)
    store = (_resolve_columns(columns, size)
             if program is not None else None)
    if store is not None:
        # Running the program *is* the estimate (bitset popcounts are
        # cheap), and it warms the column memos the execution reuses.
        true_bits, maybe_bits = program(store)
        estimated = (true_bits.bit_count()
                     + (maybe_bits | store.residue_mask).bit_count())
        return Plan(strategy="columnar", residual=repr(condition),
                    order_pushdown=pushdown,
                    estimated_rows=estimated,
                    shredded_rows=store.shredded_count,
                    residue_rows=store.residue_count,
                    reason=f"bitset scan over {store.shredded_count} "
                           f"shredded rows, row fallback on "
                           f"{store.residue_count} residue rows")
    return Plan(strategy="row-scan", residual=repr(condition),
                order_pushdown=pushdown, estimated_rows=size,
                reason="compiled full scan")


# -- join / aggregate plan nodes -----------------------------------------------


@dataclass(frozen=True)
class JoinPlan:
    """The strategy a :class:`~repro.query.join.JoinQuery` chose.

    ``left``/``right`` are the per-side selection plans; the build side
    is the one hashed into the key map (the smaller selection), the
    other side probes it. ``actual_*`` fields are filled by
    ``explain(analyze=True)``.
    """

    strategy: str                     # "hash" or "nested-loop"
    on: tuple[str, ...]
    build: str                        # "left" or "right"
    build_vectorized: bool            # columnar build vs per-row
    left: Plan
    right: Plan
    estimated_left: int | None = None
    estimated_right: int | None = None
    estimated_pairs: int | None = None
    actual_left: int | None = None
    actual_right: int | None = None
    actual_pairs: int | None = None
    actual_maybe: int | None = None
    lines: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        lines = [f"join[{self.strategy}] on {', '.join(self.on)} "
                 f"(build={self.build}, "
                 f"{'columnar' if self.build_vectorized else 'per-row'}"
                 f" build)"]
        for name, plan, estimated, actual in (
                ("left", self.left, self.estimated_left,
                 self.actual_left),
                ("right", self.right, self.estimated_right,
                 self.actual_right)):
            detail = f"  {name}: {plan.lines[0]}"
            if estimated is not None:
                detail += f" | estimated rows ~{estimated}"
            if actual is not None:
                detail += f" | actual rows {actual}"
            lines.append(detail)
        if self.estimated_pairs is not None:
            lines.append(f"  estimated pairs: ~{self.estimated_pairs}")
        if self.actual_pairs is not None:
            maybe = (f" ({self.actual_maybe} maybe)"
                     if self.actual_maybe else "")
            lines.append(f"  actual pairs: {self.actual_pairs}{maybe}")
        object.__setattr__(self, "lines", tuple(lines))

    def describe(self) -> str:
        return "\n".join(self.lines)


@dataclass(frozen=True)
class AggregatePlan:
    """The strategy an aggregate/group-by query chose.

    ``source`` is the plan of the underlying selection; the aggregate
    itself runs ``columnar`` (column kernels, irregular entries folded
    once per distinct value, per-row fold-in of the rest) or ``row``
    (per-row resolver throughout).
    """

    strategy: str                     # "columnar" or "row"
    operations: tuple[str, ...]       # e.g. ("count(*)", "sum(year)")
    group: str | None
    source: Plan
    estimated_groups: int | None = None
    actual_rows: int | None = None
    actual_groups: int | None = None
    lines: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        header = f"aggregate[{self.strategy}]: {', '.join(self.operations)}"
        if self.group is not None:
            header += f" group by {self.group}"
        lines = [header]
        lines.extend(f"  {line}" for line in self.source.lines)
        if self.estimated_groups is not None:
            lines.append(f"  estimated groups: ~{self.estimated_groups}")
        if self.actual_rows is not None:
            lines.append(f"  actual rows: {self.actual_rows}")
        if self.actual_groups is not None:
            lines.append(f"  actual groups: {self.actual_groups}")
        object.__setattr__(self, "lines", tuple(lines))

    def describe(self) -> str:
        return "\n".join(self.lines)


def choose_build_side(left_rows: int, right_rows: int) -> str:
    """Hash the side with fewer rows; ties build right (the
    conventional inner side)."""
    return "left" if left_rows < right_rows else "right"


def plan_join(on: Sequence[str],
              left_plan: Plan, right_plan: Plan,
              left_size: int | None, right_size: int | None,
              build_store=None, *, build: str,
              strategy: str = "hash") -> JoinPlan:
    """Cost a join whose build side the caller chose (the side it
    hashes, see :func:`choose_build_side`): per-side estimates from the
    selection plans, estimated pairs from the build column's
    distinct-value count when a store is available."""
    estimated_left = (left_plan.estimated_rows
                      if left_plan.estimated_rows is not None
                      else left_size)
    estimated_right = (right_plan.estimated_rows
                       if right_plan.estimated_rows is not None
                       else right_size)
    estimated_pairs = None
    build_vectorized = build_store is not None
    if (estimated_left is not None and estimated_right is not None):
        cross = estimated_left * estimated_right
        distinct = None
        if build_store is not None:
            from repro.query.paths import parse_path

            column = build_store.column(parse_path(on[0]))
            if column is not None:
                distinct = column.distinct_count()
        estimated_pairs = (cross // max(distinct, 1)
                           if distinct else cross)
    return JoinPlan(strategy=strategy, on=tuple(on), build=build,
                    build_vectorized=build_vectorized,
                    left=left_plan, right=right_plan,
                    estimated_left=estimated_left,
                    estimated_right=estimated_right,
                    estimated_pairs=estimated_pairs)


def plan_aggregate(operations: Sequence[str], group: str | None,
                   source: Plan, store=None) -> AggregatePlan:
    """Cost an aggregate node over its selection plan. The strategy is
    columnar exactly when a usable column store backs the selection;
    estimated groups come from the group column's distinct count."""
    strategy = "columnar" if store is not None else "row"
    estimated_groups = None
    if group is not None:
        if store is not None:
            from repro.query.paths import parse_path

            column = store.column(parse_path(group))
            # +1: the ⊥ group for rows the path does not reach.
            estimated_groups = (column.distinct_count() + 1
                                if column is not None else 1)
    elif store is None:
        estimated_groups = None
    return AggregatePlan(strategy=strategy,
                         operations=tuple(operations), group=group,
                         source=source,
                         estimated_groups=estimated_groups)
