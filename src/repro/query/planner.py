"""A planned, index-backed execution engine for queries.

The naive read path walks the whole data set and evaluates the full
condition against every datum. This module plans instead:

1. the condition is rewritten to negation normal form and its top-level
   ``And`` spine is split into conjuncts
   (:func:`repro.query.compile.conjuncts`);
2. conjuncts an :class:`~repro.store.attr_index.AttrIndex` can answer
   *exactly* — ``Eq``/``Exists``/``Contains`` on indexed paths, whose
   existential semantics the index mirrors — become **probes**;
3. probe candidate sets intersect starting from the most selective
   (smallest) one, short-circuiting on empty;
4. the remaining conjuncts form the **residual**, compiled once
   (:func:`~repro.query.compile.compile_condition`) and run over the
   candidates only;
5. ``order_by`` + ``limit`` push down to ``heapq.nsmallest`` /
   ``nlargest`` so a top-k query never sorts the full match set.

When nothing is indexable (no index, an ``Or`` at the top, negated
leaves) the plan picks between two scan strategies. If the snapshot has
a columnar shredding (:class:`repro.store.columnar.ColumnStore`) and
the condition compiles to a bitset program
(:func:`~repro.query.compile.compile_columnar`), the **columnar scan**
answers the shredded rows with bitset algebra and row-evaluates only
the maybe-sidecar and residue rows. Otherwise the **row scan** — the
compiled full scan — runs; it is still faster than ``matches``, and
always available. Results are *identical* to the naive scan: probes are
exact, the residual preserves the non-probe conjuncts, columnar
definite sets are exact by the shred invariants, and ordering
reproduces the stable-sort/missing-last semantics of
``Query._selected_naive`` tie for tie. The plan-vs-scan equality oracle
(tests and ``benchmarks/bench_query_planner.py``) asserts exactly that.

The conjunct split is memoized on the (immutable) condition per covered
path set, so a cached parsed query re-plans in O(1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.data import Data, DataSet
from repro.core.objects import Atom
from repro.core.order import structural_key
from repro.query.ast import And, Condition, Contains, Eq, Exists
from repro.query.compile import (
    compile_columnar,
    compile_condition,
    conjuncts,
    nnf,
)
from repro.query.paths import evaluate_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.attr_index import AttrIndex
    from repro.store.columnar import ColumnStore

__all__ = ["Plan", "Probe", "JoinPlan", "AggregatePlan", "select_data",
           "explain_plan", "plan_join", "plan_aggregate",
           "shard_positions", "columnar_shard_positions"]


@dataclass(frozen=True)
class Probe:
    """One index lookup the plan performs."""

    path: str
    op: str               # "=", "exists" or "contains"
    value: str | None     # repr of the probed value, None for exists
    selectivity: int | None = None   # candidate count, when known

    def describe(self) -> str:
        detail = f" {self.value}" if self.value is not None else ""
        count = (f" (~{self.selectivity} candidates)"
                 if self.selectivity is not None else "")
        return f"probe {self.path} {self.op}{detail}{count}"


@dataclass(frozen=True)
class Plan:
    """The strategy :func:`select_data` chose, for ``Query.explain()``."""

    strategy: str                    # "index", "columnar" or "row-scan"
    probes: tuple[Probe, ...] = ()
    residual: str | None = None      # repr of the post-probe condition
    order_pushdown: bool = False     # heapq top-k instead of full sort
    reason: str = ""
    estimated_rows: int | None = None   # planner's upper-bound estimate
    actual_rows: int | None = None      # filled by explain(analyze=True)
    shredded_rows: int | None = None    # columnar: rows the columns answer
    residue_rows: int | None = None     # columnar: per-row fallback rows
    lines: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        lines = [f"{self.strategy}: {self.reason}"]
        lines.extend(probe.describe() for probe in self.probes)
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


def _probe_kind(conjunct: Condition,
                paths: frozenset[tuple[str, ...]]) -> str | None:
    """Classify a conjunct the index can answer exactly, else ``None``."""
    if isinstance(conjunct, Eq) and conjunct.steps in paths:
        return "="
    if isinstance(conjunct, Exists) and conjunct.steps in paths:
        return "exists"
    if (isinstance(conjunct, Contains) and conjunct.steps in paths
            and isinstance(conjunct.target, Atom)
            and isinstance(conjunct.target.value, str)):
        return "contains"
    return None


def _split(condition: Condition, paths: frozenset[tuple[str, ...]],
           ) -> tuple[list[tuple[Condition, str]], Condition | None]:
    """NNF + conjunct split: ``(indexable probes, residual condition)``.

    Memoized on the condition instance per covered-path set, so cached
    parsed queries re-plan without re-walking their condition tree.
    """
    cached = getattr(condition, "_split_cache", None)
    if cached is not None and cached[0] == paths:
        return cached[1], cached[2]
    probes: list[tuple[Condition, str]] = []
    residual: Condition | None = None
    for conjunct in conjuncts(nnf(condition)):
        kind = _probe_kind(conjunct, paths)
        if kind is not None:
            probes.append((conjunct, kind))
        else:
            residual = (conjunct if residual is None
                        else And(residual, conjunct))
    try:
        object.__setattr__(condition, "_split_cache",
                           (paths, probes, residual))
    except AttributeError:  # slotted user subclass
        pass
    return probes, residual


def _candidates(conjunct: Condition, kind: str,
                index: "AttrIndex") -> frozenset[Data]:
    if kind == "=":
        return index.equality_candidates(conjunct.steps, conjunct.target)
    if kind == "exists":
        return index.exists_candidates(conjunct.steps)
    return index.contains_candidates(conjunct.steps,
                                     conjunct.target.value)


def _canonical_key(datum: Data) -> tuple:
    return (structural_key(datum.marker), structural_key(datum.object))


def _order_limit(selected: list[Data],
                 order: tuple[Sequence[str], bool] | None,
                 limit: int | None) -> list[Data]:
    """Order/limit over canonically-sorted matches.

    Reproduces the naive semantics exactly: stable sort by the smallest
    reached value, data the path does not reach last in either
    direction, ties in canonical order. With a limit the sort becomes a
    ``heapq`` top-k selection (both heapq selectors are documented
    equivalent to a stable ``sorted(...)[:n]``).
    """
    if order is None:
        return selected if limit is None else selected[:limit]
    steps, descending = order

    if descending:
        # Present data get the *larger* first key so nlargest ranks
        # them before (i.e. missing data after) in descending order.
        def sort_key(datum: Data) -> tuple:
            values = evaluate_path(datum.object, steps, spread=True)
            return (1, structural_key(values[0])) if values else (0,)

        if limit is not None and limit < len(selected):
            return heapq.nlargest(limit, selected, key=sort_key)
        ordered = sorted(selected, key=sort_key, reverse=True)
    else:
        def sort_key(datum: Data) -> tuple:
            values = evaluate_path(datum.object, steps, spread=True)
            return (0, structural_key(values[0])) if values else (1,)

        if limit is not None and limit < len(selected):
            return heapq.nsmallest(limit, selected, key=sort_key)
        ordered = sorted(selected, key=sort_key)
    return ordered if limit is None else ordered[:limit]


def shard_positions(shard: Sequence[Data],
                    condition: Condition | None,
                    order: tuple[Sequence[str], bool] | None = None,
                    limit: int | None = None) -> list[int]:
    """Match positions within one canonical-order shard, with the
    ``order_by`` + ``limit`` pushdown applied shard-locally.

    The unit of work of the parallel executor
    (:mod:`repro.query.parallel`): the parent splits the canonically
    ordered data list into contiguous shards, each worker filters its
    shard with the compiled condition and returns the *positions* of the
    survivors (a few ints cross the process boundary instead of
    re-encoded objects). With a limit, only a top-k superset needs to
    travel: any global top-k element ranks within the top-k of its own
    shard (fewer than k data precede it globally, so fewer than k
    precede it in the shard), and both ``heapq`` selectors are stable —
    equivalent to ``sorted(...)[:k]`` — so shard-local ties keep
    ascending-position order, exactly the canonical tie-break the final
    parent-side :func:`_order_limit` pass uses.
    """
    if condition is None:
        matched = list(range(len(shard)))
    else:
        predicate = compile_condition(condition)
        matched = [position for position, datum in enumerate(shard)
                   if predicate(datum.object)]
    return _limit_positions(shard, matched, order, limit)


def columnar_shard_positions(
        store: "ColumnStore",
        condition: Condition | None,
        order: tuple[Sequence[str], bool] | None = None,
        limit: int | None = None) -> list[int]:
    """:func:`shard_positions` over a shard's column store.

    ``store`` must be tombstone-free (freshly built or decoded from the
    wire, as every executor shard store is), so its positions coincide
    with shard positions. Conditions the columns can't answer — or
    shards whose rows all fell to the residue — degrade to exactly the
    row logic of :func:`shard_positions`.
    """
    rows = store.rows
    if condition is None:
        matched = list(range(store.size))
    else:
        predicate = compile_condition(condition)
        program = (compile_columnar(condition)
                   if store.shredded_count else None)
        if program is not None:
            matched = store.match_positions(program, predicate)
        else:
            matched = [position for position, datum in enumerate(rows)
                       if predicate(datum.object)]
    return _limit_positions(rows, matched, order, limit)


def _limit_positions(rows: Sequence[Data], matched: list[int],
                     order: tuple[Sequence[str], bool] | None,
                     limit: int | None) -> list[int]:
    """The shard-local ``order_by`` + ``limit`` pushdown tail."""
    if order is None:
        return matched if limit is None else matched[:limit]
    if limit is None or limit >= len(matched):
        return matched
    steps, descending = order
    if descending:
        def sort_key(position: int) -> tuple:
            values = evaluate_path(rows[position].object, steps,
                                   spread=True)
            return (1, structural_key(values[0])) if values else (0,)

        return sorted(heapq.nlargest(limit, matched, key=sort_key))

    def sort_key(position: int) -> tuple:
        values = evaluate_path(rows[position].object, steps,
                               spread=True)
        return (0, structural_key(values[0])) if values else (1,)

    return sorted(heapq.nsmallest(limit, matched, key=sort_key))


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


def select_data(dataset: DataSet,
                condition: Condition | None,
                index: "AttrIndex | None" = None,
                order: tuple[Sequence[str], bool] | None = None,
                limit: int | None = None,
                columns=None) -> list[Data]:
    """Plan and execute a selection; result order matches the naive scan.

    ``index`` must index exactly the data in ``dataset`` (candidate
    sets are defensively intersected with the data set, so a superset
    index still yields correct results). ``columns`` optionally names
    the snapshot's :class:`~repro.store.columnar.ColumnStore` (or a
    lazy callable producing it) for the columnar scan strategy.
    """
    if condition is None:
        selected = list(dataset)
        return _order_limit(selected, order, limit)

    probes: list[tuple[Condition, str]] = []
    residual: Condition | None = condition
    if index is not None and index:
        probes, residual = _split(condition, index.paths)

    if not probes:
        # Compile first: operand validation must surface identically on
        # every scan strategy. The column store only resolves (and a
        # lazy one only builds) when the condition actually compiled.
        predicate = compile_condition(condition)
        program = compile_columnar(condition)
        store = (_resolve_columns(columns, len(dataset))
                 if program is not None else None)
        if store is not None:
            selected = store.matches(program, predicate)
            return _order_limit(selected, order, limit)
        selected = [datum for datum in dataset
                    if predicate(datum.object)]
        return _order_limit(selected, order, limit)

    # Residual compiles before probing so operand validation (bad
    # bounds, non-string Contains) surfaces regardless of candidates.
    predicate = (compile_condition(residual)
                 if residual is not None else None)
    sets = sorted((_candidates(conjunct, kind, index)
                   for conjunct, kind in probes), key=len)
    candidates: set[Data] = set(sets[0])
    for other in sets[1:]:
        candidates &= other
        if not candidates:
            break
    matched = [datum for datum in candidates
               if datum in dataset
               and (predicate is None or predicate(datum.object))]
    matched.sort(key=_canonical_key)
    return _order_limit(matched, order, limit)


def _scan_plan(condition: Condition, reason: str, pushdown: bool,
               columns, size: int | None) -> Plan:
    """The scan strategy :func:`select_data` would fall back to."""
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
                    reason=f"{reason}: bitset scan over "
                           f"{store.shredded_count} shredded rows, "
                           f"row fallback on {store.residue_count} "
                           f"residue rows")
    return Plan(strategy="row-scan", residual=repr(condition),
                order_pushdown=pushdown, estimated_rows=size,
                reason=f"{reason}: compiled full scan")


def explain_plan(condition: Condition | None,
                 index: "AttrIndex | None" = None,
                 order: tuple[Sequence[str], bool] | None = None,
                 limit: int | None = None,
                 columns=None,
                 size: int | None = None) -> Plan:
    """The plan :func:`select_data` would choose, without executing it.

    ``estimated_rows`` is an upper bound: exact for index probes and
    definite columnar matches, plus every maybe/residue row a per-row
    check could still admit (``size`` for a blind row scan).
    """
    pushdown = order is not None and limit is not None
    if condition is None:
        return Plan(strategy="row-scan", order_pushdown=pushdown,
                    estimated_rows=size,
                    reason="no condition: every datum matches")
    if index is None or not index:
        return _scan_plan(condition, "no attribute index", pushdown,
                          columns, size)
    probes, residual = _split(condition, index.paths)
    if not probes:
        return _scan_plan(condition, "no indexable conjunct", pushdown,
                          columns, size)
    described = tuple(sorted(
        (Probe(path=".".join(conjunct.steps), op=kind,
               value=(None if kind == "exists"
                      else repr(conjunct.target)),
               selectivity=len(_candidates(conjunct, kind, index)))
         for conjunct, kind in probes),
        key=lambda probe: (probe.selectivity, probe.path)))
    return Plan(strategy="index", probes=described,
                residual=None if residual is None else repr(residual),
                order_pushdown=pushdown,
                estimated_rows=described[0].selectivity,
                reason=f"intersect {len(described)} probe(s), "
                       f"most selective first")


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
    itself runs ``columnar`` (column kernels + per-row fold-in of
    irregular/residue rows) or ``row`` (per-row resolver throughout).
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
