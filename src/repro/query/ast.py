"""Conditions and the fluent query API.

Conditions are small immutable trees evaluated against a datum's object.
Comparisons use *existential* semantics, standard for semistructured
query languages (Lorel, UnQL): ``Eq("authors", "Bob")`` holds when *some*
value reached by the path equals the atom — elements of sets and
disjuncts of or-values all count as reachable values.

The fluent entry point is :class:`Query`::

    Query(dataset).where(Eq("type", "Article") & Ge("year", 1980)) \\
                  .select("title", "year").run()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.builder import obj as _to_object
from repro.core.data import Data, DataSet
from repro.core.errors import QueryError
from repro.core.objects import Atom, SSObject, Tuple
from repro.query.paths import evaluate_path, parse_path

__all__ = [
    "Condition", "Eq", "Ne", "Lt", "Le", "Gt", "Ge", "Exists",
    "Contains", "And", "Or", "Not", "Query", "project_data",
]


class Condition:
    """Base class of all conditions; supports ``&``, ``|`` and ``~``."""

    def matches(self, obj: SSObject) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)

    def __getstate__(self) -> dict:
        # Memoized derivations (compiled closures, parsed steps, the
        # invalidation profile) are unpicklable or redundant; strip them
        # so a condition that has been planned still pickles. The copy
        # rebuilds them on first use.
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}


def _as_steps(path: str | Sequence[str]) -> tuple[str, ...]:
    if isinstance(path, str):
        return parse_path(path)
    return tuple(path)


def _memo(instance: Condition, slot: str, compute) -> object:
    """Per-instance memo on a frozen dataclass via ``object.__setattr__``.

    Conditions are immutable, so derived values (parsed steps, coerced
    targets, compiled predicates) are computed once and pinned on the
    instance instead of being rebuilt on every ``matches`` call.
    """
    cached = instance.__dict__.get(slot)
    if cached is None:
        cached = compute()
        object.__setattr__(instance, slot, cached)
    return cached


@dataclass(frozen=True, eq=False)
class _PathCondition(Condition):
    path: str | Sequence[str]

    @property
    def steps(self) -> tuple[str, ...]:
        return _memo(self, "_steps", lambda: _as_steps(self.path))


@dataclass(frozen=True, eq=False)
class Exists(_PathCondition):
    """True when the path reaches any non-``⊥`` value."""

    def matches(self, obj: SSObject) -> bool:
        return bool(evaluate_path(obj, self.steps, spread=True))


@dataclass(frozen=True, eq=False)
class _Comparison(Condition):
    path: str | Sequence[str]
    value: object

    @property
    def steps(self) -> tuple[str, ...]:
        return _memo(self, "_steps", lambda: _as_steps(self.path))

    @property
    def target(self) -> SSObject:
        return _memo(self, "_target", lambda: _to_object(self.value))

    def _reached(self, obj: SSObject) -> list[SSObject]:
        return evaluate_path(obj, self.steps, spread=True)


class Eq(_Comparison):
    """Some reachable value equals the target object."""

    def matches(self, obj: SSObject) -> bool:
        return self.target in self._reached(obj)


class Ne(_Comparison):
    """Some reachable value differs from the target object."""

    def matches(self, obj: SSObject) -> bool:
        return any(value != self.target for value in self._reached(obj))


class _NumericComparison(_Comparison):
    """Ordered comparison against a numeric or string bound.

    Numbers compare with numbers (int and float mix freely) and strings
    compare lexicographically with strings; booleans and mixed-type pairs
    never match.
    """

    _op = staticmethod(lambda a, b: False)

    def matches(self, obj: SSObject) -> bool:
        target = self.target
        if not isinstance(target, Atom) or isinstance(target.value, bool):
            raise QueryError(
                f"ordered comparison needs a number or string bound, got "
                f"{target!r}")
        bound = target.value
        for value in self._reached(obj):
            if not isinstance(value, Atom) or isinstance(value.value, bool):
                continue
            if isinstance(bound, str):
                comparable = isinstance(value.value, str)
            else:
                comparable = isinstance(value.value, (int, float))
            if comparable and self._op(value.value, bound):
                return True
        return False


class Lt(_NumericComparison):
    """Some reachable atomic value is strictly below the bound."""
    _op = staticmethod(lambda a, b: a < b)


class Le(_NumericComparison):
    """Some reachable atomic value is at most the bound."""
    _op = staticmethod(lambda a, b: a <= b)


class Gt(_NumericComparison):
    """Some reachable atomic value is strictly above the bound."""
    _op = staticmethod(lambda a, b: a > b)


class Ge(_NumericComparison):
    """Some reachable atomic value is at least the bound."""
    _op = staticmethod(lambda a, b: a >= b)


class Contains(_Comparison):
    """For string atoms: some reachable value contains the substring."""

    def matches(self, obj: SSObject) -> bool:
        target = self.target
        if not (isinstance(target, Atom)
                and isinstance(target.value, str)):
            raise QueryError("Contains needs a string argument")
        return any(
            isinstance(value, Atom) and isinstance(value.value, str)
            and target.value in value.value
            for value in self._reached(obj)
        )


@dataclass(frozen=True, eq=False)
class And(Condition):
    left: Condition
    right: Condition

    def matches(self, obj: SSObject) -> bool:
        return self.left.matches(obj) and self.right.matches(obj)


@dataclass(frozen=True, eq=False)
class Or(Condition):
    left: Condition
    right: Condition

    def matches(self, obj: SSObject) -> bool:
        return self.left.matches(obj) or self.right.matches(obj)


@dataclass(frozen=True, eq=False)
class Not(Condition):
    inner: Condition

    def matches(self, obj: SSObject) -> bool:
        return not self.inner.matches(obj)


def project_data(selected: list[Data],
                 projection: tuple[str, ...] | None) -> list[Data]:
    """Project tuple-valued data onto the given top-level attributes.

    Non-tuple data pass through unchanged; ``projection=None`` is the
    identity.
    """
    if projection is None:
        return selected
    projected = []
    for datum in selected:
        if isinstance(datum.object, Tuple):
            projected.append(
                Data(datum.marker, datum.object.project(projection)))
        else:
            projected.append(datum)
    return projected


class Query:
    """Fluent select/where/project/order/limit over a :class:`DataSet`.

    Queries are immutable; each builder call returns a new query.
    ``run()`` returns a :class:`DataSet` (unordered, set semantics);
    ``rows()`` returns an ordered list honouring ``order_by``.

    Execution routes through the planner
    (:mod:`repro.query.planner`): the condition is compiled once, and
    when a column store over the queried data is attached
    (``columns=`` or :meth:`with_columns`), conditions with a bitset
    form run as a columnar scan. ``naive=True`` on the executing
    methods bypasses all of that and runs the definitional full scan —
    the oracle the planned path must agree with.

    ``dataset`` may also be a zero-argument callable producing the
    :class:`DataSet` (what :class:`~repro.store.database.Database`
    passes, with ``size=`` its row count): it is called only by the
    paths that walk the whole set — row scans and ``naive=True`` — so
    a columnar read never builds it.
    """

    def __init__(self, dataset: "DataSet | Callable[[], DataSet]",
                 condition: Condition | None = None,
                 projection: tuple[str, ...] | None = None,
                 order: tuple[tuple[str, ...], bool] | None = None,
                 limit_count: int | None = None, *,
                 columns: "object | None" = None,
                 size: int | None = None):
        self._dataset = dataset
        self._condition = condition
        self._projection = projection
        self._order = order
        self._limit = limit_count
        self._columns = columns
        self._size = size

    def _derive(self, **changes) -> "Query":
        state = dict(dataset=self._dataset, condition=self._condition,
                     projection=self._projection, order=self._order,
                     limit_count=self._limit, columns=self._columns,
                     size=self._size)
        state.update(changes)
        return Query(**state)

    def _data(self) -> DataSet:
        """The queried :class:`DataSet`, resolving a lazy source."""
        dataset = self._dataset
        return dataset() if callable(dataset) else dataset

    def _count(self) -> int:
        """The queried row count, without resolving a lazy source when
        the size was given."""
        if self._size is not None:
            return self._size
        return len(self._data())

    def with_columns(self, columns: "object | None") -> "Query":
        """Attach a columnar shredding of the queried data set.

        ``columns`` is a :class:`~repro.store.columnar.ColumnStore`
        over exactly this data — or a zero-argument callable building
        one lazily (what :class:`~repro.store.database.Database`
        attaches, so un-run queries never pay for shredding). Enables
        the planner's columnar scan strategy; a stale or empty store is
        ignored and the row scan runs instead.
        """
        return self._derive(columns=columns)

    def where(self, condition: Condition) -> "Query":
        """Add a condition (conjoined with any existing one)."""
        combined = condition if self._condition is None else And(
            self._condition, condition)
        return self._derive(condition=combined)

    def select(self, *attributes: str) -> "Query":
        """Project tuple results onto the given top-level attributes."""
        if not attributes:
            raise QueryError("select() needs at least one attribute")
        return self._derive(projection=tuple(attributes))

    def order_by(self, path: str,
                 descending: bool = False) -> "Query":
        """Order ``rows()`` by the smallest value the path reaches.

        Data where the path reaches nothing sort last. Ordering applies
        *before* projection, so you can order by an attribute you do not
        keep.
        """
        return self._derive(order=(parse_path(path), descending))

    def limit(self, count: int) -> "Query":
        """Keep at most ``count`` results (after ordering)."""
        if count < 0:
            raise QueryError("limit() needs a non-negative count")
        return self._derive(limit_count=count)

    def explain(self, *, analyze: bool = False) -> "object":
        """The plan the next execution would use.

        Returns a :class:`repro.query.planner.Plan`; ``.describe()``
        renders it as text, including the chosen physical strategy
        (``columnar`` / ``row-scan``) and the planner's
        estimated row count. ``analyze=True`` also *executes* the plan
        and fills in ``actual_rows``.
        """
        import dataclasses

        from repro.query.planner import explain_plan

        plan = explain_plan(self._condition, self._order, self._limit,
                            columns=self._columns, size=self._count())
        if analyze:
            plan = dataclasses.replace(
                plan, actual_rows=len(self._selected()))
        return plan

    def _selected(self, naive: bool = False) -> list[Data]:
        if naive:
            return self._selected_naive()
        from repro.query.planner import select_data

        return select_data(self._dataset, self._condition, self._order,
                           self._limit, columns=self._columns,
                           size=self._size)

    def _selected_naive(self) -> list[Data]:
        # The definitional full scan: the oracle for the planned path.
        selected = [
            datum for datum in self._data()
            if self._condition is None
            or self._condition.matches(datum.object)
        ]
        if self._order is not None:
            from repro.core.order import structural_key

            steps, descending = self._order
            keyed = []
            missing = []
            for datum in selected:
                values = evaluate_path(datum.object, steps, spread=True)
                if values:
                    keyed.append((structural_key(values[0]), datum))
                else:
                    missing.append(datum)
            keyed.sort(key=lambda pair: pair[0], reverse=descending)
            # Data the path does not reach sort last in either direction.
            selected = [datum for _, datum in keyed] + missing
        if self._limit is not None:
            selected = selected[:self._limit]
        return selected

    def _project(self, selected: list[Data]) -> list[Data]:
        return project_data(selected, self._projection)

    def run(self, *, naive: bool = False) -> DataSet:
        """Execute and return the resulting data set (unordered).

        ``naive=True`` runs the definitional full scan instead of the
        planner — the equality oracle for differential tests.
        """
        return DataSet(self._project(self._selected(naive)))

    def rows(self, *, naive: bool = False) -> list[Data]:
        """Execute and return an ordered list of results.

        Without ``order_by`` the canonical structural order of the source
        data set is used, so the output is still deterministic.
        """
        return self._project(self._selected(naive))

    def values(self, path: str, *, naive: bool = False) -> list[SSObject]:
        """All values the path reaches across matching data."""
        steps = parse_path(path)
        out: set[SSObject] = set()
        for datum in self.run(naive=naive):
            out.update(evaluate_path(datum.object, steps, spread=True))
        from repro.core.order import sort_objects

        return sort_objects(out)

    def count(self, *, naive: bool = False) -> int:
        """Number of matching data."""
        return len(self.run(naive=naive))

    def join(self, other: "Query | DataSet",
             on: "str | Sequence[str]") -> "object":
        """Equi-join with another query (or data set) on key paths.

        Returns a :class:`repro.query.join.JoinQuery`. Each side's
        *condition* selects its input rows; a pair joins when the paths
        in ``on`` reach a common value on both sides — definitely, or
        only *maybe* when the match depends on an or-value disjunct or
        a ⊥-possible branch (the pair is kept with ``maybe=True``).
        """
        from repro.query.join import JoinQuery

        return JoinQuery(self, other, on)

    def _columnar_selection(self) -> "tuple | None":
        """``(store, mask)`` when the vectorized kernels may run —
        a fresh column store and a fully bitset-expressible condition."""
        from repro.query.compile import compile_columnar, compile_condition
        from repro.query.planner import _resolve_columns

        store = _resolve_columns(self._columns, self._count())
        if store is None:
            return None
        if self._condition is None:
            return store, store.universe_mask | store.residue_mask
        program = compile_columnar(self._condition)
        if program is None:
            return None
        return store, store.match_mask(
            program, compile_condition(self._condition))

    @staticmethod
    def _agg_specs(aggs: tuple, named: dict) -> dict:
        from repro.query.aggregates import _normalize

        if aggs and named:
            specs = dict(_normalize(aggs))
            specs.update(_normalize(named))
            return specs
        return _normalize(aggs or named)

    def aggregate(self, *aggs, naive: bool = False, **named) -> dict:
        """Aggregate the matching data: ``{label: outcome}``.

        Aggregates are built with :func:`~repro.query.aggregates.Count`
        / ``Sum`` / ``Min`` / ``Max`` / ``Collect`` — positionally
        (auto-labeled ``count(*)``, ``sum(year)``, ...) or by keyword.
        Outcomes are honest about partial inputs: a plain value when
        the data pin it down, an or-value of the possible outcomes when
        few, a ``[lo, hi]`` :class:`~repro.query.aggregates.Bounds`
        otherwise — never a silently wrong scalar.

        Runs the columnar kernel when a fresh column store is attached
        and the condition compiles to bitsets; ``order_by``/``limit``
        (which change *which* rows aggregate) force the row path.
        ``naive=True`` runs the definitional per-row oracle.
        """
        from repro.query.aggregates import aggregate_columnar, aggregate_rows

        specs = self._agg_specs(aggs, named)
        if not naive and self._order is None and self._limit is None:
            selection = self._columnar_selection()
            if selection is not None:
                store, mask = selection
                return aggregate_columnar(store, mask, specs)
        return aggregate_rows(self._selected(naive), specs)

    def group_aggregate(self, path: str, *aggs, naive: bool = False,
                        **named) -> dict:
        """Group by a path and aggregate each group:
        ``{group key: {label: outcome}}``.

        Groups follow :meth:`group_by` semantics — set values fan a row
        into several groups, an or-valued key makes its memberships
        *uncertain* (the group's aggregates widen accordingly), and
        rows whose path may reach nothing contribute to the ``⊥``
        group. Keys are in canonical structural order. Strategy choice
        matches :meth:`aggregate`.
        """
        from repro.query.aggregates import (group_aggregate_columnar,
                                            group_aggregate_rows)

        specs = self._agg_specs(aggs, named)
        if not naive and self._order is None and self._limit is None:
            selection = self._columnar_selection()
            if selection is not None:
                store, mask = selection
                return group_aggregate_columnar(store, mask, path, specs)
        return group_aggregate_rows(self._selected(naive), path, specs)

    def explain_aggregate(self, aggs, group: str | None = None, *,
                          analyze: bool = False) -> "object":
        """The :class:`~repro.query.planner.AggregatePlan` an aggregate
        execution would use; ``analyze=True`` also executes and fills
        the actual row and group counts."""
        import dataclasses

        from repro.query.aggregates import _normalize
        from repro.query.planner import explain_plan, plan_aggregate

        specs = _normalize(aggs)
        source = explain_plan(self._condition, columns=self._columns,
                              size=self._count())
        store = None
        if self._order is None and self._limit is None:
            selection = self._columnar_selection()
            if selection is not None:
                store = selection[0]
        operations = tuple(spec.label() for spec in specs.values())
        plan = plan_aggregate(operations, group, source, store)
        if not analyze:
            return plan
        if group is None:
            result = self.aggregate(**specs)
            groups = None
        else:
            result = self.group_aggregate(group, **specs)
            groups = len(result)
        return dataclasses.replace(plan,
                                   actual_rows=len(self._selected()),
                                   actual_groups=groups)

    def group_by(self, path: str, *,
                 naive: bool = False) -> dict[SSObject, DataSet]:
        """Partition matching data by the values a path reaches.

        A datum appears under *every* value its path reaches (sets and
        or-values fan out), so groups may overlap — the honest grouping
        for multi-valued attributes. Data where the path reaches nothing
        are grouped under ``⊥``.
        """
        from repro.core.objects import BOTTOM

        steps = parse_path(path)
        groups: dict[SSObject, list[Data]] = {}
        selected = self._selected(naive)
        projected = self._project(selected)
        for original, kept in zip(selected, projected):
            # Grouping reads the *unprojected* object, so you can group
            # by an attribute the projection drops.
            values = evaluate_path(original.object, steps, spread=True)
            for value in values or [BOTTOM]:
                groups.setdefault(value, []).append(kept)
        return {value: DataSet(members)
                for value, members in groups.items()}
