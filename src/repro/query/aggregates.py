"""⊥/or-value-aware aggregation over partial data.

Aggregates (``count``, ``sum``, ``min``, ``max``, ``collect``) follow
the paper's reading of partial information: an or-value means *exactly
one* of its disjuncts holds, a ⊥ disjunct means "or no value at all",
and set members all hold simultaneously. An aggregate therefore has a
*set of possible outcomes* — one per resolution of the or-values — and
this module never collapses that set into a silently wrong scalar:

* one possible outcome → a plain Python number (or ``None``);
* a few possible outcomes → an :class:`~repro.core.objects.OrValue`
  of the alternatives (with a ⊥ disjunct when "no value" is possible);
* too many to enumerate (past :data:`OR_CAP`) → a :class:`Bounds`
  ``[lo, hi]`` interval covering every possible numeric outcome.

``collect`` is the exception: it returns every value the path can
reach under *some* resolution (the spread semantics of
:func:`~repro.query.paths.evaluate_path`), which is already an exact
description of the possibilities.

The same accumulator runs two ways and must agree exactly:

* :func:`aggregate_rows` — the per-row definitional oracle
  (``naive=True``);
* :func:`aggregate_columnar` — the vectorized kernel over a
  :class:`~repro.store.columnar.ColumnStore`: scalar rows fold through
  the column (:meth:`Column.numeric_stats`, popcounts,
  :meth:`Column.scalar_keys`), irregular entries at the aggregated
  path (or-values, sets) fold once per distinct field value with its
  row count as the multiplicity, through the contribution the column
  keeps for that value, and only tuple-interior entries, rows under
  an opaque ancestor and residue rows fall back to the per-row
  resolver.

Agreement holds because an accumulator is a *bag of contributions*
combined by a deterministic, order-independent fold: the kernel adds
its rows in a different order than the oracle, but exact contributions
commute, and uncertain contributions are sorted before the
possible-outcome set is enumerated. ``k`` rows with one contribution
fold as that contribution with multiplicity ``k``: ``count`` and
``sum`` add it ``k`` times, and ``min``, ``max`` and ``collect`` are
idempotent, so they add it once (see
:meth:`Accumulator.add_contribution`).
(Float sums are exact only up to float rounding — integer data, the
common case, is bit-exact.)

Grouped aggregation (:func:`group_aggregate_rows` /
:func:`group_aggregate_columnar`) keeps the overlapping-groups
semantics of ``Query.group_by``: set-valued keys place a row in every
member's group *definitely*, while or-valued keys place it in each
disjunct's group *uncertainly* — the row's contributions to such a
group gain an "absent" alternative, so the group's ``count`` becomes a
``[lo, hi]`` and its ``sum`` an or-value/bounds. Rows whose key path
reaches nothing group under ⊥.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.intern import MEMO as _MEMO
from repro.core.intern import is_interned as _is_interned
from repro.core.intern import memo_put as _memo_put
from repro.core.data import Data
from repro.core.errors import QueryError
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
)
from repro.core.order import sort_objects, structural_key
from repro.query.paths import evaluate_path, parse_path

__all__ = [
    "AggregateSpec", "Bounds", "Count", "Sum", "Min", "Max", "Collect",
    "Accumulator", "path_alternatives", "aggregate_rows",
    "aggregate_columnar", "group_aggregate_rows",
    "group_aggregate_columnar", "finish_grouped",
]

#: Alternatives tracked per row before degrading to interval bounds.
_ALT_CAP = 24

#: Possible aggregate outcomes enumerated before collapsing to Bounds.
OR_CAP = 8

_AGG_KINDS = ("count", "sum", "min", "max", "collect")


@dataclass(frozen=True)
class Bounds:
    """A ``[lo, hi]`` interval of possible aggregate outcomes.

    Returned when partial inputs make the exact outcome unknowable (or
    too many alternatives to enumerate): the true value lies somewhere
    in the closed interval. ``lo == hi`` never happens — that collapses
    to the plain number.
    """

    lo: float
    hi: float

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def __contains__(self, value: object) -> bool:
        # Booleans are not numbers to any aggregate (``_is_number``).
        return _is_number(value) and self.lo <= value <= self.hi


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate operation: a kind plus the aggregated path.

    ``path`` is ``None`` only for ``count(*)`` (count matching rows).
    """

    kind: str
    path: str | None = None
    #: The parsed path, set once here: the fold reads it per row.
    _steps: tuple[str, ...] | None = field(init=False, repr=False,
                                          compare=False, default=None)

    def __post_init__(self):
        if self.kind not in _AGG_KINDS:
            raise QueryError(f"unknown aggregate {self.kind!r}")
        if self.path is None and self.kind != "count":
            raise QueryError(f"{self.kind}() needs a path")
        if self.path is not None:
            object.__setattr__(self, "_steps", parse_path(self.path))

    @property
    def steps(self) -> tuple[str, ...] | None:
        return self._steps

    def label(self) -> str:
        return f"{self.kind}({self.path if self.path is not None else '*'})"


def Count(path: str | None = None) -> AggregateSpec:
    """Count rows where the path reaches a value (``count(*)``: all)."""
    return AggregateSpec("count", path)


def Sum(path: str) -> AggregateSpec:
    """Sum of the numeric values the path reaches (set semantics)."""
    return AggregateSpec("sum", path)


def Min(path: str) -> AggregateSpec:
    """Smallest numeric value the path reaches."""
    return AggregateSpec("min", path)


def Max(path: str) -> AggregateSpec:
    """Largest numeric value the path reaches."""
    return AggregateSpec("max", path)


def Collect(path: str) -> AggregateSpec:
    """Every value the path can reach, in canonical order."""
    return AggregateSpec("collect", path)


# -- possible-value resolution -------------------------------------------------
#
# ``path_alternatives`` is the semantic core shared by every execution
# strategy (and by the hash join's key extraction): the possible *sets
# of values* a row contributes at a path, one alternative per
# resolution of its or-values. Alternatives are canonical — each is a
# structurally sorted, deduplicated tuple (reached values are sets, so
# an alternative where two branches resolve to the same value holds it
# once) — and the alternative list itself is sorted and deduplicated.
# ``None`` means the fan-out exceeded _ALT_CAP and callers must degrade
# to interval bounds over the spread (union-of-possible) values.

#: ``path_alternatives(...) is None`` is a meaningful result (fan-out
#: past the cap), and so is a ``None`` contribution (nothing), so the
#: caches of both need a distinct "not computed yet" marker.
_ALT_UNSET = object()

_EMPTY = ((),)


def _dedup_alts(alts: Iterable[tuple]) -> tuple[tuple, ...] | None:
    seen = {}
    for alt in alts:
        seen.setdefault(alt, None)
        if len(seen) > _ALT_CAP:
            return None
    return tuple(sorted(seen, key=lambda alt: tuple(map(structural_key,
                                                        alt))))


def _merge_alt(left: tuple, right: tuple) -> tuple:
    if not left:
        return right
    if not right:
        return left
    merged = set(left)
    merged.update(right)
    return tuple(sort_objects(merged))


def _alts_for(value: SSObject, steps: tuple[str, ...]):
    if isinstance(value, OrValue):
        # Exactly one disjunct holds: alternatives union.
        collected: list[tuple] = []
        for disjunct in value:
            sub = _alts_for(disjunct, steps)
            if sub is None:
                return None
            collected.extend(sub)
        return _dedup_alts(collected)
    if isinstance(value, (PartialSet, CompleteSet)):
        # Every member holds: cartesian combination of member choices.
        combined: tuple[tuple, ...] = _EMPTY
        for member in value:
            sub = _alts_for(member, steps)
            if sub is None:
                return None
            if sub == _EMPTY:
                continue
            product = [_merge_alt(left, right)
                       for left in combined for right in sub]
            combined = _dedup_alts(product)
            if combined is None:
                return None
        return combined
    if steps:
        if isinstance(value, Tuple):
            return _alts_for(value.get(steps[0]), steps[1:])
        return _EMPTY  # a leaf mid-path reaches nothing
    if value is BOTTOM:
        return _EMPTY
    return ((value,),)


def path_alternatives(obj: SSObject, steps: Sequence[str]):
    """Possible value-tuples ``obj`` contributes at ``steps``.

    Returns a sorted tuple of alternatives (each a canonical tuple of
    values; ``()`` is the "no value" alternative) or ``None`` when the
    or-value fan-out exceeds the cap. Kept in the identity memo
    (:mod:`repro.core.intern`) for interned objects.
    """
    steps = tuple(steps)
    if _is_interned(obj):
        key = ("alternatives", id(obj), steps)
        cached = _MEMO.get(key, _ALT_UNSET)
        if cached is _ALT_UNSET:
            cached = _memo_put(key, _alts_for(obj, steps))
        return cached
    return _alts_for(obj, steps)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_leaves(alt: tuple) -> list:
    return [value.value for value in alt
            if type(value) is Atom and _is_number(value.value)]


def _none_last_value(value) -> tuple:
    return (value is None, 0 if value is None else value)


def _none_last_key(alt: tuple) -> tuple:
    return tuple(_none_last_value(value) for value in alt)


# -- contributions -------------------------------------------------------------
#
# What one row adds to one aggregate is a pure function of the
# aggregate's kind and the row's alternatives (past the cap, of its
# spread values): a ``(tag, payload)`` pair, or ``None`` for nothing.
# ``Accumulator.add_contribution`` folds one with a multiplicity. The
# per-row intake derives it for every row; the columnar kernels derive
# it once per field value and keep it (``_value_contribution``).

#: ``count``: the row reaches a value; payload: on every alternative.
_COUNT = "count"
#: ``sum``: one possible sum, the payload.
_EXACT = "exact"
#: ``min``/``max``: one possible best, the payload.
_BEST = "best"
#: ``sum``/``min``/``max``: a sorted tuple of possible sums or bests.
_ALTS = "alts"
#: ``sum``/``min``/``max``: a coarse ``(lo, hi)`` range (past the cap).
_RANGE = "range"
#: ``collect``: a tuple of reachable values.
_VALUES = "values"


def _row_contribution(kind: str, alternatives: tuple[tuple, ...]):
    """What a row with these value alternatives (see
    :func:`path_alternatives`) adds to a ``kind`` aggregate."""
    if kind == "collect":
        values: set[SSObject] = set()
        for alt in alternatives:
            values.update(alt)
        return (_VALUES, tuple(values))
    if kind == "count":
        reached = [bool(alt) for alt in alternatives]
        if any(reached):
            return (_COUNT, all(reached))
        return None
    if kind == "sum":
        sums = sorted({sum(_numeric_leaves(alt)) for alt in alternatives})
        if len(sums) == 1:
            return (_EXACT, sums[0])
        return (_ALTS, tuple(sums)) if sums else None
    pick = min if kind == "min" else max
    bests = {pick(values) if (values := _numeric_leaves(alt)) else None
             for alt in alternatives}
    if len(bests) == 1:
        best = bests.pop()
        return None if best is None else (_BEST, best)
    if bests:
        return (_ALTS, tuple(sorted(bests, key=_none_last_value)))
    return None


def _exploded_contribution(kind: str, possible: Iterable[SSObject]):
    """The coarsest sound contribution of a row whose alternative
    fan-out exceeded the cap, from its spread possible values."""
    possible = list(possible)
    if kind == "collect":
        return (_VALUES, tuple(possible))
    if kind == "count":
        return (_COUNT, False) if possible else None
    numbers = [value.value for value in possible
               if type(value) is Atom and _is_number(value.value)]
    if not numbers:
        return None
    if kind == "sum":
        lo = sum(n for n in numbers if n < 0)
        hi = sum(n for n in numbers if n > 0)
        return (_RANGE, (min(lo, 0), max(hi, 0)))
    return (_RANGE, (min(numbers), max(numbers)))


# -- the min/max closed form ---------------------------------------------------
#
# A min over a definite best ``b`` and uncertain rows with choice sets
# ``C_i`` (``None``: "contributes nothing") reaches exactly the distinct
# values ``v`` among ``b`` and the choices with ``v <= min(b, T)``. ``T``
# is the smallest "largest choice" over the rows, ``+inf`` for a row
# that may contribute nothing: ``v`` is the outcome when one row picks
# it and every other row picks something no smaller, or nothing. ⊥ is
# reachable only when there is no ``b`` and every row may contribute
# nothing. Max mirrors it (``>=``, the largest "smallest choice").

_UNBOUNDED = {"min": float("inf"), "max": float("-inf")}


def _reachable_count(kind: str, best, rows: list[tuple]) -> int:
    """How many outcomes (⊥ included) a ``kind`` aggregate over ``best``
    and ``rows`` can reach; each row is a choice tuple sorted with
    ``None`` last."""
    lower = kind == "min"
    limit = _UNBOUNDED[kind] if best is None else best
    bottom = best is None
    for row in rows:
        if row[-1] is None:
            continue
        bottom = False
        if lower:
            if row[-1] < limit:
                limit = row[-1]
        elif row[0] > limit:
            limit = row[0]
    if lower:
        reached = {value for row in rows for value in row
                   if value is not None and value <= limit}
    else:
        reached = {value for row in rows for value in row
                   if value is not None and value >= limit}
    if best is not None and best == limit:
        reached.add(best)
    return len(reached) + bottom


# -- the accumulator -----------------------------------------------------------


class Accumulator:
    """One aggregate's state while its rows are folded in.

    Contributions accumulate into three commutative buckets: an exact
    part (plain numbers / a definite count / collected values), a list
    of per-row *alternative* contributions (the or-value cases), and a
    list of coarse ``(lo, hi)`` ranges (rows past the alternative cap).
    :meth:`finish` combines them deterministically — the alternative
    list is sorted before enumeration — so the order in which rows
    arrive never changes the result.
    """

    __slots__ = ("kind", "lo_count", "hi_count", "exact", "best",
                 "alts", "ranges", "values")

    def __init__(self, kind: str):
        self.kind = kind
        self.lo_count = 0
        self.hi_count = 0
        self.exact: float = 0
        self.best = None
        self.alts: list[tuple] = []
        self.ranges: list[tuple] = []
        self.values: set[SSObject] = set()

    # -- contribution intake ---------------------------------------------------

    def add_membership(self, definite: bool) -> None:
        """A ``count(*)`` row: definitely or maybe in the selection."""
        if definite:
            self.lo_count += 1
        self.hi_count += 1

    def add_row(self, alternatives: tuple[tuple, ...]) -> None:
        """Fold one row with these value alternatives (see
        :func:`path_alternatives`); :meth:`add_contribution` folds many
        rows that share one."""
        self.add_contribution(_row_contribution(self.kind, alternatives))

    def add_exploded(self, possible: Iterable[SSObject]) -> None:
        """One row whose alternative fan-out exceeded the cap: fold the
        coarsest sound contribution from its spread possible values."""
        self.add_contribution(_exploded_contribution(self.kind, possible))

    def add_contribution(self, contribution, times: int = 1) -> None:
        """Fold ``times`` rows that each make ``contribution``: a
        ``(tag, payload)`` pair of this accumulator's kind, or ``None``.

        ``count`` and ``sum`` take ``times`` as the multiplicity.
        ``min``, ``max`` and ``collect`` fold the contribution once:
        they are idempotent, since ``k`` copies of one alternative set
        have the same possible outcomes as one, and the sorted
        enumeration in :meth:`finish` meets the copies side by side, so
        it stops at :data:`OR_CAP` on the same alternative.
        """
        if contribution is None:
            return
        tag, payload = contribution
        if tag is _COUNT:
            self.hi_count += times
            if payload:
                self.lo_count += times
        elif tag is _EXACT:
            self.exact += payload * times
        elif tag is _BEST:
            self._merge_best(payload)
        elif tag is _VALUES:
            self.values.update(payload)
        else:
            bucket = self.alts if tag is _ALTS else self.ranges
            if self.kind == "sum":
                bucket.extend([payload] * times)
            else:
                bucket.append(payload)

    # -- vectorized intake (the columnar kernel's fast paths) -----------------

    def add_definite_count(self, rows: int) -> None:
        self.lo_count += rows
        self.hi_count += rows

    def add_numeric_stats(self, total, minimum, maximum) -> None:
        if self.kind == "sum":
            self.exact += total
        elif minimum is not None:
            self._merge_best(minimum if self.kind == "min" else maximum)

    def add_values(self, values: Iterable[SSObject]) -> None:
        self.values.update(values)

    def _merge_best(self, value) -> None:
        if value is None:
            return
        if self.best is None:
            self.best = value
        else:
            self.best = (min if self.kind == "min" else max)(self.best,
                                                             value)

    # -- finish ----------------------------------------------------------------

    def finish(self):
        kind = self.kind
        if kind == "collect":
            return tuple(sort_objects(self.values))
        if kind == "count":
            if self.lo_count == self.hi_count:
                return self.lo_count
            return Bounds(self.lo_count, self.hi_count)
        if kind == "sum":
            return self._finish_sum()
        return self._finish_minmax()

    def _finish_sum(self):
        base = self.exact
        if not self.alts and not self.ranges:
            return base
        alts = sorted(self.alts)
        lo = base + sum(alt[0] for alt in alts) + sum(r[0]
                                                      for r in self.ranges)
        hi = base + sum(alt[-1] for alt in alts) + sum(r[1]
                                                       for r in self.ranges)
        if not self.ranges:
            possible = {0}
            for alt in alts:
                possible = {s + a for s in possible for a in alt}
                if len(possible) > OR_CAP:
                    break
            else:
                possible = sorted(base + s for s in possible)
                if len(possible) == 1:
                    return possible[0]
                return OrValue.of(*(Atom(v) for v in possible))
        if lo == hi:
            return lo
        return Bounds(lo, hi)

    def _finish_minmax(self):
        pick = min if self.kind == "min" else max
        if not self.alts and not self.ranges:
            return self.best
        # When all rows together reach more than OR_CAP outcomes
        # (``_reachable_count``), the enumeration passes the cap at some
        # prefix of the sorted rows, so it is skipped.
        if not self.ranges and _reachable_count(
                self.kind, self.best, self.alts) <= OR_CAP:
            possible = {self.best}
            for alt in sorted(self.alts, key=_none_last_key):
                possible = {self._pair(pick, s, a)
                            for s in possible for a in alt}
                if len(possible) > OR_CAP:
                    break
            else:
                if len(possible) == 1:
                    return possible.pop()
                numbers = sorted(v for v in possible if v is not None)
                atoms = [Atom(v) for v in numbers]
                if None in possible:
                    return OrValue.of(*atoms, BOTTOM)
                return OrValue.of(*atoms)
        # Past the cap: the coarsest sound interval over every numeric
        # candidate (a simultaneously possible "no value" outcome is
        # subsumed by the interval — documented, never a wrong scalar).
        candidates = [v for alt in self.alts for v in alt if v is not None]
        candidates.extend(v for r in self.ranges for v in r)
        if self.best is not None:
            candidates.append(self.best)
        if not candidates:
            return None
        lo, hi = min(candidates), max(candidates)
        if lo == hi:
            return lo
        return Bounds(lo, hi)

    @staticmethod
    def _pair(pick, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return pick(left, right)


# -- per-row intake shared by oracle and kernel fall-backs ---------------------


def _add_object(acc: Accumulator, obj: SSObject,
                steps: tuple[str, ...] | None) -> None:
    if steps is None:
        acc.add_membership(True)
        return
    alternatives = path_alternatives(obj, steps)
    if alternatives is None:
        acc.add_exploded(evaluate_path(obj, steps, spread=True))
    else:
        acc.add_row(alternatives)


#: Entries kept in a store's shared alternatives memo before it clears.
_ALT_CACHE_CAP = 1 << 18


def _cached_alternatives(cache: dict, position: int, obj: SSObject,
                         steps: tuple[str, ...]):
    """One row's alternatives at one path, computed at most once per
    cache lifetime.

    The columnar kernels resolve the rows they cannot fold from a
    column this way: tuple-interior entries, rows under an opaque
    ancestor and residue rows at an aggregated path, and rows with an
    irregular group key, whose (row, path) pairs recur once per group
    membership and again on every re-invocation over the same store.
    A :class:`~repro.store.Database` interns every row, so the identity
    memo inside :func:`path_alternatives` serves its rows too; this
    cache serves stores built over uninterned data, whose rows that
    memo never keeps. The cache is the store's
    :attr:`~repro.store.ColumnStore.alt_memo` when it has one (row
    positions are stable for the store's lifetime, so entries stay
    valid across queries), else one dict per kernel call.
    """
    key = (position, steps)
    alternatives = cache.get(key, _ALT_UNSET)
    if alternatives is _ALT_UNSET:
        if len(cache) >= _ALT_CACHE_CAP:
            cache.clear()
        alternatives = cache[key] = path_alternatives(obj, steps)
    return alternatives


def _store_alt_cache(store) -> dict:
    """The store-lifetime alternatives memo, or a fresh per-call dict
    for duck-typed stores without one."""
    cache = getattr(store, "alt_memo", None)
    return {} if cache is None else cache


def _normalize(aggs) -> dict[str, AggregateSpec]:
    """Accept ``{name: spec}`` or a sequence of specs (auto-labeled by
    :meth:`AggregateSpec.label`, numbered on collision)."""
    if not aggs:
        raise QueryError("aggregate() needs at least one aggregate")
    if not isinstance(aggs, Mapping):
        named: dict[str, AggregateSpec] = {}
        for spec in aggs:
            label = spec.label() if isinstance(spec, AggregateSpec) else "?"
            name, counter = label, 2
            while name in named:
                name, counter = f"{label}_{counter}", counter + 1
            named[name] = spec
        aggs = named
    out: dict[str, AggregateSpec] = {}
    for name, spec in aggs.items():
        if not isinstance(spec, AggregateSpec):
            raise QueryError(f"{name!r} is not an AggregateSpec")
        out[name] = spec
    return out


def aggregate_rows(data: Iterable[Data],
                   aggs: Mapping[str, AggregateSpec]) -> dict[str, object]:
    """The per-row definitional oracle: fold every row through
    :func:`path_alternatives` and finish."""
    aggs = _normalize(aggs)
    accs = {name: Accumulator(spec.kind) for name, spec in aggs.items()}
    steps = {name: spec.steps for name, spec in aggs.items()}
    for datum in data:
        obj = datum.object
        for name, acc in accs.items():
            _add_object(acc, obj, steps[name])
    return {name: acc.finish() for name, acc in accs.items()}


# -- the columnar kernel -------------------------------------------------------


def _fold(accs: list[Accumulator], alternatives, obj: SSObject,
          steps: tuple[str, ...]) -> None:
    """Fold one row whose value at ``steps`` of ``obj`` has these
    alternatives (``None``: past the cap) into every accumulator of one
    path."""
    if alternatives is None:
        possible = evaluate_path(obj, steps, spread=True)
        for acc in accs:
            acc.add_exploded(possible)
    else:
        for acc in accs:
            acc.add_row(alternatives)


#: Field values kept in a column's contribution memo before it clears:
#: above the distinct irregular values of every column of the 26k-row
#: perfbench corpus (the most, ``author``, holds 13,538 in 20,107 rows).
_CONTRIBUTION_CAP = 1 << 15


def _value_contribution(kind: str, value: SSObject):
    """What a row whose entry at the aggregated path is ``value`` adds
    to a ``kind`` aggregate."""
    alternatives = path_alternatives(value, ())
    if alternatives is None:
        return _exploded_contribution(
            kind, evaluate_path(value, (), spread=True))
    return _row_contribution(kind, alternatives)


def _fold_values(accs: list[Accumulator], counts: Mapping[SSObject, int],
                 memo: dict) -> None:
    """Fold every irregular field value in ``counts`` into every
    accumulator of one path, with its row count as the multiplicity.

    ``memo`` is the column's
    :attr:`~repro.store.columnar.Column.value_memo`: ``{value: {kind:
    contribution}}``, each contribution resolved on first use. It is
    keyed by the value, never by position or ``id()``, so an entry is
    the same whichever query, generation or reader computes it, and
    readers fill it without a lock. It clears at
    :data:`_CONTRIBUTION_CAP` values.
    """
    for value, times in counts.items():
        contributions = memo.get(value)
        if contributions is None:
            if len(memo) >= _CONTRIBUTION_CAP:
                memo.clear()
            contributions = memo[value] = {}
        for acc in accs:
            kind = acc.kind
            contribution = contributions.get(kind, _ALT_UNSET)
            if contribution is _ALT_UNSET:
                contribution = contributions[kind] = _value_contribution(
                    kind, value)
            acc.add_contribution(contribution, times)


def _columnar_into(accs: Mapping[str, Accumulator], store, mask: int,
                   aggs: Mapping[str, AggregateSpec],
                   alt_cache: dict) -> None:
    """Fold the rows in ``mask`` into ``accs`` column-at-a-time, one
    pass per aggregated path, shared by the aggregates on it.

    * Scalar entries of the path's column — nested paths included —
      fold through the column: a popcount,
      :meth:`~repro.store.columnar.Column.scalar_keys` or
      :meth:`~repro.store.columnar.Column.numeric_stats`.
    * Irregular entries (or-values, sets) fold once per distinct field
      value, with the number of rows holding it as the multiplicity,
      through the contributions the column keeps per value
      (:func:`_fold_values`). This is exact: on a shredded row without
      an opaque ancestor, every proper prefix of the path is a plain
      tuple, so the row's alternatives are its entry's.
    * Tuple-interior entries, rows under an opaque ancestor and the
      residue resolve per row from the full row object, through
      ``alt_cache``.

    Shredded rows in none of these definitely reach nothing and
    contribute nothing.
    """
    from repro.store.columnar import bit_positions

    paths: dict[tuple[str, ...], list[Accumulator]] = {}
    for name, spec in aggs.items():
        if spec.steps is None:
            accs[name].add_definite_count(mask.bit_count())
        else:
            paths.setdefault(spec.steps, []).append(accs[name])
    rows = store.rows
    residue = store.residue_mask & mask
    shredded = store.universe_mask & mask
    for steps, path_accs in paths.items():
        column, scalar_bits, per_row_bits = store.path_masks(steps)
        scalar = scalar_bits & shredded
        if scalar:
            stats = None
            for acc in path_accs:
                if acc.kind == "count":
                    acc.add_definite_count(scalar.bit_count())
                elif acc.kind == "collect":
                    acc.add_values(Atom(value) for _, value
                                   in column.scalar_keys(scalar))
                else:
                    if stats is None:
                        stats = column.numeric_stats(scalar)
                    acc.add_numeric_stats(*stats[1:])
        per_row = per_row_bits & shredded
        irregular = column.irregular & per_row if column is not None else 0
        if irregular:
            _fold_values(path_accs, Counter(column.extras.values_at(
                bit_positions(irregular))), column.value_memo)
        positions = bit_positions(per_row & ~irregular | residue)
        for position, datum in zip(positions, rows.gather(positions)):
            obj = datum.object
            _fold(path_accs,
                  _cached_alternatives(alt_cache, position, obj, steps),
                  obj, steps)


def aggregate_columnar(store, mask: int,
                       aggs: Mapping[str, AggregateSpec],
                       ) -> dict[str, object]:
    """The vectorized kernel: aggregate the rows selected by ``mask``
    directly on the shredded columns (see :func:`_columnar_into`)."""
    aggs = _normalize(aggs)
    accs = {name: Accumulator(spec.kind) for name, spec in aggs.items()}
    _columnar_into(accs, store, mask, aggs, _store_alt_cache(store))
    return {name: acc.finish() for name, acc in accs.items()}


# -- grouped aggregation -------------------------------------------------------


def _group_memberships(key_alternatives, spread: Callable[[], list]):
    """``{group key: membership definite?}`` for one row.

    Set-valued keys yield several definite memberships; or-valued keys
    yield uncertain ones (the key appears in some but not all
    alternatives). Rows that may reach nothing also belong (definitely
    or uncertainly) to the ⊥ group.
    """
    if key_alternatives is None:
        memberships = {value: False for value in spread()}
        memberships.setdefault(BOTTOM, False)
        return memberships
    memberships: dict[SSObject, bool] = {}
    total = len(key_alternatives)
    counts: dict[SSObject, int] = {}
    empties = 0
    for alt in key_alternatives:
        if not alt:
            empties += 1
        for value in alt:
            counts[value] = counts.get(value, 0) + 1
    for value, seen in counts.items():
        memberships[value] = seen == total
    if empties:
        memberships[BOTTOM] = empties == total
    return memberships


def _maybe_nothing(alternatives: tuple,
                   memo: dict | None) -> tuple | None:
    """``alternatives`` widened by the "contributes nothing"
    alternative, for a row whose group membership is uncertain, or
    ``None`` when the widened set passes :data:`_ALT_CAP` (the caller
    then folds the row through :meth:`Accumulator.add_exploded`).

    The kernel passes a per-call ``memo``: a few hundred distinct
    alternative tuples recur over thousands of uncertain memberships.
    The oracle passes ``None`` and widens every time.
    """
    if memo is not None and alternatives in memo:
        return memo[alternatives]
    widened = _dedup_alts(alternatives + ((),))
    if memo is not None:
        memo[alternatives] = widened
    return widened


def _row_group_fold(groups: dict, obj: SSObject,
                    group_steps: tuple[str, ...],
                    aggs: Mapping[str, AggregateSpec],
                    alternatives_at: Callable,
                    widened: dict | None = None) -> None:
    """Fold one row into every group it (maybe-)belongs to.

    ``alternatives_at(steps)`` supplies the row's value alternatives at
    any path — from the row object (oracle, residue) or from its column
    entries (kernel) — so both strategies share the membership logic.
    ``widened`` is the kernel's memo for :func:`_maybe_nothing`.
    """
    memberships = _group_memberships(
        alternatives_at(group_steps),
        lambda: evaluate_path(obj, group_steps, spread=True))
    for key, definite in memberships.items():
        accs = groups.get(key)
        if accs is None:
            accs = groups[key] = {name: Accumulator(spec.kind)
                                  for name, spec in aggs.items()}
        for name, spec in aggs.items():
            acc = accs[name]
            steps = spec.steps
            if steps is None:
                acc.add_membership(definite)
                continue
            if steps == group_steps and not definite:
                # Membership and value share the path: conditioned on
                # the row being in this group, its value IS the key
                # (nothing, for the ⊥ group) — not the full or-value.
                alternatives = (_EMPTY if key is BOTTOM
                                else ((), (key,)))
            else:
                alternatives = alternatives_at(steps)
                if (not definite and alternatives is not None
                        and () not in alternatives):
                    # Uncertain membership: may contribute nothing.
                    alternatives = _maybe_nothing(alternatives, widened)
                if alternatives is None:
                    # Past the cap, before or after widening: fold the
                    # coarse sound contribution of the spread values.
                    acc.add_exploded(evaluate_path(obj, steps,
                                                   spread=True))
                    continue
            acc.add_row(alternatives)


def group_aggregate_rows(data: Iterable[Data], group_path: str,
                         aggs: Mapping[str, AggregateSpec],
                         ) -> dict[SSObject, dict[str, object]]:
    """The per-row grouped oracle."""
    aggs = _normalize(aggs)
    group_steps = parse_path(group_path)
    groups: dict[SSObject, dict[str, Accumulator]] = {}
    for datum in data:
        obj = datum.object

        def alternatives_at(steps, _obj=obj):
            return path_alternatives(_obj, steps)

        _row_group_fold(groups, obj, group_steps, aggs, alternatives_at)
    return finish_grouped(groups)


def group_aggregate_columnar(store, mask: int, group_path: str,
                             aggs: Mapping[str, AggregateSpec],
                             ) -> dict[SSObject, dict[str, object]]:
    """The vectorized grouped kernel: scalar group keys partition
    through the column eq-index (one bitset intersection per group),
    each group's aggregates fold column-at-a-time
    (:func:`_columnar_into`), and only rows with irregular keys — or
    residue rows — walk per-row."""
    from repro.store.columnar import bit_positions

    aggs = _normalize(aggs)
    group_steps = parse_path(group_path)
    groups: dict[SSObject, dict[str, Accumulator]] = {}
    rows = store.rows
    shredded = store.universe_mask & mask
    residue = store.residue_mask & mask
    column, scalar_bits, per_row_bits = store.path_masks(group_steps)
    scalar_groups = column.eq_index() if column is not None else {}
    per_row = per_row_bits & shredded
    alt_cache = _store_alt_cache(store)
    # Rows with neither an entry at the group path nor an opaque
    # ancestor definitely reach nothing: the ⊥ group, vectorized.
    bottom_mask = shredded & ~per_row_bits & ~(
        column.present if column is not None else 0)
    for (_, value), bits in scalar_groups.items():
        gmask = bits & shredded
        if not gmask:
            continue
        key = Atom(value)
        accs = groups[key] = {name: Accumulator(spec.kind)
                              for name, spec in aggs.items()}
        _columnar_into(accs, store, gmask, aggs, alt_cache)
    if bottom_mask:
        accs = groups.get(BOTTOM)
        if accs is None:
            accs = groups[BOTTOM] = {name: Accumulator(spec.kind)
                                     for name, spec in aggs.items()}
        _columnar_into(accs, store, bottom_mask, aggs, alt_cache)
    widened: dict = {}
    positions = bit_positions(per_row | residue)
    for position, datum in zip(positions, rows.gather(positions)):
        obj = datum.object

        def alternatives_at(steps, _obj=obj, _position=position):
            return _cached_alternatives(alt_cache, _position, _obj,
                                        steps)

        _row_group_fold(groups, obj, group_steps, aggs, alternatives_at,
                        widened)
    return finish_grouped(groups)


# -- grouped finish ------------------------------------------------------------


def finish_grouped(groups: dict) -> dict[SSObject, dict[str, object]]:
    ordered = sorted(groups.items(), key=lambda kv: structural_key(kv[0]))
    return {key: {name: acc.finish() for name, acc in accs.items()}
            for key, accs in ordered}

