"""Differential oracle suite: joins and aggregates vs their per-row
definitions.

Three families of invariants, all over Hypothesis-generated data that
includes the hard cases — or-values and ⊥ on join keys, missing
attributes, leaf sets, and nested documents whose join keys and group
paths live behind interior tuples (plain, or-valued, ⊥-possible or
set-wrapped, i.e. every multi-level shred class incl. opaque):

* the vectorized hash join (either build side, columnar or row-list
  inputs) returns exactly the nested-loop oracle's pairs, ``maybe``
  flags included — also when both sides are narrow selections of one
  patched store (appended, tombstoned and resurrected rows) over many
  keys, type-strict ones among them;
* the columnar aggregate kernels (plain and grouped) equal the per-row
  ``path_alternatives`` oracle, over whole stores and over arbitrary
  row-subset masks — for every aggregate kind, also when many rows
  share a few or-values and sets (one past the alternative cap), which
  the kernel folds once per distinct value with a multiplicity, and
  when or-values and sets span enough distinct numbers that min/max
  pass ``OR_CAP``.

Values are integers/strings, and in one generator floats equal to
integers (``5.0``), so ``sum`` equality is exact, never approximate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import bottom, cset, orv, pset, tup
from repro.core.data import Data, DataSet
from repro.core.objects import BOTTOM, Atom, Marker, OrValue
from repro.query import (
    And,
    Collect,
    Count,
    Eq,
    Exists,
    Ge,
    Max,
    Min,
    Query,
    Sum,
)
from repro.query.aggregates import (
    Bounds,
    aggregate_columnar,
    aggregate_rows,
    group_aggregate_columnar,
    group_aggregate_rows,
)
from repro.query.join import JoinQuery, hash_join, nested_loop_join
from repro.store import ColumnStore
from repro.store.columnar import bit_positions

CASES = settings(max_examples=150, deadline=None)

# Small pools so join keys actually collide and groups repeat.
KEYS = ("k1", "k2", "k3")
YEARS = (1, 2, 3)

key_values = st.one_of(
    st.sampled_from(KEYS).map(Atom),
    st.lists(st.sampled_from(KEYS), min_size=2, max_size=3,
             unique=True).map(lambda vs: orv(*vs)),
    st.lists(st.sampled_from(KEYS), min_size=1, max_size=2,
             unique=True).map(lambda vs: cset(*vs)),
    st.lists(st.sampled_from(KEYS), min_size=2, max_size=2,
             unique=True).map(lambda vs: orv(orv(*vs), bottom)),
    st.just(pset(bottom)),
)

year_values = st.one_of(
    st.sampled_from(YEARS).map(Atom),
    st.lists(st.sampled_from(YEARS), min_size=2, max_size=3,
             unique=True).map(lambda vs: orv(*vs)),
    st.lists(st.sampled_from(YEARS), min_size=0, max_size=2,
             unique=True).map(lambda vs: cset(*vs)),
    st.just(pset(bottom)),
    st.builds(lambda value: tup(inner=Atom(value)),
              st.sampled_from(YEARS)),
)


@st.composite
def rows(draw, prefix):
    fields = {}
    if draw(st.booleans()):
        fields["title"] = draw(key_values)
    if draw(st.booleans()):
        fields["year"] = draw(year_values)
    if draw(st.booleans()):
        fields["type"] = Atom(draw(st.sampled_from(("a", "b"))))
    return Data(Marker(f"{prefix}{draw(st.integers(0, 10 ** 6))}"),
                tup(**fields))


def datasets(prefix, max_size=8):
    return st.lists(rows(prefix), max_size=max_size,
                    unique_by=lambda d: d.marker).map(DataSet)


conditions = st.one_of(
    st.none(),
    st.just(Exists("title")),
    st.just(Ge("year", 2)),
    st.just(Eq("type", "a")),
    st.just(And(Exists("year"), Exists("title"))),
)

on_paths = st.one_of(st.just("title"),
                     st.just(("title", "type")))


@CASES
@given(datasets("l"), datasets("r"), on_paths)
def test_hash_join_matches_nested_loop(left, right, on):
    """Both build sides of the raw hash join equal the O(n·m) oracle,
    maybe flags included."""
    steps = (on,) if isinstance(on, str) else on
    expected = nested_loop_join(list(left), list(right), steps)
    assert hash_join(list(left), list(right), steps,
                     build="left") == expected
    assert hash_join(list(left), list(right), steps,
                     build="right") == expected


@CASES
@given(datasets("l"), datasets("r"), conditions, conditions, on_paths)
def test_join_query_matches_naive(left, right, lcond, rcond, on):
    """The planned join (columnar build/probe where legal) equals its
    own nested-loop oracle under arbitrary side conditions."""
    left_query = Query(left).with_columns(ColumnStore.build(left))
    right_query = Query(right).with_columns(ColumnStore.build(right))
    if lcond is not None:
        left_query = left_query.where(lcond)
    if rcond is not None:
        right_query = right_query.where(rcond)
    join = JoinQuery(left_query, right_query, on)
    assert join.rows() == join.rows(naive=True)


# ---------------------------------------------------------------------------
# Both sides on one shared, patched store — the shape of
# ``Database.join_query``: many keys, narrow side selections.
# ---------------------------------------------------------------------------

#: Many keys, so a narrow side selects few of them, and the type-strict
#: keys ``1``, ``True``, ``1.0`` and ``"1"`` — four different join keys,
#: exactly as ``Atom`` equality — drawn as often as all the strings.
WIDE_KEYS = tuple(f"t{i:02d}" for i in range(40))
STRICT_KEYS = (1, True, 1.0, "1")

wide_keys = st.one_of(st.sampled_from(WIDE_KEYS),
                      st.sampled_from(STRICT_KEYS))


def _strict(value):
    return (type(value), value)


wide_key_values = st.one_of(
    wide_keys.map(Atom),
    st.lists(wide_keys, min_size=2, max_size=3,
             unique_by=_strict).map(lambda vs: orv(*vs)),
    st.lists(wide_keys, min_size=1, max_size=2,
             unique_by=_strict).map(lambda vs: cset(*vs)),
    st.lists(wide_keys, min_size=2, max_size=2,
             unique_by=_strict).map(lambda vs: orv(orv(*vs), bottom)),
    st.just(pset(bottom)),
)


@st.composite
def wide_rows(draw, name):
    fields = {"band": Atom(draw(st.integers(0, 9)))}
    if draw(st.integers(0, 5)):
        fields["title"] = draw(wide_key_values)
    if draw(st.booleans()):
        fields["type"] = Atom(draw(st.sampled_from(("a", "b"))))
    return Data(Marker(name), tup(**fields))


@st.composite
def shared_stores(draw):
    """``(store, live)``: one ``ColumnStore`` patched through appends
    (its positions leave canonical order), tombstones and one
    resurrection, and the live data it covers."""
    count = draw(st.integers(10, 40))
    data = [draw(wide_rows(f"w{i:03d}")) for i in range(count)]
    split = draw(st.integers(1, count))
    base, appended = data[:split], data[split:]
    store = ColumnStore.build(DataSet(base))
    if appended:
        store = store.patched([], appended)
    dead = draw(st.lists(st.sampled_from(data), max_size=count // 3,
                         unique=True))
    store = store.patched(dead, [])
    if dead:
        store = store.patched([], dead[:1])
        dead = dead[1:]
    live = DataSet([datum for datum in data if datum not in dead])
    return store, live


narrow_conditions = st.one_of(
    st.integers(0, 9).map(lambda band: Eq("band", band)),
    st.integers(0, 9).map(lambda band: And(Eq("band", band),
                                           Exists("title"))),
    st.integers(0, 9).map(lambda band: And(Eq("band", band),
                                           Eq("type", "a"))),
)


@CASES
@given(shared_stores(), narrow_conditions, narrow_conditions, on_paths)
def test_join_over_one_patched_store_matches_naive(shared, lcond, rcond,
                                                   on):
    """Narrow selections of one patched store, as ``join_query`` runs
    them, equal the nested-loop oracle, and both build sides of the
    hash join over those selections agree."""
    store, live = shared
    left_query = Query(live).where(lcond).with_columns(store)
    right_query = Query(live).where(rcond).with_columns(store)
    join = JoinQuery(left_query, right_query, on)
    expected = join.rows(naive=True)
    assert join.rows() == expected
    steps = (on,) if isinstance(on, str) else on
    left = JoinQuery._side(left_query, False)
    right = JoinQuery._side(right_query, False)
    assert left.vectorized and right.vectorized
    assert hash_join(left, right, steps, build="left") == expected
    assert hash_join(left, right, steps, build="right") == expected


AGGS = {
    "count(*)": Count(),
    "count(year)": Count("year"),
    "sum(year)": Sum("year"),
    "min(year)": Min("year"),
    "max(year)": Max("year"),
    "collect(title)": Collect("title"),
    "collect(year.inner)": Collect("year.inner"),
}


@CASES
@given(datasets("a"), conditions)
def test_columnar_aggregates_match_row_oracle(dataset, condition):
    query = Query(dataset).with_columns(ColumnStore.build(dataset))
    if condition is not None:
        query = query.where(condition)
    assert query.aggregate(**AGGS) == query.aggregate(**AGGS,
                                                      naive=True)


@CASES
@given(datasets("a"), conditions, st.sampled_from(("type", "title")))
def test_grouped_columnar_matches_row_oracle(dataset, condition, group):
    query = Query(dataset).with_columns(ColumnStore.build(dataset))
    if condition is not None:
        query = query.where(condition)
    assert query.group_aggregate(group, **AGGS) == query.group_aggregate(
        group, **AGGS, naive=True)


def subset(store, selector):
    """The mask of the store rows ``selector``'s bits pick (bit ``i``
    picks the ``i``-th live position) and those rows."""
    picked = [position for index, position in enumerate(
        bit_positions(store.universe_mask | store.residue_mask))
        if selector >> index & 1]
    return (sum(1 << position for position in picked),
            [store.rows[position] for position in picked])


#: Selectors for :func:`subset`: any subset of up to 10 rows.
selectors = st.integers(min_value=0, max_value=(1 << 10) - 1)


@CASES
@given(datasets("a", max_size=10), selectors)
def test_subset_mask_aggregate_matches_row_oracle(dataset, selector):
    """The kernel over an arbitrary row-subset mask equals the one-pass
    oracle over the same rows — every kind."""
    store = ColumnStore.build(dataset)
    mask, rows = subset(store, selector)
    assert aggregate_columnar(store, mask, AGGS) == aggregate_rows(
        rows, AGGS)


@CASES
@given(datasets("a", max_size=10), selectors,
       st.sampled_from(("type", "title")))
def test_grouped_subset_mask_matches_row_oracle(dataset, selector, group):
    store = ColumnStore.build(dataset)
    mask, rows = subset(store, selector)
    assert group_aggregate_columnar(store, mask, group, AGGS) == \
        group_aggregate_rows(rows, group, AGGS)


# ---------------------------------------------------------------------------
# Many rows sharing few irregular values: the kernel folds each distinct
# value once, with its row count as the multiplicity.
# ---------------------------------------------------------------------------

#: ``2 ** 5 = 32`` resolutions, past the 24-alternative cap.
PAST_CAP = cset(*(orv(2 * i, 2 * i + 1) for i in range(5)))

shared_values = st.one_of(
    st.lists(st.sampled_from(YEARS), min_size=2, max_size=3,
             unique=True).map(lambda vs: orv(*vs)),
    st.lists(st.sampled_from(YEARS), min_size=1, max_size=2,
             unique=True).map(lambda vs: orv(*vs, bottom)),
    st.lists(st.sampled_from(YEARS), min_size=1, max_size=3,
             unique=True).map(lambda vs: cset(*vs)),
    st.lists(st.sampled_from(YEARS), min_size=1, max_size=3,
             unique=True).map(lambda vs: pset(*vs)),
)


@st.composite
def sharing_datasets(draw):
    """10-60 rows whose ``year`` comes from a pool of at most five
    or-values and sets, :data:`PAST_CAP` among them; some rows hold a
    scalar year or none."""
    pool = draw(st.lists(shared_values, max_size=4)) + [PAST_CAP]
    rows = []
    for index in range(draw(st.integers(10, 60))):
        fields = {"type": Atom(draw(st.sampled_from(("a", "b"))))}
        shape = draw(st.integers(0, 5))
        if shape > 1:
            fields["year"] = draw(st.sampled_from(pool))
        elif shape == 1:
            fields["year"] = Atom(draw(st.sampled_from(YEARS)))
        rows.append(Data(Marker(f"s{index:02d}"), tup(**fields)))
    return DataSet(rows)


SHARED_AGGS = {
    "count(*)": Count(),
    "count(year)": Count("year"),
    "sum(year)": Sum("year"),
    "min(year)": Min("year"),
    "max(year)": Max("year"),
    "collect(year)": Collect("year"),
}


@CASES
@given(sharing_datasets(),
       st.one_of(st.just((1 << 60) - 1),
                 st.integers(min_value=0, max_value=(1 << 60) - 1)),
       st.sampled_from((None, "type", "year")))
def test_shared_values_fold_with_multiplicity(dataset, selector, group):
    """Plain and grouped aggregates over the whole store or a row
    subset equal the row oracle when many rows share few or-values and
    sets, one of them past the cap."""
    store = ColumnStore.build(dataset)
    mask, rows = subset(store, selector)
    if group is None:
        assert aggregate_columnar(store, mask, SHARED_AGGS) == \
            aggregate_rows(rows, SHARED_AGGS)
    else:
        assert group_aggregate_columnar(store, mask, group,
                                        SHARED_AGGS) == \
            group_aggregate_rows(rows, group, SHARED_AGGS)


# ---------------------------------------------------------------------------
# Many distinct numbers: min/max finishes past OR_CAP.
# ---------------------------------------------------------------------------

#: Twelve years, so a min/max over or-values and sets can reach more
#: than ``OR_CAP`` outcomes and end as ``Bounds``.
MANY_YEARS = tuple(range(1, 13))

#: Floats equal to two of :data:`MANY_YEARS`: different atoms, equal
#: numbers.
TIED_YEARS = (5.0, 9.0)


def many_values(years, definite):
    """Or-values over ``years`` with a ⊥ disjunct (a row that may
    contribute nothing leaves every outcome reachable), and when
    ``definite`` also or-values without one and sets."""
    def with_bottom(values):
        return orv(*values, bottom)

    choices = [st.lists(years, min_size=1, max_size=3,
                        unique_by=_strict).map(with_bottom)]
    if definite:
        choices += [
            st.lists(years, min_size=2, max_size=4,
                     unique_by=_strict).map(lambda vs: orv(*vs)),
            st.lists(years, min_size=1, max_size=3,
                     unique_by=_strict).map(lambda vs: cset(*vs)),
            st.lists(years, min_size=1, max_size=3,
                     unique_by=_strict).map(lambda vs: pset(*vs)),
        ]
    return st.one_of(*choices)


@st.composite
def many_value_datasets(draw):
    """``(tied, dataset)``: 10-60 rows whose ``year`` comes from a pool
    of 6-16 or-values and sets over :data:`MANY_YEARS`, with
    :data:`TIED_YEARS` among the numbers when ``tied``. Half the
    datasets hold every shape and scalar years, whose definite bests
    cut the min/max outcomes; the other half only ⊥-possible or-values,
    so their min/max finishes pass ``OR_CAP`` wherever the selected
    rows span eight numbers or more (⊥ is one more outcome). Some rows
    hold no year."""
    tied = draw(st.booleans())
    definite = draw(st.booleans())
    years = st.sampled_from(MANY_YEARS + TIED_YEARS if tied
                            else MANY_YEARS)
    pool = draw(st.lists(many_values(years, definite), min_size=6,
                         max_size=16))
    rows = []
    for index in range(draw(st.integers(10, 60))):
        fields = {"type": Atom(draw(st.sampled_from(("a", "b"))))}
        shape = draw(st.integers(0, 9))
        if shape == 1 and definite:
            fields["year"] = Atom(draw(years))
        elif shape:
            fields["year"] = draw(st.sampled_from(pool))
        rows.append(Data(Marker(f"m{index:02d}"), tup(**fields)))
    return tied, DataSet(rows)


def by_value(answer):
    """``answer`` with every number of a min, max or sum outcome read
    as a float.

    Where equal numbers of two types tie (``5`` and ``5.0``), the type
    such an outcome shows depends on the order rows fold in, so the
    kernel and the oracle may differ in it (``5|6`` against ``5.0|6``).
    Everything else — values, kinds, ⊥, the collected atoms and their
    order (``Atom(5)`` sorts before ``Atom(5.0)``) — must agree.
    """
    if isinstance(answer, dict):
        return {key: by_value(value) for key, value in answer.items()}
    if isinstance(answer, OrValue):
        return ("or", frozenset(None if disjunct is BOTTOM
                                else float(disjunct.value)
                                for disjunct in answer.disjuncts))
    if isinstance(answer, Bounds):
        return ("bounds", float(answer.lo), float(answer.hi))
    if isinstance(answer, (int, float)):
        return float(answer)
    return answer


@CASES
@given(many_value_datasets(),
       st.one_of(st.just((1 << 60) - 1),
                 st.integers(min_value=0, max_value=(1 << 60) - 1)),
       st.sampled_from((None, "type", "year")))
def test_many_values_past_the_cap_match_row_oracle(tied_dataset,
                                                   selector, group):
    """Plain and grouped aggregates over the whole store or a row
    subset equal the row oracle when or-values and sets span enough
    distinct numbers for min/max to pass ``OR_CAP``, ⊥ disjuncts
    among them; a second read, answered from the column's value memo,
    answers the same. With int/float-equal years the answers agree
    number for number (:func:`by_value`), otherwise exactly."""
    tied, dataset = tied_dataset
    store = ColumnStore.build(dataset)
    mask, rows = subset(store, selector)
    if group is None:
        expected = aggregate_rows(rows, SHARED_AGGS)
        answers = [aggregate_columnar(store, mask, SHARED_AGGS)
                   for _ in range(2)]
    else:
        expected = group_aggregate_rows(rows, group, SHARED_AGGS)
        answers = [group_aggregate_columnar(store, mask, group,
                                            SHARED_AGGS)
                   for _ in range(2)]
    assert answers[0] == answers[1]
    if tied:
        assert by_value(answers[0]) == by_value(expected)
    else:
        assert answers[0] == expected


# ---------------------------------------------------------------------------
# Nested documents: join keys and group paths behind interior tuples.
# ---------------------------------------------------------------------------


@st.composite
def nested_rows(draw, prefix):
    """``key``/``year`` live one tuple-level down behind ``meta``, which
    is itself drawn from every interior shred class: plain tuple
    (shredded path columns), or-valued / ⊥-possible / set-wrapped tuple
    (opaque — per-row fallback), or missing entirely."""
    inner = {}
    if draw(st.booleans()):
        inner["key"] = draw(key_values)
    if draw(st.booleans()):
        inner["year"] = draw(year_values)
    shape = draw(st.integers(0, 3))
    fields = {}
    if shape == 0:
        fields["meta"] = tup(**inner)
    elif shape == 1:
        fields["meta"] = orv(tup(**inner), bottom)
    elif shape == 2:
        fields["meta"] = cset(tup(**inner))
    if draw(st.booleans()):
        fields["type"] = Atom(draw(st.sampled_from(("a", "b"))))
    return Data(Marker(f"{prefix}{draw(st.integers(0, 10 ** 6))}"),
                tup(**fields))


def nested_datasets(prefix, max_size=8):
    return st.lists(nested_rows(prefix), max_size=max_size,
                    unique_by=lambda d: d.marker).map(DataSet)


nested_conditions = st.one_of(
    st.none(),
    st.just(Exists("meta.key")),
    st.just(Ge("meta.year", 2)),
    st.just(Eq("type", "a")),
    st.just(And(Exists("meta.year"), Exists("meta.key"))),
)

nested_on_paths = st.one_of(st.just("meta.key"),
                            st.just(("meta.key", "meta.year")))


@CASES
@given(nested_datasets("l"), nested_datasets("r"), nested_on_paths)
def test_hash_join_on_nested_paths_matches_nested_loop(left, right, on):
    steps = (on,) if isinstance(on, str) else on
    expected = nested_loop_join(list(left), list(right), steps)
    assert hash_join(list(left), list(right), steps,
                     build="left") == expected
    assert hash_join(list(left), list(right), steps,
                     build="right") == expected


@CASES
@given(nested_datasets("l"), nested_datasets("r"),
       nested_conditions, nested_conditions, nested_on_paths)
def test_join_query_on_nested_paths_matches_naive(left, right, lcond,
                                                  rcond, on):
    """The vectorized build/probe over nested path columns equals the
    nested-loop oracle under nested-path side conditions."""
    left_query = Query(left).with_columns(ColumnStore.build(left))
    right_query = Query(right).with_columns(ColumnStore.build(right))
    if lcond is not None:
        left_query = left_query.where(lcond)
    if rcond is not None:
        right_query = right_query.where(rcond)
    join = JoinQuery(left_query, right_query, on)
    assert join.rows() == join.rows(naive=True)


NESTED_AGGS = {
    "count(*)": Count(),
    "count(meta.year)": Count("meta.year"),
    "sum(meta.year)": Sum("meta.year"),
    "min(meta.year)": Min("meta.year"),
    "max(meta.year)": Max("meta.year"),
    "collect(meta.key)": Collect("meta.key"),
    "collect(meta.year.inner)": Collect("meta.year.inner"),
}


@CASES
@given(nested_datasets("a"), nested_conditions)
def test_nested_columnar_aggregates_match_row_oracle(dataset, condition):
    query = Query(dataset).with_columns(ColumnStore.build(dataset))
    if condition is not None:
        query = query.where(condition)
    assert query.aggregate(**NESTED_AGGS) == query.aggregate(
        **NESTED_AGGS, naive=True)


@CASES
@given(nested_datasets("a"), nested_conditions,
       st.sampled_from(("meta.key", "meta.year", "type")))
def test_nested_grouped_columnar_matches_row_oracle(dataset, condition,
                                                    group):
    query = Query(dataset).with_columns(ColumnStore.build(dataset))
    if condition is not None:
        query = query.where(condition)
    assert query.group_aggregate(group, **NESTED_AGGS) == \
        query.group_aggregate(group, **NESTED_AGGS, naive=True)


@CASES
@given(nested_datasets("a", max_size=10), selectors,
       st.sampled_from(("meta.key", "type")))
def test_nested_grouped_subset_mask_matches_row_oracle(dataset, selector,
                                                       group):
    """Grouped aggregation on a nested group path over an arbitrary
    row-subset mask equals the oracle over the same rows."""
    store = ColumnStore.build(dataset)
    mask, rows = subset(store, selector)
    assert group_aggregate_columnar(store, mask, group, NESTED_AGGS) == \
        group_aggregate_rows(rows, group, NESTED_AGGS)
