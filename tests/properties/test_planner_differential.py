"""Differential oracle suite: planned query execution vs the full scan.

The planner (``repro.query.planner``) answers a query three ways a full
scan never does: it compiles the condition into closures, evaluates it
as bitset algebra over a column store's eq-index and possible-value
index, and pushes ``order_by`` + ``limit`` down into a heap selection.
Each shortcut must be invisible —
``Query.run(naive=True)`` keeps the definitional path (filter the whole
data set with ``Condition.matches``, then sort, then slice), and this
suite drives both over Hypothesis-generated datasets and condition
trees, asserting identical results.

The generators deliberately produce the planner's awkward cases:
or-valued and set-valued attributes (existential spread), ``Not``/``Or``
wrapped around leaves (NNF rewriting), paths that reach nothing, and
column stores whose indexes are built up front on none, some or all of
the queried paths.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import cset, orv, pset, tup
from repro.core.data import Data, DataSet
from repro.core.objects import Atom, Marker
from repro.query import (
    And,
    Contains,
    Eq,
    Exists,
    Ge,
    Lt,
    Ne,
    Not,
    Or,
    Query,
)
from repro.store import ColumnStore

CASES = settings(max_examples=300, deadline=None)

# Small pools so equalities, index hits and order ties actually occur.
# Two words hold the separator of the joined text the substring scan
# walks; as a needle, "a\x00b" also spans the parts of an "a" row and a
# "b" row there. The needles add the separator and the empty needle.
LABELS = ("type", "author", "year", "title")
WORDS = ("a", "b", "ab", "ba", "a\x00b", "b\x00")
NEEDLES = WORDS + ("", "\x00")
YEARS = (1, 2, 3)

atom_values = st.one_of(st.sampled_from(WORDS), st.sampled_from(YEARS))

# An attribute value: an atom, an or-value of atoms, or a (partial or
# complete) set of atoms — the spread cases the index must fan out.
attr_values = st.one_of(
    atom_values.map(Atom),
    st.lists(atom_values, min_size=2, max_size=3, unique=True).map(
        lambda vs: orv(*vs)),
    st.lists(atom_values, min_size=0, max_size=3, unique=True).map(
        lambda vs: cset(*vs)),
    st.lists(atom_values, min_size=0, max_size=2, unique=True).map(
        lambda vs: pset(*vs)),
)

tuples = st.dictionaries(st.sampled_from(LABELS), attr_values,
                         max_size=4).map(lambda fields: tup(**fields))


@st.composite
def datasets(draw):
    objects = draw(st.lists(tuples, min_size=0, max_size=8))
    return DataSet(
        Data(Marker(f"m{i}"), obj) for i, obj in enumerate(objects)
    )


paths = st.sampled_from(LABELS + ("author.last", "missing"))

leaf_conditions = st.one_of(
    st.builds(Eq, paths, atom_values),
    st.builds(Ne, paths, atom_values),
    st.builds(Exists, paths),
    st.builds(Contains, paths, st.sampled_from(NEEDLES)),
    st.builds(Lt, st.just("year"), st.sampled_from(YEARS)),
    st.builds(Ge, st.just("year"), st.sampled_from(YEARS)),
)


def _combine(children):
    return st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    )


conditions = st.recursive(leaf_conditions, _combine, max_leaves=6)

# No column store (the row scan), or a column store whose indexes and
# joined texts are built up front on none, some or all of the queried
# paths (the rest build lazily during evaluation).
index_choices = st.sampled_from(
    (None, (), ("type",), ("type", "author"), LABELS))


def _query(dataset, condition, index_paths):
    query = Query(dataset).where(condition)
    if index_paths is not None:
        store = ColumnStore.build(dataset)
        for path in index_paths:
            column = store.column((path,))
            if column is not None:
                column.eq_index()
                column.possible_index()
                column.joined_text()
        query = query.with_columns(store)
    return query


@CASES
@given(datasets(), conditions, index_choices)
def test_run_matches_naive(dataset, condition, index_paths):
    query = _query(dataset, condition, index_paths)
    assert query.run() == query.run(naive=True)


@CASES
@given(datasets(), conditions, index_choices,
       st.sampled_from(LABELS), st.booleans(),
       st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
def test_ordered_limited_rows_match_naive(dataset, condition,
                                          index_paths, order,
                                          descending, limit):
    query = _query(dataset, condition, index_paths).order_by(
        order, descending=descending)
    if limit is not None:
        query = query.limit(limit)
    assert query.rows() == query.rows(naive=True)


@st.composite
def interleaved_appends(draw):
    """Rows to append to a :func:`datasets` store whose canonical
    order interleaves the store's rows: marker ``m3+0`` sorts between
    ``m3`` and ``m4``, ``l`` before ``m0`` and ``n`` after them all."""
    spots = draw(st.lists(st.sampled_from(
        ("l",) + tuple(f"m{i}+" for i in range(8)) + ("n",)),
        min_size=1, max_size=8))
    objects = draw(st.lists(tuples, min_size=len(spots),
                            max_size=len(spots)))
    return [Data(Marker(f"{spot}{i}"), obj)
            for i, (spot, obj) in enumerate(zip(spots, objects))]


@CASES
@given(datasets(), interleaved_appends(),
       st.one_of(st.just(Not(Exists("missing"))), conditions),
       st.sampled_from(LABELS), st.booleans(),
       st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
def test_order_over_appends_past_the_sorted_prefix(initial, appended,
                                                   condition, order,
                                                   descending, limit):
    """A patched store's appended rows sit past its sorted prefix, in
    pages of their own, while their canonical order interleaves the
    prefix rows: order keys read from the columns must still follow
    the rows, and ties canonical order."""
    store = ColumnStore.build(initial).patched((), appended)
    assert store.sorted_prefix == len(initial) < store.size
    query = (Query(DataSet(list(initial) + appended)).where(condition)
             .with_columns(store).order_by(order, descending=descending))
    if limit is not None:
        query = query.limit(limit)
    assert query.rows() == query.rows(naive=True)


@CASES
@given(datasets(), conditions, st.sampled_from(LABELS))
def test_group_by_matches_naive(dataset, condition, path):
    query = _query(dataset, condition, LABELS)
    assert query.group_by(path) == query.group_by(path, naive=True)


@CASES
@given(datasets(), datasets(), conditions)
def test_index_stays_exact_across_mutations(initial, extra, condition):
    """Column indexes carried through copy-on-write patches answer
    like a naive scan of the patched data."""
    store = ColumnStore.build(initial)
    for label in LABELS:
        column = store.column((label,))
        if column is not None:
            column.eq_index()
            column.possible_index()
    current = set(initial)
    added = [datum for datum in extra if datum not in current]
    store = store.patched((), added)
    current.update(added)
    removed = list(current)[::2]
    store = store.patched(removed, ())
    current.difference_update(removed)

    dataset = DataSet(current)
    query = Query(dataset).where(condition).with_columns(store)
    assert query.run() == query.run(naive=True)
