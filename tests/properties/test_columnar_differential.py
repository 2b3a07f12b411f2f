"""Differential oracle suite: columnar evaluation vs the row-scan oracle.

The columnar scan answers shredded rows with tri-state bitset algebra
and only walks maybe-sidecar and residue rows; every shortcut must be
invisible. This suite drives Hypothesis-generated datasets — including
the shredder's awkward cases: or-values, ⊥ inside sets, missing
attributes, and nested documents 2–4 tuple-levels deep with or-values
and ⊥ at interior *and* leaf positions — and rich-mode
``ObjectGenerator`` data through ``Query.with_columns`` and asserts
exact agreement with ``run(naive=True)``, plus cross-strategy equality
(row scan and columnar, lazy or with column indexes built up front,
all return the same rows) and
copy-on-write ``patched()`` correctness against a fresh rebuild after
nested mutations — from parents whose indexes and scan memos were
warmed first, so the carried state is what answers, including sibling
successors of one parent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import bottom, cset, orv, pset, tup
from repro.core.data import Data, DataSet
from repro.core.objects import Atom, Marker
from repro.properties.generators import ObjectGenerator
from repro.query import (
    And,
    Collect,
    Contains,
    Count,
    Eq,
    Exists,
    Ge,
    Lt,
    Max,
    Min,
    Ne,
    Not,
    Or,
    Query,
    Sum,
)
from repro.query.aggregates import group_aggregate_columnar, \
    group_aggregate_rows
from repro.store import ColumnStore
from tests.store.test_columnar import assert_carried_state_exact
from tests.store.test_columnar import warm as warm_columns

CASES = settings(max_examples=200, deadline=None)

# Small pools so equalities and shred-class collisions actually occur.
# Two words hold the separator of the joined text the substring scan
# walks; as a needle, "a\x00b" also spans the parts of an "a" row and a
# "b" row there. The needles add the separator and the empty needle.
LABELS = ("type", "author", "year", "title")
WORDS = ("a", "b", "ab", "ba", "a\x00b", "b\x00")
NEEDLES = WORDS + ("", "\x00")
YEARS = (1, 2, 3)

atom_values = st.one_of(st.sampled_from(WORDS), st.sampled_from(YEARS))

# Attribute values spanning every shred class: scalars (columns),
# or-values and leaf sets incl. ⊥ members (irregular sidecar), nested
# tuples (row residue).
attr_values = st.one_of(
    atom_values.map(Atom),
    st.lists(atom_values, min_size=2, max_size=3, unique=True).map(
        lambda vs: orv(*vs)),
    st.lists(atom_values, min_size=0, max_size=3, unique=True).map(
        lambda vs: cset(*vs)),
    st.lists(atom_values, min_size=0, max_size=2, unique=True).map(
        lambda vs: pset(*vs)),
    st.just(pset(bottom)),
    st.builds(lambda value: tup(inner=Atom(value)), atom_values),
)

tuples = st.dictionaries(st.sampled_from(LABELS), attr_values,
                         max_size=4).map(lambda fields: tup(**fields))


@st.composite
def datasets(draw, prefix="m"):
    objects = draw(st.lists(tuples, min_size=0, max_size=8))
    return DataSet(
        Data(Marker(f"{prefix}{i}"), obj) for i, obj in enumerate(objects)
    )


@st.composite
def rich_datasets(draw):
    """Arbitrary rich-mode model objects, not just tuples: exercises
    field-less shredded rows and whole-object residue."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    size = draw(st.integers(min_value=0, max_value=6))
    generator = ObjectGenerator(seed=seed, max_depth=3, rich=True)
    return DataSet(
        Data(Marker(f"m{i}"), generator.object()) for i in range(size)
    )


paths = st.sampled_from(LABELS + ("author.inner", "missing"))

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


@CASES
@given(datasets(), conditions)
def test_columnar_run_matches_naive(dataset, condition):
    query = Query(dataset).where(condition).with_columns(
        ColumnStore.build(dataset))
    assert query.run() == query.run(naive=True)


@CASES
@given(rich_datasets(), conditions)
def test_columnar_matches_naive_on_rich_objects(dataset, condition):
    query = Query(dataset).where(condition).with_columns(
        ColumnStore.build(dataset))
    assert query.run() == query.run(naive=True)


@CASES
@given(rich_datasets(), st.one_of(st.just(Not(Exists("missing"))),
                                  conditions),
       st.sampled_from(("A", "B", "C", "A.B", "B.C")), st.booleans(),
       st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
def test_columnar_order_matches_naive_on_rich_objects(dataset, condition,
                                                      order, descending,
                                                      limit):
    """Sort keys over residue rows, field-less rows and irregular
    entries at the order path (``ObjectGenerator``'s labels)."""
    query = (Query(dataset).where(condition)
             .with_columns(ColumnStore.build(dataset))
             .order_by(order, descending=descending))
    if limit is not None:
        query = query.limit(limit)
    assert query.rows() == query.rows(naive=True)


@CASES
@given(datasets(), conditions,
       st.sampled_from(LABELS), st.booleans(),
       st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
def test_columnar_ordered_limited_rows_match_naive(dataset, condition,
                                                   order, descending,
                                                   limit):
    query = (Query(dataset).where(condition)
             .with_columns(ColumnStore.build(dataset))
             .order_by(order, descending=descending))
    if limit is not None:
        query = query.limit(limit)
    assert query.rows() == query.rows(naive=True)


def _warmed(dataset, paths):
    """A column store with the eq-index and possible-value index of
    each path's column built up front (``Database.create_index``), and
    its joined text, so substring leaves walk it from the first
    needle."""
    store = ColumnStore.build(dataset)
    for path in paths:
        column = store.column((path,))
        if column is not None:
            column.eq_index()
            column.possible_index()
            column.joined_text()
    return store


@CASES
@given(datasets(), conditions)
def test_every_strategy_returns_identical_results(dataset, condition):
    """Row scan, the columnar scan over lazily built column indexes,
    and over indexes built up front are three routes to one answer."""
    base = Query(dataset).where(condition)
    expected = base.rows(naive=True)
    assert base.rows() == expected
    assert base.with_columns(
        _warmed(dataset, LABELS)).rows() == expected
    assert base.with_columns(
        ColumnStore.build(dataset)).rows() == expected


AGGS = {
    "count(*)": Count(),
    "count(year)": Count("year"),
    "sum(year)": Sum("year"),
    "min(year)": Min("year"),
    "max(year)": Max("year"),
    "collect(title)": Collect("title"),
}


def warm(store, live, condition, group, aggs):
    """Read ``store`` (live rows ``live``) the way readers do between
    writes: run the condition and a columnar group-by, each against
    its oracle, then build every column's lazy indexes and fill its
    scan memo through every probe."""
    dataset = DataSet(live)
    query = Query(dataset).where(condition).with_columns(store)
    assert query.run() == query.run(naive=True)
    mask = store.universe_mask | store.residue_mask
    assert group_aggregate_columnar(store, mask, group, aggs) \
        == group_aggregate_rows(dataset, group, aggs)
    warm_columns(store, WORDS + YEARS + (True, 1.0), NEEDLES)


def assert_matches_fresh(store, live, condition, group, aggs):
    """``store`` answers like the oracles and like a fresh shred of
    ``live``, and every index and memo entry it carries equals a
    recompute on a fresh column over the same arrays."""
    dataset = DataSet(live)
    patched_query = Query(dataset).where(condition).with_columns(store)
    fresh_query = Query(dataset).where(condition).with_columns(
        ColumnStore.build(dataset))
    expected = patched_query.run(naive=True)
    assert patched_query.run() == expected
    assert fresh_query.run() == expected
    mask = store.universe_mask | store.residue_mask
    assert group_aggregate_columnar(store, mask, group, aggs) \
        == group_aggregate_rows(dataset, group, aggs)
    for path in store.paths:
        assert_carried_state_exact(store.column(path))


def check_patched_equals_rebuild(initial, extra, condition, group, aggs):
    """Copy-on-write patching (appends, tombstones, resurrection), each
    step from a warmed parent, ends where a fresh shred does."""
    store = ColumnStore.build(initial)
    current = set(initial)
    warm(store, current, condition, group, aggs)
    additions = [datum for datum in extra if datum not in current]
    store = store.patched([], additions)
    current.update(additions)
    warm(store, current, condition, group, aggs)
    removals = sorted(current, key=repr)[::2]
    store = store.patched(removals, [])
    current.difference_update(removals)
    if removals:
        warm(store, current, condition, group, aggs)
        store = store.patched([], removals[:1])
        current.add(removals[0])
    assert_matches_fresh(store, current, condition, group, aggs)


def check_sibling_successors(initial, first, second, condition, group,
                             aggs):
    """One warm parent patched twice with different additions, as an
    aborted commit batch leaves it: both successors put their rows at
    the same new positions, and each must answer for its own rows."""
    parent = ColumnStore.build(initial)
    warm(parent, initial, condition, group, aggs)
    live_a = set(initial) | set(first)
    sibling_a = parent.patched([], first)
    warm(sibling_a, live_a, condition, group, aggs)
    live_b = set(initial) | set(second)
    sibling_b = parent.patched([], second)
    assert_matches_fresh(sibling_b, live_b, condition, group, aggs)
    assert_matches_fresh(sibling_a, live_a, condition, group, aggs)


@settings(max_examples=100, deadline=None)
@given(datasets(), datasets(), conditions, st.sampled_from(LABELS))
def test_patched_store_equals_rebuild(initial, extra, condition, group):
    """Copy-on-write patching (tombstones, resurrection, appends)
    answers exactly like a fresh shred of the final data."""
    check_patched_equals_rebuild(initial, extra, condition, group, AGGS)


@settings(max_examples=100, deadline=None)
@given(datasets(), datasets(prefix="x"), datasets(prefix="y"),
       conditions, st.sampled_from(LABELS))
def test_sibling_successors_of_a_warm_parent(initial, first, second,
                                             condition, group):
    check_sibling_successors(initial, first, second, condition, group,
                             AGGS)


# ---------------------------------------------------------------------------
# Nested documents: multi-level shredding vs the same oracles.
# ---------------------------------------------------------------------------

# Leaves of nested documents — scalars plus the irregular shapes
# (or-values, sets, ⊥) at *leaf* positions.
nested_leaf_values = st.one_of(
    atom_values.map(Atom),
    st.lists(atom_values, min_size=2, max_size=3, unique=True).map(
        lambda vs: orv(*vs)),
    st.lists(atom_values, min_size=0, max_size=2, unique=True).map(
        lambda vs: cset(*vs)),
    st.just(pset(bottom)),
)

inner_tuples = st.dictionaries(
    st.sampled_from(("first", "last")), nested_leaf_values,
    min_size=1, max_size=2).map(lambda fields: tup(**fields))

# Interior values: plain nested tuples plus the shapes that must demote
# the subtree to per-row evaluation — or-values over tuples, ⊥ beside a
# tuple, a tuple inside a set, and scalars where a tuple is expected.
interior_values = st.one_of(
    inner_tuples,
    st.tuples(inner_tuples, inner_tuples).map(lambda ts: orv(*ts)),
    inner_tuples.map(lambda t: orv(t, bottom)),
    inner_tuples.map(lambda t: cset(t)),
    nested_leaf_values,
)

author_fields = st.dictionaries(
    st.sampled_from(("name", "affil")), interior_values,
    min_size=1, max_size=2)
author_values = st.one_of(
    author_fields.map(lambda fields: tup(**fields)),
    author_fields.map(lambda fields: orv(tup(**fields), bottom)),
)


@st.composite
def nested_rows(draw):
    fields = {}
    if draw(st.booleans()):
        fields["author"] = draw(author_values)
    if draw(st.booleans()):
        fields["year"] = Atom(draw(st.sampled_from(YEARS)))
    if draw(st.booleans()):
        fields["title"] = draw(nested_leaf_values)
    return tup(**fields)


@st.composite
def nested_datasets(draw, prefix="n"):
    objects = draw(st.lists(nested_rows(), min_size=0, max_size=8))
    return DataSet(
        Data(Marker(f"{prefix}{i}"), obj)
        for i, obj in enumerate(objects)
    )


nested_paths = st.sampled_from((
    "author", "author.name", "author.affil",
    "author.name.first", "author.name.last", "author.affil.last",
    "author.name.first.deeper", "author.missing.x", "year", "title",
))

nested_leaf_conditions = st.one_of(
    st.builds(Eq, nested_paths, atom_values),
    st.builds(Ne, nested_paths, atom_values),
    st.builds(Exists, nested_paths),
    st.builds(Contains, nested_paths, st.sampled_from(NEEDLES)),
    st.builds(Lt, nested_paths, st.sampled_from(YEARS)),
    st.builds(Ge, nested_paths, st.sampled_from(YEARS)),
)

nested_conditions = st.recursive(nested_leaf_conditions, _combine,
                                 max_leaves=6)


@CASES
@given(nested_datasets(), nested_conditions)
def test_nested_columnar_run_matches_naive(dataset, condition):
    query = Query(dataset).where(condition).with_columns(
        ColumnStore.build(dataset))
    assert query.run() == query.run(naive=True)


@CASES
@given(nested_datasets(), nested_conditions,
       st.integers(min_value=1, max_value=4))
def test_nested_matches_naive_at_every_shred_depth(dataset, condition,
                                                   depth):
    """Shallow shred-depth caps force opaque demotion at interior
    levels; the answers must not move."""
    query = Query(dataset).where(condition).with_columns(
        ColumnStore.build(dataset, shred_depth=depth))
    assert query.run() == query.run(naive=True)


@CASES
@given(nested_datasets(), nested_conditions)
def test_nested_every_strategy_returns_identical_results(dataset,
                                                         condition):
    base = Query(dataset).where(condition)
    expected = base.rows(naive=True)
    assert base.rows() == expected
    assert base.with_columns(_warmed(
        dataset, ("author", "year", "title"))).rows() == expected
    assert base.with_columns(
        ColumnStore.build(dataset)).rows() == expected


NESTED_AGGS = {
    "count(*)": Count(),
    "count(year)": Count("year"),
    "sum(year)": Sum("year"),
    "collect(title)": Collect("title"),
    "collect(author.name.last)": Collect("author.name.last"),
}

nested_groups = st.sampled_from(("author.name.last", "author.name",
                                 "year", "title"))


@settings(max_examples=100, deadline=None)
@given(nested_datasets(), nested_datasets(prefix="x"), nested_conditions,
       nested_groups)
def test_nested_patched_store_equals_rebuild(initial, extra, condition,
                                             group):
    """Copy-on-write patching over nested rows (tombstones,
    resurrection, appends introducing new path columns) answers exactly
    like a fresh shred of the final data."""
    check_patched_equals_rebuild(initial, extra, condition, group,
                                 NESTED_AGGS)


@settings(max_examples=100, deadline=None)
@given(nested_datasets(), nested_datasets(prefix="x"),
       nested_datasets(prefix="y"), nested_conditions, nested_groups)
def test_nested_sibling_successors_of_a_warm_parent(initial, first,
                                                    second, condition,
                                                    group):
    check_sibling_successors(initial, first, second, condition, group,
                             NESTED_AGGS)
