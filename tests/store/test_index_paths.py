"""What ``index_paths`` and ``create_index`` mean: build a path's column
eq-index and possible-value index up front, on the chain head's column
store, and let the copy-on-write carry keep them across writes.

There is one inverted index — the columns' — so plans name the
strategy their execution runs, and a write on an indexed store costs
the delta, not a copy of per-path postings.
"""

import tracemalloc

from repro.core.builder import data, orv, tup
from repro.store import Database
from repro.store.columnar import bit_positions

TYPES = ("Article", "InProc", "Book")


def rows(count):
    return [data(f"m{i}", tup(type=TYPES[i % 3], title=f"T{i}",
                              year=1980 + i % 40,
                              author=(f"A{i % 50}" if i % 7
                                      else orv(f"A{i % 50}", "Anon"))))
            for i in range(count)]


def index_contents(store, column):
    """A column's eq-index and possible-value buckets as ``key -> live
    data``: comparable across stores whose positions differ."""
    alive = store.universe_mask

    def resolve(index):
        return {key: frozenset(store.rows.gather(bit_positions(bits & alive)))
                for key, bits in index.items() if bits & alive}

    return resolve(column._eq_index), resolve(column._irr_index[0])


class TestWarmAndCarried:
    def test_indexes_built_before_any_query(self):
        db = Database(rows(60), index_paths=("title",))
        store = db._head._columns
        assert store is not None
        column = store.column(("title",))
        assert column._eq_index is not None
        assert column._irr_index is not None

    def test_point_lookup_builds_nothing_more(self):
        db = Database(rows(60), index_paths=("title",))
        store = db._state._columns
        column = store.column(("title",))
        eq_index, irr_index = column._eq_index, column._irr_index
        text = 'select * where title = "T7"'
        assert len(db.query(text)) == 1
        assert db._state._columns is store
        assert store.column(("title",)) is column
        assert column._eq_index is eq_index
        assert column._irr_index is irr_index

    def test_insert_carries_the_built_indexes(self):
        db = Database(rows(60), index_paths=("title",))
        parent = db._state._columns.column(("title",))
        db.insert(data("new", tup(type="Book", title="T-new", year=2020)))
        store = db._state._columns
        assert store is not None
        column = store.column(("title",))
        assert column is not parent
        # Carried by the write itself: no query has run since.
        assert column._eq_index is not None
        assert column._irr_index is not None
        fresh = Database(db.snapshot())
        fresh.create_index("title")
        fresh_store = fresh._state._columns
        assert index_contents(store, column) == index_contents(
            fresh_store, fresh_store.column(("title",)))
        text = 'select * where title = "T-new"'
        assert db.query(text) == db.query(text, naive=True)
        assert len(db.query(text)) == 1

    def test_create_index_on_unreached_path_is_harmless(self):
        db = Database(rows(10))
        db.create_index("publisher.name")
        text = 'select * where publisher.name = "ACM"'
        assert db.query(text) == db.query(text, naive=True) == \
            db.query(text)


def _insert_peak(count):
    db = Database(rows(count), index_paths=("type", "year"),
                  result_cache_size=0)
    # One write first, so the measured one runs on a store that has
    # already been patched once.
    db.insert(data("warm", tup(type="Article", title="W", year=1990)))
    extra = data("x", tup(type="Article", title="X", year=1991))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        db.insert(extra)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_insert_peak_memory_grows_sublinearly():
    """A one-datum insert on an indexed store costs the delta: its
    allocation peak grows far less than the store (10× the rows here)."""
    small = _insert_peak(2_000)
    large = _insert_peak(20_000)
    assert large < 4 * small, (small, large)


class TestPlansNameTheirExecution:
    def make_db(self):
        return Database(rows(90), index_paths=["type"])

    def test_join_sides_plan_columnar(self):
        db = self.make_db()
        left = 'select * where type = "Article"'
        right = 'select * where type = "InProc"'
        plan = db.explain_join(left, right, "author", analyze=True)
        assert plan.left.strategy == "columnar"
        assert plan.right.strategy == "columnar"
        assert plan.build_vectorized
        assert plan.actual_pairs == len(db.join_query(left, right,
                                                      "author"))

    def test_group_by_plans_columnar(self):
        db = self.make_db()
        text = 'select count(*) where type = "Book" group by year'
        plan = db.explain(text, analyze=True)
        assert plan.strategy == "columnar"
        assert plan.source.strategy == "columnar"
        assert plan.actual_groups == len(db.query(text))
        assert db.query(text) == db.query(text, naive=True)
