"""Result-cache behaviour for aggregate and join queries.

The regression of record (issue satellite): a join entry's footprint
must span *both* inputs, so a write that matches only the probe side's
condition still invalidates the cached pairs — while writes reaching
neither side re-tag the entry and keep it hot.
"""

from repro.core.builder import data, tup
from repro.query import Bounds
from repro.store import Database


def seed_rows():
    return [
        data("L1", tup(kind="paper", title="A", year=1990)),
        data("L2", tup(kind="paper", title="B", year=1995)),
        data("R1", tup(kind="review", title="A", score=4)),
        data("R2", tup(kind="review", title="B", score=5)),
    ]


LEFT = 'select * where exists year'
RIGHT = 'select * where exists score'


class TestAggregateCache:
    def test_aggregate_results_cache_per_generation(self):
        db = Database(seed_rows())
        first = db.query("select count(*), min(year) where exists year")
        second = db.query("select count(*), min(year) where exists year")
        assert first == {"count(*)": 2, "min(year)": 1990}
        assert second is first  # identity: served from the cache

    def test_write_on_aggregate_path_invalidates(self):
        db = Database(seed_rows())
        first = db.query("select count(*) where exists year")
        db.insert(data("L3", tup(kind="paper", title="C", year=2000)))
        second = db.query("select count(*) where exists year")
        assert second == {"count(*)": 3}
        assert second is not first

    def test_unrelated_write_keeps_aggregate_entry(self):
        db = Database(seed_rows())
        first = db.query("select count(*) where exists year")
        db.insert(data("X1", tup(kind="misc", note="n")))
        second = db.query("select count(*) where exists year")
        assert second is first  # re-tagged, not recomputed

    def test_grouped_aggregate_via_database(self):
        db = Database(seed_rows())
        result = db.query("select count(*) group by kind")
        assert {str(k): v for k, v in result.items()} == {
            '"paper"': {"count(*)": 2},
            '"review"': {"count(*)": 2},
        }


class TestJoinCache:
    def test_join_results_cache_per_generation(self):
        db = Database(seed_rows())
        first = db.join_query(LEFT, RIGHT, "title")
        second = db.join_query(LEFT, RIGHT, "title")
        assert [(str(r.left.marker), str(r.right.marker))
                for r in first] == [("L1", "R1"), ("L2", "R2")]
        assert second is first

    def test_probe_side_only_write_invalidates(self):
        # The build side (the smaller selection) never sees this
        # write; the probe side gains a matching row. A footprint
        # limited to one side would serve the stale two-pair result.
        db = Database(seed_rows())
        first = db.join_query(LEFT, RIGHT, "title")
        assert len(first) == 2
        db.insert(data("R3", tup(kind="review", title="A", score=1)))
        second = db.join_query(LEFT, RIGHT, "title")
        assert second is not first
        assert len(second) == 3

    def test_build_side_only_write_invalidates(self):
        db = Database(seed_rows())
        first = db.join_query(LEFT, RIGHT, "title")
        db.insert(data("L3", tup(kind="paper", title="A", year=1999)))
        second = db.join_query(LEFT, RIGHT, "title")
        assert second is not first
        assert len(second) == 3

    def test_unrelated_write_keeps_join_entry(self):
        db = Database(seed_rows())
        first = db.join_query(LEFT, RIGHT, "title")
        db.insert(data("X1", tup(kind="misc", note="n")))
        second = db.join_query(LEFT, RIGHT, "title")
        assert second is first  # re-tagged across the unrelated write

    def test_naive_join_is_uncached_oracle(self):
        db = Database(seed_rows())
        cached = db.join_query(LEFT, RIGHT, "title")
        naive = db.join_query(LEFT, RIGHT, "title", naive=True)
        assert naive == cached and naive is not cached

    def test_explain_join_reports_sides(self):
        db = Database(seed_rows())
        text = db.explain_join(LEFT, RIGHT, "title",
                               analyze=True).describe()
        assert text.startswith("join[hash] on title")
        assert "actual pairs: 2" in text
