"""The planned query path: plans, equality with the naive scan,
column-index freshness across database mutations."""

import pytest

from repro.core.builder import cset, data, dataset, orv, pset, tup
from repro.core.errors import QueryError
from repro.core.objects import Atom
from repro.query import (
    And,
    Contains,
    Eq,
    Exists,
    Ge,
    Not,
    Or,
    Query,
    explain_plan,
)
from repro.store import ColumnStore, Database


def library():
    return dataset(
        ("B80", tup(type="Article", title="Oracle", author="Bob",
                    year=1980)),
        ("S78", tup(type="Article", title="Ingres",
                    authors=cset("Sam", "Pat"), jnl="TODS")),
        ("A78", tup(type="Article", title="Datalog",
                    author=orv("Ann", "Tom"), year=1978)),
        ("T79", tup(type="InProc", title="RDB", author="Tom",
                    conf="PODS", year=1979)),
        ("P00", tup(type="InProc", title="Partial",
                    authors=pset("Joe"), year=2000)),
    )


def indexed_query(condition=None):
    ds = library()
    query = Query(ds, columns=ColumnStore.build(ds))
    return query.where(condition) if condition is not None else query


QUERIES = [
    Eq("type", "Article"),
    Eq("author", "Tom"),
    Eq("type", "Article") & Ge("year", 1979),
    Eq("type", "Article") & Eq("author", "Tom"),
    Exists("year") & Eq("type", "InProc"),
    Contains("title", "a") & Eq("type", "Article"),
    Or(Eq("type", "Article"), Eq("author", "Joe")),
    Not(Eq("type", "Article")),
    Not(Or(Eq("type", "Article"), Exists("conf"))),
    Not(And(Not(Eq("type", "InProc")), Not(Exists("jnl")))),
    Eq("type", "Zine"),
    Eq("authors", "Sam") & Exists("jnl"),
]


class TestPlanVsScanOracle:
    @pytest.mark.parametrize("condition", QUERIES,
                             ids=[repr(c) for c in QUERIES])
    def test_run_equals_naive(self, condition):
        query = indexed_query(condition)
        assert query.run() == query.run(naive=True)

    @pytest.mark.parametrize("condition", QUERIES,
                             ids=[repr(c) for c in QUERIES])
    def test_rows_equal_naive_including_order(self, condition):
        for order, descending in ((None, False), ("year", False),
                                  ("year", True), ("title", False)):
            query = indexed_query(condition)
            if order is not None:
                query = query.order_by(order, descending=descending)
            assert query.rows() == query.rows(naive=True)

    def test_rows_with_limit_match_naive_tie_for_tie(self):
        for limit in (0, 1, 2, 3, 10):
            for descending in (False, True):
                query = (indexed_query(Eq("type", "Article"))
                         .order_by("year", descending=descending)
                         .limit(limit))
                assert query.rows() == query.rows(naive=True)

    def test_group_by_and_values_and_count_match(self):
        planned = indexed_query(Eq("type", "Article"))
        assert planned.count() == planned.count(naive=True)
        assert planned.values("year") == planned.values("year",
                                                        naive=True)
        assert planned.group_by("author") == planned.group_by(
            "author", naive=True)

    def test_unindexed_query_still_agrees(self):
        ds = library()
        query = Query(ds).where(Eq("author", "Tom") & Exists("year"))
        assert query.run() == query.run(naive=True)


class TestExplain:
    def test_indexed_equality_probes(self):
        # The equality leaf reads its bitset from the type column's
        # eq-index; the whole condition runs as one bitset program.
        plan = indexed_query(Eq("type", "Article")
                             & Ge("year", 1979)).explain()
        assert plan.strategy == "columnar"
        assert plan.residual is not None and "Ge" in plan.residual
        assert plan.shredded_rows == 5 and plan.residue_rows == 0

    def test_fully_indexed_conjunction_has_no_residual(self):
        # The or-valued author of A78 answers from the possible-value
        # index, so no row is left for the per-row residual check: the
        # estimate is the exact count.
        query = indexed_query(Eq("type", "Article") & Eq("author", "Tom"))
        plan = query.explain(analyze=True)
        assert plan.strategy == "columnar"
        assert plan.estimated_rows == plan.actual_rows == 1

    def test_or_at_top_falls_back_to_scan(self):
        # The fallback is the bitset scan: Or compiles like And.
        plan = indexed_query(Or(Eq("type", "Article"),
                                Eq("author", "Joe"))).explain()
        assert plan.strategy == "columnar"

    def test_no_index_falls_back_to_scan(self):
        plan = Query(library()).where(Eq("type", "Article")).explain()
        assert plan.strategy == "row-scan"

    def test_selectivity_reported(self):
        plan = indexed_query(Eq("type", "InProc")).explain()
        assert plan.estimated_rows == 2

    def test_order_limit_pushdown_flagged(self):
        plan = (indexed_query(Eq("type", "Article"))
                .order_by("year").limit(2).explain())
        assert plan.order_pushdown
        assert "columnar" in plan.describe()

    def test_negation_of_and_exposes_indexable_disjuncts_as_scan(self):
        # NNF turns Not(And(...)) into Or(...) of negated leaves, which
        # the bitset evaluator answers like any other condition.
        plan = indexed_query(Not(And(Eq("type", "Article"),
                                     Eq("author", "Tom")))).explain()
        assert plan.strategy == "columnar"


class TestDatabaseIntegration:
    def make_db(self):
        return Database(library(), index_paths=["type", "author"])

    def test_database_query_uses_the_index(self):
        db = self.make_db()
        plan = db.explain('select * where type = "Article"')
        assert plan.strategy == "columnar"

    def test_query_results_match_naive(self):
        db = self.make_db()
        text = 'select * where type = "Article" and year >= 1979'
        assert db.query(text) == db.query(text, naive=True)

    def test_parsed_query_cache_reuses_specs(self):
        db = self.make_db()
        text = 'select * where type = "InProc"'
        db.query(text)
        spec = db._parsed(text)
        assert db._parsed(text) is spec

    def test_index_stays_fresh_after_insert(self):
        db = self.make_db()
        text = 'select * where author = "New"'
        assert len(db.query(text)) == 0
        db.insert(data("N01", tup(type="Article", author="New")))
        assert len(db.query(text)) == 1
        assert db.query(text) == db.query(text, naive=True)

    def test_index_stays_fresh_after_remove(self):
        db = self.make_db()
        text = 'select * where author = "Bob"'
        target = next(iter(db.query(text)))
        db.remove(target)
        assert len(db.query(text)) == 0
        assert db.query(text) == db.query(text, naive=True)

    def test_index_stays_fresh_after_update(self):
        db = self.make_db()
        changed = db.set_attribute("B80", "author", Atom("Robert"))
        assert changed == 1
        assert len(db.query('select * where author = "Bob"')) == 0
        matches = db.query('select * where author = "Robert"')
        assert len(matches) == 1
        assert matches == db.query('select * where author = "Robert"',
                                   naive=True)

    def test_index_stays_fresh_after_merge_in(self):
        db = self.make_db()
        incoming = dataset(
            ("B80x", tup(type="Article", title="Oracle",
                         author="Bobby", year=1980)),
            ("Z99", tup(type="Zine", title="New", author="Zoe")),
        )
        db.merge_in(incoming, key=("type", "title"))
        for text in ('select * where author = "Zoe"',
                     'select * where author = "Bobby"',
                     'select * where type = "Article"'):
            assert db.query(text) == db.query(text, naive=True)

    def test_create_index_backfills(self):
        db = Database(library())
        db.create_index("title")
        # The head's title column holds its indexes before any query.
        column = db._state.columns().column(("title",))
        assert column._eq_index is not None
        assert column._irr_index is not None
        text = 'select * where title = "RDB"'
        assert db.explain(text).strategy == "columnar"
        assert db.query(text) == db.query(text, naive=True)
        assert len(db.query(text)) == 1

    def test_snapshot_cache_invalidated_by_mutation(self):
        db = self.make_db()
        first = db.snapshot()
        assert db.snapshot() is first
        db.insert(data("X", tup(type="Article", author="Ada")))
        assert db.snapshot() is not first
        assert len(db.snapshot()) == len(first) + 1


class TestErrorSemantics:
    def test_bad_bound_raises_through_the_planner(self):
        with pytest.raises(QueryError):
            indexed_query(Eq("type", "Article")
                          & Ge("year", True)).run()

    def test_superset_index_is_harmless(self):
        # A column store over more data than the queried set is
        # rejected for the row scan, never leaked into results.
        ds = library()
        extra = data("GHOST", tup(type="Article", title="Ghost"))
        store = ColumnStore.build(list(ds) + [extra])
        query = Query(ds, columns=store).where(Eq("type", "Article"))
        assert query.explain().strategy == "row-scan"
        assert extra not in query.run()
        assert query.run() == query.run(naive=True)
