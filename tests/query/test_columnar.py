"""Columnar evaluator and planner-strategy tests.

The planner picks between two physical strategies — columnar bitset
scan and compiled row scan — and the choice must be invisible in the
results. These tests pin the strategy
selection rules, the tri-state evaluator's edges (or-value maybes, ⊥,
negation scoped to the shredded universe, strict atom typing), the
``explain()`` row counts, the database/executor integration and the
CLI ``--explain`` surface.
"""

import io

import pytest

from repro.core.builder import atom, cset, orv, tup
from repro.core.data import Data, DataSet
from repro.core.errors import QueryError
from repro.core.objects import Marker
from repro.query import (
    And,
    Condition,
    Contains,
    Eq,
    Exists,
    Ge,
    Lt,
    Ne,
    Not,
    Or,
    Query,
    compile_columnar,
)
from repro.store import ColumnStore
from repro.store.database import Database


def datum(name, obj):
    return Data(Marker(name), obj)


def flat(name, **fields):
    return datum(name, tup(**fields))


def library():
    return DataSet([
        flat("a1", type="Article", year=1999, title="foo bar"),
        flat("a2", type="Article", year=2005, title="baz"),
        flat("b1", type="Book", title="no year"),
        datum("or1", tup(type=atom("Article"), year=orv(1990, 2010),
                         title=atom("maybe"))),
        datum("set1", tup(type=atom("Article"),
                          author=cset("ann", "bob"), year=atom(2001))),
        datum("res1", tup(type=atom("Article"),
                          venue=tup(name="EDBT", year=2000))),
        datum("top1", atom("loose")),
    ])


def columnar_query(condition):
    data = library()
    return Query(data).where(condition).with_columns(
        ColumnStore.build(data))


class WeirdCondition(Condition):
    """A user-defined condition: opaque to every compiler."""

    def matches(self, obj):
        return True


class TestStrategySelection:
    def test_columnar_chosen_without_index(self):
        plan = columnar_query(Eq("type", "Article")).explain()
        assert plan.strategy == "columnar"
        assert "shredded" in plan.reason

    def test_built_column_index_keeps_columnar(self):
        # A column whose eq-index is built up front (what
        # Database.create_index does) plans and answers the same.
        data = library()
        store = ColumnStore.build(data)
        store.column(("type",)).eq_index()
        query = (Query(data).where(Eq("type", "Article"))
                 .with_columns(store))
        assert query.explain().strategy == "columnar"
        assert query.run() == query.run(naive=True)

    def test_row_scan_without_columns(self):
        data = library()
        plan = Query(data).where(Eq("type", "Article")).explain()
        assert plan.strategy == "row-scan"

    def test_user_condition_bails_to_row_scan(self):
        plan = columnar_query(WeirdCondition()).explain()
        assert plan.strategy == "row-scan"

    def test_user_condition_under_connectives_bails(self):
        plan = columnar_query(
            And(Eq("type", "Article"), WeirdCondition())).explain()
        assert plan.strategy == "row-scan"

    def test_compile_columnar_bails_are_memoized(self):
        condition = WeirdCondition()
        assert compile_columnar(condition) is None
        assert compile_columnar(condition) is None  # memoized None
        positive = Eq("type", "Article")
        assert compile_columnar(positive) is not None
        assert (compile_columnar(positive)
                is compile_columnar(positive))

    def test_stale_store_is_ignored(self):
        data = library()
        store = ColumnStore.build(data)
        smaller = DataSet(list(data)[:3])
        query = (Query(smaller).where(Eq("type", "Article"))
                 .with_columns(store))
        assert query.explain().strategy == "row-scan"
        assert query.run() == query.run(naive=True)

    def test_all_strategies_agree(self):
        data = library()
        condition = Eq("type", "Article") & Ge("year", 1995)
        plain = Query(data).where(condition)
        warm = ColumnStore.build(data)
        warm.column(("type",)).eq_index()
        indexed = plain.with_columns(warm)
        columnar = plain.with_columns(ColumnStore.build(data))
        expected = plain.run(naive=True)
        assert plain.run() == expected
        assert indexed.run() == expected
        assert columnar.run() == expected
        assert columnar.rows() == plain.rows()


class TestTriStateEvaluation:
    CONDITIONS = [
        Eq("type", "Article"),
        Ne("type", "Article"),
        Not(Eq("type", "Article")),
        Ge("year", 2000),
        Lt("year", 2000),
        Not(Ge("year", 2000)),
        Exists("year"),
        Not(Exists("year")),
        Contains("title", "ba"),
        Eq("author", "ann"),
        Or(Eq("type", "Book"), Ge("year", 2004)),
        And(Eq("type", "Article"), Not(Exists("author"))),
        Or(Not(Exists("year")), And(Ge("year", 1995),
                                    Lt("year", 2002))),
        Eq("year", 1990),   # or-value disjunct: maybe row
        Ne("year", 1990),
        Exists("venue.name"),            # multi-step: nested path column
        Eq("venue.year", 2000),
        Not(Exists("missing")),          # matches everything
    ]

    @pytest.mark.parametrize("condition", CONDITIONS,
                             ids=[repr(c) for c in CONDITIONS])
    def test_matches_naive(self, condition):
        query = columnar_query(condition)
        assert query.explain().strategy == "columnar"
        assert query.run() == query.run(naive=True)
        assert query.rows() == query.rows(naive=True)

    def test_strict_boolean_typing(self):
        data = DataSet([flat("i", v=1), flat("b", v=True),
                        flat("s", v="1")])
        store = ColumnStore.build(data)
        for value in (1, True, "1"):
            query = Query(data).where(Eq("v", value)).with_columns(store)
            assert len(query.run()) == 1
            assert query.run() == query.run(naive=True)

    def test_ordered_comparison_skips_bools_and_strings(self):
        data = DataSet([flat("i", v=5), flat("b", v=True),
                        flat("s", v="5")])
        store = ColumnStore.build(data)
        query = Query(data).where(Ge("v", 1)).with_columns(store)
        assert len(query.run()) == 1
        assert query.run() == query.run(naive=True)

    def test_invalid_operand_still_raises(self):
        query = columnar_query(Ge("year", True))
        with pytest.raises(QueryError):
            query.run()

    def test_order_and_limit_apply(self):
        data = library()
        store = ColumnStore.build(data)
        query = (Query(data).where(Eq("type", "Article"))
                 .with_columns(store).order_by("year", descending=True)
                 .limit(2))
        assert query.rows() == query.rows(naive=True)


class TestExplainRows:
    def test_estimated_and_actual_rows(self):
        query = columnar_query(Eq("type", "Book"))
        plan = query.explain(analyze=True)
        assert plan.strategy == "columnar"
        assert plan.actual_rows == len(query.rows())
        # The estimate is an upper bound: definite matches plus every
        # maybe/residue row a per-row check could still admit.
        assert plan.estimated_rows >= plan.actual_rows
        assert f"estimated rows: ~{plan.estimated_rows}" in \
            plan.describe()
        assert f"actual rows: {plan.actual_rows}" in plan.describe()

    def test_row_scan_estimates_full_size(self):
        data = library()
        plan = Query(data).where(WeirdCondition()).explain()
        assert plan.estimated_rows == len(data)

    def test_columnar_plan_reports_shred_coverage(self):
        """Columnar plans expose the shredded/residue split so residue
        regressions are visible straight from ``explain()``."""
        data = library()
        store = ColumnStore.build(data)
        plan = columnar_query(Eq("venue.year", 2000)).explain(
            analyze=True)
        assert plan.strategy == "columnar"
        assert plan.shredded_rows == store.shredded_count
        assert plan.residue_rows == store.residue_count
        assert plan.shredded_rows + plan.residue_rows == len(data)
        text = plan.describe()
        assert f"shredded rows: {plan.shredded_rows}" in text
        assert f"residue rows: {plan.residue_rows}" in text

    def test_row_scan_plan_has_no_shred_counts(self):
        plan = Query(library()).where(WeirdCondition()).explain()
        assert plan.shredded_rows is None
        assert plan.residue_rows is None
        assert "shredded rows:" not in plan.describe()

    def test_index_estimates_probe_selectivity(self):
        query = columnar_query(Eq("type", "Book"))
        plan = query.explain(analyze=True)
        assert plan.strategy == "columnar"
        # One definite match plus the residue row a per-row check
        # could still admit.
        assert plan.estimated_rows == 1 + plan.residue_rows
        assert plan.actual_rows == 1


class TestDatabaseIntegration:
    def test_database_query_uses_columns(self):
        db = Database(list(library()), result_cache_size=0)
        text = 'select * where year >= 1995'
        assert db.explain(text).strategy == "columnar"
        assert db.query(text) == db.query(text, naive=True)

    def test_explain_analyze_through_views(self):
        db = Database(list(library()))
        view = db.view()
        plan = view.explain('select * where year >= 1995',
                            analyze=True)
        assert plan.actual_rows is not None

    def test_columns_survive_writes(self):
        db = Database(list(library()), result_cache_size=0)
        text = 'select * where type = "Article"'
        db.query(text)  # builds the shredding lazily
        db.insert(flat("n1", type="Article", year=2020))
        db.remove(next(iter(db.query('select * where type = "Book"'))))
        assert db.query(text) == db.query(text, naive=True)
        assert db.explain(text).strategy == "columnar"

    def test_naive_path_never_touches_columns(self):
        db = Database(list(library()), result_cache_size=0)
        db.query('select * where year >= 1995', naive=True)
        assert db._state._columns is None  # oracle stayed definitional


class TestCliExplain:
    def test_query_explain_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.json_codec.codec import dumps_dataset

        source = tmp_path / "lib.json"
        source.write_text(dumps_dataset(library()))
        status = main(["query", str(source),
                       'select * where year >= 1995', "--explain"])
        assert status == 0
        output = capsys.readouterr().out
        assert "columnar:" in output
        assert "shredded rows:" in output
        assert "residue rows:" in output
        assert "estimated rows:" in output
        assert "actual rows:" in output

    def test_query_explain_nested_path(self, tmp_path, capsys):
        """A multi-step path condition still plans columnar and reports
        the shred coverage of the store."""
        from repro.cli import main
        from repro.json_codec.codec import dumps_dataset

        data = library()
        store = ColumnStore.build(data)
        source = tmp_path / "lib.json"
        source.write_text(dumps_dataset(data))
        status = main(["query", str(source),
                       'select * where venue.year = 2000', "--explain"])
        assert status == 0
        output = capsys.readouterr().out
        assert "columnar:" in output
        assert f"shredded rows: {store.shredded_count}" in output
        assert f"residue rows: {store.residue_count}" in output
